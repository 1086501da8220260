/// \file main.cc
/// \brief good_perfbench: drives good_server's full request path with a
/// seeded workload and prints its end-to-end (or, traced, per-layer)
/// metrics as one JSON line.
///
///   good_perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
///                  [--data <dir>] [--revision <text>] [--digest-only]
///
/// Clients speak the line protocol through server::Client over a unix
/// socket to an in-process server::SocketServer. Every answer is
/// checked against an in-memory oracle; see README.md in this
/// directory for the workloads, the metrics and what each should move.

#include <malloc.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/isomorphism.h"
#include "hypermedia/methods.h"
#include "method/method.h"
#include "pattern/matcher.h"
#include "program/op_serialize.h"
#include "server/client.h"
#include "server/session.h"
#include "server/socket.h"
#include "storage/database.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using good::Result;
using good::Status;
using good::program::Database;
using good::server::Client;
using good::server::Server;

/// Traced runs probe an instance copy every kCopyProbeEvery
/// transactions and a no-op round trip every kRttProbeEvery operations.
constexpr size_t kCopyProbeEvery = 8;
constexpr size_t kRttProbeEvery = 10;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "good_perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

void Check(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

template <typename T>
T Take(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(*r);
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Set-up and reopen are each repeated at least this many times, and
/// then until their span of seconds has passed (at most kMaxReps
/// times). Set-up reports the median. Every reopen replays the same
/// store, so they differ only by host interference, which shifts their
/// speed by up to 1.5x for seconds at a time and in some runs covers
/// most of the span; the fastest reopen of fifteen seconds of them is
/// what repeats from run to run, so it is reported.
constexpr size_t kSetupReps = 5;
constexpr double kSetupSpanS = 2.0;
constexpr size_t kReopens = 7;
constexpr double kReopenSpanS = 15.0;
constexpr size_t kMaxReps = 1000;

bool Repeat(size_t done, size_t min, double span_s, Clock::time_point since) {
  return done < min ||
         (done < kMaxReps && Seconds(since, Clock::now()) < span_s);
}

/// Linear-interpolation quantile of `v` (0 when empty).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(double sum, double n) { return n > 0 ? sum / n : 0; }

/// Peak resident set of this process, in MB (VmHWM).
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string FsType(const std::string& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%" PRIx64,
                    static_cast<uint64_t>(st.f_type));
      return buf;
    }
  }
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  size_t seconds = 10;
  bool trace = false;
  std::string data = ".bench_build/data";
  std::string revision = "unknown";
  bool digest_only = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--digest-only") {
      a.digest_only = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + k);
    std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stoul(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--data") a.data = v;
    else if (k == "--revision") a.revision = v;
    else Die("unknown argument " + k);
  }
  if (a.workload.empty()) Die("--workload is required");
  if (a.seconds == 0) Die("--seconds must be positive");
  return a;
}

/// A timed latency and when it ended.
struct Sample {
  Clock::time_point at;
  double ms;
};

/// The timed phase is cut into kWindows equal windows of wall time.
/// Throughput, and each latency percentile with at least
/// kMinWindowSamples samples per window on average, is taken per window
/// (over the operations that ended in it) and the median across windows
/// is reported, so that a burst of host interference confined to a few
/// windows does not move the result. Sparser latencies are taken
/// over the whole phase: a p90 of a handful of samples is their maximum.
constexpr size_t kWindows = 9;
constexpr size_t kMinWindowSamples = 20;

std::vector<std::vector<double>> ByWindow(const std::vector<Sample>& samples,
                                          Clock::time_point start,
                                          double wall_s) {
  std::vector<std::vector<double>> windows(kWindows);
  for (const Sample& s : samples) {
    const double f = Seconds(start, s.at) / wall_s;
    const size_t w = std::min(kWindows - 1, static_cast<size_t>(
                                                std::max(0.0, f) * kWindows));
    windows[w].push_back(s.ms);
  }
  return windows;
}

/// Median over windows of the per-window `q` quantile (see kWindows).
double WindowedQuantile(const std::vector<Sample>& samples,
                        Clock::time_point start, double wall_s, double q) {
  if (samples.size() < kWindows * kMinWindowSamples) {
    std::vector<double> all;
    for (const Sample& s : samples) all.push_back(s.ms);
    return Quantile(all, q);
  }
  std::vector<double> per_window;
  for (const auto& w : ByWindow(samples, start, wall_s)) {
    if (!w.empty()) per_window.push_back(Quantile(w, q));
  }
  return Quantile(per_window, 0.5);
}

/// Median over windows of the operations completed per second.
double WindowedRate(const std::vector<Sample>& a, const std::vector<Sample>& b,
                    Clock::time_point start, double wall_s) {
  std::vector<double> counts(kWindows, 0);
  for (const auto* samples : {&a, &b}) {
    const auto windows = ByWindow(*samples, start, wall_s);
    for (size_t w = 0; w < kWindows; ++w) counts[w] += windows[w].size();
  }
  for (double& c : counts) c /= wall_s / kWindows;
  return Quantile(counts, 0.5);
}

// ---------------------------------------------------------------------------
// A live server: store, server, socket listener and connected clients.
// ---------------------------------------------------------------------------

struct Live {
  std::unique_ptr<Server> server;
  std::unique_ptr<good::server::SocketServer> socket;
  std::vector<std::unique_ptr<CountingTransport>> transports;
  std::vector<std::unique_ptr<Client>> clients;

  void Shutdown() {
    for (auto& c : clients) (void)c->Quit();
    for (auto& t : transports) (void)t->Close();
    clients.clear();
    transports.clear();
    if (socket) socket->Stop();
    socket.reset();
    if (server) Check(server->Close(), "server close");
    server.reset();
  }
};

/// Opens the store in `dir` (creating it from `initial` when empty),
/// serves it on a unix socket and connects `clients` clients, each of
/// which has its first `hello` answered.
Live Open(const std::string& dir, Database initial,
          const good::storage::Options& db_options,
          const good::server::ServerOptions& server_options, size_t clients) {
  Live live;
  auto db = Take(good::storage::Database::Open(dir, std::move(initial),
                                               db_options),
                 "open store");
  live.server = Take(Server::Open(std::move(db), server_options), "server");
  good::server::SocketServer::Options so;
  so.unix_path = dir + "/s.sock";
  live.socket = Take(
      good::server::SocketServer::Listen(live.server.get(), so), "listen");
  for (size_t c = 0; c < clients; ++c) {
    auto t = Take(good::server::SocketTransport::ConnectUnix(so.unix_path),
                  "connect");
    live.transports.push_back(std::make_unique<CountingTransport>(std::move(t)));
    good::server::ClientOptions co;
    co.max_commit_retries = 0;  // a conflict is a failure, not a retry
    co.retry_jitter_seed = 1;
    live.clients.push_back(
        std::make_unique<Client>(live.transports.back().get(), co));
    Check(live.clients.back()->Hello(), "hello");
  }
  return live;
}

// ---------------------------------------------------------------------------
// One pass over the seeded streams.
// ---------------------------------------------------------------------------

/// Everything one client observed.
struct ClientLog {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  /// Timed latencies, each with its completion time.
  std::vector<Sample> txn_ms, commit_ms, read_ms;
  /// Acked transactions: (stream index, version).
  std::vector<std::pair<size_t, uint64_t>> acks;
  /// Reads: (stream index, matching count).
  std::vector<std::pair<size_t, size_t>> answers;
  uint64_t batch_sum = 0;
  uint64_t reply_bytes = 0;
  size_t plan_hits = 0;
  size_t plan_misses = 0;

  // Traced-run probes (timed operations only).
  double txn_parse_ms = 0;
  double read_parse_ms = 0;
  size_t parses = 0;
  double exec_ms = 0;
  size_t exec_probes = 0;
  double session_read_ms = 0;
  double match_ms = 0;
  size_t read_probes = 0;
  good::pattern::MatchStats match_stats;
  double copy_ms = 0, free_ms = 0, copy_mb = 0;
  size_t copy_probes = 0;
  double rtt_us = 0;
  size_t rtt_probes = 0;
  /// Client time spent in all of the above probes.
  double probe_ms = 0;
};

class ClientRunner {
 public:
  ClientRunner(Server* server, Client* client, CountingTransport* transport,
               Tracer* tracer, size_t index, bool trace)
      : server_(server), client_(client), transport_(transport),
        tracer_(tracer), index_(index), trace_(trace) {
    if (trace_) shadow_ = server_->StartSession();
  }

  void Run(const std::vector<Request>& ops, size_t begin, size_t end,
           bool timed, ClientLog* log) {
    for (size_t i = begin; i < end; ++i) {
      const uint64_t id = (static_cast<uint64_t>(index_) << 32) | (i + 1);
      tracer_->set_current_request(id);
      if (!trace_ || !timed) {
        if (ops[i].type == Request::Type::kTxn) {
          Txn(ops[i], i, id, timed, log);
        } else {
          Read(ops[i], i, id, timed, log);
        }
        continue;
      }
      const auto p0 = Clock::now();
      if (i % kRttProbeEvery == 0) RttProbe(log);
      if (ops[i].type == Request::Type::kTxn) {
        TxnProbe(ops[i], id, log);
        log->probe_ms += Ms(p0, Clock::now());
        Txn(ops[i], i, id, timed, log);
      } else {
        log->probe_ms += Ms(p0, Clock::now());
        Read(ops[i], i, id, timed, log);
        const auto p1 = Clock::now();
        ReadProbe(ops[i], id, log);
        log->probe_ms += Ms(p1, Clock::now());
      }
    }
    tracer_->set_current_request(0);
  }

 private:
  void Fail(ClientLog* log, const std::string& what, const Status& s) {
    ++log->failed;
    if (log->errors.size() < 5) log->errors.push_back(what + ": " + s.ToString());
  }

  void Txn(const Request& r, size_t i, uint64_t id, bool timed,
           ClientLog* log) {
    ++log->attempted;
    const auto t0 = Clock::now();
    for (const std::string& body : r.writes) {
      Status s = client_->Exec(body);
      if (!s.ok()) {
        Fail(log, "exec", s);
        (void)client_->Rollback();
        return;
      }
    }
    const auto tc = Clock::now();
    auto ack = client_->Commit();
    const auto t1 = Clock::now();
    if (!ack.ok()) {
      Fail(log, "commit", ack.status());
      return;
    }
    log->acks.emplace_back(i, ack->version);
    log->batch_sum += ack->batch_size;
    tracer_->Record("server.protocol.exec", id, tracer_->At(t0),
                    tracer_->At(tc));
    tracer_->Record("server.pipeline.commit", id, tracer_->At(tc),
                    tracer_->At(t1));
    tracer_->Record("txn", id, tracer_->At(t0), tracer_->At(t1));
    if (!timed) return;
    log->txn_ms.push_back({t1, Ms(t0, t1)});
    log->commit_ms.push_back({t1, Ms(tc, t1)});
  }

  void Read(const Request& r, size_t i, uint64_t id, bool timed,
            ClientLog* log) {
    ++log->attempted;
    const uint64_t bytes0 = transport_->received();
    good::pattern::PlanCacheInfo cache0;
    if (trace_) cache0 = good::pattern::GlobalPlanCacheInfo();
    const auto t0 = Clock::now();
    size_t answer = 0;
    if (r.type == Request::Type::kCount) {
      auto n = client_->Count(r.pattern);
      if (!n.ok()) return Fail(log, "count", n.status());
      answer = *n;
    } else {
      auto lines = client_->Match(r.pattern);
      if (!lines.ok()) return Fail(log, "match", lines.status());
      answer = lines->size();
    }
    const auto t1 = Clock::now();
    tracer_->Record("read", id, tracer_->At(t0), tracer_->At(t1));
    log->answers.emplace_back(i, answer);
    if (!timed) return;
    if (trace_) {
      good::pattern::PlanCacheInfo cache1 = good::pattern::GlobalPlanCacheInfo();
      log->plan_hits += cache1.hits - cache0.hits;
      log->plan_misses += cache1.misses - cache0.misses;
    }
    log->reply_bytes += transport_->received() - bytes0;
    log->read_ms.push_back({t1, Ms(t0, t1)});
  }

  /// A no-op `version` round trip: the protocol and socket cost alone.
  void RttProbe(ClientLog* log) {
    const auto t0 = Clock::now();
    auto v = client_->Version();
    const auto t1 = Clock::now();
    if (!v.ok()) return Fail(log, "version", v.status());
    log->rtt_us += Ms(t0, t1) * 1000;
    ++log->rtt_probes;
  }

  /// Replays the transaction's parse and preview on a benchmark-held
  /// session pinned to the same version, then discards it. Runs before
  /// the real transaction so both see the same snapshot.
  void TxnProbe(const Request& r, uint64_t id, ClientLog* log) {
    if (log->exec_probes % kCopyProbeEvery == 0) CopyProbe(id, log);
    Check(shadow_->Refresh(), "shadow refresh");
    double exec_ms = 0;
    for (const std::string& body : r.writes) {
      const int64_t p0 = tracer_->Now();
      auto ops = good::program::ParseOperations(shadow_->view().scheme, body);
      const int64_t p1 = tracer_->Now();
      Status s = ops.ok() ? shadow_->ExecuteAll(*ops) : ops.status();
      const int64_t p2 = tracer_->Now();
      if (!s.ok()) {
        shadow_->Rollback();
        return Fail(log, "probe exec", s);
      }
      tracer_->Record("program.parse", id, p0, p1);
      tracer_->Record("server.session.exec", id, p1, p2);
      log->txn_parse_ms += (p1 - p0) / 1e6;
      ++log->parses;
      exec_ms += (p2 - p1) / 1e6;
    }
    shadow_->Rollback();
    log->exec_ms += exec_ms;
    ++log->exec_probes;
  }

  /// Copies and destroys the newest published database.
  void CopyProbe(uint64_t id, ClientLog* log) {
    good::server::VersionRef version = server_->current_version();
    const size_t heap0 = ::mallinfo2().uordblks;
    const int64_t c0 = tracer_->Now();
    auto copy = std::make_unique<Database>(version->db);
    const int64_t c1 = tracer_->Now();
    const size_t heap1 = ::mallinfo2().uordblks;
    copy.reset();
    const int64_t c2 = tracer_->Now();
    tracer_->Record("graph.copy", id, c0, c1);
    tracer_->Record("graph.free", id, c1, c2);
    log->copy_ms += (c1 - c0) / 1e6;
    log->free_ms += (c2 - c1) / 1e6;
    log->copy_mb += heap1 > heap0 ? (heap1 - heap0) / 1e6 : 0;
    ++log->copy_probes;
  }

  /// Replays the read's parse, session call and matcher run on the
  /// benchmark-held session. Runs after the real read so the server's
  /// plan-cache lookups are not pre-empted.
  void ReadProbe(const Request& r, uint64_t id, ClientLog* log) {
    Check(shadow_->Refresh(), "shadow refresh");
    const int64_t p0 = tracer_->Now();
    auto pattern = good::program::ParsePattern(shadow_->view().scheme,
                                               r.pattern);
    const int64_t p1 = tracer_->Now();
    if (!pattern.ok()) return Fail(log, "probe parse", pattern.status());
    if (r.type == Request::Type::kCount) {
      auto n = shadow_->Count(*pattern);
      if (!n.ok()) return Fail(log, "probe count", n.status());
    } else {
      auto m = shadow_->Match(*pattern);
      if (!m.ok()) return Fail(log, "probe match", m.status());
    }
    const int64_t p2 = tracer_->Now();
    good::pattern::MatchOptions options;
    options.stats = &log->match_stats;
    good::pattern::Matcher(*pattern, shadow_->view().instance, options)
        .Count();
    const int64_t p3 = tracer_->Now();
    tracer_->Record("program.parse", id, p0, p1);
    tracer_->Record("server.session.read", id, p1, p2);
    tracer_->Record("pattern.match", id, p2, p3);
    log->read_parse_ms += (p1 - p0) / 1e6;
    ++log->parses;
    log->session_read_ms += (p2 - p1) / 1e6;
    log->match_ms += (p3 - p2) / 1e6;
    ++log->read_probes;
  }

  Server* server_;
  Client* client_;
  CountingTransport* transport_;
  Tracer* tracer_;
  size_t index_;
  bool trace_;
  std::unique_ptr<good::server::Session> shadow_;
};

struct PassResult {
  std::vector<ClientLog> logs;
  Clock::time_point start;
  double wall_s = 0;
  double rss_peak_mb = 0;
  IoCounters io;  // after set-up until the end of the pass
  good::server::PipelineStats pipeline;
  size_t timed_ops = 0;
};

/// Runs every client's warm-up prefix, then (after a barrier) its timed
/// suffix, each client on its own thread.
PassResult RunPass(Live* live, const Streams& streams, const Workload& w,
                   Tracer* tracer, TimingEnv* env, bool trace) {
  PassResult out;
  const size_t n = streams.clients.size();
  out.logs.resize(n);
  const IoCounters io0 = env->counters();
  std::mutex mu;
  std::condition_variable cv;
  size_t warmed = 0;
  bool go = false;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ClientRunner runner(live->server.get(), live->clients[c].get(),
                          live->transports[c].get(), tracer, c, trace);
      const auto& ops = streams.clients[c];
      runner.Run(ops, 0, w.warmup_ops, /*timed=*/false, &out.logs[c]);
      {
        std::unique_lock<std::mutex> lock(mu);
        if (++warmed == n) {
          out.start = Clock::now();
          go = true;
          cv.notify_all();
        }
        cv.wait(lock, [&] { return go; });
      }
      runner.Run(ops, w.warmup_ops, ops.size(), /*timed=*/true, &out.logs[c]);
    });
  }
  for (auto& t : threads) t.join();
  out.wall_s = Seconds(out.start, Clock::now());
  out.rss_peak_mb = PeakRssMb();
  out.io = env->counters() - io0;
  out.pipeline = live->server->pipeline_stats();
  for (const auto& s : streams.clients) out.timed_ops += s.size() - w.warmup_ops;
  return out;
}

// ---------------------------------------------------------------------------
// Oracle: the acknowledged transactions replayed with ops directly.
// ---------------------------------------------------------------------------

struct OracleResult {
  bool ok = true;
  std::string why;
  Database final_state;
};

OracleResult RunOracle(const Database& base, const Streams& streams,
                       const PassResult& pass,
                       const good::method::MethodRegistry& registry) {
  OracleResult out;
  out.final_state = base;
  Database& db = out.final_state;
  good::method::Executor exec(&registry);

  struct Txn {
    uint64_t version;
    size_t client;
    size_t index;
  };
  std::vector<Txn> txns;
  for (size_t c = 0; c < pass.logs.size(); ++c) {
    for (const auto& [index, version] : pass.logs[c].acks) {
      txns.push_back({version, c, index});
    }
  }
  std::sort(txns.begin(), txns.end(),
            [](const Txn& a, const Txn& b) { return a.version < b.version; });

  std::vector<size_t> next_read(pass.logs.size(), 0);
  std::map<std::string, size_t> memo;  // pattern -> count, this state
  auto check_reads = [&](size_t c, size_t before) {
    const auto& answers = pass.logs[c].answers;
    size_t& k = next_read[c];
    for (; k < answers.size() && answers[k].first < before; ++k) {
      const Request& r = streams.clients[c][answers[k].first];
      auto it = memo.find(r.pattern);
      if (it == memo.end()) {
        auto pattern = good::program::ParsePattern(db.scheme, r.pattern);
        if (!pattern.ok()) {
          out.ok = false;
          out.why = "oracle parse: " + pattern.status().ToString();
          return;
        }
        size_t count = good::pattern::Matcher(*pattern, db.instance).Count();
        it = memo.emplace(r.pattern, count).first;
      }
      if (it->second != answers[k].second && out.ok) {
        out.ok = false;
        out.why = "client " + std::to_string(c) + " op " +
                  std::to_string(answers[k].first) + " answered " +
                  std::to_string(answers[k].second) + ", oracle " +
                  std::to_string(it->second) + ": " + r.pattern;
      }
    }
  };

  for (const Txn& t : txns) {
    check_reads(t.client, t.index);
    memo.clear();
    for (const std::string& body :
         streams.clients[t.client][t.index].writes) {
      auto ops = good::program::ParseOperations(db.scheme, body);
      if (!ops.ok()) Die("oracle parse: " + ops.status().ToString());
      for (const auto& op : *ops) {
        Check(exec.Execute(op, &db.scheme, &db.instance), "oracle apply");
      }
    }
  }
  for (size_t c = 0; c < pass.logs.size(); ++c) {
    check_reads(c, static_cast<size_t>(-1));
  }
  return out;
}

/// True iff `a` and `b` are equal node for node and edge for edge. The
/// server applies the acknowledged transactions in the oracle's order
/// and recovery restores node ids, so this identity isomorphism is the
/// expected case; graph::IsIsomorphic decides the rest.
bool SameIds(const good::graph::Instance& a, const good::graph::Instance& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  const auto nodes = a.AllNodes();
  if (nodes != b.AllNodes()) return false;
  for (good::graph::NodeId n : nodes) {
    if (a.LabelOf(n) != b.LabelOf(n) || a.PrintValueOf(n) != b.PrintValueOf(n)) {
      return false;
    }
  }
  return a.AllEdges() == b.AllEdges();
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(ch);
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Json(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Json(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

ClientLog Merge(const std::vector<ClientLog>& logs) {
  ClientLog m;
  for (const ClientLog& l : logs) {
    m.attempted += l.attempted;
    m.failed += l.failed;
    m.txn_ms.insert(m.txn_ms.end(), l.txn_ms.begin(), l.txn_ms.end());
    m.commit_ms.insert(m.commit_ms.end(), l.commit_ms.begin(),
                       l.commit_ms.end());
    m.read_ms.insert(m.read_ms.end(), l.read_ms.begin(), l.read_ms.end());
    m.acks.insert(m.acks.end(), l.acks.begin(), l.acks.end());
    m.batch_sum += l.batch_sum;
    m.reply_bytes += l.reply_bytes;
    m.plan_hits += l.plan_hits;
    m.plan_misses += l.plan_misses;
    m.txn_parse_ms += l.txn_parse_ms;
    m.read_parse_ms += l.read_parse_ms;
    m.parses += l.parses;
    m.exec_ms += l.exec_ms;
    m.exec_probes += l.exec_probes;
    m.session_read_ms += l.session_read_ms;
    m.match_ms += l.match_ms;
    m.read_probes += l.read_probes;
    m.match_stats += l.match_stats;
    m.copy_ms += l.copy_ms;
    m.free_ms += l.free_ms;
    m.copy_mb += l.copy_mb;
    m.copy_probes += l.copy_probes;
    m.rtt_us += l.rtt_us;
    m.rtt_probes += l.rtt_probes;
    m.probe_ms += l.probe_ms;
  }
  return m;
}

double Sum(const std::vector<Sample>& v) {
  double s = 0;
  for (const Sample& x : v) s += x.ms;
  return s;
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

int Main(const Args& args) {
#ifndef __OPTIMIZE__
  Die("refusing to report numbers from an unoptimised build");
#endif
  const Workload w = Take(FindWorkload(args.workload), "workload");
  const Database base = Take(BuildBase(w, args.seed), "base");
  const Streams streams = GenerateStreams(w, base, args.seed, args.seconds);
  if (args.digest_only) {
    std::printf("{\"workload\": %s, \"seed\": %" PRIu64
                ", \"stream_digest\": \"%016" PRIx64 "\"}\n",
                Json(w.name).c_str(), args.seed, streams.digest);
    return 0;
  }

  const std::string dir = args.data + "/" + w.name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ostringstream meta;
    meta << "{\"meta\": {\"workload\": " << Json(w.name)
         << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
         << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"compiler\": " << Json(std::string("g++ ") + __VERSION__)
         << ", \"build_type\": " << Json(PERFBENCH_BUILD_TYPE)
         << ", \"opt_flags\": " << Json(PERFBENCH_CXX_FLAGS)
         << ", \"revision\": " << Json(args.revision)
         << ", \"data_fs\": " << Json(FsType(dir))
         << ", \"flush_policy\": \"group-commit fsync (one fsync per batch, "
            "max_batch 8)\""
         << ", \"clients\": " << w.clients
         << ", \"ops_per_client\": " << streams.clients[0].size()
         << ", \"warmup_ops\": " << w.warmup_ops
         << ", \"stream_digest\": \"" << std::hex << streams.digest
         << std::dec << "\"}}";
    std::printf("%s\n", meta.str().c_str());
  }

  Tracer tracer(args.trace);
  TimingEnv env(good::storage::FileEnv::Default(), &tracer);
  good::method::MethodRegistry registry;
  Check(registry.Register(Take(good::hypermedia::MakeUpdateMethod(base.scheme),
                               "Update method")),
        "register Update");
  good::storage::Options db_options;
  db_options.env = &env;
  db_options.methods = &registry;
  db_options.sync_every_append = false;  // group commit
  db_options.checkpoint_every = w.checkpoint_every;
  good::server::ServerOptions server_options;
  server_options.methods = &registry;

  // Set-up: build the base, create the store, serve it, first hello.
  std::vector<double> setup_s;
  Live live;
  for (const auto since = Clock::now();
       Repeat(setup_s.size(), kSetupReps, kSetupSpanS, since);) {
    live.Shutdown();
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto t0 = Clock::now();
    Database initial = Take(BuildBase(w, args.seed), "base");
    live = Open(dir, std::move(initial), db_options, server_options,
                w.clients);
    setup_s.push_back(Seconds(t0, Clock::now()));
  }

  const PassResult pass = RunPass(&live, streams, w, &tracer, &env, args.trace);
  live.Shutdown();
  const double store_mb = DirBytes(dir) / 1e6;

  // Recovery: reopen the store until the first request is served.
  std::vector<double> recover_s, open_ms;
  IoCounters open_io;
  size_t ops_replayed = 0;
  for (const auto since = Clock::now();
       Repeat(recover_s.size(), kReopens, kReopenSpanS, since);) {
    live.Shutdown();
    const IoCounters io0 = env.counters();
    const auto t0 = Clock::now();
    auto db = Take(good::storage::Database::Open(dir, db_options), "reopen");
    open_ms.push_back(Ms(t0, Clock::now()));
    ops_replayed = db.recovery().ops_replayed;
    live.server = Take(Server::Open(std::move(db), server_options), "server");
    good::server::SocketServer::Options so;
    so.unix_path = dir + "/s.sock";
    live.socket = Take(
        good::server::SocketServer::Listen(live.server.get(), so), "listen");
    auto t = Take(good::server::SocketTransport::ConnectUnix(so.unix_path),
                  "connect");
    live.transports.push_back(std::make_unique<CountingTransport>(std::move(t)));
    live.clients.push_back(
        std::make_unique<Client>(live.transports.back().get()));
    Check(live.clients.back()->Version().status(), "first request");
    recover_s.push_back(Seconds(t0, Clock::now()));
    open_io = env.counters() - io0;
  }

  // Correctness: every answer against the oracle, the reopened store
  // against the oracle's final state.
  const OracleResult oracle = RunOracle(base, streams, pass, registry);
  const auto& recovered = live.server->database().instance();
  const bool iso = SameIds(recovered, oracle.final_state.instance) ||
                   good::graph::IsIsomorphic(recovered,
                                             oracle.final_state.instance);
  const double graph_nodes = static_cast<double>(recovered.num_nodes());
  const double graph_edges = static_cast<double>(recovered.num_edges());
  live.Shutdown();

  const ClientLog m = Merge(pass.logs);
  const double fail_ratio = Mean(static_cast<double>(m.failed),
                                 static_cast<double>(m.attempted));
  bool correct = oracle.ok && iso && m.failed == 0;
  for (const ClientLog& l : pass.logs) {
    for (const std::string& e : l.errors) std::fprintf(stderr, "error: %s\n", e.c_str());
  }
  if (!oracle.ok) std::fprintf(stderr, "oracle mismatch: %s\n", oracle.why.c_str());
  if (!iso) std::fprintf(stderr, "recovered store is not isomorphic to the oracle\n");

  const double txns = static_cast<double>(m.acks.size());
  const double ops_per_s =
      WindowedRate(m.txn_ms, m.read_ms, pass.start, pass.wall_s);
  std::printf("{\"report\": {\"fail_ratio\": %s, \"timed_ops\": %zu, "
              "\"timed_txns\": %zu, \"timed_reads\": %zu, \"acked_txns\": %zu, "
              "\"checkpoints\": %" PRIu64 ", \"wall_s\": %s}}\n",
              Num(fail_ratio).c_str(), pass.timed_ops, m.txn_ms.size(),
              m.read_ms.size(), m.acks.size(), pass.io.checkpoints,
              Num(pass.wall_s).c_str());

  const auto lat = [&](const std::vector<Sample>& samples, double q) {
    return WindowedQuantile(samples, pass.start, pass.wall_s, q);
  };
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"recover_s", Quantile(recover_s, 0), "s"},
        {"ops_per_s", ops_per_s, "1/s"},
        {"txn_p50_ms", lat(m.txn_ms, 0.5), "ms"},
        {"txn_p90_ms", lat(m.txn_ms, 0.9), "ms"},
        {"commit_p50_ms", lat(m.commit_ms, 0.5), "ms"},
        {"commit_p90_ms", lat(m.commit_ms, 0.9), "ms"},
        {"read_p50_ms", lat(m.read_ms, 0.5), "ms"},
        {"read_p90_ms", lat(m.read_ms, 0.9), "ms"},
        {"rss_peak_mb", pass.rss_peak_mb, "MB"},
        {"write_bytes_per_txn",
         Mean(static_cast<double>(pass.io.wal_bytes + pass.io.checkpoint_bytes),
              txns),
         "B"},
        {"store_mb", store_mb, "MB"},
    };
  } else {
    const IoCounters& io = pass.io;
    const double reads = static_cast<double>(m.read_ms.size());
    const double txn_total_ms = Sum(m.txn_ms);
    const double read_total_ms = Sum(m.read_ms);
    const double rtt_ms = Mean(m.rtt_us, static_cast<double>(m.rtt_probes)) / 1000;
    size_t txn_round_trips = 0;
    for (size_t c = 0; c < streams.clients.size(); ++c) {
      for (size_t i = w.warmup_ops; i < streams.clients[c].size(); ++i) {
        const Request& r = streams.clients[c][i];
        if (r.type == Request::Type::kTxn) txn_round_trips += r.writes.size() + 1;
      }
    }
    const auto share = [](double part, double whole) {
      return whole > 0 ? part / whole : 0.0;
    };
    const good::pattern::MatchStats& ms = m.match_stats;
    const double probe_ms = m.probe_ms;
    const double client_ms = pass.wall_s * 1000 * pass.logs.size();
    const double plan_lookups = static_cast<double>(m.plan_hits + m.plan_misses);
    metrics = {
        {"graph.copy_ms", Mean(m.copy_ms, m.copy_probes), "ms"},
        {"graph.free_ms", Mean(m.free_ms, m.copy_probes), "ms"},
        {"graph.copy_mb", Mean(m.copy_mb, m.copy_probes), "MB"},
        {"graph.nodes", graph_nodes, "count"},
        {"graph.edges", graph_edges, "count"},
        {"server.session.exec_ms", Mean(m.exec_ms, m.exec_probes), "ms"},
        {"server.session.read_ms", Mean(m.session_read_ms, m.read_probes), "ms"},
        {"pattern.match_ms", Mean(m.match_ms, m.read_probes), "ms"},
        {"pattern.cand_per_match",
         Mean(static_cast<double>(ms.candidates_scanned),
              static_cast<double>(std::max<size_t>(ms.matchings, 1))),
         "ratio"},
        {"pattern.backtracks_per_read",
         Mean(static_cast<double>(ms.backtracks), m.read_probes), "count"},
        {"pattern.plan_hit_rate",
         Mean(static_cast<double>(m.plan_hits), plan_lookups), "ratio"},
        {"server.protocol.rtt_us", rtt_ms * 1000, "us"},
        {"server.protocol.reply_bytes_per_read",
         Mean(static_cast<double>(m.reply_bytes), reads), "B"},
        {"program.parse_us",
         Mean((m.txn_parse_ms + m.read_parse_ms) * 1000, m.parses), "us"},
        {"server.pipeline.commit_ms",
         Mean(Sum(m.commit_ms), m.commit_ms.size()), "ms"},
        {"server.pipeline.batch_mean",
         Mean(static_cast<double>(m.batch_sum), txns), "count"},
        {"server.pipeline.fsyncs_per_txn",
         Mean(static_cast<double>(io.wal_syncs), txns), "ratio"},
        {"server.pipeline.conflicts",
         static_cast<double>(pass.pipeline.conflicts), "count"},
        {"storage.wal.append_us",
         Mean(io.wal_append_ns / 1e3, io.wal_appends), "us"},
        {"storage.wal.fsync_ms", Mean(io.wal_sync_ns / 1e6, io.wal_syncs), "ms"},
        {"storage.wal.bytes_per_txn",
         Mean(static_cast<double>(io.wal_bytes), txns), "B"},
        {"storage.checkpoint.count", static_cast<double>(io.checkpoints),
         "count"},
        {"storage.checkpoint.ms", Mean(io.checkpoint_ns / 1e6, io.checkpoints),
         "ms"},
        {"storage.checkpoint.bytes_per_txn",
         Mean(static_cast<double>(io.checkpoint_bytes), txns), "B"},
        {"storage.checkpoint.partitions_written",
         static_cast<double>(io.partitions_written), "count"},
        {"storage.recovery.open_ms", Quantile(open_ms, 0), "ms"},
        {"storage.recovery.read_ms", open_io.read_ns / 1e6, "ms"},
        {"storage.recovery.read_mb", open_io.read_bytes / 1e6, "MB"},
        {"storage.recovery.ops_replayed", static_cast<double>(ops_replayed),
         "count"},
        {"trace.ops_per_s", ops_per_s, "1/s"},
        // The probes run serially on the client threads between
        // requests; without them the same sequence would take
        // (client time - probe time).
        {"trace.overhead_pct", 100.0 * share(probe_ms, client_ms), "%"},
        // Each layer's share of the client-observed time. Probe-measured
        // layers (program, server.session, pattern) replay the call
        // outside the round trip, so shares need not sum to 1.
        {"txn_share.server.protocol", share(rtt_ms * txn_round_trips, txn_total_ms),
         "ratio"},
        {"txn_share.program", share(m.txn_parse_ms, txn_total_ms), "ratio"},
        {"txn_share.server.session", share(m.exec_ms, txn_total_ms), "ratio"},
        {"txn_share.storage.wal",
         share((io.wal_append_ns + io.wal_sync_ns) / 1e6, txn_total_ms), "ratio"},
        {"txn_share.storage.checkpoint", share(io.checkpoint_ns / 1e6, txn_total_ms),
         "ratio"},
        {"read_share.server.protocol", share(rtt_ms * reads, read_total_ms), "ratio"},
        {"read_share.program", share(m.read_parse_ms, read_total_ms), "ratio"},
        {"read_share.server.session", share(m.session_read_ms, read_total_ms),
         "ratio"},
        {"read_share.pattern", share(m.match_ms, read_total_ms), "ratio"},
    };
    const std::string spans = args.data + "/trace-" + w.name + "-" +
                              std::to_string(args.seed) + ".jsonl";
    Check(tracer.WriteJsonl(spans), "write spans");
    std::printf("{\"spans\": %s, \"count\": %zu}\n", Json(spans).c_str(),
                tracer.Spans().size());
  }
  PrintResult(correct, m.attempted, m.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Main(perfbench::ParseArgs(argc, argv));
}
