/// \file bench_storage.cc
/// \brief Cost model of the durable storage engine: write-ahead append
/// throughput (with and without per-operation fsync), recovery time as
/// a function of log length, and checkpoint (snapshot) cost as a
/// function of instance size.

#include <unistd.h>

#include <map>
#include <string>

#include "bench_util.h"
#include "graph/instance.h"
#include "hypermedia/hypermedia.h"
#include "method/method.h"
#include "ops/operations.h"
#include "pattern/builder.h"
#include "program/program.h"
#include "storage/database.h"
#include "storage/file_env.h"
#include "storage/scrub.h"
#include "storage/wal.h"

namespace good::bench {
namespace {

using method::Operation;
using storage::Database;

std::string MakeTempDir() {
  std::string tmpl = "/tmp/good_bench_storage_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) std::abort();
  return tmpl;
}

void RemoveDir(const std::string& dir) {
  auto* env = storage::FileEnv::Default();
  // The partitioned layout holds a variable file set; sweep it.
  if (auto files = env->ListDir(dir); files.ok()) {
    for (const std::string& name : *files) {
      (void)env->RemoveFile(dir + "/" + name);
    }
  }
  ::rmdir(dir.c_str());
}

program::Database PaperDatabase() {
  auto instance = hypermedia::BuildInstance(HyperMediaScheme())
                      .ValueOrDie()
                      .instance;
  return program::Database{HyperMediaScheme(), std::move(instance)};
}

/// Append throughput: serialize + frame + log + execute one operation
/// per iteration. Figure 12's node addition has an empty pattern, so
/// after the first application executing it is a near-no-op and the
/// write-ahead path dominates. range(0) toggles fsync-per-append.
void BM_DurableApply(benchmark::State& state) {
  std::string dir = MakeTempDir();
  storage::Options options;
  options.sync_every_append = state.range(0) != 0;
  Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
  Operation op(hypermedia::Fig12NodeAddition(db.scheme()).ValueOrDie());
  for (auto _ : state) {
    db.Apply(op).OrDie();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["log_bytes"] =
      benchmark::Counter(static_cast<double>(db.log_bytes()));
  db.Close().OrDie();
  RemoveDir(dir);
}
BENCHMARK(BM_DurableApply)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("sync")
    ->UseRealTime();

/// Recovery: Database::Open on a directory whose log holds range(0)
/// operations past the snapshot. Logs are built once per size and
/// reopened every iteration; items/sec is replayed ops/sec.
void BM_Recovery(benchmark::State& state) {
  static auto* dirs = new std::map<int64_t, std::string>();
  auto it = dirs->find(state.range(0));
  if (it == dirs->end()) {
    std::string dir = MakeTempDir();
    storage::Options build;
    build.sync_every_append = false;  // building the fixture, not timed
    Database db = Database::Open(dir, PaperDatabase(), build).ValueOrDie();
    Operation op(hypermedia::Fig12NodeAddition(db.scheme()).ValueOrDie());
    for (int64_t i = 0; i < state.range(0); ++i) db.Apply(op).OrDie();
    db.Close().OrDie();
    it = dirs->emplace(state.range(0), std::move(dir)).first;
  }
  size_t replayed = 0;
  for (auto _ : state) {
    Database db = Database::Open(it->second).ValueOrDie();
    replayed = db.recovery().ops_replayed;
    benchmark::DoNotOptimize(replayed);
  }
  if (replayed != static_cast<size_t>(state.range(0))) std::abort();
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["log_ops"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_Recovery)
    ->Arg(1000)
    ->Arg(10000)
    ->ArgName("ops")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Dirties class `cls` with one genuinely novel node addition: the new
/// node carries a functional edge to a fresh-valued Number printable,
/// so the paper's "if not exists" dedup (Figure 9) cannot suppress it.
/// (An empty-pattern addition would be a no-op once the class is
/// non-empty.) Dirties `cls` plus the shared Number partition.
void DirtyClass(Database* db, good::Symbol cls, uint64_t* counter) {
  pattern::GraphBuilder b(db->scheme());
  graph::NodeId num =
      b.Printable("Number", good::Value(static_cast<int64_t>(++*counter)));
  db->Apply(Operation(ops::NodeAddition(b.BuildOrDie(), cls,
                                        {{good::Sym("benchTag"), num}})))
      .OrDie();
}

/// Full-rewrite checkpoint on a scaled instance of range(0) documents.
/// Checkpoints are incremental now (only dirty partitions rewrite; see
/// BM_CheckpointIncremental), so each iteration dirties every object
/// class first to keep this the O(instance) cost curve it always was.
void BM_Checkpoint(benchmark::State& state) {
  std::string dir = MakeTempDir();
  graph::Instance instance =
      ScaledInstance(static_cast<size_t>(state.range(0)));
  Database db =
      Database::Open(dir, program::Database{HyperMediaScheme(),
                                            std::move(instance)})
          .ValueOrDie();
  const std::vector<good::Symbol> labels = db.scheme().object_labels();
  uint64_t counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (good::Symbol cls : labels) {
      DirtyClass(&db, cls, &counter);
    }
    state.ResumeTiming();
    db.Checkpoint().OrDie();
  }
  state.counters["nodes"] =
      benchmark::Counter(static_cast<double>(db.instance().num_nodes()));
  db.Close().OrDie();
  RemoveDir(dir);
}
BENCHMARK(BM_Checkpoint)
    ->Arg(100)
    ->Arg(1000)
    ->ArgName("docs")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Incremental checkpoint cost as a function of the dirty-partition
/// fraction: range(0) documents in the instance, range(1) distinct
/// object classes dirtied before each checkpoint (0 = nothing dirty —
/// the manifest-plus-log-reset floor; each dirtied class also dirties
/// the shared Number partition, so parts_per_ckpt ≈ dirty + 1). The
/// headline claim: bytes and latency track the DIRTY set — the sum of
/// the rewritten partitions' sizes — not the database size, because
/// clean partitions are carried forward by reference.
void BM_CheckpointIncremental(benchmark::State& state) {
  std::string dir = MakeTempDir();
  graph::Instance instance =
      ScaledInstance(static_cast<size_t>(state.range(0)));
  Database db =
      Database::Open(dir, program::Database{HyperMediaScheme(),
                                            std::move(instance)})
          .ValueOrDie();
  std::vector<good::Symbol> labels = db.scheme().object_labels();
  const size_t dirty =
      std::min(static_cast<size_t>(state.range(1)), labels.size());
  uint64_t bytes = 0;
  uint64_t parts = 0;
  uint64_t counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t i = 0; i < dirty; ++i) {
      DirtyClass(&db, labels[i], &counter);
    }
    state.ResumeTiming();
    storage::CheckpointStats stats;
    db.Checkpoint(&stats).OrDie();
    bytes += stats.bytes_written;
    parts += stats.partitions_written;
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["bytes_per_ckpt"] =
      benchmark::Counter(static_cast<double>(bytes) / iters);
  state.counters["parts_per_ckpt"] =
      benchmark::Counter(static_cast<double>(parts) / iters);
  state.counters["nodes"] =
      benchmark::Counter(static_cast<double>(db.instance().num_nodes()));
  db.Close().OrDie();
  RemoveDir(dir);
}
BENCHMARK(BM_CheckpointIncremental)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({100, 4})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({1000, 4})
    ->Args({4000, 1})
    ->ArgNames({"docs", "dirty"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Salvage scan throughput over a 100k-record log (frames/sec).
/// range(0) toggles mid-file corruption, which forces the scanner off
/// the fast clean-prefix path into classify-and-resync.
void BM_SalvageScan(benchmark::State& state) {
  static auto* logs = new std::map<int64_t, std::string>();
  auto it = logs->find(state.range(0));
  const size_t kRecords = 100000;
  if (it == logs->end()) {
    std::string log;
    std::string payload(100, '\0');
    for (size_t i = 0; i < kRecords; ++i) {
      for (size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<char>((i * 131 + j * 17) & 0xFF);
      }
      storage::AppendRecordTo(&log, payload);
    }
    if (state.range(0) != 0) {
      // One flipped byte per ~1000 records, spread across the file.
      for (size_t at = log.size() / 200; at < log.size();
           at += log.size() / 100) {
        log[at] ^= 0x01;
      }
    }
    it = logs->emplace(state.range(0), std::move(log)).first;
  }
  size_t kept = 0;
  for (auto _ : state) {
    storage::LogScan result = storage::ScanLogRecords(it->second);
    kept = result.report.frames_kept;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(it->second.size()));
  state.counters["frames_kept"] =
      benchmark::Counter(static_cast<double>(kept));
}
BENCHMARK(BM_SalvageScan)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("corrupt")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Integrity scrub throughput on a scaled instance (nodes/sec): full
/// scheme conformance + index cross-checks per node.
void BM_Scrub(benchmark::State& state) {
  graph::Instance instance =
      ScaledInstance(static_cast<size_t>(state.range(0)));
  const schema::Scheme scheme = HyperMediaScheme();
  size_t problems = 0;
  for (auto _ : state) {
    storage::ScrubReport report = storage::Scrub(scheme, instance);
    problems = report.problems.size();
    benchmark::DoNotOptimize(report);
  }
  if (problems != 0) std::abort();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instance.num_nodes()));
  state.counters["nodes"] =
      benchmark::Counter(static_cast<double>(instance.num_nodes()));
  state.counters["edges"] =
      benchmark::Counter(static_cast<double>(instance.num_edges()));
}
BENCHMARK(BM_Scrub)
    ->Arg(100)
    ->Arg(1000)
    ->ArgName("docs")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace good::bench

BENCHMARK_MAIN();
