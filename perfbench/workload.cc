#include "workload.h"

#include <charconv>
#include <map>
#include <random>
#include <set>

#include "common/value.h"
#include "hypermedia/hypermedia.h"
#include "server/protocol.h"

namespace perfbench {
namespace {

using good::Result;
using good::Status;

/// Hyper-media bases: one at about 20K documents (~42K nodes, ~104K
/// edges), where whole-instance costs dominate a commit, and one at the
/// paper's scale (~100 documents, ~220 nodes), where they do not.
good::gen::HyperMediaOptions LargeBase() {
  good::gen::HyperMediaOptions o;
  o.num_docs = 20000;
  o.links_per_doc = 3;
  o.num_versions = 2000;
  o.distinct_dates = 40;
  return o;
}

good::gen::HyperMediaOptions SmallBase() {
  good::gen::HyperMediaOptions o;
  o.num_docs = 100;
  o.links_per_doc = 3;
  o.num_versions = 10;
  o.distinct_dates = 9;  // a multiple of the oltp-small client count
  return o;
}

/// In analytic-large every kAnalyticWriteEvery-th operation is a write
/// transaction; the rest are reads.
constexpr size_t kAnalyticWriteEvery = 100;
/// In oltp-large one operation in kOltpReadEvery is a point read.
constexpr size_t kOltpReadEvery = 5;

std::string DocName(size_t doc) { return "doc" + std::to_string(doc); }

/// Pattern nodes `v` (an Info) and `vn` (its name) anchored at `doc`.
std::string Named(const std::string& v, size_t doc) {
  return "node " + v + " Info; node " + v + "n String = \"" + DocName(doc) +
         "\"; edge " + v + " name " + v + "n; ";
}

std::string BaseDate(size_t day) {
  const int64_t epoch = good::Date{1990, 1, 1}.ToDayNumber();
  return good::Date::FromDayNumber(epoch + static_cast<int64_t>(day))
      .ToString();
}

void Fnv(uint64_t* h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    *h ^= c;
    *h *= 0x100000001b3ull;
  }
}

/// Generates one client's operations. Each client writes only the
/// documents it owns (doc % clients == client), links only between
/// them, and draws Update dates from a year no other client uses, so
/// concurrent transactions of different clients never share a node
/// and first-committer-wins validation never aborts one.
class StreamGen {
 public:
  StreamGen(const Workload& w, const std::map<size_t, std::set<size_t>>& links,
            uint64_t seed, size_t client)
      : w_(w), rng_(seed * 0x9e3779b97f4a7c15ull + 7919 * (client + 1)),
        client_(client) {
    for (size_t d = client; d < w.base.num_docs; d += w.clients) {
      owned_.push_back(d);
    }
    for (size_t d : owned_) {
      auto it = links.find(d);
      if (it == links.end()) continue;
      for (size_t t : it->second) {
        if (Owned(t)) links_[d].insert(t);
      }
    }
  }

  Request Txn() {
    Request r;
    r.type = Request::Type::kTxn;
    size_t n = 1 + rng_() % 3;
    for (size_t i = 0; i < n; ++i) r.writes.push_back(Write());
    return r;
  }

  /// Name-anchored point read: the out-links of one owned document.
  Request PointCount() {
    Request r;
    r.type = Request::Type::kCount;
    r.pattern = "pattern { " + Named("x", Doc()) +
                "node y Info; edge x links-to y; }";
    return r;
  }

  /// All two-hop link paths from the documents created on one of this
  /// client's dates. Document i is created on date i % distinct_dates,
  /// so with distinct_dates a multiple of the client count every such
  /// document is owned by this client.
  Request OwnDateMatch() {
    Request r;
    r.type = Request::Type::kMatch;
    const size_t dates = w_.base.distinct_dates / w_.clients;
    const size_t date = client_ + w_.clients * (rng_() % dates);
    r.pattern = "pattern { node d Date = \"" + BaseDate(date) +
                "\"; node x Info; node y Info; node z Info; "
                "edge x created d; edge x links-to y; edge y links-to z; }";
    return r;
  }

  /// One of the analytic shapes with seeded parameters.
  Request Analytic() {
    static constexpr int kShapes = 6;
    Request r;
    const int shape = static_cast<int>(rng_() % kShapes);
    const std::string date =
        "node d Date = \"" + BaseDate(rng_() % w_.base.distinct_dates) +
        "\"; ";
    switch (shape) {
      case 0:  // date-anchored 1-hop
      case 4:
        r.pattern = "pattern { " + date +
                    "node x Info; node y Info; edge x created d; "
                    "edge x links-to y; }";
        break;
      case 1:  // date-anchored 2-hop
        r.pattern = "pattern { " + date +
                    "node x Info; node y Info; node z Info; "
                    "edge x created d; edge x links-to y; "
                    "edge y links-to z; }";
        break;
      case 2:  // same-date join
        r.pattern = "pattern { " + date +
                    "node x Info; node y Info; edge x created d; "
                    "edge y created d; edge x links-to y; }";
        break;
      default:  // 3, 5: name-anchored 2-hop
        r.pattern = "pattern { " + Named("x", Doc()) +
                    "node y Info; node z Info; edge x links-to y; "
                    "edge y links-to z; }";
        break;
    }
    r.type = shape >= 4 ? Request::Type::kMatch : Request::Type::kCount;
    return r;
  }

 private:
  bool Owned(size_t doc) const { return doc % w_.clients == client_; }
  size_t Doc() { return owned_[rng_() % owned_.size()]; }

  /// One name-anchored write on an owned document: a link change, a tag
  /// change or an Update call, each a third of the time. Link and tag
  /// changes add or delete so that each document keeps about
  /// kLinksPerDoc links and at most two tags: the instance does not grow
  /// with the run length, and neither does the work per operation.
  std::string Write() {
    const size_t a = Doc();
    switch (rng_() % 3) {
      case 0:
        return LinkChange(a);
      case 1:
        return Tag(a);
      default: {  // call Update with a date only this client uses
        const int64_t day =
            good::Date{static_cast<int32_t>(2000 + client_), 1, 1}
                .ToDayNumber() +
            static_cast<int64_t>(rng_() % kUpdateDays);
        return "call { pattern { " + Named("x", a) + "node d Date = \"" +
               good::Date::FromDayNumber(day).ToString() +
               "\"; } method Update; arg parameter d; receiver x; }";
      }
    }
  }

  std::string LinkChange(size_t a) {
    std::set<size_t>& out = links_[a];
    const bool remove = out.size() > kLinksPerDoc ||
                        (out.size() == kLinksPerDoc && rng_() % 2 == 0);
    if (!remove) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const size_t b = Doc();
        if (b == a || out.count(b) > 0) continue;
        out.insert(b);
        return "ea { pattern { " + Named("a", a) + Named("b", b) +
               "} add a links-to b multivalued; }";
      }
    }
    if (out.empty()) return Tag(a);
    auto pick = out.begin();
    std::advance(pick, rng_() % out.size());
    const size_t b = *pick;
    out.erase(pick);
    return "ed { pattern { " + Named("a", a) + Named("b", b) +
           "edge a links-to b; } remove a links-to b; }";
  }

  /// Tags `a` with a Tag node stamped by a Number, or removes one of its
  /// tags once it has two. The unique (document, stamp) pair keeps the
  /// paper's if-not-exists rule (Figure 9) from folding a new tag into
  /// an old one; removing tags keeps the instance from growing with the
  /// run length. Stamps come from a range of the client's own.
  std::string Tag(size_t a) {
    std::set<uint64_t>& stamps = tags_[a];
    const std::string prefix = "pattern { " + Named("a", a) +
                               "node s Number = \"";
    if (stamps.size() >= 2 || (!stamps.empty() && rng_() % 2 == 0)) {
      auto pick = stamps.begin();
      std::advance(pick, rng_() % stamps.size());
      const uint64_t stamp = *pick;
      stamps.erase(pick);
      return "nd { " + prefix + std::to_string(stamp) +
             "\"; node t Tag; edge t tagged-to a; edge t stamp s; } "
             "delete t; }";
    }
    uint64_t stamp = 0;
    do {
      stamp = 1'000'000 * (client_ + 1) + rng_() % kStampsPerClient;
    } while (stamps.count(stamp) > 0);
    stamps.insert(stamp);
    return "na { " + prefix + std::to_string(stamp) +
           "\"; } label Tag; edge tagged-to a; edge stamp s; }";
  }

  static constexpr size_t kLinksPerDoc = 3;
  static constexpr uint64_t kStampsPerClient = 16;
  static constexpr uint64_t kUpdateDays = 28;

  const Workload& w_;
  std::mt19937_64 rng_;
  size_t client_;
  std::vector<size_t> owned_;
  std::map<size_t, std::set<size_t>> links_;
  /// Stamps of the Tag nodes on each document.
  std::map<size_t, std::set<uint64_t>> tags_;
};

/// Info node -> document index, read off the "doc<i>" names.
std::map<good::graph::NodeId, size_t> DocIndex(
    const good::graph::Instance& instance) {
  const auto& l = good::hypermedia::Labels::Get();
  std::map<good::graph::NodeId, size_t> index;
  for (good::graph::NodeId n : instance.NodesWithLabel(l.info)) {
    auto name = instance.FunctionalTarget(n, l.name);
    if (!name) continue;
    const auto& value = instance.PrintValueOf(*name);
    if (!value || !value->is_string()) continue;
    const std::string& s = value->AsString();
    size_t doc = 0;
    std::from_chars(s.data() + 3, s.data() + s.size(), doc);
    index[n] = doc;
  }
  return index;
}

/// doc index -> indexes of the documents it links to, read off the base.
std::map<size_t, std::set<size_t>> BaseLinks(
    const good::program::Database& base) {
  const auto& l = good::hypermedia::Labels::Get();
  const auto index = DocIndex(base.instance);
  std::map<size_t, std::set<size_t>> links;
  for (const auto& [node, doc] : index) {
    for (good::graph::NodeId t : base.instance.OutTargets(node, l.links_to)) {
      auto it = index.find(t);
      if (it != index.end()) links[doc].insert(it->second);
    }
  }
  return links;
}

}  // namespace

Result<Workload> FindWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "oltp-large") {
    w.base = LargeBase();
    w.warmup_ops = 10;
    w.ops_per_second = 14;
    w.checkpoint_every = 32;
  } else if (name == "analytic-large") {
    w.base = LargeBase();
    w.warmup_ops = 50;
    w.ops_per_second = 400;
    w.checkpoint_every = 32;
  } else if (name == "oltp-small") {
    w.base = SmallBase();
    w.clients = 3;
    w.warmup_ops = 50;
    w.ops_per_second = 120;
    w.checkpoint_every = 512;
  } else {
    return Status::NotFound("unknown workload '" + name + "'");
  }
  return w;
}

Result<good::program::Database> BuildBase(const Workload& workload,
                                          uint64_t seed) {
  GOOD_ASSIGN_OR_RETURN(good::schema::Scheme scheme,
                        good::hypermedia::BuildScheme());
  good::gen::HyperMediaOptions options = workload.base;
  options.seed = seed;
  GOOD_ASSIGN_OR_RETURN(good::graph::Instance instance,
                        good::gen::ScaledHyperMedia(scheme, options));
  if (workload.clients > 1) {
    // Each client's documents form their own links-to subgraph, so a
    // client's reads depend on its own transactions only.
    const auto& l = good::hypermedia::Labels::Get();
    const auto index = DocIndex(instance);
    for (const auto& [node, doc] : index) {
      const std::vector<good::graph::NodeId> targets =
          instance.OutTargets(node, l.links_to);
      for (good::graph::NodeId t : targets) {
        auto it = index.find(t);
        if (it != index.end() &&
            it->second % workload.clients != doc % workload.clients) {
          GOOD_RETURN_NOT_OK(instance.RemoveEdge(node, l.links_to, t));
        }
      }
    }
  }
  return good::program::Database{std::move(scheme), std::move(instance)};
}

Streams GenerateStreams(const Workload& workload,
                        const good::program::Database& base, uint64_t seed,
                        size_t seconds) {
  const auto links = BaseLinks(base);
  const size_t total = workload.warmup_ops + workload.ops_per_second * seconds;
  Streams out;
  out.digest = 0xcbf29ce484222325ull;
  for (size_t c = 0; c < workload.clients; ++c) {
    StreamGen gen(workload, links, seed, c);
    std::vector<Request> ops;
    ops.reserve(total);
    for (size_t i = 0; i < total; ++i) {
      if (workload.name == "oltp-large") {
        ops.push_back(i % kOltpReadEvery == kOltpReadEvery - 1
                          ? gen.PointCount()
                          : gen.Txn());
      } else if (workload.name == "analytic-large") {
        ops.push_back(i % kAnalyticWriteEvery == kAnalyticWriteEvery - 1
                          ? gen.Txn()
                          : gen.Analytic());
      } else {  // oltp-small: read-then-write loop
        ops.push_back(i % 2 == 0 ? gen.OwnDateMatch() : gen.Txn());
      }
    }
    for (const Request& r : ops) {
      if (r.type == Request::Type::kTxn) {
        for (const std::string& body : r.writes) {
          Fnv(&out.digest, good::server::EncodeRequest("exec", &body));
        }
        Fnv(&out.digest, good::server::EncodeRequest("commit", nullptr));
      } else {
        Fnv(&out.digest, good::server::EncodeRequest(
                             r.type == Request::Type::kCount ? "count"
                                                             : "match",
                             &r.pattern));
      }
    }
    out.clients.push_back(std::move(ops));
  }
  return out;
}

}  // namespace perfbench
