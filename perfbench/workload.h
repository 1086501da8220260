/// \file workload.h
/// \brief The benchmark's workloads and their seeded request streams.
///
/// A workload fixes the base database (a gen::ScaledHyperMedia object
/// base), the client count, the operation mix and the checkpoint
/// interval. Its request stream is a pure function of the seed and the
/// run length: it is generated in full before anything is timed, and no
/// request depends on a server reply, so two runs with one seed send
/// byte-identical streams.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "gen/generators.h"
#include "program/program.h"

namespace perfbench {

/// \brief One client operation: a read or a whole transaction.
struct Request {
  enum class Type { kTxn, kCount, kMatch };
  Type type = Type::kCount;
  /// kTxn: one `exec` body per write (1-3), then a `commit`.
  std::vector<std::string> writes;
  /// kCount / kMatch: the pattern block.
  std::string pattern;
};

/// \brief A named workload's fixed parameters.
struct Workload {
  std::string name;
  good::gen::HyperMediaOptions base;
  size_t clients = 1;
  /// Operations each client runs untimed before the timed sequence.
  size_t warmup_ops = 0;
  /// Timed operations per client for each second of --seconds. Fixed
  /// per workload so the sequence length never depends on how fast the
  /// program under test is.
  size_t ops_per_second = 0;
  /// storage::Options::checkpoint_every (logged transactions).
  size_t checkpoint_every = 0;
};

/// The workload named `name`, or NotFound.
good::Result<Workload> FindWorkload(const std::string& name);

/// The base database of `workload` for `seed`.
good::Result<good::program::Database> BuildBase(const Workload& workload,
                                                uint64_t seed);

/// \brief Per-client request streams (warm-up prefix included).
struct Streams {
  std::vector<std::vector<Request>> clients;
  /// FNV-1a over every request's wire bytes, clients in order.
  uint64_t digest = 0;
};

/// Generates the streams for `workload` over `base`: warmup_ops plus
/// ops_per_second * seconds operations per client.
Streams GenerateStreams(const Workload& workload,
                        const good::program::Database& base, uint64_t seed,
                        size_t seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
