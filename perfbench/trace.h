/// \file trace.h
/// \brief The benchmark's span recorder and its two I/O decorators.
///
/// Spans are recorded from the benchmark's own code around calls into
/// the layers' public functions, and from two decorators the layers
/// call through: a storage::FileEnv (passed via storage::Options::env)
/// and a server::Transport (under server::Client). Spans live in memory
/// and are written out when the run ends. The byte and call counters of
/// the decorators are kept in every run; spans only in a traced one.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/client.h"
#include "storage/file_env.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// \brief One timed call. `request` ties the spans of one client
/// operation together (0 when no operation owns it).
struct Span {
  std::string name;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double duration_ms() const { return (end_ns - start_ns) / 1e6; }
};

/// \brief In-memory span store. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// Nanoseconds from the tracer's creation to `t`.
  int64_t At(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  int64_t Now() const { return At(Clock::now()); }

  /// Stores a finished span when tracing is enabled.
  void Record(std::string name, uint64_t request, int64_t start_ns,
              int64_t end_ns);

  /// The operation the spans the decorators record belong to. Set by
  /// the client thread around each operation; with several clients it
  /// names the most recent one.
  void set_current_request(uint64_t id) {
    current_request_.store(id, std::memory_order_relaxed);
  }
  uint64_t current_request() const {
    return current_request_.load(std::memory_order_relaxed);
  }

  std::vector<Span> Spans() const;

  /// Writes one JSON object per span to `path`.
  good::Status WriteJsonl(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  std::atomic<uint64_t> current_request_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// \brief Counters of everything the storage layer did through the env.
struct IoCounters {
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  int64_t wal_append_ns = 0;
  uint64_t wal_syncs = 0;
  int64_t wal_sync_ns = 0;
  /// Bytes written to partition, scheme and manifest files.
  uint64_t checkpoint_bytes = 0;
  /// Committed checkpoints (manifest renames).
  uint64_t checkpoints = 0;
  int64_t checkpoint_ns = 0;
  uint64_t partitions_written = 0;
  uint64_t read_bytes = 0;
  int64_t read_ns = 0;

  IoCounters operator-(const IoCounters& o) const;
};

/// \brief storage::FileEnv decorator: counts and times the storage
/// layer's file operations on `wal.log`, partition, scheme and manifest
/// files. A checkpoint span runs from the end of the WAL append that
/// triggered it to the directory sync that publishes its manifest.
class TimingEnv final : public good::storage::FileEnv {
 public:
  TimingEnv(good::storage::FileEnv* base, Tracer* tracer)
      : base_(base), tracer_(tracer) {}

  IoCounters counters() const;

  good::Result<std::unique_ptr<good::storage::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  good::Result<std::string> ReadFileToString(const std::string& path) override;
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  good::Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  good::Status RenameFile(const std::string& from,
                          const std::string& to) override;
  good::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  good::Result<std::vector<std::string>> ListDir(
      const std::string& path) override {
    return base_->ListDir(path);
  }
  good::Status CreateDirs(const std::string& path) override {
    return base_->CreateDirs(path);
  }
  good::Status SyncDir(const std::string& path) override;

 private:
  friend class TimedFile;
  enum class Kind { kWal, kCheckpoint, kOther };
  static Kind KindOf(const std::string& path);

  /// Called by files; all under mu_.
  void OnAppend(Kind kind, size_t bytes, int64_t start, int64_t end);
  void OnSync(Kind kind, int64_t start, int64_t end);
  void OnCheckpointFile(bool partition, int64_t start);

  good::storage::FileEnv* base_;
  Tracer* tracer_;
  mutable std::mutex mu_;
  IoCounters counters_;
  int64_t last_wal_append_end_ = 0;
  /// Start of the checkpoint in progress, or -1.
  int64_t checkpoint_start_ = -1;
  bool manifest_renamed_ = false;
};

/// \brief server::Transport decorator counting the bytes a client
/// receives.
class CountingTransport final : public good::server::Transport {
 public:
  explicit CountingTransport(std::unique_ptr<good::server::Transport> base)
      : base_(std::move(base)) {}

  good::Status Write(std::string_view bytes) override {
    return base_->Write(bytes);
  }
  good::Result<std::string> ReadLine() override {
    auto line = base_->ReadLine();
    if (line.ok()) received_ += line->size() + 1;
    return line;
  }
  good::Status Close() override { return base_->Close(); }

  uint64_t received() const { return received_; }

 private:
  std::unique_ptr<good::server::Transport> base_;
  uint64_t received_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
