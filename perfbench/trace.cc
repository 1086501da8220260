#include "trace.h"

#include <fstream>

namespace perfbench {

using good::Result;
using good::Status;

void Tracer::Record(std::string name, uint64_t request, int64_t start_ns,
                    int64_t end_ns) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), request, start_ns, end_ns});
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Status Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Unavailable("cannot write " + path);
  for (const Span& s : Spans()) {
    out << "{\"name\":\"" << s.name << "\",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  out.close();
  return out ? Status::OK() : Status::Unavailable("short write to " + path);
}

IoCounters IoCounters::operator-(const IoCounters& o) const {
  IoCounters d;
  d.wal_appends = wal_appends - o.wal_appends;
  d.wal_bytes = wal_bytes - o.wal_bytes;
  d.wal_append_ns = wal_append_ns - o.wal_append_ns;
  d.wal_syncs = wal_syncs - o.wal_syncs;
  d.wal_sync_ns = wal_sync_ns - o.wal_sync_ns;
  d.checkpoint_bytes = checkpoint_bytes - o.checkpoint_bytes;
  d.checkpoints = checkpoints - o.checkpoints;
  d.checkpoint_ns = checkpoint_ns - o.checkpoint_ns;
  d.partitions_written = partitions_written - o.partitions_written;
  d.read_bytes = read_bytes - o.read_bytes;
  d.read_ns = read_ns - o.read_ns;
  return d;
}

namespace {

std::string BaseName(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

TimingEnv::Kind TimingEnv::KindOf(const std::string& path) {
  const std::string name = BaseName(path);
  if (name == "wal.log") return Kind::kWal;
  if (StartsWith(name, "part-") || StartsWith(name, "scheme-") ||
      StartsWith(name, "manifest")) {
    return Kind::kCheckpoint;
  }
  return Kind::kOther;
}

IoCounters TimingEnv::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

/// WritableFile decorator reporting to its TimingEnv.
class TimedFile final : public good::storage::WritableFile {
 public:
  TimedFile(std::unique_ptr<good::storage::WritableFile> base, TimingEnv* env,
            TimingEnv::Kind kind)
      : base_(std::move(base)), env_(env), kind_(kind) {}

  Status Append(std::string_view data) override {
    const int64_t start = env_->tracer_->Now();
    Status s = base_->Append(data);
    if (s.ok()) env_->OnAppend(kind_, data.size(), start, env_->tracer_->Now());
    return s;
  }
  Status Sync() override {
    const int64_t start = env_->tracer_->Now();
    Status s = base_->Sync();
    if (s.ok()) env_->OnSync(kind_, start, env_->tracer_->Now());
    return s;
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<good::storage::WritableFile> base_;
  TimingEnv* env_;
  TimingEnv::Kind kind_;
};

void TimingEnv::OnAppend(Kind kind, size_t bytes, int64_t start,
                         int64_t end) {
  std::lock_guard<std::mutex> lock(mu_);
  if (kind == Kind::kWal) {
    ++counters_.wal_appends;
    counters_.wal_bytes += bytes;
    counters_.wal_append_ns += end - start;
    last_wal_append_end_ = end;
    tracer_->Record("storage.wal.append", tracer_->current_request(), start,
                    end);
  } else if (kind == Kind::kCheckpoint) {
    counters_.checkpoint_bytes += bytes;
  }
}

void TimingEnv::OnSync(Kind kind, int64_t start, int64_t end) {
  if (kind != Kind::kWal) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.wal_syncs;
  counters_.wal_sync_ns += end - start;
  tracer_->Record("storage.wal.fsync", tracer_->current_request(), start,
                  end);
}

void TimingEnv::OnCheckpointFile(bool partition, int64_t start) {
  std::lock_guard<std::mutex> lock(mu_);
  if (partition) ++counters_.partitions_written;
  if (checkpoint_start_ < 0) {
    // An automatic checkpoint runs right after the WAL append of the
    // transaction that triggered it; the initial one has no such append.
    checkpoint_start_ =
        last_wal_append_end_ > 0 ? last_wal_append_end_ : start;
  }
}

Result<std::unique_ptr<good::storage::WritableFile>>
TimingEnv::NewWritableFile(const std::string& path, bool truncate) {
  const int64_t start = tracer_->Now();
  const Kind kind = KindOf(path);
  if (kind == Kind::kCheckpoint) {
    OnCheckpointFile(StartsWith(BaseName(path), "part-"), start);
  }
  GOOD_ASSIGN_OR_RETURN(auto file, base_->NewWritableFile(path, truncate));
  return std::unique_ptr<good::storage::WritableFile>(
      new TimedFile(std::move(file), this, kind));
}

Result<std::string> TimingEnv::ReadFileToString(const std::string& path) {
  const int64_t start = tracer_->Now();
  auto bytes = base_->ReadFileToString(path);
  const int64_t end = tracer_->Now();
  if (bytes.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.read_bytes += bytes->size();
    counters_.read_ns += end - start;
    tracer_->Record("storage.recovery.read", tracer_->current_request(),
                    start, end);
  }
  return bytes;
}

Status TimingEnv::RenameFile(const std::string& from, const std::string& to) {
  Status s = base_->RenameFile(from, to);
  if (s.ok() && BaseName(to) == "manifest.good") {
    std::lock_guard<std::mutex> lock(mu_);
    manifest_renamed_ = true;
  }
  return s;
}

Status TimingEnv::SyncDir(const std::string& path) {
  Status s = base_->SyncDir(path);
  const int64_t end = tracer_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  if (s.ok() && manifest_renamed_ && checkpoint_start_ >= 0) {
    ++counters_.checkpoints;
    counters_.checkpoint_ns += end - checkpoint_start_;
    tracer_->Record("storage.checkpoint", tracer_->current_request(),
                    checkpoint_start_, end);
    checkpoint_start_ = -1;
    manifest_renamed_ = false;
    last_wal_append_end_ = 0;
  }
  return s;
}

}  // namespace perfbench
