#include "storage/wal.h"

#include <limits>

#include "storage/crc32.h"

namespace good::storage {

void AppendFixed32(std::string* dst, uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    dst->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

uint32_t DecodeFixed32(std::string_view bytes) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<unsigned char>(bytes[i]);
  }
  return value;
}

void AppendFixed64(std::string* dst, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    dst->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

Result<uint64_t> ConsumeFixed64(std::string_view* input) {
  if (input->size() < 8) {
    return Status::InvalidArgument("fixed64 needs 8 bytes, have " +
                                   std::to_string(input->size()));
  }
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<unsigned char>((*input)[i]);
  }
  input->remove_prefix(8);
  return value;
}

void AppendRecordTo(std::string* dst, std::string_view payload) {
  AppendFixed32(dst, static_cast<uint32_t>(payload.size()));
  AppendFixed32(dst, Crc32(payload));
  dst->append(payload);
}

namespace {

/// The one frame-header decoder: true iff `bytes` at `pos` starts a
/// frame whose checksum verifies, with its payload in `*payload`.
bool FrameVerifiesAt(std::string_view bytes, uint64_t pos,
                     std::string_view* payload) {
  const uint64_t remaining = bytes.size() - pos;
  if (remaining < kRecordHeaderSize) return false;
  const uint32_t length = DecodeFixed32(bytes.substr(pos, 4));
  if (length > remaining - kRecordHeaderSize) return false;
  const uint32_t stored_crc = DecodeFixed32(bytes.substr(pos + 4, 4));
  std::string_view candidate = bytes.substr(pos + kRecordHeaderSize, length);
  if (Crc32(candidate) != stored_crc) return false;
  *payload = candidate;
  return true;
}

}  // namespace

std::string_view SalvageDropReasonToString(SalvageDropReason reason) {
  switch (reason) {
    case SalvageDropReason::kBadChecksum:
      return "bad-checksum";
    case SalvageDropReason::kTruncatedPayload:
      return "truncated-payload";
    case SalvageDropReason::kPartialHeader:
      return "partial-header";
    case SalvageDropReason::kResyncSkip:
      return "resync-skip";
    case SalvageDropReason::kUnreplayable:
      return "unreplayable";
  }
  return "unknown";
}

std::string SalvageReport::ToString() const {
  std::string out = "kept " + std::to_string(frames_kept) + " frames / " +
                    std::to_string(bytes_kept) + " B, dropped " +
                    std::to_string(dropped.size()) + " ranges / " +
                    std::to_string(bytes_dropped) + " B";
  if (clean) out += " (clean)";
  return out;
}

LogScan ScanLogRecords(std::string_view file_bytes) {
  LogScan out;
  const uint64_t total = file_bytes.size();
  uint64_t pos = 0;
  bool in_clean_prefix = true;
  // Coalesces consecutive dropped bytes into one range per damage run.
  uint64_t drop_start = 0;
  uint64_t drop_length = 0;
  SalvageDropReason drop_reason = SalvageDropReason::kBadChecksum;
  auto flush_drop = [&] {
    if (drop_length == 0) return;
    out.report.dropped.push_back(
        DroppedRange{drop_start, drop_length, drop_reason});
    out.report.bytes_dropped += drop_length;
    drop_length = 0;
  };
  auto drop = [&](uint64_t at, uint64_t len, SalvageDropReason reason) {
    if (drop_length > 0 &&
        (drop_start + drop_length != at || drop_reason != reason)) {
      flush_drop();
    }
    if (drop_length == 0) {
      drop_start = at;
      drop_reason = reason;
    }
    drop_length += len;
    in_clean_prefix = false;
  };

  while (pos < total) {
    const uint64_t remaining = total - pos;
    if (remaining < kRecordHeaderSize) {
      drop(pos, remaining, SalvageDropReason::kPartialHeader);
      break;
    }
    std::string_view payload;
    if (FrameVerifiesAt(file_bytes, pos, &payload)) {
      flush_drop();
      out.frames.push_back(LogFrame{pos, payload});
      out.report.bytes_kept += kRecordHeaderSize + payload.size();
      pos += kRecordHeaderSize + payload.size();
      if (in_clean_prefix) out.report.clean_prefix_bytes = pos;
      continue;
    }
    // The header at `pos` does not describe a verifiable frame. Classify
    // the damage for the report, then resync: slide forward until some
    // offset verifies again (or EOF). A resync point must carry a
    // payload: eight zero bytes frame an empty payload (whose CRC is
    // zero), so zero fill, or a torn record's zero sequence number,
    // would otherwise pass for a frame.
    const uint32_t declared = DecodeFixed32(file_bytes.substr(pos, 4));
    const bool truncated = declared > remaining - kRecordHeaderSize;
    const uint64_t frame_extent =
        truncated ? remaining : kRecordHeaderSize + declared;
    uint64_t next = pos + 1;
    while (next < total && !(FrameVerifiesAt(file_bytes, next, &payload) &&
                             !payload.empty())) {
      ++next;
    }
    if (next >= pos + frame_extent || next >= total) {
      // The whole declared frame (or the rest of the file) is damage.
      drop(pos, frame_extent,
           truncated ? SalvageDropReason::kTruncatedPayload
                     : SalvageDropReason::kBadChecksum);
      ++out.report.frames_dropped;
      pos += frame_extent;
      if (next > pos && next < total) {
        drop(pos, next - pos, SalvageDropReason::kResyncSkip);
        pos = next;
      }
    } else {
      // A verifiable frame begins inside the bad frame's declared
      // extent — trust the checksum over the (possibly corrupt) length
      // field and resync there.
      drop(pos, next - pos, SalvageDropReason::kBadChecksum);
      ++out.report.frames_dropped;
      pos = next;
    }
  }
  flush_drop();
  out.report.frames_kept = out.frames.size();
  out.report.clean = out.report.dropped.empty();
  if (out.report.clean) out.report.clean_prefix_bytes = total;
  return out;
}

Status CheckTornTailOnly(const SalvageReport& report, uint64_t file_size) {
  if (report.clean) return Status::OK();
  const DroppedRange& first = report.dropped.front();
  if (report.dropped.size() == 1 && first.offset == report.clean_prefix_bytes &&
      first.offset + first.length == file_size) {
    return Status::OK();
  }
  return Status::DataLoss(
      "record at offset " + std::to_string(first.offset) + " is damaged (" +
      std::string(SalvageDropReasonToString(first.reason)) + ", " +
      std::to_string(first.length) + " B) with " +
      std::to_string(file_size - first.offset - first.length) +
      " bytes following it");
}

Result<LogContents> ReadLogRecords(std::string_view file_bytes) {
  LogScan scan = ScanLogRecords(file_bytes);
  GOOD_RETURN_NOT_OK(CheckTornTailOnly(scan.report, file_bytes.size()));
  LogContents out;
  out.records.reserve(scan.frames.size());
  for (const LogFrame& frame : scan.frames) {
    out.records.push_back(frame.payload);
  }
  out.valid_bytes = scan.report.clean_prefix_bytes;
  out.dropped_torn_tail = !scan.report.clean;
  return out;
}

Result<std::string_view> ReadSingleRecord(std::string_view file_bytes) {
  std::string_view payload;
  if (!FrameVerifiesAt(file_bytes, 0, &payload) ||
      kRecordHeaderSize + payload.size() != file_bytes.size()) {
    return Status::DataLoss("file does not hold exactly one intact record");
  }
  return payload;
}

Status LogWriter::AppendRecord(std::string_view payload) {
  std::string framed;
  framed.reserve(kRecordHeaderSize + payload.size());
  AppendRecordTo(&framed, payload);
  last_record_offset_ = size_;
  Status s = file_->Append(framed);
  if (!s.ok()) return s;
  size_ += framed.size();
  if (sync_each_) {
    GOOD_RETURN_NOT_OK(file_->Sync());
  }
  return Status::OK();
}

Status LogWriter::UndoLastAppend() {
  GOOD_RETURN_NOT_OK(file_->Truncate(last_record_offset_));
  size_ = last_record_offset_;
  return Status::OK();
}

Status LogWriter::TruncateTo(uint64_t offset) {
  if (offset > size_) {
    return Status::InvalidArgument(
        "TruncateTo(" + std::to_string(offset) + ") is past the log end (" +
        std::to_string(size_) + ")");
  }
  GOOD_RETURN_NOT_OK(file_->Truncate(offset));
  size_ = offset;
  if (last_record_offset_ > offset) last_record_offset_ = offset;
  return Status::OK();
}

}  // namespace good::storage
