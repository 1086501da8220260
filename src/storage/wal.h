/// \file wal.h
/// \brief Length-prefixed, checksummed record framing for durable files.
///
/// On-disk layout of one record:
///
///   [u32 payload length, little-endian]
///   [u32 CRC-32 of the payload, little-endian]
///   [payload bytes]
///
/// The same framing serves both the write-ahead log (one record per
/// applied operation or transaction) and the checkpoint files (one
/// record per manifest, scheme or partition file; storage/partition.h).
/// Reading distinguishes two damage classes:
///
///  - **Torn tail**: the *final* record is incomplete (partial header,
///    payload shorter than its declared length) or fails its checksum.
///    This is what an interrupted append or power cut leaves behind;
///    recovery silently drops it and reports `dropped_torn_tail`.
///  - **Interior corruption**: a record *followed by more bytes* fails
///    its checksum. A prefix of the log is gone — recovery cannot
///    trust anything after it, so reading fails with
///    StatusCode::kDataLoss.
///
/// A corrupted length field cannot always be told apart from a torn
/// tail (the declared payload may swallow the rest of the file); the
/// checksum makes this misclassification detectable only when the
/// record is followed by further bytes, which is the case the paper
/// trail actually needs to be loud about.

#ifndef GOOD_STORAGE_WAL_H_
#define GOOD_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/file_env.h"

namespace good::storage {

/// Bytes of framing overhead per record (length + checksum).
inline constexpr size_t kRecordHeaderSize = 8;

/// Appends `value` to `dst` as 4 little-endian bytes.
void AppendFixed32(std::string* dst, uint32_t value);

/// Decodes 4 little-endian bytes (`bytes.size()` must be >= 4).
uint32_t DecodeFixed32(std::string_view bytes);

/// Appends `value` to `dst` as 8 little-endian bytes.
void AppendFixed64(std::string* dst, uint64_t value);

/// Consumes 8 little-endian bytes from the front of `input`;
/// InvalidArgument if fewer remain.
Result<uint64_t> ConsumeFixed64(std::string_view* input);

/// Appends the framed record for `payload` to `dst`.
void AppendRecordTo(std::string* dst, std::string_view payload);

/// \brief Result of scanning a record file.
struct LogContents {
  /// Payloads of all intact records, in file order.
  std::vector<std::string> records;
  /// Bytes covered by intact records; anything past this offset is a
  /// dropped torn tail and must be truncated before further appends.
  uint64_t valid_bytes = 0;
  /// True iff a truncated or checksum-failing final record was dropped.
  bool dropped_torn_tail = false;
};

/// Scans `file_bytes` as a sequence of records. kDataLoss on interior
/// corruption (see file comment for the damage-class rules).
Result<LogContents> ReadLogRecords(std::string_view file_bytes);

/// \brief Appends framed records to a file, tracking offsets so a
/// failed logical operation can be rolled back by truncation.
class LogWriter {
 public:
  /// `size` is the current file size (appends start there);
  /// `sync_each` fsyncs after every record.
  LogWriter(std::unique_ptr<WritableFile> file, uint64_t size,
            bool sync_each)
      : file_(std::move(file)), size_(size), sync_each_(sync_each) {}

  /// Appends one record (and syncs it, when configured).
  Status AppendRecord(std::string_view payload);

  /// Truncates the file back to the offset before the most recent
  /// AppendRecord — used to undo a record whose operation then failed
  /// to apply, and to clear a torn append. Idempotent per append.
  Status UndoLastAppend();

  /// Truncates the file back to `offset` (which must be a record
  /// boundary the caller remembered) — the multi-record generalization
  /// of UndoLastAppend, used to roll an aborted transaction's records
  /// out of the log.
  Status TruncateTo(uint64_t offset);

  Status Sync() { return file_->Sync(); }
  Status Close() { return file_->Close(); }

  /// Current logical file size in bytes.
  uint64_t size() const { return size_; }

 private:
  std::unique_ptr<WritableFile> file_;
  uint64_t size_;
  uint64_t last_record_offset_ = 0;
  bool sync_each_;
};

}  // namespace good::storage

#endif  // GOOD_STORAGE_WAL_H_
