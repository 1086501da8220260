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
///
/// One scanner reads a log: ScanLogRecords walks the whole file, keeps
/// every frame whose checksum verifies, and classifies every other byte
/// range. The framing has no magic number, so after damage the scanner
/// slides forward one byte at a time until some offset's header
/// describes a non-empty payload that checksums. A false resync needs a
/// 32-bit CRC collision against random bytes; frames after a genuine
/// resync point verify like any other. Recovery then applies one of two
/// policies to the same scan:
///
///  - **Strict** (ReadLogRecords): the file may end in a **torn tail**
///    — one dropped range that starts where the clean prefix ends and
///    runs to end of file, which is what an interrupted append or
///    power cut leaves behind. It is dropped and reported as
///    `dropped_torn_tail`. Any other damage is kDataLoss. A corrupted
///    length word whose declared payload swallows the rest of the file
///    therefore reads as a torn tail only when no intact frame follows
///    it; when one does, the bytes past it were acknowledged, and
///    dropping them silently would lose them.
///  - **Salvage** (Database::Open in a salvage mode): keep the verified
///    frames past the damage and quarantine the dropped ranges. A frame
///    past a damaged region may checksum perfectly yet depend on lost
///    operations, so only the contiguous-sequence prefix is replayed.
///
/// Checkpoint files hold exactly one record; ReadSingleRecord reads
/// them without a scan.

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

/// \brief Why a byte range of a scanned file was not kept.
enum class SalvageDropReason {
  /// A whole frame whose stored CRC does not match its payload, or a
  /// header whose declared payload swallows a later verifiable frame.
  kBadChecksum,
  /// A header whose declared payload length runs past the end of the
  /// file (torn final append, or a corrupted length field).
  kTruncatedPayload,
  /// Fewer than kRecordHeaderSize bytes at end of file.
  kPartialHeader,
  /// Bytes skipped while hunting for the next verifiable frame after
  /// damage (no parseable header at these offsets).
  kResyncSkip,
  /// A checksum-intact frame that cannot be replayed: it follows a
  /// hole in the operation sequence (or fails to parse/execute), so
  /// executing it against the recovered prefix would be unsound.
  /// Decided by replay, never by the scanner.
  kUnreplayable,
};

std::string_view SalvageDropReasonToString(SalvageDropReason reason);

/// \brief A frame whose checksum verified, borrowed from the scanned
/// buffer: it is valid only while that buffer is.
struct LogFrame {
  /// Byte offset of the frame header in the scanned file.
  uint64_t offset = 0;
  std::string_view payload;
};

/// \brief A byte range the scan dropped.
struct DroppedRange {
  uint64_t offset = 0;
  uint64_t length = 0;
  SalvageDropReason reason = SalvageDropReason::kBadChecksum;
};

/// \brief Structured outcome of a scan.
struct SalvageReport {
  size_t frames_kept = 0;
  size_t frames_dropped = 0;  // bad-checksum + truncated-payload drops
  uint64_t bytes_kept = 0;
  uint64_t bytes_dropped = 0;
  /// Length of the leading undamaged prefix: where the first dropped
  /// range starts (the file size when nothing was dropped). Strict
  /// reading accepts the file only when nothing past this offset but
  /// a torn tail remains; frames past it verified only after a resync.
  uint64_t clean_prefix_bytes = 0;
  /// True iff the file had no damage at all.
  bool clean = false;
  std::vector<DroppedRange> dropped;

  /// One-line human summary ("kept 17 frames / 2041 B, dropped 2
  /// ranges / 63 B").
  std::string ToString() const;
};

/// \brief Every verified frame of a file and every range dropped.
struct LogScan {
  std::vector<LogFrame> frames;
  SalvageReport report;
};

/// Scans `file_bytes` as a sequence of records, keeping every
/// checksum-verified frame and recording every dropped byte range (see
/// the file comment). Never fails: a fully corrupt file yields zero
/// frames and one big dropped range. The frames borrow `file_bytes`.
LogScan ScanLogRecords(std::string_view file_bytes);

/// The strict policy over a scan of a `file_size`-byte file: OK iff the
/// scan is clean or its only damage is the torn tail; otherwise
/// kDataLoss naming the first dropped range.
Status CheckTornTailOnly(const SalvageReport& report, uint64_t file_size);

/// \brief A record file read under the strict policy.
struct LogContents {
  /// Payloads of all intact records, in file order, borrowed from the
  /// buffer that was read.
  std::vector<std::string_view> records;
  /// Bytes covered by intact records; anything past this offset is a
  /// dropped torn tail and must be truncated before further appends.
  uint64_t valid_bytes = 0;
  /// True iff a torn tail was dropped.
  bool dropped_torn_tail = false;
};

/// Reads `file_bytes` under the strict policy: ScanLogRecords, then
/// kDataLoss unless CheckTornTailOnly holds.
Result<LogContents> ReadLogRecords(std::string_view file_bytes);

/// The payload of a file that must hold exactly one intact record and
/// nothing else (a manifest, scheme or partition file); kDataLoss
/// otherwise. Borrows `file_bytes`.
Result<std::string_view> ReadSingleRecord(std::string_view file_bytes);

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
