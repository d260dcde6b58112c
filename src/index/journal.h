// Append-only update journal for dynamic KDV point streams.
//
// A dynamic deployment (live crime feeds, sensor streams) applies
// insert/remove batches continuously. Rebuilding and re-persisting the
// whole index per batch would dominate, so durability comes from a
// write-ahead journal instead: every batch is CRC-framed and fsynced into
// the current segment before it is acknowledged, and a periodic checkpoint
// (serve/recovery_manager.h) folds the accumulated segments into a fresh
// checksummed index, committed by an atomic manifest flip
// (index/manifest.h).
//
// On-disk layout, rooted at a wal directory:
//
//   wal/seg-00000001.kdvj            segments, monotonically numbered
//   segment  = magic "KDVJ", uint32 version = 1, uint64 sequence
//   record   = uint32 payload_len, uint32 payload_crc, payload
//   payload  = uint8 op (1 insert / 2 remove), uint8 dim,
//              uint16 reserved = 0, uint32 count, count*dim doubles
//
// Crash semantics, the part that matters:
//   * Append fsyncs before returning OK (Options::fsync_each_append), so an
//     acknowledged batch survives a crash.
//   * A crash mid-append leaves a torn tail. Replay() verifies every frame;
//     a record that is short, oversized, or fails its CRC *at the end of
//     the highest-numbered segment* is a crash artifact: replay stops
//     before it, physically truncates the segment back to the last good
//     boundary, and reports the dropped bytes. The same damage anywhere
//     else cannot have been caused by a single crash and is reported as
//     DataLoss (bit rot / operator error) for the recovery manager to
//     quarantine.
//   * Rotation (new segment past max_segment_bytes, or an explicit
//     Rotate() at checkpoint time) never rewrites old segments, so folded
//     segments can be unlinked lazily.
//
// Thread safety: none. The journal is owned by the single writer that owns
// the dynamic dataset; concurrent readers go through checkpointed indexes.
#ifndef QUADKDV_INDEX_JOURNAL_H_
#define QUADKDV_INDEX_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "geom/point.h"
#include "util/status.h"

namespace kdv {

enum class JournalOp : uint8_t {
  kInsert = 1,
  kRemove = 2,
};

const char* JournalOpName(JournalOp op);  // "insert" / "remove"

struct JournalReplayStats {
  uint64_t segments_scanned = 0;
  uint64_t records_applied = 0;
  uint64_t points_applied = 0;
  bool tail_truncated = false;        // a torn tail was found and cut
  uint64_t torn_bytes_truncated = 0;  // bytes dropped from that tail
};

class Journal {
 public:
  struct Options {
    uint64_t max_segment_bytes = 4ull << 20;  // rotate past this size
    bool fsync_each_append = true;            // fsync before acking a batch
  };

  // Opens the journal rooted at directory `dir` (created if missing,
  // including one empty segment numbered `floor` when none exist at or
  // above it). `floor` is the manifest's journal_floor: segments below it
  // are folded into the index already and are ignored (and may be deleted
  // with DropSegmentsBelow).
  static StatusOr<std::unique_ptr<Journal>> Open(const std::string& dir,
                                                 uint64_t floor,
                                                 Options options);
  static StatusOr<std::unique_ptr<Journal>> Open(const std::string& dir,
                                                 uint64_t floor) {
    return Open(dir, floor, Options());
  }
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Durably appends one batch. `points` must be non-empty with uniform
  // dimensionality. On a non-OK return the tail may be torn; the next
  // Replay() repairs it and the batch must be considered not applied.
  Status Append(JournalOp op, const PointSet& points);

  // Replays every record in segments [floor, tail] in order, invoking `fn`
  // per batch. Repairs a torn tail (see above). Stops and returns the
  // first non-OK status from `fn`, or DataLoss for non-tail corruption.
  using ReplayFn = std::function<Status(JournalOp, const PointSet&)>;
  Status Replay(const ReplayFn& fn, JournalReplayStats* stats);

  // Closes the current segment and starts an empty successor; subsequent
  // appends land there. Returns the new tail's sequence number — the floor
  // a checkpoint that folds everything before it should commit.
  StatusOr<uint64_t> Rotate();

  // Unlinks segments numbered below `floor` (folded by a checkpoint) and
  // raises the replay floor. Best-effort: a segment that cannot be removed
  // is left for the next recovery sweep.
  void DropSegmentsBelow(uint64_t floor);

  uint64_t floor() const { return floor_; }
  uint64_t tail_sequence() const { return tail_seq_; }
  const std::string& dir() const { return dir_; }

  // "seg-%08llu.kdvj" for a sequence number.
  static std::string SegmentFileName(uint64_t sequence);

 private:
  Journal(std::string dir, uint64_t floor, Options options);

  std::string SegmentPath(uint64_t sequence) const;
  // Creates segment `sequence` (header only, fsynced) and points the write
  // fd at it.
  Status StartSegment(uint64_t sequence);
  Status CloseWriteFd();

  const std::string dir_;
  const Options options_;
  uint64_t floor_ = 1;
  uint64_t tail_seq_ = 0;
  uint64_t tail_bytes_ = 0;  // size of the tail segment
  int write_fd_ = -1;
};

}  // namespace kdv

#endif  // QUADKDV_INDEX_JOURNAL_H_
