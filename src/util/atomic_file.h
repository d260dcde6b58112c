// Crash-consistent file writes: write-temp → fsync → rename → fsync(dir).
//
// Every serializer that persists state callers may reload after a crash
// (the checksummed kd-tree index, the recovery manifest, bench JSON
// reports) must go through these helpers. The contract they provide:
//
//   * A successful AtomicWriteFile leaves exactly the new bytes at `path`,
//     durable past a power cut (data fsynced before the rename, directory
//     entry fsynced after).
//   * A failed or interrupted write leaves the previous contents of `path`
//     untouched. The only possible residue is a stale "<path>.kdvtmp" file,
//     which the next write to the same path reclaims and which recovery
//     treats as disposable.
//
// There is deliberately no streaming writer: state files here are staged in
// memory anyway (sections must be CRC'd before anything hits the disk), and
// a one-shot write keeps the failure matrix small. The append-only update
// journal (index/journal.h) has different durability needs and manages its
// own fds.
//
// Failpoint sites (chaos tests; compiled out of production builds):
//   io.write   — short write: half the payload lands, then the write fails
//   io.fsync   — data written but the fsync reports failure
//   io.rename  — temp file complete and synced, rename never happens
#ifndef QUADKDV_UTIL_ATOMIC_FILE_H_
#define QUADKDV_UTIL_ATOMIC_FILE_H_

#include <cstddef>
#include <string>

#include "util/status.h"

namespace kdv {

// Atomically replaces `path` with `len` bytes of `data`. On any error the
// previous contents of `path` are intact.
Status AtomicWriteFile(const std::string& path, const void* data, size_t len);
Status AtomicWriteFile(const std::string& path, const std::string& data);

// fsyncs the directory containing `path`, making a completed rename/unlink
// of `path` durable. Best effort on filesystems that refuse directory fds.
Status FsyncParentDir(const std::string& path);

// The sibling temp name AtomicWriteFile stages into: "<path>.kdvtmp".
std::string TempPathFor(const std::string& path);

}  // namespace kdv

#endif  // QUADKDV_UTIL_ATOMIC_FILE_H_
