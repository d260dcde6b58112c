// Fuzz target: the kd-tree index deserializer (index/serialization.h).
// This file format is what the scrubber and recovery manager re-load after
// crashes and bit rot, so LoadKdTree must reject arbitrary corruption with
// a Status — bounded allocations, no aborts — and any tree it does accept
// must be structurally usable.
#include <memory>

#include "fuzz_driver.h"
#include "index/kdtree.h"
#include "index/serialization.h"
#include "util/status.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static kdv_fuzz::ScratchFile scratch("index");
  if (!scratch.Write(data, size)) return 0;

  kdv::StatusOr<std::unique_ptr<kdv::KdTree>> loaded =
      kdv::LoadKdTree(scratch.path());
  if (loaded.ok()) {
    // Sections were CRC-verified, so acceptance means a usable tree: walk
    // the cheap structural accessors the serving path trusts.
    const kdv::KdTree& tree = **loaded;
    if (tree.num_points() == 0) __builtin_trap();
    (void)tree.point(tree.num_points() - 1);
  }
  return 0;
}
