// Crash-consistency suite for the persistence stack: atomic file writes,
// the manifest commit point, the update journal, and the recovery manager.
//
// Part 1 exercises the building blocks directly (atomic overwrite keeps the
// old bytes on failure; manifest and journal survive round trips; a torn
// journal tail is repaired, mid-segment rot is refused). Torn tails are
// produced both by hand (appending garbage bytes, runs in every build) and
// by failpoint (needs -DKDV_FAILPOINTS=ON, skips elsewhere).
//
// Part 2 drives RecoveryManager through every policy branch: happy-path
// replay, checkpoint folding, quarantine + CSV rebuild for a rotten index,
// index scavenging for a rotten manifest, orphan/temp cleanup.
//
// Part 3 is the chaos sweep from the issue: every I/O failpoint site ×
// {index write, journal append, checkpoint}. The invariant is the whole
// point of the subsystem — after an injected fault at any site, recovery
// must land on a checksum-valid *pre* or *post* state, never a torn hybrid.
// States are compared bitwise via rendered density frames over
// lexicographically sorted point sets (kd-tree construction is
// input-order-sensitive; the density it serves must not be).
#include "serve/recovery_manager.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "index/journal.h"
#include "index/manifest.h"
#include "index/serialization.h"
#include "util/atomic_file.h"
#include "util/failpoint.h"
#include "viz/parallel_render.h"
#include "viz/pixel_grid.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

namespace fs = std::filesystem;

// Fresh, empty scratch directory under the test temp root.
std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/kdv_recovery_" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir;
}

std::string ReadFileString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileString(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Flips one byte in place, turning a checksummed file into bit rot.
void CorruptByteAt(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  ASSERT_TRUE(f.good()) << path << " shorter than offset " << offset;
  f.seekp(static_cast<std::streamoff>(offset));
  c = static_cast<char>(c ^ 0x5A);
  f.write(&c, 1);
  ASSERT_TRUE(f.good());
}

void AppendGarbage(const std::string& path, const std::string& garbage) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool PointLess(const Point& a, const Point& b) {
  if (a.dim() != b.dim()) return a.dim() < b.dim();
  for (int i = 0; i < a.dim(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

// Bitwise state fingerprint: the certified density frame rendered from the
// sorted point set. Two states with the same fingerprint serve the same
// densities; sorting removes the kd-tree's input-order sensitivity.
std::vector<double> FrameSignature(const PointSet& points) {
  PointSet sorted = points;
  std::sort(sorted.begin(), sorted.end(), PointLess);
  Workbench bench(std::move(sorted), KernelType::kGaussian);
  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
  PixelGrid grid(16, 12, bench.data_bounds());
  DensityFrame frame = RenderEpsFrame(quad, grid, 0.05, nullptr);
  return frame.values;
}

PointSet BasePoints() { return GenerateMixture(CrimeSpec(0.002)); }

// Deterministic 2-d batch, disjoint from the mixture clusters.
PointSet MakeBatch(int tag, int n) {
  PointSet out;
  for (int i = 0; i < n; ++i) {
    Point p(2);
    p[0] = 40.0 + 3.0 * tag + 0.25 * i;
    p[1] = -20.0 - 2.0 * tag + 0.125 * i;
    out.push_back(p);
  }
  return out;
}

void AppendAll(PointSet* dst, const PointSet& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

// ---------------------------------------------------------------------------
// Atomic file writes
// ---------------------------------------------------------------------------

TEST(AtomicFileTest, CreatesOverwritesAndLeavesNoTemp) {
  const std::string dir = TestDir("atomic_basic");
  const std::string path = dir + "/state.bin";
  ASSERT_TRUE(AtomicWriteFile(path, std::string("first contents")).ok());
  EXPECT_EQ(ReadFileString(path), "first contents");
  ASSERT_TRUE(AtomicWriteFile(path, std::string("second, longer contents")).ok());
  EXPECT_EQ(ReadFileString(path), "second, longer contents");
  EXPECT_FALSE(fs::exists(TempPathFor(path)));
}

TEST(AtomicFileTest, ReclaimsStaleTempFromPriorTornWrite) {
  const std::string dir = TestDir("atomic_stale");
  const std::string path = dir + "/state.bin";
  WriteFileString(TempPathFor(path), "half-written junk left by a crash");
  ASSERT_TRUE(AtomicWriteFile(path, std::string("clean")).ok());
  EXPECT_EQ(ReadFileString(path), "clean");
  EXPECT_FALSE(fs::exists(TempPathFor(path)));
}

class AtomicFileChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::enabled()) {
      GTEST_SKIP() << "failpoints not compiled in (build with "
                      "-DKDV_FAILPOINTS=ON)";
    }
    failpoint::Reset();
  }
  void TearDown() override { failpoint::Reset(); }
};

TEST_F(AtomicFileChaosTest, FailedOverwriteLeavesOldContentsIntact) {
  for (const char* site : {"io.write", "io.fsync", "io.rename"}) {
    SCOPED_TRACE(site);
    const std::string dir = TestDir(std::string("atomic_fault_") + site);
    const std::string path = dir + "/state.bin";
    ASSERT_TRUE(AtomicWriteFile(path, std::string("committed")).ok());
    ASSERT_TRUE(failpoint::Arm(site, failpoint::Action::kError).ok());
    Status status = AtomicWriteFile(path, std::string("torn replacement"));
    failpoint::Reset();
    EXPECT_FALSE(status.ok()) << status.ToString();
    EXPECT_EQ(ReadFileString(path), "committed");
    // The next un-faulted write reclaims whatever residue the fault left.
    ASSERT_TRUE(AtomicWriteFile(path, std::string("repaired")).ok());
    EXPECT_EQ(ReadFileString(path), "repaired");
    EXPECT_FALSE(fs::exists(TempPathFor(path)));
  }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

TEST(ManifestTest, RoundTripsAllFields) {
  const std::string path = TestDir("manifest_rt") + "/MANIFEST";
  Manifest m;
  m.generation = 7;
  m.journal_floor = 42;
  m.index_file = IndexFileName(7);
  ASSERT_TRUE(SaveManifest(path, m).ok());
  StatusOr<Manifest> loaded = LoadManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->generation, 7u);
  EXPECT_EQ(loaded->journal_floor, 42u);
  EXPECT_EQ(loaded->index_file, "index-00000007.kdv");
}

TEST(ManifestTest, MissingIsNotFoundAndRotIsDataLoss) {
  const std::string dir = TestDir("manifest_rot");
  const std::string path = dir + "/MANIFEST";
  EXPECT_EQ(LoadManifest(path).status().code(), StatusCode::kNotFound);

  Manifest m;
  m.generation = 1;
  m.journal_floor = 1;
  m.index_file = IndexFileName(1);
  ASSERT_TRUE(SaveManifest(path, m).ok());
  // Flip a body byte (past the 4-byte magic): the CRC must catch it.
  CorruptByteAt(path, 9);
  EXPECT_EQ(LoadManifest(path).status().code(), StatusCode::kDataLoss);

  // Truncation is also DataLoss, not a crash.
  ASSERT_TRUE(SaveManifest(path, m).ok());
  const std::string whole = ReadFileString(path);
  WriteFileString(path, whole.substr(0, whole.size() / 2));
  EXPECT_EQ(LoadManifest(path).status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

struct ReplayedBatch {
  JournalOp op;
  PointSet points;
};

Status CollectReplay(std::vector<ReplayedBatch>* out, JournalOp op,
                     const PointSet& points) {
  out->push_back({op, points});
  return OkStatus();
}

TEST(JournalTest, AppendsAndReplaysBatchesInOrder) {
  const std::string dir = TestDir("journal_rt") + "/wal";
  PointSet inserts = MakeBatch(1, 5);
  PointSet removes = MakeBatch(1, 2);
  {
    StatusOr<std::unique_ptr<Journal>> j = Journal::Open(dir, 1);
    ASSERT_TRUE(j.ok()) << j.status().ToString();
    ASSERT_TRUE((*j)->Append(JournalOp::kInsert, inserts).ok());
    ASSERT_TRUE((*j)->Append(JournalOp::kRemove, removes).ok());
  }
  StatusOr<std::unique_ptr<Journal>> j = Journal::Open(dir, 1);
  ASSERT_TRUE(j.ok());
  std::vector<ReplayedBatch> seen;
  JournalReplayStats stats;
  ASSERT_TRUE((*j)
                  ->Replay([&](JournalOp op, const PointSet& pts) {
                    return CollectReplay(&seen, op, pts);
                  },
                           &stats)
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].op, JournalOp::kInsert);
  EXPECT_EQ(seen[0].points, inserts);
  EXPECT_EQ(seen[1].op, JournalOp::kRemove);
  EXPECT_EQ(seen[1].points, removes);
  EXPECT_EQ(stats.records_applied, 2u);
  EXPECT_EQ(stats.points_applied, 7u);
  EXPECT_FALSE(stats.tail_truncated);
}

TEST(JournalTest, RejectsEmptyAndRaggedBatches) {
  const std::string dir = TestDir("journal_bad") + "/wal";
  StatusOr<std::unique_ptr<Journal>> j = Journal::Open(dir, 1);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ((*j)->Append(JournalOp::kInsert, PointSet{}).code(),
            StatusCode::kInvalidArgument);
  PointSet ragged;
  ragged.push_back(Point(2));
  ragged.push_back(Point(3));
  EXPECT_EQ((*j)->Append(JournalOp::kInsert, ragged).code(),
            StatusCode::kInvalidArgument);
}

TEST(JournalTest, RotatesPastSegmentCapAndDropsFoldedSegments) {
  const std::string dir = TestDir("journal_rotate") + "/wal";
  Journal::Options options;
  options.max_segment_bytes = 64;  // every append lands in a fresh segment
  StatusOr<std::unique_ptr<Journal>> j = Journal::Open(dir, 1, options);
  ASSERT_TRUE(j.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*j)->Append(JournalOp::kInsert, MakeBatch(i, 3)).ok());
  }
  EXPECT_GT((*j)->tail_sequence(), 1u);

  StatusOr<uint64_t> new_floor = (*j)->Rotate();
  ASSERT_TRUE(new_floor.ok());
  (*j)->DropSegmentsBelow(*new_floor);
  EXPECT_EQ((*j)->floor(), *new_floor);
  EXPECT_FALSE(fs::exists(dir + "/" + Journal::SegmentFileName(1)));

  // Everything folded away: a replay from the new floor sees nothing.
  std::vector<ReplayedBatch> seen;
  JournalReplayStats stats;
  ASSERT_TRUE((*j)
                  ->Replay([&](JournalOp op, const PointSet& pts) {
                    return CollectReplay(&seen, op, pts);
                  },
                           &stats)
                  .ok());
  EXPECT_TRUE(seen.empty());
}

TEST(JournalTest, TornTailIsTruncatedOnceAndReplayIsIdempotent) {
  const std::string dir = TestDir("journal_torn") + "/wal";
  {
    StatusOr<std::unique_ptr<Journal>> j = Journal::Open(dir, 1);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->Append(JournalOp::kInsert, MakeBatch(0, 4)).ok());
    ASSERT_TRUE((*j)->Append(JournalOp::kInsert, MakeBatch(1, 4)).ok());
  }
  const std::string seg = dir + "/" + Journal::SegmentFileName(1);
  const uint64_t good_size = fs::file_size(seg);
  const std::string garbage = "torn half-record!";
  AppendGarbage(seg, garbage);

  StatusOr<std::unique_ptr<Journal>> j = Journal::Open(dir, 1);
  ASSERT_TRUE(j.ok());
  std::vector<ReplayedBatch> seen;
  JournalReplayStats stats;
  ASSERT_TRUE((*j)
                  ->Replay([&](JournalOp op, const PointSet& pts) {
                    return CollectReplay(&seen, op, pts);
                  },
                           &stats)
                  .ok());
  EXPECT_EQ(seen.size(), 2u);  // both acknowledged batches survive
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.torn_bytes_truncated, garbage.size());
  EXPECT_EQ(fs::file_size(seg), good_size);  // physically repaired

  // The tail is clean now: replaying again truncates nothing, and the
  // repaired segment accepts new appends.
  seen.clear();
  JournalReplayStats again;
  ASSERT_TRUE((*j)
                  ->Replay([&](JournalOp op, const PointSet& pts) {
                    return CollectReplay(&seen, op, pts);
                  },
                           &again)
                  .ok());
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_FALSE(again.tail_truncated);
  EXPECT_TRUE((*j)->Append(JournalOp::kInsert, MakeBatch(2, 1)).ok());
}

TEST(JournalTest, MidSegmentCorruptionIsDataLossNotACrashArtifact) {
  const std::string dir = TestDir("journal_rot") + "/wal";
  {
    StatusOr<std::unique_ptr<Journal>> j = Journal::Open(dir, 1);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->Append(JournalOp::kInsert, MakeBatch(0, 4)).ok());
    ASSERT_TRUE((*j)->Rotate().ok());
    ASSERT_TRUE((*j)->Append(JournalOp::kInsert, MakeBatch(1, 4)).ok());
  }
  // Damage a payload byte in segment 1 — NOT the tail segment, so this can
  // only be bit rot and must be refused, never "repaired" by truncation.
  CorruptByteAt(dir + "/" + Journal::SegmentFileName(1), 16 + 8 + 4);

  StatusOr<std::unique_ptr<Journal>> j = Journal::Open(dir, 1);
  ASSERT_TRUE(j.ok());
  JournalReplayStats stats;
  Status status = (*j)->Replay(
      [](JournalOp, const PointSet&) { return OkStatus(); }, &stats);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_FALSE(stats.tail_truncated);
}

class JournalChaosTest : public AtomicFileChaosTest {};

TEST_F(JournalChaosTest, InjectedTornTailIsRepairedOnReplay) {
  const std::string dir = TestDir("journal_fp") + "/wal";
  StatusOr<std::unique_ptr<Journal>> j = Journal::Open(dir, 1);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE((*j)->Append(JournalOp::kInsert, MakeBatch(0, 4)).ok());

  ASSERT_TRUE(failpoint::Arm("journal.tail", failpoint::Action::kError).ok());
  Status torn = (*j)->Append(JournalOp::kInsert, MakeBatch(1, 4));
  failpoint::Reset();
  ASSERT_FALSE(torn.ok());

  // Reopen cold, as recovery would: the acknowledged batch replays, the
  // torn one is cut away.
  j->reset();
  j = Journal::Open(dir, 1);
  ASSERT_TRUE(j.ok());
  std::vector<ReplayedBatch> seen;
  JournalReplayStats stats;
  ASSERT_TRUE((*j)
                  ->Replay([&](JournalOp op, const PointSet& pts) {
                    return CollectReplay(&seen, op, pts);
                  },
                           &stats)
                  .ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].points, MakeBatch(0, 4));
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_GT(stats.torn_bytes_truncated, 0u);
}

// ---------------------------------------------------------------------------
// RecoveryManager policy branches
// ---------------------------------------------------------------------------

TEST(RecoveryManagerTest, BootstrapThenRecoverServesIdenticalDensities) {
  const std::string dir = TestDir("rm_roundtrip");
  RecoveryOptions options;
  options.state_dir = dir;
  const PointSet base = BasePoints();

  {
    StatusOr<RecoveredState> boot = RecoveryManager::Bootstrap(options, base);
    ASSERT_TRUE(boot.ok()) << boot.status().ToString();
    EXPECT_EQ(boot->generation, 1u);
    EXPECT_TRUE(fs::exists(dir + "/MANIFEST"));
    EXPECT_TRUE(fs::exists(dir + "/" + IndexFileName(1)));
    EXPECT_TRUE(fs::exists(dir + "/wal/" + Journal::SegmentFileName(1)));
  }  // close the bootstrap journal fd before recovering cold

  RecoveryReport report;
  StatusOr<RecoveredState> rec = RecoveryManager::Recover(options, &report);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(report.source, RecoverySource::kManifest);
  EXPECT_EQ(report.generation, 1u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_FALSE(report.possible_data_loss);
  EXPECT_FALSE(report.journal_quarantined);
  EXPECT_EQ(FrameSignature(rec->live_points), FrameSignature(base));
  EXPECT_NE(report.Summary().find("manifest"), std::string::npos);
}

TEST(RecoveryManagerTest, BootstrapRefusesToClobberExistingState) {
  const std::string dir = TestDir("rm_noclobber");
  RecoveryOptions options;
  options.state_dir = dir;
  ASSERT_TRUE(RecoveryManager::Bootstrap(options, MakeBatch(0, 8)).ok());
  StatusOr<RecoveredState> again =
      RecoveryManager::Bootstrap(options, MakeBatch(1, 8));
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RecoveryManagerTest, JournaledInsertsAndRemovesReplayOnRecover) {
  const std::string dir = TestDir("rm_replay");
  RecoveryOptions options;
  options.state_dir = dir;
  const PointSet base = BasePoints();
  const PointSet batch = MakeBatch(3, 6);

  std::optional<RecoveredState> state;
  {
    StatusOr<RecoveredState> boot = RecoveryManager::Bootstrap(options, base);
    ASSERT_TRUE(boot.ok());
    state.emplace(*std::move(boot));
  }
  ASSERT_TRUE(state->journal->Append(JournalOp::kInsert, batch).ok());
  PointSet removed;
  removed.push_back(base.front());
  ASSERT_TRUE(state->journal->Append(JournalOp::kRemove, removed).ok());
  state.reset();

  PointSet expected = base;
  AppendAll(&expected, batch);
  expected.erase(expected.begin());

  RecoveryReport report;
  StatusOr<RecoveredState> rec = RecoveryManager::Recover(options, &report);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(report.journal_stats.records_applied, 2u);
  EXPECT_EQ(rec->live_points.size(), expected.size());
  EXPECT_EQ(FrameSignature(rec->live_points), FrameSignature(expected));
}

TEST(RecoveryManagerTest, CheckpointFoldsJournalIntoNextGeneration) {
  const std::string dir = TestDir("rm_checkpoint");
  RecoveryOptions options;
  options.state_dir = dir;
  const PointSet base = BasePoints();
  const PointSet batch = MakeBatch(5, 9);

  std::optional<RecoveredState> state;
  {
    StatusOr<RecoveredState> boot = RecoveryManager::Bootstrap(options, base);
    ASSERT_TRUE(boot.ok());
    state.emplace(*std::move(boot));
  }
  ASSERT_TRUE(state->journal->Append(JournalOp::kInsert, batch).ok());
  AppendAll(&state->live_points, batch);

  ASSERT_TRUE(RecoveryManager::RunCheckpoint(&*state).ok());
  EXPECT_EQ(state->generation, 2u);
  EXPECT_TRUE(fs::exists(dir + "/" + IndexFileName(2)));
  EXPECT_FALSE(fs::exists(dir + "/" + IndexFileName(1)));  // folded away
  state.reset();

  PointSet expected = base;
  AppendAll(&expected, batch);
  RecoveryReport report;
  StatusOr<RecoveredState> rec = RecoveryManager::Recover(options, &report);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(report.generation, 2u);
  EXPECT_EQ(report.journal_stats.records_applied, 0u);  // nothing left to replay
  EXPECT_EQ(FrameSignature(rec->live_points), FrameSignature(expected));
}

TEST(RecoveryManagerTest, RottenIndexIsQuarantinedAndRebuiltFromCsv) {
  const std::string dir = TestDir("rm_csv");
  const std::string csv = dir + "/fallback.csv";
  const PointSet base = BasePoints();
  ASSERT_TRUE(SavePointsCsv(csv, base).ok());

  RecoveryOptions options;
  options.state_dir = dir;
  options.csv_fallback = csv;
  {
    StatusOr<RecoveredState> boot = RecoveryManager::Bootstrap(options, base);
    ASSERT_TRUE(boot.ok());
    // A journaled batch that will be lost with the index it was a delta of.
    ASSERT_TRUE(boot->journal->Append(JournalOp::kInsert, MakeBatch(7, 4)).ok());
  }
  const std::string index_path = dir + "/" + IndexFileName(1);
  CorruptByteAt(index_path, fs::file_size(index_path) / 2);

  RecoveryReport report;
  StatusOr<RecoveredState> rec = RecoveryManager::Recover(options, &report);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(report.source, RecoverySource::kCsvRebuild);
  EXPECT_TRUE(report.possible_data_loss);
  EXPECT_TRUE(report.journal_quarantined);
  ASSERT_FALSE(report.quarantined.empty());
  bool index_quarantined = false;
  for (const std::string& q : report.quarantined) {
    EXPECT_TRUE(fs::exists(q)) << q;
    if (q.find("index-00000001.kdv.quarantine") != std::string::npos) {
      index_quarantined = true;
    }
  }
  EXPECT_TRUE(index_quarantined);
  // The rebuilt dataset is exactly the CSV: the journaled batch is gone,
  // which is why the report screams possible data loss.
  EXPECT_EQ(FrameSignature(rec->live_points), FrameSignature(base));
  EXPECT_NE(report.Summary().find("POSSIBLE DATA LOSS"), std::string::npos);
}

TEST(RecoveryManagerTest, RottenIndexWithoutFallbackFailsLoudly) {
  const std::string dir = TestDir("rm_nofallback");
  RecoveryOptions options;
  options.state_dir = dir;
  ASSERT_TRUE(RecoveryManager::Bootstrap(options, MakeBatch(0, 16)).ok());
  const std::string index_path = dir + "/" + IndexFileName(1);
  CorruptByteAt(index_path, fs::file_size(index_path) / 2);

  RecoveryReport report;
  StatusOr<RecoveredState> rec = RecoveryManager::Recover(options, &report);
  EXPECT_FALSE(rec.ok());
}

TEST(RecoveryManagerTest, RottenManifestScavengesHighestValidIndex) {
  const std::string dir = TestDir("rm_scavenge");
  RecoveryOptions options;
  options.state_dir = dir;
  const PointSet base = BasePoints();
  ASSERT_TRUE(RecoveryManager::Bootstrap(options, base).ok());
  CorruptByteAt(dir + "/MANIFEST", 9);

  {
    RecoveryReport report;
    StatusOr<RecoveredState> rec = RecoveryManager::Recover(options, &report);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(report.source, RecoverySource::kScavengedIndex);
    EXPECT_TRUE(report.possible_data_loss);
    bool manifest_quarantined = false;
    for (const std::string& q : report.quarantined) {
      if (q.find("MANIFEST.quarantine") != std::string::npos) {
        manifest_quarantined = true;
      }
    }
    EXPECT_TRUE(manifest_quarantined);
    EXPECT_EQ(FrameSignature(rec->live_points), FrameSignature(base));
  }

  // The scavenge re-committed a fresh manifest: the next recovery is a
  // plain happy path again.
  RecoveryReport second;
  StatusOr<RecoveredState> again = RecoveryManager::Recover(options, &second);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(second.source, RecoverySource::kManifest);
  EXPECT_FALSE(second.possible_data_loss);
}

TEST(RecoveryManagerTest, OrphanIndexesAndStaleTempsAreSweptAway) {
  const std::string dir = TestDir("rm_orphans");
  RecoveryOptions options;
  options.state_dir = dir;
  ASSERT_TRUE(RecoveryManager::Bootstrap(options, MakeBatch(0, 16)).ok());
  // An uncommitted checkpoint leftover and a torn atomic-write temp.
  WriteFileString(dir + "/" + IndexFileName(9), "never committed");
  WriteFileString(dir + "/MANIFEST.kdvtmp", "torn temp");

  RecoveryReport report;
  StatusOr<RecoveredState> rec = RecoveryManager::Recover(options, &report);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(report.orphan_indexes_removed, 1u);
  EXPECT_GE(report.stale_temps_removed, 1u);
  EXPECT_FALSE(fs::exists(dir + "/" + IndexFileName(9)));
  EXPECT_FALSE(fs::exists(dir + "/MANIFEST.kdvtmp"));
}

// ---------------------------------------------------------------------------
// The chaos sweep: every I/O site × every persistence operation
// ---------------------------------------------------------------------------

class RecoveryChaosTest : public AtomicFileChaosTest {};

TEST_F(RecoveryChaosTest, EveryIoFaultRecoversToPreOrPostStateNeverTorn) {
  enum class Op { kIndexWrite, kJournalAppend, kCheckpoint };
  struct OpSpec {
    Op op;
    const char* name;
  };
  const OpSpec kOps[] = {{Op::kIndexWrite, "index_write"},
                         {Op::kJournalAppend, "journal_append"},
                         {Op::kCheckpoint, "checkpoint"}};
  const char* kSites[] = {"io.write", "io.fsync", "io.rename", "journal.tail"};

  const PointSet base = BasePoints();
  const PointSet resident = MakeBatch(1, 8);  // journaled before the fault
  const PointSet batch = MakeBatch(2, 6);     // the batch the fault may tear

  for (const char* site : kSites) {
    for (const OpSpec& spec : kOps) {
      SCOPED_TRACE(std::string(site) + " x " + spec.name);
      const std::string dir =
          TestDir(std::string("sweep_") + site + "_" + spec.name);
      RecoveryOptions options;
      options.state_dir = dir;

      std::optional<RecoveredState> state;
      {
        StatusOr<RecoveredState> boot =
            RecoveryManager::Bootstrap(options, base);
        ASSERT_TRUE(boot.ok()) << boot.status().ToString();
        state.emplace(*std::move(boot));
      }
      ASSERT_TRUE(state->journal->Append(JournalOp::kInsert, resident).ok());
      AppendAll(&state->live_points, resident);

      const PointSet pre = state->live_points;
      // Acceptable post-fault states. The index write and the checkpoint
      // never change the live set, so only `pre` is legal for them. A torn
      // append must be treated as not-applied — but an io.fsync fault can
      // leave the record fully durable, so either state is legal.
      std::vector<PointSet> legal = {pre};

      // max_hits=1: the fault hits the operation under test exactly once
      // and never fires again (recovery itself must run un-faulted).
      ASSERT_TRUE(
          failpoint::Arm(site, failpoint::Action::kError, 10, /*max_hits=*/1)
              .ok());
      switch (spec.op) {
        case Op::kIndexWrite: {
          // Re-persisting the committed index: failure must leave the old
          // checksummed bytes, success rewrites them identically.
          (void)SaveKdTree(*state->tree,
                           dir + "/" + IndexFileName(state->generation));
          break;
        }
        case Op::kJournalAppend: {
          (void)state->journal->Append(JournalOp::kInsert, batch);
          PointSet post = pre;
          AppendAll(&post, batch);
          legal.push_back(std::move(post));
          break;
        }
        case Op::kCheckpoint: {
          (void)RecoveryManager::RunCheckpoint(&*state);
          break;
        }
      }
      failpoint::Reset();
      state.reset();  // crash: drop every open fd, recover cold

      RecoveryReport report;
      StatusOr<RecoveredState> rec = RecoveryManager::Recover(options, &report);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString() << "\n"
                            << report.Summary();
      const std::vector<double> got = FrameSignature(rec->live_points);
      bool matched = false;
      for (const PointSet& candidate : legal) {
        if (got == FrameSignature(candidate)) {
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched)
          << "recovered state is neither pre nor post: " << report.Summary();

      // Whatever the recovered state, it must be fully servable: the
      // journal accepts appends and a follow-up checkpoint commits.
      ASSERT_TRUE(rec->journal->Append(JournalOp::kInsert, MakeBatch(9, 2)).ok());
      AppendAll(&rec->live_points, MakeBatch(9, 2));
      EXPECT_TRUE(RecoveryManager::RunCheckpoint(&*rec).ok());
    }
  }
}

}  // namespace
}  // namespace kdv
