#include "serve/recovery_manager.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "data/datasets.h"
#include "index/manifest.h"
#include "index/serialization.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/timer.h"

namespace kdv {

namespace {

namespace fs = std::filesystem;

constexpr char kManifestName[] = "MANIFEST";
constexpr char kWalDirName[] = "wal";
constexpr char kQuarantineSuffix[] = ".quarantine";

// Registry mirror of recovery activity. Recovery is rare and slow; the
// interesting signals are that it ran at all, what it quarantined, and how
// long it took.
struct RecoveryObs {
  obs::Counter* runs;
  obs::Counter* quarantined;
  obs::Histogram* seconds;
  RecoveryObs() {
    auto& r = obs::MetricsRegistry::Global();
    runs = r.GetCounter("kdv_recovery_runs_total");
    quarantined = r.GetCounter("kdv_recovery_quarantined_total");
    seconds = r.GetHistogram("kdv_recovery_seconds");
  }
  static RecoveryObs& Get() {
    static RecoveryObs& o = *new RecoveryObs();
    return o;
  }
};

// RAII: one Recover() call = one run counted and one duration sample, on
// every exit path; the quarantine tally is read from the report at the end.
class RecoveryRunScope {
 public:
  explicit RecoveryRunScope(const RecoveryReport* rep) : rep_(rep) {}
  ~RecoveryRunScope() {
    RecoveryObs& o = RecoveryObs::Get();
    o.runs->Increment();
    if (!rep_->quarantined.empty()) {
      o.quarantined->Increment(rep_->quarantined.size());
    }
    o.seconds->Record(timer_.ElapsedSeconds());
  }
  RecoveryRunScope(const RecoveryRunScope&) = delete;
  RecoveryRunScope& operator=(const RecoveryRunScope&) = delete;

 private:
  const RecoveryReport* rep_;
  Timer timer_;
};

std::string ManifestPath(const std::string& state_dir) {
  return state_dir + "/" + kManifestName;
}

std::string WalDir(const std::string& state_dir) {
  return state_dir + "/" + kWalDirName;
}

// Renames `path` to `path`.quarantine (clobbering an earlier quarantine of
// the same file) and records it. Removal failures are not fatal: recovery
// must make progress even on a read-mostly-broken disk.
void Quarantine(const std::string& path, RecoveryReport* report) {
  std::error_code ec;
  fs::rename(path, path + kQuarantineSuffix, ec);
  if (!ec) report->quarantined.push_back(path + kQuarantineSuffix);
}

// Parses an index-file generation out of `name`, tolerating a .quarantine
// suffix. Returns 0 (never a valid generation) on mismatch.
uint64_t ParseIndexGeneration(std::string name) {
  const size_t q = name.rfind(kQuarantineSuffix);
  if (q != std::string::npos && q == name.size() - std::strlen(kQuarantineSuffix)) {
    name.resize(q);
  }
  unsigned long long gen = 0;
  char tail = '\0';
  if (std::sscanf(name.c_str(), "index-%llu.kdv%c", &gen, &tail) != 1) {
    return 0;
  }
  return gen;
}

uint64_t ParseSegmentSequence(std::string name) {
  const size_t q = name.rfind(kQuarantineSuffix);
  if (q != std::string::npos && q == name.size() - std::strlen(kQuarantineSuffix)) {
    name.resize(q);
  }
  unsigned long long seq = 0;
  char tail = '\0';
  if (std::sscanf(name.c_str(), "seg-%llu.kdvj%c", &seq, &tail) != 1) {
    return 0;
  }
  return seq;
}

// Live index file names (no .quarantine) in `state_dir`, one per entry.
std::vector<std::pair<uint64_t, std::string>> ListIndexFiles(
    const std::string& state_dir) {
  std::vector<std::pair<uint64_t, std::string>> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(state_dir, ec)) {
    const std::string name = entry.path().filename();
    if (name.size() > std::strlen(kQuarantineSuffix) &&
        name.rfind(kQuarantineSuffix) ==
            name.size() - std::strlen(kQuarantineSuffix)) {
      continue;
    }
    const uint64_t gen = ParseIndexGeneration(name);
    if (gen != 0) files.emplace_back(gen, name);
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Highest generation/sequence ever used in the directory, counting
// quarantined files, so fresh state never reuses a burned number.
uint64_t MaxIndexGeneration(const std::string& state_dir) {
  uint64_t max_gen = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(state_dir, ec)) {
    max_gen = std::max(max_gen, ParseIndexGeneration(entry.path().filename()));
  }
  return max_gen;
}

uint64_t MaxSegmentSequence(const std::string& wal_dir) {
  uint64_t max_seq = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(wal_dir, ec)) {
    max_seq = std::max(max_seq, ParseSegmentSequence(entry.path().filename()));
  }
  return max_seq;
}

// Quarantines every live journal segment. Returns the floor a fresh
// journal should open at (one past every number ever seen).
uint64_t QuarantineJournal(const std::string& state_dir,
                           RecoveryReport* report) {
  const std::string wal = WalDir(state_dir);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(wal, ec)) {
    const std::string name = entry.path().filename();
    if (name.size() > std::strlen(kQuarantineSuffix) &&
        name.rfind(kQuarantineSuffix) ==
            name.size() - std::strlen(kQuarantineSuffix)) {
      continue;
    }
    if (ParseSegmentSequence(name) != 0) Quarantine(entry.path(), report);
  }
  report->journal_quarantined = true;
  report->possible_data_loss = true;
  return MaxSegmentSequence(wal) + 1;
}

// Deletes uncommitted leftovers: index generations other than `keep_gen`
// (a checkpoint that crashed before its manifest flip) and *.kdvtmp temps
// from torn atomic writes, in both the state dir and the wal dir.
void CleanOrphans(const std::string& state_dir, uint64_t keep_gen,
                  RecoveryReport* report) {
  for (const auto& [gen, name] : ListIndexFiles(state_dir)) {
    if (gen == keep_gen) continue;
    std::error_code ec;
    if (fs::remove(state_dir + "/" + name, ec)) {
      ++report->orphan_indexes_removed;
    }
  }
  for (const std::string& dir : {state_dir, WalDir(state_dir)}) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename();
      if (name.size() > 7 && name.rfind(".kdvtmp") == name.size() - 7) {
        std::error_code rm_ec;
        if (fs::remove(entry.path(), rm_ec)) ++report->stale_temps_removed;
      }
    }
  }
}

// Applies one journal batch to the live multiset. Removal matches by exact
// coordinate equality and drops one instance per batch point (swap-erase;
// order is not meaningful, consumers rebuild a tree anyway).
Status ApplyBatch(PointSet* live, JournalOp op, const PointSet& batch) {
  switch (op) {
    case JournalOp::kInsert:
      live->insert(live->end(), batch.begin(), batch.end());
      return OkStatus();
    case JournalOp::kRemove:
      for (const Point& p : batch) {
        auto it = std::find(live->begin(), live->end(), p);
        if (it == live->end()) {
          return DataLossError(
              "journal removes a point absent from the live set");
        }
        *it = live->back();
        live->pop_back();
      }
      return OkStatus();
  }
  return InternalError("unknown journal op");
}

// The tree's points in tree order: the live set an index file stands for.
PointSet TreeOrderPoints(const KdTree& tree) {
  PointSet points;
  points.reserve(tree.num_points());
  for (size_t i = 0; i < tree.num_points(); ++i) {
    points.push_back(tree.point(i));
  }
  return points;
}

StatusOr<std::unique_ptr<KdTree>> BuildTree(const PointSet& points,
                                            size_t leaf_size) {
  if (points.empty()) {
    return FailedPreconditionError(
        "recovered point set is empty; cannot index it");
  }
  KdTree::Options tree_options;
  tree_options.leaf_size = leaf_size;
  return std::make_unique<KdTree>(points, tree_options);
}

// Writes index generation `gen` + manifest for `points` and opens a journal
// at `floor`. The shared tail of Bootstrap and the CSV rebuild.
StatusOr<RecoveredState> CommitFreshState(const RecoveryOptions& options,
                                          PointSet points, uint64_t gen,
                                          uint64_t floor) {
  std::error_code ec;
  fs::create_directories(options.state_dir, ec);
  if (ec) {
    return NotFoundError("cannot create state directory " +
                         options.state_dir + ": " + ec.message());
  }
  KDV_ASSIGN_OR_RETURN(std::unique_ptr<KdTree> tree,
                       BuildTree(points, options.leaf_size));
  const std::string index_name = IndexFileName(gen);
  KDV_RETURN_IF_ERROR(
      SaveKdTree(*tree, options.state_dir + "/" + index_name));

  Manifest manifest;
  manifest.generation = gen;
  manifest.journal_floor = floor;
  manifest.index_file = index_name;
  KDV_RETURN_IF_ERROR(SaveManifest(ManifestPath(options.state_dir), manifest));

  KDV_ASSIGN_OR_RETURN(
      std::unique_ptr<Journal> journal,
      Journal::Open(WalDir(options.state_dir), floor, options.journal));

  RecoveredState state;
  state.live_points = std::move(points);
  state.tree = std::move(tree);
  state.journal = std::move(journal);
  state.generation = gen;
  state.state_dir = options.state_dir;
  state.leaf_size = options.leaf_size;
  return state;
}

StatusOr<RecoveredState> RebuildFromCsv(const RecoveryOptions& options,
                                        RecoveryReport* report) {
  if (options.csv_fallback.empty()) {
    return DataLossError(
        "persisted state in " + options.state_dir +
        " is unusable and no CSV fallback is configured");
  }
  PointSet points;
  KDV_RETURN_IF_ERROR(LoadPointsCsv(options.csv_fallback,
                                    options.csv_attributes, &points));
  report->source = RecoverySource::kCsvRebuild;
  const uint64_t gen = MaxIndexGeneration(options.state_dir) + 1;
  const uint64_t floor = MaxSegmentSequence(WalDir(options.state_dir)) + 1;
  KDV_ASSIGN_OR_RETURN(RecoveredState state,
                       CommitFreshState(options, std::move(points), gen,
                                        floor));
  report->generation = gen;
  CleanOrphans(options.state_dir, gen, report);
  return state;
}

}  // namespace

const char* RecoverySourceName(RecoverySource source) {
  switch (source) {
    case RecoverySource::kManifest:
      return "manifest";
    case RecoverySource::kScavengedIndex:
      return "scavenged index";
    case RecoverySource::kCsvRebuild:
      return "csv rebuild";
  }
  return "unknown";
}

std::string RecoveryReport::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "recovered gen %llu from %s, replayed %llu records (%llu "
                "points), quarantined %zu file(s)",
                static_cast<unsigned long long>(generation),
                RecoverySourceName(source),
                static_cast<unsigned long long>(journal_stats.records_applied),
                static_cast<unsigned long long>(journal_stats.points_applied),
                quarantined.size());
  std::string summary = buf;
  if (journal_stats.tail_truncated) {
    summary += ", torn journal tail truncated (" +
               std::to_string(journal_stats.torn_bytes_truncated) + " bytes)";
  }
  if (possible_data_loss) summary += ", POSSIBLE DATA LOSS";
  return summary;
}

StatusOr<RecoveredState> RecoveryManager::Bootstrap(
    const RecoveryOptions& options, PointSet points) {
  if (LoadManifest(ManifestPath(options.state_dir)).ok()) {
    return FailedPreconditionError("state directory " + options.state_dir +
                                   " already holds a valid manifest; refusing "
                                   "to clobber it");
  }
  const uint64_t gen = MaxIndexGeneration(options.state_dir) + 1;
  const uint64_t floor = MaxSegmentSequence(WalDir(options.state_dir)) + 1;
  return CommitFreshState(options, std::move(points), gen, floor);
}

StatusOr<RecoveredState> RecoveryManager::Recover(
    const RecoveryOptions& options, RecoveryReport* report) {
  RecoveryReport local;
  RecoveryReport* rep = report != nullptr ? report : &local;
  *rep = RecoveryReport();
  RecoveryRunScope run_scope(rep);

  const std::string manifest_path = ManifestPath(options.state_dir);
  Manifest manifest;
  std::unique_ptr<KdTree> tree;

  StatusOr<Manifest> loaded = LoadManifest(manifest_path);
  if (loaded.ok()) {
    manifest = *std::move(loaded);
    rep->source = RecoverySource::kManifest;

    StatusOr<std::unique_ptr<KdTree>> index =
        LoadKdTree(options.state_dir + "/" + manifest.index_file);
    if (index.ok()) {
      tree = *std::move(index);
    } else if (index.status().code() == StatusCode::kNotFound ||
               index.status().code() == StatusCode::kDataLoss) {
      // The committed index is gone or rotten. Its journal is a delta
      // against exactly that index, so it goes to quarantine with it.
      std::error_code ec;
      if (fs::exists(options.state_dir + "/" + manifest.index_file, ec)) {
        Quarantine(options.state_dir + "/" + manifest.index_file, rep);
      }
      QuarantineJournal(options.state_dir, rep);
      return RebuildFromCsv(options, rep);
    } else {
      return index.status();
    }
  } else if (loaded.status().code() == StatusCode::kNotFound) {
    // Never initialized (or the whole directory is gone): a fresh CSV
    // bootstrap, not data loss.
    return RebuildFromCsv(options, rep);
  } else {
    // Corrupt manifest. Scavenge the newest index that still verifies; the
    // journal floor died with the manifest, so replaying any segment risks
    // applying a batch twice — quarantine them all instead.
    Quarantine(manifest_path, rep);
    rep->possible_data_loss = true;

    std::vector<std::pair<uint64_t, std::string>> candidates =
        ListIndexFiles(options.state_dir);
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      StatusOr<std::unique_ptr<KdTree>> index =
          LoadKdTree(options.state_dir + "/" + it->second);
      if (index.ok()) {
        tree = *std::move(index);
        manifest.generation = it->first;
        manifest.index_file = it->second;
        break;
      }
      Quarantine(options.state_dir + "/" + it->second, rep);
    }
    if (tree == nullptr) return RebuildFromCsv(options, rep);

    rep->source = RecoverySource::kScavengedIndex;
    manifest.journal_floor = QuarantineJournal(options.state_dir, rep);
    // Re-commit so the next startup takes the happy path.
    KDV_RETURN_IF_ERROR(SaveManifest(manifest_path, manifest));
  }

  CleanOrphans(options.state_dir, manifest.generation, rep);

  KDV_ASSIGN_OR_RETURN(std::unique_ptr<Journal> journal,
                       Journal::Open(WalDir(options.state_dir),
                                     manifest.journal_floor, options.journal));

  PointSet live = TreeOrderPoints(*tree);
  Status replayed = journal->Replay(
      [&live](JournalOp op, const PointSet& batch) {
        return ApplyBatch(&live, op, batch);
      },
      &rep->journal_stats);
  if (!replayed.ok()) {
    if (replayed.code() != StatusCode::kDataLoss) return replayed;
    // Mid-journal corruption (not a crash artifact). The index itself is
    // good; serve it without the journaled tail rather than die.
    live = TreeOrderPoints(*tree);
    rep->journal_stats = JournalReplayStats();
    journal.reset();
    const uint64_t floor = QuarantineJournal(options.state_dir, rep);
    manifest.journal_floor = floor;
    KDV_RETURN_IF_ERROR(SaveManifest(manifest_path, manifest));
    KDV_ASSIGN_OR_RETURN(journal,
                         Journal::Open(WalDir(options.state_dir), floor,
                                       options.journal));
  }

  if (rep->journal_stats.records_applied > 0) {
    KDV_ASSIGN_OR_RETURN(tree, BuildTree(live, options.leaf_size));
  }
  rep->generation = manifest.generation;

  RecoveredState state;
  state.live_points = std::move(live);
  state.tree = std::move(tree);
  state.journal = std::move(journal);
  state.generation = manifest.generation;
  state.state_dir = options.state_dir;
  state.leaf_size = options.leaf_size;
  return state;
}

Status RecoveryManager::RunCheckpoint(RecoveredState* state) {
  if (state == nullptr || state->journal == nullptr) {
    return InvalidArgumentError("checkpoint requires a recovered state");
  }
  if (state->live_points.empty()) {
    return FailedPreconditionError(
        "live point set is empty; cannot checkpoint an empty index");
  }
  // New appends land in the fresh tail; everything before it is what the
  // live set already reflects, i.e. exactly what the new index will hold.
  KDV_ASSIGN_OR_RETURN(const uint64_t new_floor, state->journal->Rotate());

  KDV_ASSIGN_OR_RETURN(std::unique_ptr<KdTree> tree,
                       BuildTree(state->live_points, state->leaf_size));
  const uint64_t new_gen = state->generation + 1;
  const std::string index_name = IndexFileName(new_gen);
  KDV_RETURN_IF_ERROR(
      SaveKdTree(*tree, state->state_dir + "/" + index_name));

  Manifest manifest;
  manifest.generation = new_gen;
  manifest.journal_floor = new_floor;
  manifest.index_file = index_name;
  // The commit point: before this rename the old {index, floor} is what
  // recovery sees, after it the new one. Nothing in between.
  KDV_RETURN_IF_ERROR(
      SaveManifest(ManifestPath(state->state_dir), manifest));

  state->journal->DropSegmentsBelow(new_floor);
  std::error_code ec;
  fs::remove(state->state_dir + "/" + IndexFileName(state->generation), ec);

  state->generation = new_gen;
  state->tree = std::move(tree);
  return OkStatus();
}

}  // namespace kdv
