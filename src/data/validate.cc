#include "data/validate.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

namespace kdv {

namespace {

bool IsFinitePoint(const Point& p) {
  for (int j = 0; j < p.dim(); ++j) {
    if (!std::isfinite(p[j])) return false;
  }
  return true;
}

// Lexicographic coordinate order; used only to group exact duplicates.
bool LexLess(const Point& a, const Point& b) {
  for (int j = 0; j < a.dim(); ++j) {
    if (a[j] != b[j]) return a[j] < b[j];
  }
  return false;
}

}  // namespace

std::string IngestReport::Summary() const {
  std::ostringstream oss;
  oss << "ingested " << kept_points << "/" << input_points << " points";
  if (dropped_nonfinite > 0) {
    oss << ", dropped " << dropped_nonfinite << " non-finite";
  }
  if (dropped_dim_mismatch > 0) {
    oss << ", dropped " << dropped_dim_mismatch << " dim-mismatched";
  }
  if (duplicate_points > 0) oss << ", " << duplicate_points << " duplicates";
  if (all_identical) {
    oss << ", all points identical";
  } else if (!zero_variance_dims.empty()) {
    oss << ", " << zero_variance_dims.size() << " zero-variance dimension(s)";
  }
  if (degenerate) oss << " [degenerate geometry]";
  return oss.str();
}

Status ValidatePointSet(PointSet* points, const ValidateOptions& options,
                        IngestReport* report) {
  IngestReport local;
  local.input_points = points->size();
  if (points->empty()) {
    return InvalidArgumentError("dataset is empty");
  }

  const bool drop =
      options.policy == ValidateOptions::BadPointPolicy::kDrop;
  const int dim = (*points)[0].dim();
  if (dim < 1) {
    return InvalidArgumentError("points must have dimension >= 1");
  }

  size_t write = 0;
  for (size_t i = 0; i < points->size(); ++i) {
    const Point& p = (*points)[i];
    if (p.dim() != dim) {
      if (!drop) {
        std::ostringstream oss;
        oss << "point " << i << " has dimension " << p.dim()
            << ", expected " << dim;
        return InvalidArgumentError(oss.str());
      }
      ++local.dropped_dim_mismatch;
      continue;
    }
    if (!IsFinitePoint(p)) {
      if (!drop) {
        std::ostringstream oss;
        oss << "point " << i << " has a non-finite (NaN/Inf) coordinate";
        return InvalidArgumentError(oss.str());
      }
      ++local.dropped_nonfinite;
      continue;
    }
    (*points)[write++] = p;
  }
  points->resize(write);
  local.kept_points = write;
  if (write == 0) {
    return InvalidArgumentError(
        "dataset has no usable points after dropping non-finite rows");
  }

  // Duplicate census (the point order the caller hands to the kd-tree
  // builder is preserved). Sorting (first coordinate, index) pairs keeps the
  // sort inside a compact array; whole points are read only within runs of
  // equal first coordinate, where they are sorted and compared in full.
  // Doubles compare as Point::operator== does, so ±0.0 are equal.
  std::vector<std::pair<double, uint32_t>> keyed(points->size());
  for (size_t i = 0; i < keyed.size(); ++i) {
    keyed[i] = {(*points)[i][0], static_cast<uint32_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<uint32_t> run;
  for (size_t begin = 0, end = 0; begin < keyed.size(); begin = end) {
    end = begin + 1;
    while (end < keyed.size() && keyed[end].first == keyed[begin].first) {
      ++end;
    }
    if (end - begin < 2) continue;
    run.clear();
    for (size_t k = begin; k < end; ++k) run.push_back(keyed[k].second);
    std::sort(run.begin(), run.end(), [&](uint32_t a, uint32_t b) {
      return LexLess((*points)[a], (*points)[b]);
    });
    for (size_t k = 1; k < run.size(); ++k) {
      if ((*points)[run[k]] == (*points)[run[k - 1]]) {
        ++local.duplicate_points;
      }
    }
  }
  if (options.max_duplicate_fraction < 1.0 && points->size() > 1) {
    double fraction = static_cast<double>(local.duplicate_points) /
                      static_cast<double>(points->size());
    if (fraction > options.max_duplicate_fraction && !drop) {
      std::ostringstream oss;
      oss << "duplicate fraction " << fraction << " exceeds maximum "
          << options.max_duplicate_fraction;
      return InvalidArgumentError(oss.str());
    }
  }

  // Geometry census: per-dimension extent.
  for (int j = 0; j < dim; ++j) {
    double lo = (*points)[0][j], hi = lo;
    for (const Point& p : *points) {
      lo = std::min(lo, p[j]);
      hi = std::max(hi, p[j]);
    }
    if (lo == hi) local.zero_variance_dims.push_back(j);
  }
  local.all_identical =
      static_cast<int>(local.zero_variance_dims.size()) == dim;
  local.degenerate = points->size() < 2 || local.all_identical ||
                     !local.zero_variance_dims.empty();

  if (report != nullptr) *report = local;
  return OkStatus();
}

}  // namespace kdv
