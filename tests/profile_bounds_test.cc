// Property tests for the profile-level bound coefficients: pointwise
// correctness (bounds stay on the right side of the kernel profile over the
// whole interval) and the paper's tightness claims (quadratic bounds between
// the profile and the linear / trivial bounds).
#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "bounds/profile.h"
#include "kernel/kernel.h"
#include "util/random.h"

namespace kdv {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kTol = 1e-9;

// Random [x_min, x_max] intervals with varying width scales.
std::pair<double, double> RandomInterval(Rng* rng, double max_value) {
  double a = rng->Uniform(0.0, max_value);
  double b = rng->Uniform(0.0, max_value);
  if (a > b) std::swap(a, b);
  if (b - a < 1e-6) b = a + 1e-6;
  return {a, b};
}

// ---------------------------------------------------------------------------
// KARL linear bounds on exp(-x)
// ---------------------------------------------------------------------------

TEST(ExpLinearTest, ChordUpperBoundsExpOnInterval) {
  Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    auto [lo, hi] = RandomInterval(&rng, 8.0);
    LinearCoeffs up = ExpChordUpper(lo, hi,
                                    ClampedExpNeg(lo), ClampedExpNeg(hi));
    for (int i = 0; i <= 100; ++i) {
      double x = lo + (hi - lo) * i / 100.0;
      EXPECT_GE(up.Eval(x), std::exp(-x) - kTol)
          << "interval [" << lo << ", " << hi << "] at x=" << x;
    }
    // Interpolates the endpoints.
    EXPECT_NEAR(up.Eval(lo), std::exp(-lo), 1e-12);
    EXPECT_NEAR(up.Eval(hi), std::exp(-hi), 1e-12);
  }
}

TEST(ExpLinearTest, TangentLowerBoundsExpEverywhere) {
  Rng rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    double t = rng.Uniform(0.0, 8.0);
    LinearCoeffs low = ExpTangentLower(t, ClampedExpNeg(t));
    EXPECT_NEAR(low.Eval(t), std::exp(-t), 1e-12);  // touches at t
    for (int i = 0; i <= 100; ++i) {
      double x = rng.Uniform(0.0, 12.0);
      EXPECT_LE(low.Eval(x), std::exp(-x) + kTol) << "t=" << t << " x=" << x;
    }
  }
}

// ---------------------------------------------------------------------------
// QUAD Gaussian bounds (Theorem 1 / §4.3)
// ---------------------------------------------------------------------------

TEST(ExpQuadTest, UpperInterpolatesEndpoints) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    auto [lo, hi] = RandomInterval(&rng, 6.0);
    QuadraticCoeffs q = ExpQuadUpper(lo, hi,
                                     ClampedExpNeg(lo), ClampedExpNeg(hi));
    EXPECT_NEAR(q.Eval(lo), std::exp(-lo), 1e-10);
    EXPECT_NEAR(q.Eval(hi), std::exp(-hi), 1e-10);
  }
}

TEST(ExpQuadTest, UpperCurvatureIsNonNegative) {
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    auto [lo, hi] = RandomInterval(&rng, 6.0);
    EXPECT_GE(ExpQuadUpper(lo, hi,
                           ClampedExpNeg(lo), ClampedExpNeg(hi)).a, -1e-15);
  }
}

// Theorem 1 correctness: exp(-x) <= Q_U(x) on [x_min, x_max].
TEST(ExpQuadTest, UpperBoundsExpOnInterval) {
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    auto [lo, hi] = RandomInterval(&rng, 8.0);
    QuadraticCoeffs q = ExpQuadUpper(lo, hi,
                                     ClampedExpNeg(lo), ClampedExpNeg(hi));
    for (int i = 0; i <= 200; ++i) {
      double x = lo + (hi - lo) * i / 200.0;
      EXPECT_GE(q.Eval(x), std::exp(-x) - kTol)
          << "interval [" << lo << ", " << hi << "] at x=" << x;
    }
  }
}

// Theorem 1 tightness: Q_U(x) <= chord E_U(x) on [x_min, x_max].
TEST(ExpQuadTest, UpperTighterThanChord) {
  Rng rng(6);
  for (int trial = 0; trial < 500; ++trial) {
    auto [lo, hi] = RandomInterval(&rng, 8.0);
    QuadraticCoeffs q = ExpQuadUpper(lo, hi,
                                     ClampedExpNeg(lo), ClampedExpNeg(hi));
    LinearCoeffs lin = ExpChordUpper(lo, hi,
                                     ClampedExpNeg(lo), ClampedExpNeg(hi));
    for (int i = 0; i <= 100; ++i) {
      double x = lo + (hi - lo) * i / 100.0;
      EXPECT_LE(q.Eval(x), lin.Eval(x) + kTol);
    }
  }
}

TEST(ExpQuadTest, LowerTouchesTangentPointAndXmax) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    auto [lo, hi] = RandomInterval(&rng, 6.0);
    double t = rng.Uniform(lo, hi - 1e-7);
    QuadraticCoeffs q = ExpQuadLower(t, hi,
                                     ClampedExpNeg(t), ClampedExpNeg(hi));
    EXPECT_NEAR(q.Eval(t), std::exp(-t), 1e-9);
    EXPECT_NEAR(q.Eval(hi), std::exp(-hi), 1e-9);
  }
}

// §4.3 correctness: Q_L(x) <= exp(-x) on [x_min, x_max].
TEST(ExpQuadTest, LowerBoundsExpOnInterval) {
  Rng rng(8);
  for (int trial = 0; trial < 500; ++trial) {
    auto [lo, hi] = RandomInterval(&rng, 8.0);
    double t = rng.Uniform(lo, hi - 1e-7);
    QuadraticCoeffs q = ExpQuadLower(t, hi,
                                     ClampedExpNeg(t), ClampedExpNeg(hi));
    for (int i = 0; i <= 200; ++i) {
      double x = lo + (hi - lo) * i / 200.0;
      EXPECT_LE(q.Eval(x), std::exp(-x) + kTol)
          << "t=" << t << " interval [" << lo << ", " << hi << "] x=" << x;
    }
  }
}

// §4.3 tightness: Q_L(x) >= tangent line E_L(x) on [x_min, x_max].
TEST(ExpQuadTest, LowerTighterThanTangentLine) {
  Rng rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    auto [lo, hi] = RandomInterval(&rng, 8.0);
    double t = rng.Uniform(lo, hi - 1e-7);
    QuadraticCoeffs q = ExpQuadLower(t, hi,
                                     ClampedExpNeg(t), ClampedExpNeg(hi));
    LinearCoeffs lin = ExpTangentLower(t, ClampedExpNeg(t));
    for (int i = 0; i <= 100; ++i) {
      double x = lo + (hi - lo) * i / 100.0;
      EXPECT_GE(q.Eval(x), lin.Eval(x) - kTol);
    }
  }
}

TEST(ExpQuadTest, TangentPointIsClampedMean) {
  // Mean of x_i = gamma * S1 / n.
  EXPECT_DOUBLE_EQ(GaussianTangentPoint(2.0, 10.0, 4.0, 0.0, 100.0), 5.0);
  // Clamped below and above.
  EXPECT_DOUBLE_EQ(GaussianTangentPoint(2.0, 10.0, 4.0, 6.0, 100.0), 6.0);
  EXPECT_DOUBLE_EQ(GaussianTangentPoint(2.0, 10.0, 4.0, 0.0, 3.0), 3.0);
}

// ---------------------------------------------------------------------------
// Triangular kernel (§5.2)
// ---------------------------------------------------------------------------

double TriangularProfile(double x) { return x < 1.0 ? 1.0 - x : 0.0; }

TEST(TriangularQuadTest, UpperInterpolatesEndpointsAndBounds) {
  Rng rng(10);
  for (int trial = 0; trial < 500; ++trial) {
    auto [lo, hi] = RandomInterval(&rng, 2.0);
    QuadraticCoeffs q = TriangularQuadUpper(lo, hi, TriangularProfile(lo),
                                            TriangularProfile(hi));
    EXPECT_NEAR(q.Eval(lo), TriangularProfile(lo), 1e-10);
    EXPECT_NEAR(q.Eval(hi), TriangularProfile(hi), 1e-10);
    for (int i = 0; i <= 200; ++i) {
      double x = lo + (hi - lo) * i / 200.0;
      EXPECT_GE(q.Eval(x), TriangularProfile(x) - kTol)
          << "[" << lo << "," << hi << "] x=" << x;
    }
  }
}

// Lemma 5: the quadratic upper bound is tighter than the constant
// max(1 - x_min, 0) on the interval.
TEST(TriangularQuadTest, UpperTighterThanTrivial) {
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    auto [lo, hi] = RandomInterval(&rng, 2.0);
    QuadraticCoeffs q = TriangularQuadUpper(lo, hi, TriangularProfile(lo),
                                            TriangularProfile(hi));
    double trivial = TriangularProfile(lo);
    for (int i = 0; i <= 50; ++i) {
      double x = lo + (hi - lo) * i / 50.0;
      EXPECT_LE(q.Eval(x), trivial + kTol);
    }
  }
}

// §5.2.2: Q_L(x) = a x^2 + c with c = 1 + 1/(4a) lower-bounds max(1-x, 0)
// everywhere (below 1-x by the discriminant argument; below 0 region too).
TEST(TriangularQuadTest, LowerBoundsProfileEverywhere) {
  Rng rng(12);
  for (int trial = 0; trial < 500; ++trial) {
    double m2 = rng.Uniform(1e-4, 4.0);
    QuadraticCoeffs q = TriangularQuadLower(m2);
    for (int i = 0; i <= 300; ++i) {
      double x = 3.0 * i / 300.0;
      EXPECT_LE(q.Eval(x), TriangularProfile(x) + kTol)
          << "m2=" << m2 << " x=" << x;
    }
  }
}

TEST(TriangularQuadTest, LowerSatisfiesTangencyIdentity) {
  // c = 1 + 1/(4a): a x^2 + x + c - 1 has a double root.
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    double m2 = rng.Uniform(1e-4, 4.0);
    QuadraticCoeffs q = TriangularQuadLower(m2);
    double discriminant = 1.0 - 4.0 * q.a * (q.c - 1.0);
    EXPECT_NEAR(discriminant, 0.0, 1e-9);
    EXPECT_LT(q.a, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Cosine kernel (§9.6.1 / §9.6.2)
// ---------------------------------------------------------------------------

double CosineProfile(double x) { return x <= kPi / 2 ? std::cos(x) : 0.0; }

TEST(CosineQuadTest, UpperInterpolatesAndBoundsOnSupport) {
  Rng rng(14);
  for (int trial = 0; trial < 500; ++trial) {
    double lo = rng.Uniform(0.0, kPi / 2 - 1e-4);
    double hi = rng.Uniform(lo + 1e-6, kPi / 2);
    QuadraticCoeffs q = CosineQuadUpper(lo, hi, std::cos(lo), std::cos(hi));
    EXPECT_NEAR(q.Eval(lo), std::cos(lo), 1e-10);
    EXPECT_NEAR(q.Eval(hi), std::cos(hi), 1e-10);
    for (int i = 0; i <= 200; ++i) {
      double x = lo + (hi - lo) * i / 200.0;
      EXPECT_GE(q.Eval(x), std::cos(x) - kTol)
          << "[" << lo << "," << hi << "] x=" << x;
    }
  }
}

// Lemma 9's tightness remark: Q_U(x) <= cos(x_min) on the interval.
TEST(CosineQuadTest, UpperTighterThanTrivial) {
  Rng rng(15);
  for (int trial = 0; trial < 300; ++trial) {
    double lo = rng.Uniform(0.0, kPi / 2 - 1e-4);
    double hi = rng.Uniform(lo + 1e-6, kPi / 2);
    QuadraticCoeffs q = CosineQuadUpper(lo, hi, std::cos(lo), std::cos(hi));
    for (int i = 0; i <= 50; ++i) {
      double x = lo + (hi - lo) * i / 50.0;
      EXPECT_LE(q.Eval(x), std::cos(lo) + kTol);
    }
  }
}

// Lemma 10 + the support-edge argument: the lower bound holds for all
// x >= 0, including past pi/2 where the profile clamps to zero.
TEST(CosineQuadTest, LowerBoundsClampedProfileEverywhere) {
  Rng rng(16);
  for (int trial = 0; trial < 500; ++trial) {
    double x_max = rng.Uniform(1e-3, kPi / 2);
    QuadraticCoeffs q = CosineQuadLower(x_max, std::cos(x_max));
    EXPECT_NEAR(q.Eval(x_max), std::cos(x_max), 1e-10);  // touches
    for (int i = 0; i <= 300; ++i) {
      double x = 3.0 * i / 300.0;
      EXPECT_LE(q.Eval(x), CosineProfile(x) + kTol)
          << "x_max=" << x_max << " x=" << x;
    }
  }
}

// ---------------------------------------------------------------------------
// Exponential kernel (§9.6.3 / §9.6.4)
// ---------------------------------------------------------------------------

TEST(ExponentialQuadTest, UpperInterpolatesAndBounds) {
  Rng rng(17);
  for (int trial = 0; trial < 500; ++trial) {
    auto [lo, hi] = RandomInterval(&rng, 6.0);
    QuadraticCoeffs q = ExponentialQuadUpper(
        lo, hi, ClampedExpNeg(lo), ClampedExpNeg(hi));
    EXPECT_NEAR(q.Eval(lo), std::exp(-lo), 1e-10);
    EXPECT_NEAR(q.Eval(hi), std::exp(-hi), 1e-10);
    for (int i = 0; i <= 200; ++i) {
      double x = lo + (hi - lo) * i / 200.0;
      EXPECT_GE(q.Eval(x), std::exp(-x) - kTol);
    }
  }
}

TEST(ExponentialQuadTest, UpperTighterThanTrivial) {
  Rng rng(18);
  for (int trial = 0; trial < 300; ++trial) {
    auto [lo, hi] = RandomInterval(&rng, 6.0);
    QuadraticCoeffs q = ExponentialQuadUpper(
        lo, hi, ClampedExpNeg(lo), ClampedExpNeg(hi));
    for (int i = 0; i <= 50; ++i) {
      double x = lo + (hi - lo) * i / 50.0;
      EXPECT_LE(q.Eval(x), std::exp(-lo) + kTol);
    }
  }
}

// Lemma 12: valid lower bound for every x >= 0.
TEST(ExponentialQuadTest, LowerBoundsExpEverywhere) {
  Rng rng(19);
  for (int trial = 0; trial < 500; ++trial) {
    double t = rng.Uniform(1e-3, 6.0);
    QuadraticCoeffs q = ExponentialQuadLower(t, ClampedExpNeg(t));
    EXPECT_NEAR(q.Eval(t), std::exp(-t), 1e-10);  // touches at t
    for (int i = 0; i <= 300; ++i) {
      double x = 10.0 * i / 300.0;
      EXPECT_LE(q.Eval(x), std::exp(-x) + kTol) << "t=" << t << " x=" << x;
    }
  }
}

TEST(ExponentialQuadTest, TangentPointIsClampedRms) {
  // t* = sqrt(gamma^2 * S1 / n).
  EXPECT_DOUBLE_EQ(ExponentialTangentPoint(2.0, 9.0, 4.0, 0.0, 100.0),
                   std::sqrt(4.0 * 9.0 / 4.0));
  EXPECT_DOUBLE_EQ(ExponentialTangentPoint(2.0, 9.0, 4.0, 5.0, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(ExponentialTangentPoint(2.0, 9.0, 4.0, 0.0, 1.0), 1.0);
}

}  // namespace
}  // namespace kdv
