// Tests for the simulation engines: statevector correctness against known
// states, kernel-vs-matrix cross-checks, exact density-matrix channel
// behavior (fused forms vs generic Kraus), trajectory/density agreement, and
// measurement/readout utilities.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <span>

#include "circuit/circuit.hpp"
#include "math/simd_dispatch.hpp"
#include "noise/program.hpp"
#include "sim/density_matrix.hpp"
#include "sim/kernels.hpp"
#include "sim/measurement.hpp"
#include "sim/snapshot.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectory.hpp"
#include "stats/stats.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace cc = charter::circ;
namespace cm = charter::math;
namespace cn = charter::noise;
namespace cs = charter::sim;
using cc::GateKind;
using cm::cplx;
using cm::Mat2;

namespace {

/// Random basis-gate circuit over n qubits (RZ/SX/SXDG/X/CX).
cc::Circuit random_basis_circuit(int n, int num_gates,
                                 charter::util::Rng& rng) {
  cc::Circuit c(n);
  for (int i = 0; i < num_gates; ++i) {
    const int pick = static_cast<int>(rng.uniform_int(5));
    const int q = static_cast<int>(rng.uniform_int(n));
    switch (pick) {
      case 0:
        c.rz(q, rng.uniform(-M_PI, M_PI));
        break;
      case 1:
        c.sx(q);
        break;
      case 2:
        c.sxdg(q);
        break;
      case 3:
        c.x(q);
        break;
      default: {
        if (n < 2) {
          c.sx(q);
          break;
        }
        int q2 = static_cast<int>(rng.uniform_int(n));
        while (q2 == q) q2 = static_cast<int>(rng.uniform_int(n));
        c.cx(q, q2);
        break;
      }
    }
  }
  return c;
}

double dist(const std::vector<double>& a, const std::vector<double>& b) {
  return charter::stats::tvd(a, b);
}

}  // namespace

// ---- pair kernels ----

namespace {

/// Random normalized pseudo-state of the given dimension.
std::vector<cplx> random_state(std::uint64_t dim, charter::util::Rng& rng) {
  std::vector<cplx> a(dim);
  double norm = 0.0;
  for (cplx& v : a) {
    v = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    norm += std::norm(v);
  }
  const double inv = 1.0 / std::sqrt(norm);
  for (cplx& v : a) v *= inv;
  return a;
}

}  // namespace

TEST(PairKernels, Fused1qPairIsBitIdenticalToTwoPasses) {
  charter::util::Rng rng(2024);
  const std::uint64_t dim = 1ULL << 6;
  const Mat2 u = cc::gate_unitary_1q(cc::make_gate(GateKind::SX, {0}));
  Mat2 v = cc::gate_unitary_1q(cc::make_gate(GateKind::X, {0}));
  v(0, 1) *= cplx(0.0, 1.0);  // any 2x2, unitarity not required
  for (const auto [qa, qb] : {std::pair{0, 3}, {3, 0}, {2, 5}, {4, 1}}) {
    std::vector<cplx> fused = random_state(dim, rng);
    std::vector<cplx> twopass = fused;
    cs::kernels::apply_1q_pair(fused.data(), dim, qa, u, qb, v);
    cs::kernels::apply_1q(twopass.data(), dim, qa, u);
    cs::kernels::apply_1q(twopass.data(), dim, qb, v);
    for (std::uint64_t i = 0; i < dim; ++i)
      ASSERT_EQ(fused[i], twopass[i]) << "qubits " << qa << "," << qb;
  }
}

// The engine's diagonal ops (one row x column pass over vec(rho)) must equal
// two sequential single-diagonal passes — diag(d) on the row pseudo-qubits,
// then diag(conj(d)) on the column ones — bit for bit on every dispatch path
// and every density-matrix width, including the parallel ones (n >= 6).
TEST(PairKernels, FusedDiagPairsAreBitIdenticalToTwoPasses) {
  namespace ms = charter::math::simd;
  charter::util::Rng rng(7);
  const cplx d0 = std::exp(cplx(0.0, 0.3));
  const cplx d1 = std::exp(cplx(0.0, -0.3));
  const std::array<cplx, 4> zz = {std::exp(cplx(0.0, -0.01)),
                                  std::exp(cplx(0.0, 0.01)),
                                  std::exp(cplx(0.0, 0.02)),
                                  std::exp(cplx(0.0, -0.03))};
  const std::array<cplx, 4> zzc = {std::conj(zz[0]), std::conj(zz[1]),
                                   std::conj(zz[2]), std::conj(zz[3])};
  const ms::SimdPath original = ms::active_path();
  for (const ms::SimdPath p : {ms::SimdPath::kScalar, ms::SimdPath::kWidth2,
                               ms::SimdPath::kAvx2, ms::SimdPath::kAvx512}) {
    if (!ms::set_path(p)) continue;
    for (int n = 1; n <= 8; ++n) {
      const std::uint64_t dim = 1ULL << (2 * n);
      const auto check = [&](const auto& engine_op, const auto& two_pass,
                             const char* what) {
        const std::vector<cplx> input = random_state(dim, rng);
        cs::DensityMatrixEngine engine(n);
        engine.load_state(input);
        engine_op(engine);
        std::vector<cplx> want = input;
        two_pass(want.data());
        ASSERT_EQ(std::memcmp(engine.raw().data(), want.data(),
                              dim * sizeof(cplx)),
                  0)
            << what << " path=" << ms::path_name(p) << " n=" << n;
      };
      for (int q = 0; q < n; ++q) {
        check([&](cs::DensityMatrixEngine& e) { e.apply_diag_1q(d0, d1, q); },
              [&](cplx* a) {
                cs::kernels::apply_diag_1q(a, dim, q, d0, d1);
                cs::kernels::apply_diag_1q(a, dim, q + n, std::conj(d0),
                                           std::conj(d1));
              },
              "apply_diag_1q");
        for (int qb = 0; qb < n; ++qb) {
          if (qb == q) continue;
          check(
              [&](cs::DensityMatrixEngine& e) { e.apply_diag_2q(zz, q, qb); },
              [&](cplx* a) {
                cs::kernels::apply_diag_2q(a, dim, q, qb, zz);
                cs::kernels::apply_diag_2q(a, dim, q + n, qb + n, zzc);
              },
              "apply_diag_2q");
        }
      }
    }
  }
  ms::set_path(original);
}

TEST(PairKernels, FusedCxPairIsBitIdenticalToTwoPasses) {
  charter::util::Rng rng(99);
  const std::uint64_t dim = 1ULL << 6;
  for (const auto [c1, t1, c2, t2] :
       {std::array{0, 1, 3, 4}, {2, 0, 5, 3}, {1, 5, 4, 2}}) {
    std::vector<cplx> fused = random_state(dim, rng);
    std::vector<cplx> twopass = fused;
    cs::kernels::apply_cx_pair(fused.data(), dim, c1, t1, c2, t2);
    cs::kernels::apply_cx(twopass.data(), dim, c1, t1);
    cs::kernels::apply_cx(twopass.data(), dim, c2, t2);
    for (std::uint64_t i = 0; i < dim; ++i)
      ASSERT_EQ(fused[i], twopass[i]) << c1 << t1 << c2 << t2;
  }
}

// ---- statevector ----

TEST(Statevector, InitialState) {
  cs::Statevector sv(3);
  const auto p = sv.probabilities();
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  for (std::size_t i = 1; i < p.size(); ++i) EXPECT_DOUBLE_EQ(p[i], 0.0);
}

TEST(Statevector, XFlipsBit) {
  cs::Statevector sv(2);
  sv.apply(cc::make_gate(GateKind::X, {1}));
  EXPECT_NEAR(sv.probabilities()[2], 1.0, 1e-12);
}

TEST(Statevector, BellState) {
  cs::Statevector sv(2);
  cc::Circuit c(2);
  c.h(0).cx(0, 1);
  sv.apply(c);
  const auto p = sv.probabilities();
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[3], 0.5, 1e-12);
  EXPECT_NEAR(p[1] + p[2], 0.0, 1e-12);
}

TEST(Statevector, GhzState) {
  cc::Circuit c(4);
  c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
  const auto p = cs::ideal_probabilities(c);
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[15], 0.5, 1e-12);
}

TEST(Statevector, SetBasisState) {
  cs::Statevector sv(3);
  sv.set_basis_state(5);
  EXPECT_NEAR(sv.probabilities()[5], 1.0, 1e-12);
  EXPECT_NEAR(sv.probability_one(0), 1.0, 1e-12);
  EXPECT_NEAR(sv.probability_one(1), 0.0, 1e-12);
  EXPECT_NEAR(sv.probability_one(2), 1.0, 1e-12);
}

TEST(Statevector, NormPreservedUnderRandomCircuits) {
  charter::util::Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const cc::Circuit c = random_basis_circuit(4, 60, rng);
    cs::Statevector sv(4);
    sv.apply(c);
    EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-10);
  }
}

TEST(Statevector, CircuitInverseRestoresState) {
  charter::util::Rng rng(4);
  for (int trial = 0; trial < 8; ++trial) {
    const cc::Circuit c = random_basis_circuit(4, 40, rng);
    cs::Statevector sv(4);
    sv.apply(c);
    sv.apply(c.inverse());
    EXPECT_NEAR(sv.probabilities()[0], 1.0, 1e-9);
  }
}

TEST(Statevector, CcxBehavesAsToffoli) {
  for (std::uint64_t in = 0; in < 8; ++in) {
    cs::Statevector sv(3);
    sv.set_basis_state(in);
    sv.apply(cc::make_gate(GateKind::CCX, {0, 1, 2}));
    const std::uint64_t want =
        ((in & 1) && (in & 2)) ? (in ^ 4) : in;
    EXPECT_NEAR(sv.probabilities()[want], 1.0, 1e-12) << "input " << in;
  }
}

TEST(Statevector, SwapGateExchangesBits) {
  cs::Statevector sv(2);
  sv.set_basis_state(1);  // |q1=0, q0=1>
  sv.apply(cc::make_gate(GateKind::SWAP, {0, 1}));
  EXPECT_NEAR(sv.probabilities()[2], 1.0, 1e-12);
}

// Property: special-cased kernels match the generic matrix path.
class TwoQubitKernelMatchesMatrix
    : public ::testing::TestWithParam<GateKind> {};

TEST_P(TwoQubitKernelMatchesMatrix, OnRandomStates) {
  charter::util::Rng rng(11);
  const GateKind kind = GetParam();
  for (int trial = 0; trial < 4; ++trial) {
    // Random-ish state via a scrambling circuit.
    const cc::Circuit scramble = random_basis_circuit(3, 25, rng);
    cs::Statevector a(3), b(3);
    a.apply(scramble);
    b.apply(scramble);

    cc::Gate g = cc::gate_param_count(kind) == 1
                     ? cc::make_gate(kind, {0, 2}, {rng.uniform(-2.0, 2.0)})
                     : cc::make_gate(kind, {0, 2});
    a.apply(g);
    b.apply_unitary_2q(cc::gate_unitary_2q(g), 0, 2);
    for (std::uint64_t i = 0; i < a.dim(); ++i)
      EXPECT_NEAR(std::abs(a.amplitudes()[i] - b.amplitudes()[i]), 0.0, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTwoQubitKinds, TwoQubitKernelMatchesMatrix,
                         ::testing::Values(GateKind::CX, GateKind::CZ,
                                           GateKind::CP, GateKind::CRZ,
                                           GateKind::SWAP, GateKind::RZZ,
                                           GateKind::RXX, GateKind::RYY),
                         [](const auto& info) {
                           return cc::gate_name(info.param);
                         });

// ---- density matrix ----

TEST(DensityMatrix, PureEvolutionMatchesStatevector) {
  charter::util::Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    const cc::Circuit c = random_basis_circuit(3, 30, rng);
    cs::Statevector sv(3);
    sv.apply(c);

    cs::DensityMatrixEngine dm(3);
    for (const cc::Gate& g : c.ops()) {
      switch (g.kind) {
        case GateKind::CX:
          dm.apply_cx(g.qubits[0], g.qubits[1]);
          break;
        case GateKind::RZ: {
          const cplx i(0.0, 1.0);
          dm.apply_diag_1q(std::exp(-i * (g.params[0] / 2.0)),
                           std::exp(i * (g.params[0] / 2.0)), g.qubits[0]);
          break;
        }
        default:
          dm.apply_unitary_1q(cc::gate_unitary_1q(g), g.qubits[0]);
      }
    }
    EXPECT_NEAR(dist(dm.probabilities(), sv.probabilities()), 0.0, 1e-10);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-10);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-10);
  }
}

TEST(DensityMatrix, FullAmplitudeDampingReachesGround) {
  cs::DensityMatrixEngine dm(2);
  dm.apply_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::X, {0})),
                      0);
  dm.apply_thermal_relaxation(0, /*gamma=*/1.0, /*pz=*/0.0);
  const auto p = dm.probabilities();
  EXPECT_NEAR(p[0], 1.0, 1e-12);
  EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(DensityMatrix, PartialDampingMixesPopulations) {
  cs::DensityMatrixEngine dm(1);
  dm.apply_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::X, {0})),
                      0);
  dm.apply_thermal_relaxation(0, 0.3, 0.0);
  const auto p = dm.probabilities();
  EXPECT_NEAR(p[0], 0.3, 1e-12);
  EXPECT_NEAR(p[1], 0.7, 1e-12);
}

TEST(DensityMatrix, DephasingKillsCoherence) {
  cs::DensityMatrixEngine dm(1);
  dm.apply_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::H, {0})),
                      0);
  EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
  dm.apply_thermal_relaxation(0, 0.0, /*pz=*/0.5);  // complete dephasing
  EXPECT_NEAR(dm.purity(), 0.5, 1e-12);
  // Populations untouched.
  const auto p = dm.probabilities();
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
}

TEST(DensityMatrix, DepolarizingMatchesGenericKraus) {
  const double p = 0.1;
  charter::util::Rng rng(31);
  const cc::Circuit scramble = random_basis_circuit(3, 25, rng);

  cs::DensityMatrixEngine a(3), b(3);
  for (const cc::Gate& g : scramble.ops()) {
    if (g.kind == GateKind::CX) {
      a.apply_cx(g.qubits[0], g.qubits[1]);
      b.apply_cx(g.qubits[0], g.qubits[1]);
    } else {
      a.apply_unitary_1q(cc::gate_unitary_1q(g), g.qubits[0]);
      b.apply_unitary_1q(cc::gate_unitary_1q(g), g.qubits[0]);
    }
  }
  a.apply_depolarizing_1q(1, p);

  Mat2 k0 = cm::scale(Mat2::identity(), std::sqrt(1.0 - p));
  Mat2 kx, ky, kz;
  kx(0, 1) = kx(1, 0) = std::sqrt(p / 3.0);
  ky(0, 1) = cplx(0.0, -std::sqrt(p / 3.0));
  ky(1, 0) = cplx(0.0, std::sqrt(p / 3.0));
  kz(0, 0) = std::sqrt(p / 3.0);
  kz(1, 1) = -std::sqrt(p / 3.0);
  const std::vector<Mat2> kraus = {k0, kx, ky, kz};
  b.apply_kraus_1q(kraus, 1);

  for (std::size_t i = 0; i < a.raw().size(); ++i)
    EXPECT_NEAR(std::abs(a.raw()[i] - b.raw()[i]), 0.0, 1e-10);
}

TEST(DensityMatrix, ThermalRelaxationMatchesGenericKraus) {
  const double gamma = 0.2;
  cs::DensityMatrixEngine a(2), b(2);
  // Prepare |+>|1> so both coherence and population are exercised.
  a.apply_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::H, {0})), 0);
  b.apply_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::H, {0})), 0);
  a.apply_cx(0, 1);
  b.apply_cx(0, 1);

  a.apply_thermal_relaxation(0, gamma, 0.0);
  Mat2 k0, k1;
  k0(0, 0) = 1.0;
  k0(1, 1) = std::sqrt(1.0 - gamma);
  k1(0, 1) = std::sqrt(gamma);
  const std::vector<Mat2> kraus = {k0, k1};
  b.apply_kraus_1q(kraus, 0);

  for (std::size_t i = 0; i < a.raw().size(); ++i)
    EXPECT_NEAR(std::abs(a.raw()[i] - b.raw()[i]), 0.0, 1e-10);
}

TEST(DensityMatrix, TwoQubitDepolarizingFullyMixes) {
  cs::DensityMatrixEngine dm(2);
  dm.apply_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::H, {0})),
                      0);
  dm.apply_cx(0, 1);
  // p = 15/16 makes the channel the complete twirl.
  dm.apply_depolarizing_2q(0, 1, 15.0 / 16.0);
  const auto p = dm.probabilities();
  for (const double v : p) EXPECT_NEAR(v, 0.25, 1e-10);
  EXPECT_NEAR(dm.purity(), 0.25, 1e-10);
}

TEST(DensityMatrix, BitflipIsExact) {
  cs::DensityMatrixEngine dm(1);
  dm.apply_bitflip(0, 0.25);
  const auto p = dm.probabilities();
  EXPECT_NEAR(p[1], 0.25, 1e-12);
  EXPECT_NEAR(p[0], 0.75, 1e-12);
}

// Every engine state buffer starts on a 64-byte line (math/amp_buffer.hpp),
// on every width and after every operation that can reallocate or swap
// one.  The CTest smoke label runs this on each CHARTER_SIMD leg.
TEST(EngineAlignment, EveryStateBufferStartsOnACacheLine) {
  const auto on_line = [](const cplx* p) {
    return reinterpret_cast<std::uintptr_t>(p) % cm::kCacheLine == 0;
  };
  charter::util::Rng rng(64);
  Mat2 k0, k1, k2;
  k0(0, 0) = k0(1, 1) = std::sqrt(0.8);
  k1(0, 1) = k1(1, 0) = std::sqrt(0.1);
  k2(0, 0) = std::sqrt(0.1);
  k2(1, 1) = -std::sqrt(0.1);
  const std::vector<Mat2> kraus = {k0, k1, k2};
  for (int n = 1; n <= 9; ++n) {
    cs::DensityMatrixEngine dm(n);
    const auto dm_lined = [&](const char* when) {
      for (const cplx* p : dm.buffers())
        if (p != nullptr) EXPECT_TRUE(on_line(p)) << when << " n=" << n;
    };
    dm_lined("construction");
    dm.apply_diag_2q({1.0, -1.0, -1.0, 1.0}, 0, n - 1);
    dm.reset();
    dm_lined("reset");
    // Three terms: the first swaps scratch into the accumulator, the
    // others add into it, and the accumulator swaps with vec(rho).
    for (int rep = 0; rep < 3; ++rep) {
      dm.apply_kraus_1q(kraus, rep % n);
      ASSERT_NE(dm.buffers()[3], nullptr);
      ASSERT_NE(dm.buffers()[4], nullptr);
      dm_lined("kraus");
    }
    cm::AmpBuffer snap;
    dm.save_state(snap);
    EXPECT_TRUE(on_line(snap.data())) << "save_state n=" << n;
    dm.reset();
    dm.load_state(snap);
    dm_lined("load_state of a snapshot");
    // A source on any address still lands on the engine's own buffer.
    const std::vector<cplx> plain = random_state(snap.size(), rng);
    dm.load_state(plain);
    dm_lined("load_state of a plain vector");
    const cs::SnapshotData back =
        cs::deserialize_snapshot(cs::serialize_snapshot(n, snap));
    EXPECT_TRUE(on_line(back.state.data())) << "deserialized n=" << n;
  }
  for (int n = 1; n <= 16; ++n) {
    cs::Statevector sv(n);
    EXPECT_TRUE(on_line(sv.amplitudes().data())) << "statevector n=" << n;
    sv.set_basis_state(sv.dim() - 1);
    sv.reset();
    EXPECT_TRUE(on_line(sv.amplitudes().data())) << "reset n=" << n;
    cs::TrajectoryEngine te(n, 7);
    te.apply_thermal_relaxation(0, 0.5, 0.1);
    te.reset();
    EXPECT_TRUE(on_line(te.state().amplitudes().data())) << "traj n=" << n;
    // The lane block is internal to sim/trajectory.cpp: an AmpBuffer of 1,
    // 2 or 4 lanes of 2^n amplitudes.  Check every size it takes.
    for (const std::uint64_t lanes : {1u, 2u, 4u}) {
      cm::AmpBuffer block(lanes << n);
      EXPECT_TRUE(on_line(block.data())) << lanes << " lanes n=" << n;
    }
  }
}

TEST(DensityMatrix, ChannelsPreserveTrace) {
  charter::util::Rng rng(41);
  cs::DensityMatrixEngine dm(3);
  const cc::Circuit scramble = random_basis_circuit(3, 20, rng);
  for (const cc::Gate& g : scramble.ops()) {
    if (g.kind == GateKind::CX)
      dm.apply_cx(g.qubits[0], g.qubits[1]);
    else
      dm.apply_unitary_1q(cc::gate_unitary_1q(g), g.qubits[0]);
  }
  dm.apply_depolarizing_1q(0, 0.05);
  dm.apply_depolarizing_2q(1, 2, 0.1);
  dm.apply_thermal_relaxation(2, 0.07, 0.02);
  dm.apply_bitflip(1, 0.03);
  EXPECT_NEAR(dm.trace(), 1.0, 1e-10);
  const auto p = dm.probabilities();
  for (const double v : p) EXPECT_GE(v, -1e-12);
}

// ---- trajectory engine ----

TEST(Trajectory, NoiselessMatchesStatevector) {
  charter::util::Rng rng(51);
  const cc::Circuit c = random_basis_circuit(4, 40, rng);
  cs::Statevector sv(4);
  sv.apply(c);

  const auto probs = cs::run_trajectories(
      4, 3, 99, [&](cs::NoisyEngine& eng) {
        for (const cc::Gate& g : c.ops()) {
          if (g.kind == GateKind::CX) {
            eng.apply_cx(g.qubits[0], g.qubits[1]);
          } else if (g.kind == GateKind::RZ) {
            const cplx i(0.0, 1.0);
            eng.apply_diag_1q(std::exp(-i * (g.params[0] / 2.0)),
                              std::exp(i * (g.params[0] / 2.0)), g.qubits[0]);
          } else {
            eng.apply_unitary_1q(cc::gate_unitary_1q(g), g.qubits[0]);
          }
        }
      });
  EXPECT_NEAR(dist(probs, sv.probabilities()), 0.0, 1e-10);
}

TEST(Trajectory, DeterministicInSeed) {
  const auto program = [](cs::NoisyEngine& eng) {
    eng.apply_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::H, {0})),
                         0);
    eng.apply_cx(0, 1);
    eng.apply_depolarizing_1q(0, 0.2);
    eng.apply_thermal_relaxation(1, 0.3, 0.1);
  };
  const auto p1 = cs::run_trajectories(2, 32, 7, program);
  const auto p2 = cs::run_trajectories(2, 32, 7, program);
  EXPECT_EQ(p1, p2);
  const auto p3 = cs::run_trajectories(2, 32, 8, program);
  EXPECT_NE(p1, p3);
}

TEST(Trajectory, ConvergesToDensityMatrix) {
  // A noisy GHZ preparation: compare 4000 trajectories to the exact DM.
  const auto program = [](cs::NoisyEngine& eng) {
    eng.apply_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::H, {0})),
                         0);
    eng.apply_depolarizing_1q(0, 0.1);
    eng.apply_cx(0, 1);
    eng.apply_depolarizing_2q(0, 1, 0.15);
    eng.apply_cx(1, 2);
    eng.apply_thermal_relaxation(2, 0.2, 0.05);
    eng.apply_bitflip(1, 0.05);
  };
  cs::DensityMatrixEngine dm(3);
  program(dm);
  const auto p_dm = dm.probabilities();
  const auto p_mc = cs::run_trajectories(3, 4000, 13, program);
  EXPECT_LT(dist(p_mc, p_dm), 0.02);
}

TEST(Trajectory, DampingJumpStatistics) {
  // |1> under gamma=0.4: P(0) = 0.4 across trajectories.
  const auto program = [](cs::NoisyEngine& eng) {
    eng.apply_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::X, {0})),
                         0);
    eng.apply_thermal_relaxation(0, 0.4, 0.0);
  };
  const auto p = cs::run_trajectories(1, 4000, 17, program);
  EXPECT_NEAR(p[0], 0.4, 0.03);
}

TEST(Trajectory, GenericKrausSampling) {
  // Amplitude damping via the generic interface matches the closed form.
  const double gamma = 0.35;
  Mat2 k0, k1;
  k0(0, 0) = 1.0;
  k0(1, 1) = std::sqrt(1.0 - gamma);
  k1(0, 1) = std::sqrt(gamma);
  const auto program = [&](cs::NoisyEngine& eng) {
    eng.apply_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::X, {0})),
                         0);
    const std::vector<Mat2> kraus = {k0, k1};
    eng.apply_kraus_1q(kraus, 0);
  };
  const auto p = cs::run_trajectories(1, 4000, 19, program);
  EXPECT_NEAR(p[0], gamma, 0.03);
}

// ---- lane-batched trajectory groups ----

namespace {

/// Random one-qubit unitary RZ(a) SX RZ(b).
Mat2 random_u1(charter::util::Rng& rng) {
  const auto rz = [&] {
    return cc::gate_unitary_1q(
        cc::make_gate(GateKind::RZ, {0}, {rng.uniform(-M_PI, M_PI)}));
  };
  const Mat2 sx = cc::gate_unitary_1q(cc::make_gate(GateKind::SX, {0}));
  const Mat2 first = rz();
  return cm::mul(first, cm::mul(sx, rz()));
}

/// Random dense two-qubit unitary RXX(t) (u (x) v).
cm::Mat4 random_u2(charter::util::Rng& rng) {
  const cm::Mat4 rxx = cc::gate_unitary_2q(
      cc::make_gate(GateKind::RXX, {0, 1}, {rng.uniform(-M_PI, M_PI)}));
  const Mat2 u = random_u1(rng);
  return cm::mul(rxx, cm::kron(u, random_u1(rng)));
}

/// Random three-qubit unitary: a dense 4x4 on (qa, qb) times a 2x2 on qc.
std::array<cplx, 64> random_u3(charter::util::Rng& rng) {
  const cm::Mat4 ab = random_u2(rng);
  const Mat2 c = random_u1(rng);
  std::array<cplx, 64> u{};
  for (int r = 0; r < 8; ++r)
    for (int k = 0; k < 8; ++k)
      u[static_cast<std::size_t>(r * 8 + k)] = ab(r & 3, k & 3) * c(r >> 2, k >> 2);
  return u;
}

/// Random exact tape over n qubits cycling through every op kind, a third of
/// the ops on qubit 0 and a third on qubit 1.  Thermal damping is strong
/// (gamma 0.3-0.95) so that within one lane batch some lanes jump and
/// others do not; Pauli channels fire often enough to hit every branch.
cn::NoiseProgram random_tape(int n, int num_ops, charter::util::Rng& rng) {
  cn::NoiseProgram tape(n);
  const auto qubit = [&](int i) {
    return i % 3 == 2 ? static_cast<int>(rng.uniform_int(n)) : (i % 3) % n;
  };
  const auto other = [&](int q, int avoid = -1) {
    int r = static_cast<int>(rng.uniform_int(n));
    while (r == q || r == avoid) r = static_cast<int>(rng.uniform_int(n));
    return r;
  };
  const double g = 0.35;
  Mat2 k0, k1;  // amplitude damping with gamma g
  k0(0, 0) = 1.0;
  k0(1, 1) = std::sqrt(1.0 - g);
  k1(0, 1) = std::sqrt(g);
  const std::vector<Mat2> kraus = {k0, k1};
  for (int i = 0; i < num_ops; ++i) {
    const int q = qubit(i);
    int kind = i % 11;
    if ((n < 2 && (kind == 2 || kind == 3 || kind == 6 || kind >= 9)) ||
        (n < 3 && kind == 10))
      kind = 0;
    switch (kind) {
      case 0:
        tape.append_unitary_1q(random_u1(rng), q);
        break;
      case 1:
        tape.append_diag_1q(std::exp(cplx(0.0, rng.uniform(-1.0, 1.0))),
                            std::exp(cplx(0.0, rng.uniform(-1.0, 1.0))), q);
        break;
      case 2:
        tape.append_cx(q, other(q));
        break;
      case 3: {
        std::array<cplx, 4> d;
        for (cplx& v : d) v = std::exp(cplx(0.0, rng.uniform(-1.0, 1.0)));
        tape.append_diag_2q(d, q, other(q));
        break;
      }
      case 4:
        tape.append_thermal(q, rng.uniform(0.3, 0.95), rng.uniform(0.0, 0.3));
        break;
      case 5:
        tape.append_depol_1q(q, 0.4);
        break;
      case 6:
        tape.append_depol_2q(q, other(q), 0.4);
        break;
      case 7:
        tape.append_bitflip(q, 0.3);
        break;
      case 8:
        tape.append_kraus_1q(kraus, q);
        break;
      case 9:
        tape.append_unitary_2q(random_u2(rng), q, other(q));
        break;
      default: {
        const int qb = other(q);
        tape.append_unitary_3q(random_u3(rng), q, qb, other(q, qb));
        break;
      }
    }
  }
  return tape;
}

/// Random exact tape dominated by diagonal runs: runs of 1..16 mixed
/// kDiag1q/kDiag2q ops (a third of the operands on qubit 0, a third on
/// qubit 1), each followed by a noise or dense op that ends the run.
cn::NoiseProgram run_heavy_tape(int n, int num_runs, charter::util::Rng& rng) {
  cn::NoiseProgram tape(n);
  const auto qubit = [&] {
    const int pick = static_cast<int>(rng.uniform_int(3));
    return pick < 2 ? pick % n : static_cast<int>(rng.uniform_int(n));
  };
  const auto phase = [&] { return std::exp(cplx(0.0, rng.uniform(-1.0, 1.0))); };
  for (int r = 0; r < num_runs; ++r) {
    const int len = 1 + r % cm::kMaxDiagRun;
    for (int j = 0; j < len; ++j) {
      const int qa = qubit();
      if (n < 2 || rng.uniform_int(2) == 0) {
        tape.append_diag_1q(phase(), phase(), qa);
        continue;
      }
      int qb = qubit();
      while (qb == qa) qb = static_cast<int>(rng.uniform_int(n));
      tape.append_diag_2q({phase(), phase(), phase(), phase()}, qa, qb);
    }
    const int q = qubit();
    switch (r % 4) {
      case 0:
        tape.append_thermal(q, rng.uniform(0.3, 0.95), rng.uniform(0.0, 0.3));
        break;
      case 1:
        tape.append_depol_1q(q, 0.4);
        break;
      case 2:
        tape.append_unitary_1q(random_u1(rng), q);
        break;
      default:
        if (n >= 2) tape.append_cx(q, (q + 1) % n);
        else tape.append_bitflip(q, 0.3);
        break;
    }
  }
  return tape;
}

/// Random exact tape dominated by thermal relaxation: \p rounds rounds of a
/// random one-qubit unitary on every qubit (so each has a sizable P(1))
/// followed by a thermal op on every qubit, gamma 0.05-0.7 and pz > 0.
/// Some ops then jump on no lane (the two-pass branch) and others on some
/// lanes of a batch but not all.
cn::NoiseProgram thermal_heavy_tape(int n, int rounds,
                                    charter::util::Rng& rng) {
  cn::NoiseProgram tape(n);
  for (int r = 0; r < rounds; ++r) {
    for (int q = 0; q < n; ++q) tape.append_unitary_1q(random_u1(rng), q);
    for (int q = 0; q < n; ++q)
      tape.append_thermal(q, rng.uniform(0.05, 0.7), rng.uniform(0.01, 0.2));
  }
  return tape;
}

/// Random tape in the qaoa pattern whose element-local ops the lane batch
/// defers: per edge (q, q + 1) of a line, a diagonal run of one to three
/// ZZ / RZ phases, cx, an RZ, two-qubit depolarizing and a thermal op on
/// each end; then per qubit a random unitary, a bit flip and a thermal op,
/// and a Kraus channel on one qubit.  It crosses every flush point: cx,
/// u1q, Pauli hits (depolarizing 0.3, bit flip 0.2, pz up to 0.3), Kraus,
/// jumps (gamma 0.6-0.95 on every other layer, 0.01-0.1 otherwise), and
/// the end of the tape, which closes on a diagonal run after a thermal op.
cn::NoiseProgram qaoa_shaped_tape(int n, int layers,
                                  charter::util::Rng& rng) {
  cn::NoiseProgram tape(n);
  const auto phase = [&] { return std::exp(cplx(0.0, rng.uniform(-1.0, 1.0))); };
  const auto diag_run = [&](int qa, int qb, int len) {
    for (int j = 0; j < len; ++j) {
      if (j % 2 == 1 || qb < 0) {
        tape.append_diag_1q(phase(), phase(), j % 2 == 1 && qb >= 0 ? qb : qa);
        continue;
      }
      const cplx e = phase();
      tape.append_diag_2q({e, std::conj(e), std::conj(e), e}, qa, qb);
    }
  };
  const double g = 0.3;
  Mat2 k0, k1;  // phase damping with lambda g
  k0(0, 0) = 1.0;
  k0(1, 1) = std::sqrt(1.0 - g);
  k1(1, 1) = std::sqrt(g);
  const std::vector<Mat2> kraus = {k0, k1};
  for (int layer = 0; layer < layers; ++layer) {
    const auto gamma = [&] {
      return layer % 2 == 1 ? rng.uniform(0.6, 0.95) : rng.uniform(0.01, 0.1);
    };
    for (int q = 0; q + 1 < n; ++q) {
      diag_run(q, q + 1, 1 + static_cast<int>(rng.uniform_int(3)));
      tape.append_cx(q, q + 1);
      tape.append_diag_1q(phase(), phase(), q + 1);
      tape.append_depol_2q(q, q + 1, 0.3);
      tape.append_thermal(q, gamma(), rng.uniform(0.0, 0.3));
      tape.append_thermal(q + 1, gamma(), rng.uniform(0.0, 0.3));
    }
    for (int q = 0; q < n; ++q) {
      tape.append_unitary_1q(random_u1(rng), q);
      tape.append_bitflip(q, 0.2);
      tape.append_thermal(q, gamma(), rng.uniform(0.0, 0.3));
    }
    tape.append_kraus_1q(kraus, static_cast<int>(rng.uniform_int(n)));
  }
  tape.append_thermal(0, 0.05, 0.0);
  diag_run(0, n > 1 ? 1 : -1, 3);
  return tape;
}

/// The tape interpreter without diagonal runs: one engine call per op,
/// diagonal ops through plain apply_diag_1q / apply_diag_2q.
void execute_op_by_op(const cn::NoiseProgram& tape, cs::NoisyEngine& e) {
  e.reset();
  for (std::size_t i = 0; i < tape.size(); ++i) {
    const cn::TapeOp& op = tape.op(i);
    switch (op.kind) {
      case cn::TapeOpKind::kUnitary1q:
        e.apply_unitary_1q(tape.mat(op.payload), op.q0);
        break;
      case cn::TapeOpKind::kDiag1q: {
        const std::array<cplx, 4>& d = tape.diag(op.payload);
        e.apply_diag_1q(d[0], d[1], op.q0);
        break;
      }
      case cn::TapeOpKind::kCx:
        e.apply_cx(op.q0, op.q1);
        break;
      case cn::TapeOpKind::kDiag2q:
        e.apply_diag_2q(tape.diag(op.payload), op.q0, op.q1);
        break;
      case cn::TapeOpKind::kThermal:
        e.apply_thermal_relaxation(op.q0, op.a, op.b);
        break;
      case cn::TapeOpKind::kDepol1q:
        e.apply_depolarizing_1q(op.q0, op.a);
        break;
      case cn::TapeOpKind::kDepol2q:
        e.apply_depolarizing_2q(op.q0, op.q1, op.a);
        break;
      case cn::TapeOpKind::kBitflip:
        e.apply_bitflip(op.q0, op.a);
        break;
      case cn::TapeOpKind::kKraus1q:
        e.apply_kraus_1q(tape.kraus(op.payload), op.q0);
        break;
      case cn::TapeOpKind::kUnitary2q:
        e.apply_unitary_2q(tape.mat4(op.payload), op.q0, op.q1);
        break;
      case cn::TapeOpKind::kUnitary3q:
        e.apply_unitary_3q(tape.mat8(op.payload), op.q0, op.q1, op.q2);
        break;
    }
  }
}

/// The per-unravelling loop the lane batch replaced: one TrajectoryEngine
/// per unravelling driven by \p program, probabilities summed in
/// unravelling order, on serial kernels (as on an exec pool worker).
std::vector<double> one_at_a_time(
    int n, int begin, int end, const charter::util::Rng& seeder,
    const std::function<void(cs::NoisyEngine&)>& program) {
  const charter::util::SerialKernels serial;
  std::vector<double> local(std::uint64_t{1} << n, 0.0);
  for (int t = begin; t < end; ++t) {
    cs::TrajectoryEngine engine(n, cs::trajectory_engine_seed(seeder, t));
    program(engine);
    const std::vector<double> p = engine.probabilities();
    for (std::size_t i = 0; i < local.size(); ++i) local[i] += p[i];
  }
  return local;
}

/// The same, driving each engine op by op through \p tape.
std::vector<double> one_at_a_time(int n, int begin, int end,
                                  const charter::util::Rng& seeder,
                                  const cn::NoiseProgram& tape) {
  return one_at_a_time(n, begin, end, seeder, [&](cs::NoisyEngine& e) {
    execute_op_by_op(tape, e);
  });
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The lane-group rows of one width on the active path: every tape kind,
/// group size and the reset-with-pending-ops program, each a lane-batched
/// group against one unravelling at a time, byte for byte.
void check_lane_groups(int n, charter::util::Rng& rng, int& checked) {
  const char* path = charter::math::simd::path_name(
      charter::math::simd::active_path());
  const cn::NoiseProgram exact = random_tape(n, 44, rng);
  const cn::NoiseProgram runs = run_heavy_tape(n, 20, rng);
  std::vector<const cn::NoiseProgram*> tapes = {&exact, &runs};
  std::vector<cn::NoiseProgram> wide;
  if (n >= 2) wide.push_back(cn::fused_wide(exact, 0, 2));
  if (n >= 3) wide.push_back(cn::fused_wide(exact, 0, 3));
  for (const cn::NoiseProgram& w : wide) tapes.push_back(&w);
  // Above 10 qubits one tape per width, rotating through the four kinds,
  // keeps the sanitizer legs fast.
  if (n > 10) tapes = {tapes[static_cast<std::size_t>(n) % tapes.size()]};
  // Every width runs the thermal-heavy tape, one round above 10 qubits,
  // and the qaoa-shaped one, two layers above 10 qubits.
  const cn::NoiseProgram thermal = thermal_heavy_tape(n, n > 10 ? 1 : 3, rng);
  tapes.push_back(&thermal);
  const cn::NoiseProgram qaoa = qaoa_shaped_tape(n, n > 10 ? 2 : 4, rng);
  tapes.push_back(&qaoa);
  // Every group size at small widths, one per width above; above 14
  // qubits a group of four, so the widest batch there runs (four lanes
  // at 15-16 qubits, two at 17).
  const int first_size = n <= 6 ? 1 : n <= 14 ? 1 + n % 8 : 4;
  for (int size = first_size; size <= 8; size += n <= 6 ? 1 : 8) {
    const int begin = cs::kTrajectoryGroupSize * (n % 3);
    const charter::util::Rng seeder(100 + n);
    for (const cn::NoiseProgram* tape : tapes) {
      const std::vector<double> want =
          one_at_a_time(n, begin, begin + size, seeder, *tape);
      const std::vector<double> got = cs::run_trajectory_group(
          n, begin, begin + size, seeder,
          [&](cs::NoisyEngine& e) { tape->execute(e); });
      EXPECT_TRUE(same_bytes(got, want)) << path << " n=" << n << " size="
                                         << size << " ops=" << tape->size();
      ++checked;
    }
    // A program that resets with ops still deferred: the qaoa tape
    // ends on a diagonal run, and its second run starts from a reset.
    const auto twice = [&](cs::NoisyEngine& e) {
      qaoa.execute(e);
      qaoa.execute(e);
    };
    EXPECT_TRUE(same_bytes(
        cs::run_trajectory_group(n, begin, begin + size, seeder, twice),
        one_at_a_time(n, begin, begin + size, seeder, twice)))
        << path << " n=" << n << " size=" << size << " twice";
  }
}

}  // namespace

TEST(TrajectoryLanes, GroupMatchesOneAtATimeByteForByte) {
  namespace ms = charter::math::simd;
  const ms::SimdPath original = ms::active_path();
  charter::util::Rng rng(2022);
  int checked = 0;
  for (const ms::SimdPath path : {ms::SimdPath::kScalar, ms::SimdPath::kWidth2,
                                  ms::SimdPath::kAvx2, ms::SimdPath::kAvx512}) {
    if (!ms::set_path(path)) continue;
    for (int n = 1; n <= 14; ++n) check_lane_groups(n, rng, checked);
  }
  ms::set_path(original);
  EXPECT_GT(checked, 0);
}

// The widest rows (n = 15..17: four lanes at 15-16 qubits, two at 17) of
// the test above, one instance per SIMD path.  CMakeLists.txt registers
// each instance as its own CTest entry and filters them out of the main
// test_sim entry, so a sanitizer leg runs them beside everything else.
class TrajectoryLanesWide
    : public ::testing::TestWithParam<charter::math::simd::SimdPath> {};

TEST_P(TrajectoryLanesWide, GroupMatchesOneAtATimeByteForByte) {
  namespace ms = charter::math::simd;
  const ms::SimdPath original = ms::active_path();
  if (!ms::set_path(GetParam()))
    GTEST_SKIP() << ms::path_name(GetParam()) << " is not available";
  charter::util::Rng rng(2037);
  int checked = 0;
  for (int n = 15; n <= 17; ++n) check_lane_groups(n, rng, checked);
  ms::set_path(original);
  EXPECT_GT(checked, 0);
}

namespace {

/// Instance names the CTest filters select: scalar, width2, avx2, avx512.
std::string simd_path_label(
    const ::testing::TestParamInfo<charter::math::simd::SimdPath>& info) {
  constexpr const char* kNames[] = {"scalar", "width2", "avx2", "avx512"};
  return kNames[static_cast<int>(info.param)];
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Paths, TrajectoryLanesWide,
    ::testing::Values(charter::math::simd::SimdPath::kScalar,
                      charter::math::simd::SimdPath::kWidth2,
                      charter::math::simd::SimdPath::kAvx2,
                      charter::math::simd::SimdPath::kAvx512),
    simd_path_label);

// A region boundary ends a diagonal run, so splitting a tape anywhere
// changes no byte: run(0, m) then run(m, size) equals one run over the
// whole tape on every engine, and equals the op-by-op interpreter.
TEST(DiagonalRuns, SplitPointsAndPerOpCallsAreByteIdentical) {
  const charter::util::SerialKernels serial;
  namespace ms = charter::math::simd;
  const ms::SimdPath original = ms::active_path();
  for (const ms::SimdPath path : {ms::SimdPath::kScalar, ms::SimdPath::kWidth2,
                                  ms::SimdPath::kAvx2, ms::SimdPath::kAvx512}) {
    if (!ms::set_path(path)) continue;
    charter::util::Rng rng(77 + static_cast<std::uint64_t>(path));
    for (const int n : {1, 3, 5}) {
      const cn::NoiseProgram tape = run_heavy_tape(n, 8, rng);
      const std::size_t size = tape.size();
      const auto dm_bytes = [&](const auto& drive) {
        cs::DensityMatrixEngine e(n);
        e.reset();
        drive(e);
        return e.raw();
      };
      const auto sv_bytes = [&](const auto& drive) {
        cs::TrajectoryEngine e(n, 99);
        e.reset();
        drive(e);
        return e.state().amplitudes();
      };
      const auto same = [](std::span<const cplx> a, std::span<const cplx> b) {
        return a.size() == b.size() &&
               std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
      };
      const auto whole = [&](cs::NoisyEngine& e) { tape.run(e, 0, size); };
      const auto per_op = [&](cs::NoisyEngine& e) { execute_op_by_op(tape, e); };
      const cm::AmpBuffer dm = dm_bytes(whole);
      const cm::AmpBuffer sv = sv_bytes(whole);
      EXPECT_TRUE(same(dm_bytes(per_op), dm)) << ms::path_name(path);
      EXPECT_TRUE(same(sv_bytes(per_op), sv)) << ms::path_name(path);

      const charter::util::Rng seeder(5 + n);
      const std::vector<double> lanes = cs::run_trajectory_group(
          n, 0, 8, seeder, [&](cs::NoisyEngine& e) { tape.execute(e); });
      EXPECT_TRUE(same_bytes(lanes, one_at_a_time(n, 0, 8, seeder, tape)))
          << ms::path_name(path) << " n=" << n;
      for (std::size_t m = 0; m <= size; ++m) {
        const auto split = [&](cs::NoisyEngine& e) {
          tape.run(e, 0, m);
          tape.run(e, m, size);
        };
        EXPECT_TRUE(same(dm_bytes(split), dm)) << "dm m=" << m;
        EXPECT_TRUE(same(sv_bytes(split), sv)) << "sv m=" << m;
        const std::vector<double> got = cs::run_trajectory_group(
            n, 0, 8, seeder, [&](cs::NoisyEngine& e) {
              e.reset();
              split(e);
            });
        EXPECT_TRUE(same_bytes(got, lanes))
            << ms::path_name(path) << " lanes n=" << n << " m=" << m;
      }
    }
  }
  ms::set_path(original);
}

TEST(TrajectoryLanes, StrongDampingSplitsLanesWithinABatch) {
  // One thermal op with gamma near 1 on |+>: each lane jumps with
  // probability ~0.5, so a 4-lane batch mixes jumping and non-jumping
  // lanes in the same op.  A lane that jumps ends exactly in |0>; one that
  // does not keeps P(1) = c = (1 - gamma) / (2 - gamma).
  const double gamma = 0.999;
  const double c = (1.0 - gamma) / (2.0 - gamma);
  cn::NoiseProgram tape(1);
  tape.append_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::H, {0})),
                         0);
  tape.append_thermal(0, gamma, 0.0);
  const charter::util::Rng seeder(5);
  bool mixed = false;
  for (int g = 0; g < 8; ++g) {
    const int begin = g * cs::kTrajectoryGroupSize;
    const std::vector<double> sum = cs::run_trajectory_group(
        1, begin, begin + 4, seeder,
        [&](cs::NoisyEngine& e) { tape.execute(e); });
    const long stayed = std::lround(sum[1] / c);
    mixed = mixed || (stayed > 0 && stayed < 4);
    EXPECT_TRUE(
        same_bytes(sum, one_at_a_time(1, begin, begin + 4, seeder, tape)));
  }
  EXPECT_TRUE(mixed);
}

TEST(TrajectoryLanes, RangeMustBeOneNonEmptyGroupPart) {
  const charter::util::Rng seeder(1);
  const auto program = [](cs::NoisyEngine&) {};
  for (const auto& [begin, end] :
       std::vector<std::pair<int, int>>{{0, 0}, {3, 2}, {-1, 2}, {6, 10},
                                        {0, 9}, {8, 17}, {0, 1 << 30}}) {
    EXPECT_THROW(cs::run_trajectory_group(2, begin, end, seeder, program),
                 charter::InvalidArgument)
        << begin << ".." << end;
  }
  EXPECT_NO_THROW(cs::run_trajectory_group(2, 8, 16, seeder, program));
  EXPECT_NO_THROW(cs::run_trajectory_group(2, 13, 14, seeder, program));
}

TEST(TrajectoryLanes, FoldMatchesInOrderSumInAnyArrivalOrder) {
  charter::util::Rng rng(3);
  const int trajectories = 29;
  const int groups = cs::num_trajectory_groups(trajectories);
  std::vector<std::vector<double>> partials(static_cast<std::size_t>(groups));
  for (auto& p : partials) {
    p.resize(16);
    for (double& v : p) v = rng.uniform();
  }
  std::vector<double> want(16, 0.0);  // the in-order fold, then 1/N
  for (const auto& p : partials)
    for (std::size_t i = 0; i < want.size(); ++i) want[i] += p[i];
  for (double& v : want) v *= 1.0 / trajectories;
  EXPECT_TRUE(same_bytes(cs::fold_trajectory_groups(partials, 16, trajectories),
                         want));
  for (const std::vector<int>& order :
       {std::vector<int>{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}) {
    cs::TrajectoryFold fold(16, trajectories);
    for (const int g : order) fold.add(g, partials[static_cast<std::size_t>(g)]);
    EXPECT_TRUE(same_bytes(fold.take(), want));
  }
  cs::TrajectoryFold fold(16, trajectories);
  fold.add(1, partials[1]);
  EXPECT_THROW(fold.add(1, partials[1]), charter::InvalidArgument);
  EXPECT_THROW(fold.take(), charter::InvalidArgument);
}

TEST(TrajectoryLanes, RunTrajectoriesIsIdenticalOnTheKernelPoolAndMarked) {
  // Off an exec thread, one fold group at n = 12 runs inline, unmarked,
  // three run as kernel-pool tasks, and at n = 17, made amplitude-parallel,
  // the kernels and the chunked norms fan out.  The bytes must equal the
  // marked, inline run.
  struct Case {
    int n, trajectories, ops, threshold;
  };
  const int saved = cs::amp_parallel_min_qubits();
  for (const Case c : {Case{12, 8, 60, saved}, Case{12, 24, 60, saved},
                       Case{17, 4, 40, 17}}) {
    charter::util::Rng rng(static_cast<std::uint64_t>(c.n));
    const cn::NoiseProgram tape = random_tape(c.n, c.ops, rng);
    cs::set_amp_parallel_min_qubits(c.threshold);
    const auto run = [&] {
      return cs::run_trajectories(c.n, c.trajectories, 77,
                                  [&](cs::NoisyEngine& e) { tape.execute(e); });
    };
    const std::vector<double> pooled = run();
    const charter::util::SerialKernels mark;
    EXPECT_TRUE(same_bytes(pooled, run())) << "n=" << c.n;
  }
  cs::set_amp_parallel_min_qubits(saved);
}

// ---- measurement utilities ----

TEST(Measurement, ReadoutConfusionSingleQubit) {
  std::vector<double> probs = {1.0, 0.0};
  cs::apply_readout_error(probs, {{0.1, 0.2}});
  EXPECT_NEAR(probs[0], 0.9, 1e-12);
  EXPECT_NEAR(probs[1], 0.1, 1e-12);

  probs = {0.0, 1.0};
  cs::apply_readout_error(probs, {{0.1, 0.2}});
  EXPECT_NEAR(probs[0], 0.2, 1e-12);
  EXPECT_NEAR(probs[1], 0.8, 1e-12);
}

TEST(Measurement, ReadoutPreservesTotalProbability) {
  std::vector<double> probs = {0.1, 0.2, 0.3, 0.4};
  cs::apply_readout_error(probs, {{0.02, 0.05}, {0.01, 0.08}});
  double total = 0.0;
  for (const double v : probs) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Measurement, SampleCountsMatchDistribution) {
  charter::util::Rng rng(61);
  const std::vector<double> probs = {0.5, 0.25, 0.125, 0.125};
  const auto counts = cs::sample_counts(probs, 100000, rng);
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  EXPECT_EQ(total, 100000u);
  EXPECT_NEAR(static_cast<double>(counts[0]) / 100000.0, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[3]) / 100000.0, 0.125, 0.01);
}

namespace {

/// The historical sampling loop: one uniform() and one upper_bound per
/// shot.
std::vector<std::uint64_t> upper_bound_counts(const std::vector<double>& probs,
                                              std::uint64_t shots,
                                              charter::util::Rng& rng) {
  std::vector<double> cdf(probs.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    acc += std::max(0.0, probs[i]);
    cdf[i] = acc;
  }
  std::vector<std::uint64_t> counts(probs.size(), 0);
  for (std::uint64_t s = 0; s < shots; ++s) {
    const double u = rng.uniform() * acc;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    const std::size_t idx = std::min(
        static_cast<std::size_t>(it - cdf.begin()), probs.size() - 1);
    ++counts[idx];
  }
  return counts;
}

}  // namespace

TEST(Measurement, SampleCountsByteIdenticalToUpperBoundLoop) {
  const std::uint64_t block = cs::kShotBlock;
  const std::vector<std::uint64_t> shot_counts = {
      1, 7, block - 1, block, block + 1, 4096, 8192, 100000};
  charter::util::Rng gen(2024);
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double huge = std::numeric_limits<double>::max();
  for (const std::size_t n : {1u, 2u, 3u, 7u, 8u, 9u, 31u, 32u, 33u, 128u,
                              1000u, 16384u}) {
    std::vector<std::pair<const char*, std::vector<double>>> dists;
    std::vector<double> p(n);
    // Zeros (a quarter of the entries) and negative entries, which the
    // cdf clamps to zero.
    for (double& v : p) {
      const double r = gen.uniform();
      v = r < 0.25 ? 0.0 : r < 0.4 ? -r : r;
    }
    p[n / 2] = 0.7;  // some positive mass in every case
    dists.emplace_back("zeros_negatives", p);
    // Trailing zero entries: the last third holds no mass.
    for (std::size_t i = 0; i < n; ++i)
      p[i] = 3 * i >= 2 * n && i > 0 ? 0.0 : 0.1 + gen.uniform();
    dists.emplace_back("trailing_zeros", p);
    // A single non-zero entry, last (every shot lands on it).
    std::fill(p.begin(), p.end(), 0.0);
    p[n - 1] = 0.3;
    dists.emplace_back("single_last", p);
    // Subnormal masses: u rounds onto the cdf entries and onto acc itself,
    // so ties (<= against <) and the n - 1 clamp are both reached.
    for (std::size_t i = 0; i < n; ++i) p[i] = i % 3 == 1 ? 0.0 : tiny;
    p[0] = tiny;
    dists.emplace_back("subnormal", p);
    // Overflowing mass: for n > 1 acc is +inf, u is inf (or NaN for a zero
    // draw) and every shot reaches the clamp.
    std::fill(p.begin(), p.end(), huge);
    dists.emplace_back("overflow", p);
    for (const auto& [name, probs] : dists) {
      for (const std::uint64_t shots : shot_counts) {
        charter::util::Rng want_rng(n * 131 + shots), got_rng(n * 131 + shots);
        const auto want = upper_bound_counts(probs, shots, want_rng);
        const auto got = cs::sample_counts(probs, shots, got_rng);
        ASSERT_EQ(got, want) << name << " n=" << n << " shots=" << shots;
        ASSERT_EQ(got_rng.next_u64(), want_rng.next_u64())
            << name << " n=" << n << " shots=" << shots;
      }
    }
  }
}

TEST(Measurement, CountsToDistributionNormalizes) {
  const std::vector<std::uint64_t> counts = {10, 30, 40, 20};
  const auto p = cs::counts_to_distribution(counts);
  EXPECT_DOUBLE_EQ(p[1], 0.3);
  EXPECT_DOUBLE_EQ(p[2], 0.4);
}

TEST(Measurement, BitstringRendering) {
  EXPECT_EQ(cs::bitstring(5, 3), "101");
  EXPECT_EQ(cs::bitstring(0, 4), "0000");
  EXPECT_EQ(cs::bitstring(8, 4), "1000");
}
