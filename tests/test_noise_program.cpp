// Tests for the NoiseProgram tape: exact lowering is equivalent to the
// streaming walk, fused-wide tapes agree with exact tapes to 1e-12 while
// being strictly smaller, spliced lowering reproduces full lowering
// bit-exactly, and fingerprints separate exact from fused-wide tapes.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <functional>
#include <span>
#include <string>


#include "circuit/circuit.hpp"
#include "core/reversal.hpp"
#include "noise/calibration.hpp"
#include "noise/executor.hpp"
#include "noise/program.hpp"
#include "noise/serialize.hpp"
#include "sim/density_matrix.hpp"
#include "sim/snapshot.hpp"
#include "sim/trajectory.hpp"
#include "util/byte_io.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace cc = charter::circ;
namespace cn = charter::noise;
namespace cs = charter::sim;
using cc::GateKind;

namespace {

/// Line-coupled device with heterogeneous generated calibration: every
/// noise mechanism (decoherence, depolarizing, over-rotation, static and
/// drive ZZ, SPAM) is active, so fusion legality is exercised against the
/// full channel set.
cn::NoiseModel line_model(int n, std::uint64_t seed) {
  std::vector<std::pair<int, int>> edges;
  for (int q = 0; q + 1 < n; ++q) edges.emplace_back(q, q + 1);
  cn::NoiseModel m = cn::generate_calibration(n, edges, seed);
  // Make the coherent CX error non-trivial so diag-2q fusion paths run.
  for (const auto& [a, b] : m.edges()) m.edge(a, b).cx_zz_angle = 0.01;
  return m;
}

/// Random basis-gate circuit over a line coupling.
cc::Circuit random_basis_circuit(int n, int num_gates, std::uint64_t seed) {
  charter::util::Rng rng(seed);
  cc::Circuit c(n);
  for (int i = 0; i < num_gates; ++i) {
    switch (rng.uniform_int(6)) {
      case 0:
        c.rz(static_cast<int>(rng.uniform_int(n)),
             rng.uniform() * 2.0 * M_PI - M_PI);
        break;
      case 1:
        c.sx(static_cast<int>(rng.uniform_int(n)));
        break;
      case 2:
        c.sxdg(static_cast<int>(rng.uniform_int(n)));
        break;
      case 3:
        c.x(static_cast<int>(rng.uniform_int(n)));
        break;
      default: {
        const int a = static_cast<int>(rng.uniform_int(n - 1));
        if (rng.bernoulli(0.5))
          c.cx(a, a + 1);
        else
          c.cx(a + 1, a);
        break;
      }
    }
  }
  return c;
}

double max_abs_diff(std::span<const charter::math::cplx> a,
                    std::span<const charter::math::cplx> b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

}  // namespace

TEST(NoiseProgram, ExactTapeMatchesStreamingWalkBitExactly) {
  const cn::NoiseModel m = line_model(4, 11);
  const cc::Circuit c = random_basis_circuit(4, 40, 3);
  const cn::NoisyExecutor executor(m);

  // run() interprets the whole tape; the streaming API interprets it one
  // circuit-op segment at a time.  Both must agree bit-for-bit.
  cs::DensityMatrixEngine whole(4);
  executor.run(c, whole);

  cn::NoisyExecutor::Stream stream = executor.make_stream(c);
  cs::DensityMatrixEngine stepped(4);
  executor.start(c, stream, stepped);
  while (stream.next_op < c.size()) executor.step(c, stream, stepped);
  executor.finish(c, stream, stepped);

  EXPECT_EQ(max_abs_diff(whole.raw(), stepped.raw()), 0.0);
}

// Off the exec pool (a direct FakeBackend::run), every density-matrix
// kernel fans out on the kernel pool at n = 9.  None reduces across
// iterations, so vec(rho) must equal the marked, inline run's bytes.
TEST(NoiseProgram, ExactTapeIsBitIdenticalOnTheKernelPoolAndMarked) {
  for (const int n : {6, 9}) {
    const cn::NoiseModel m = line_model(n, 40 + static_cast<std::uint64_t>(n));
    const cc::Circuit c =
        random_basis_circuit(n, 10 * n, static_cast<std::uint64_t>(n));
    const cn::NoiseProgram tape = cn::lower(m, c);
    std::size_t diag_ops = 0;
    for (std::size_t i = 0; i < tape.size(); ++i)
      diag_ops += tape.op(i).kind == cn::TapeOpKind::kDiag1q ||
                  tape.op(i).kind == cn::TapeOpKind::kDiag2q;
    ASSERT_GT(diag_ops, 0u);

    const auto run = [&] {
      cs::DensityMatrixEngine engine(n);
      tape.execute(engine);
      return engine.raw();
    };
    const charter::math::AmpBuffer pooled = run();
    const charter::util::SerialKernels mark;
    const charter::math::AmpBuffer marked = run();
    ASSERT_EQ(std::memcmp(pooled.data(), marked.data(),
                          marked.size() * sizeof(charter::math::cplx)),
              0)
        << "n=" << n;
  }
}

TEST(NoiseProgram, BoundariesPartitionTheTape) {
  const cn::NoiseModel m = line_model(3, 5);
  const cc::Circuit c = random_basis_circuit(3, 20, 9);
  const cn::NoiseProgram p = cn::lower(m, c);

  ASSERT_EQ(p.num_circuit_ops(), c.size());
  EXPECT_GE(p.prologue_end(), 0u);
  std::size_t prev = p.prologue_end();
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(p.op_begin(i), prev);
    EXPECT_GE(p.op_end(i), p.op_begin(i));
    prev = p.op_end(i);
  }
  EXPECT_EQ(p.epilogue_begin(), prev);
  EXPECT_GE(p.size(), prev);
}

TEST(NoiseProgram, FusedWideTapeAgreesWithinTolerance) {
  // Tentpole acceptance: wide-gate fusion consolidates coherent runs into
  // dense 2q/3q unitaries and still agrees with the exact tape to 1e-12.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    const cn::NoiseModel m = line_model(5, 200 + seed);
    const cc::Circuit c = random_basis_circuit(5, 60, seed);
    const cn::NoiseProgram exact = cn::lower(m, c);
    for (const int width : {2, 3}) {
      const cn::NoiseProgram wide = cn::fused_wide(exact, 0, width);
      EXPECT_EQ(wide.level(), cn::OptLevel::kFusedWide);
      EXPECT_LT(wide.size(), exact.size())
          << "wide fusion should shrink the tape";

      cs::DensityMatrixEngine a(5), b(5);
      exact.execute(a);
      wide.execute(b);
      EXPECT_LE(max_abs_diff(a.raw(), b.raw()), 1e-12)
          << "seed " << seed << " width " << width;
    }
  }
}

TEST(NoiseProgram, FusedWideTrajectoryAgreesAndPreservesRanking) {
  // Trajectory runs honor kFusedWide because stochastic channels stay
  // in-order barriers: the RNG draw sequence matches the exact tape, so
  // per-seed results agree within the fusion tolerance and the outcome
  // ranking is unchanged.
  const int n = 5;
  const cn::NoiseModel m = line_model(n, 307);
  const cc::Circuit c = random_basis_circuit(n, 60, 71);
  const cn::NoiseProgram exact = cn::lower(m, c);
  const cn::NoiseProgram wide = cn::fused_wide(exact);

  const auto run = [&](const cn::NoiseProgram& tape) {
    return cs::run_trajectories(
        n, 24, 0x5eedULL,
        [&](cs::NoisyEngine& engine) { tape.execute(engine); });
  };
  const std::vector<double> pe = run(exact);
  const std::vector<double> pw = run(wide);
  ASSERT_EQ(pe.size(), pw.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < pe.size(); ++i)
    worst = std::max(worst, std::abs(pe[i] - pw[i]));
  EXPECT_LE(worst, 1e-12);

  // Ranking equality: sorting outcomes by probability must give the same
  // order on both tapes (the exact density-matrix ranking check below is
  // the stronger cross-engine version).
  const auto ranking = [](const std::vector<double>& p) {
    std::vector<std::size_t> order(p.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return p[a] != p[b] ? p[a] > p[b] : a < b;
    });
    return order;
  };
  EXPECT_EQ(ranking(pe), ranking(pw));

  // Cross-check on the exact engine: fused-wide vs exact density-matrix
  // distributions rank outcomes identically.
  cs::DensityMatrixEngine a(n), b(n);
  exact.execute(a);
  wide.execute(b);
  EXPECT_EQ(ranking(a.probabilities()), ranking(b.probabilities()));
}

TEST(NoiseProgram, FusedWideEmitsDenseWideOps) {
  // A coherent-dominated model (stochastic channels off) collapses whole
  // gate runs between CX barriers; the result must actually contain dense
  // two-qubit tape ops, not just re-emitted 1q gates.
  cn::NoiseModel m = line_model(4, 401);
  m.toggles().decoherence = false;
  m.toggles().depolarizing = false;
  m.toggles().prep = false;
  m.toggles().readout = false;
  const cc::Circuit c = random_basis_circuit(4, 50, 77);
  const cn::NoiseProgram exact = cn::lower(m, c);
  const cn::NoiseProgram wide = cn::fused_wide(exact);
  std::size_t dense = 0;
  for (std::size_t i = 0; i < wide.size(); ++i)
    dense += wide.op(i).kind == cn::TapeOpKind::kUnitary2q ||
             wide.op(i).kind == cn::TapeOpKind::kUnitary3q;
  EXPECT_GT(dense, 0u);
  EXPECT_LT(wide.size(), exact.size())
      << "wide fusion should shrink coherent tapes";
}

TEST(NoiseProgram, FusedWidePreservesVerbatimPrefix) {
  const cn::NoiseModel m = line_model(4, 501);
  const cc::Circuit c = random_basis_circuit(4, 30, 91);
  const cn::NoiseProgram exact = cn::lower(m, c);

  const std::size_t cut = exact.op_end(c.size() / 2);
  const cn::NoiseProgram part = cn::fused_wide(exact, cut);
  ASSERT_TRUE(part.region_equal(exact, 0, cut));
  EXPECT_EQ(part.level(), cn::OptLevel::kFusedWide);

  cs::DensityMatrixEngine a(4), b(4);
  exact.execute(a);
  part.execute(b);
  EXPECT_LE(max_abs_diff(a.raw(), b.raw()), 1e-12);
}

TEST(NoiseProgram, FusionWidthKnobClampsAndSticks) {
  const int original = cn::fusion_width();
  cn::set_fusion_width(3);
  EXPECT_EQ(cn::fusion_width(), 3);
  cn::set_fusion_width(1);  // clamps up
  EXPECT_EQ(cn::fusion_width(), 2);
  cn::set_fusion_width(7);  // clamps down
  EXPECT_EQ(cn::fusion_width(), 3);
  cn::set_fusion_width(original);
}

TEST(NoiseProgram, SplicedLoweringMatchesFullLoweringBitExactly) {
  const cn::NoiseModel m = line_model(5, 13);
  const cc::Circuit base = random_basis_circuit(5, 40, 17);
  const cn::NoiseProgram base_tape = cn::lower(m, base, true);

  const std::vector<std::size_t> eligible =
      charter::core::reversible_ops(base, true);
  ASSERT_GE(eligible.size(), 10u);
  for (const std::size_t g :
       {eligible.front(), eligible[eligible.size() / 2], eligible.back()}) {
    const cc::Circuit derived =
        charter::core::insert_reversed_pairs(base, g, 3, true);
    const auto spliced = cn::lower_spliced(m, base, base_tape, derived, g + 1);
    ASSERT_TRUE(spliced.has_value()) << "gate " << g;
    const cn::NoiseProgram full = cn::lower(m, derived);
    ASSERT_EQ(spliced->size(), full.size());
    EXPECT_TRUE(spliced->region_equal(full, 0, full.size()));
    EXPECT_EQ(spliced->fingerprint(), full.fingerprint());
  }
}

TEST(NoiseProgram, SpliceRejectsOverClaimedPrefix) {
  const cn::NoiseModel m = line_model(3, 19);
  const cc::Circuit base = random_basis_circuit(3, 20, 23);
  const cn::NoiseProgram base_tape = cn::lower(m, base, true);

  // A circuit whose claimed prefix diverges (different first gate) must be
  // rejected rather than resumed.
  cc::Circuit other(3);
  other.x(0);
  for (std::size_t i = 1; i < base.size(); ++i) other.append(base.op(i));
  EXPECT_FALSE(cn::lower_spliced(m, base, base_tape, other, 5).has_value());

  // Without resume records there is nothing to splice from.
  const cn::NoiseProgram bare = cn::lower(m, base, false);
  EXPECT_FALSE(cn::lower_spliced(m, base, bare, base, 5).has_value());
}

TEST(NoiseProgram, FingerprintsSeparateLevelsAndCircuits) {
  const cn::NoiseModel m = line_model(4, 29);
  const cc::Circuit c1 = random_basis_circuit(4, 25, 31);
  cc::Circuit c2 = c1;
  c2.x(0);

  const cn::NoiseProgram exact = cn::lower(m, c1);
  const cn::NoiseProgram again = cn::lower(m, c1);
  const cn::NoiseProgram wide2 = cn::fused_wide(exact, 0, 2);
  const cn::NoiseProgram wide3 = cn::fused_wide(exact, 0, 3);
  const cn::NoiseProgram other = cn::lower(m, c2);

  EXPECT_EQ(exact.fingerprint(), again.fingerprint());
  EXPECT_NE(exact.fingerprint(), wide2.fingerprint());
  EXPECT_NE(exact.fingerprint(), wide3.fingerprint());
  EXPECT_NE(wide2.fingerprint(), wide3.fingerprint());
  EXPECT_NE(exact.fingerprint(), other.fingerprint());
  EXPECT_NE(exact.fingerprint()[0], cn::tape_schema_fingerprint()[0]);
}

TEST(NoiseProgram, KrausTapeOpMatchesDirectEngineCall) {
  // Hand-built tape with a generic Kraus channel: interpretation must equal
  // the direct engine call (the analyzer never emits kraus ops today, but
  // custom channels enter through this path).
  const double p = 0.2;
  charter::math::Mat2 k0, k1;
  k0(0, 0) = 1.0;
  k0(1, 1) = std::sqrt(1.0 - p);
  k1(0, 1) = std::sqrt(p);
  const std::array<charter::math::Mat2, 2> kraus = {k0, k1};

  cn::NoiseProgram tape(1);
  tape.append_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::X, {0})),
                         0);
  tape.append_kraus_1q(kraus, 0);

  cs::DensityMatrixEngine direct(1), taped(1);
  direct.apply_unitary_1q(
      cc::gate_unitary_1q(cc::make_gate(GateKind::X, {0})), 0);
  direct.apply_kraus_1q(kraus, 0);
  tape.execute(taped);

  EXPECT_EQ(max_abs_diff(direct.raw(), taped.raw()), 0.0);
  // Amplitude damping after X: P(0) = p.
  EXPECT_NEAR(taped.probabilities()[0], p, 1e-12);
}

TEST(NoiseProgram, ExecuteRejectsWidthMismatch) {
  const cn::NoiseModel m = line_model(3, 41);
  const cc::Circuit c = random_basis_circuit(3, 10, 43);
  const cn::NoiseProgram tape = cn::lower(m, c);
  cs::DensityMatrixEngine narrow(2);
  EXPECT_THROW(tape.execute(narrow), charter::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Serialization ("CHP\2" tapes, "CHS\1" snapshots) — the unit the
// multi-process sweep ships to worker children.
// ---------------------------------------------------------------------------

namespace {

/// Round-trips \p tape through the byte format and checks losslessness:
/// same shape, same fingerprint, bit-identical execution.
void expect_lossless_round_trip(const cn::NoiseProgram& tape, int n) {
  const std::vector<std::uint8_t> bytes = cn::serialize_tape(tape);
  const cn::NoiseProgram back = cn::deserialize_tape(bytes);

  EXPECT_EQ(back.num_qubits(), tape.num_qubits());
  EXPECT_EQ(back.size(), tape.size());
  EXPECT_EQ(back.fingerprint(), tape.fingerprint());

  cs::DensityMatrixEngine a(n), b(n);
  tape.execute(a);
  back.execute(b);
  EXPECT_EQ(max_abs_diff(a.raw(), b.raw()), 0.0);
}

}  // namespace

TEST(TapeSerialization, RoundTripsEveryOptLevelLosslessly) {
  const cn::NoiseModel m = line_model(4, 17);
  const cc::Circuit c = random_basis_circuit(4, 50, 23);
  const cn::NoiseProgram exact = cn::lower(m, c);
  // exact covers the 1q/2q primitive ops and diag payloads; wide fusion
  // adds the dense kUnitary2q (mats4) and kUnitary3q (mats8) payload
  // arrays.
  expect_lossless_round_trip(exact, 4);
  expect_lossless_round_trip(cn::fused_wide(exact, 0, 2), 4);
  expect_lossless_round_trip(cn::fused_wide(exact, 0, 3), 4);
}

TEST(TapeSerialization, RoundTripsKrausPayloads) {
  // The analyzer never emits kraus ops; build one by hand so the
  // kraus_sets side arrays are exercised too.
  const double p = 0.125;
  charter::math::Mat2 k0, k1;
  k0(0, 0) = 1.0;
  k0(1, 1) = std::sqrt(1.0 - p);
  k1(0, 1) = std::sqrt(p);
  const std::array<charter::math::Mat2, 2> kraus = {k0, k1};
  cn::NoiseProgram tape(2);
  tape.append_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::X, {0})),
                         0);
  tape.append_kraus_1q(kraus, 0);
  expect_lossless_round_trip(tape, 2);
}

TEST(TapeSerialization, ResumeInfoIsDroppedByDesign) {
  const cn::NoiseModel m = line_model(3, 7);
  const cc::Circuit c = random_basis_circuit(3, 20, 9);
  const cn::NoiseProgram tape = cn::lower(m, c, true);
  ASSERT_TRUE(tape.has_resume_info());
  const cn::NoiseProgram back =
      cn::deserialize_tape(cn::serialize_tape(tape));
  // The parent does all splicing before shipping; the interpreter never
  // reads ResumeInfo, so the wire format omits it.
  EXPECT_FALSE(back.has_resume_info());
}

TEST(TapeSerialization, RejectsMalformedBlobsAsStructuredErrors) {
  const cn::NoiseModel m = line_model(3, 29);
  const cc::Circuit c = random_basis_circuit(3, 15, 31);
  const std::vector<std::uint8_t> good =
      cn::serialize_tape(cn::fused_wide(cn::lower(m, c)));

  // Empty and truncated-at-every-prefix blobs.
  EXPECT_THROW(cn::deserialize_tape({}), charter::InvalidArgument);
  for (std::size_t len : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                          good.size() / 2, good.size() - 1}) {
    const std::vector<std::uint8_t> cut(good.begin(),
                                        good.begin() + static_cast<long>(len));
    EXPECT_THROW(cn::deserialize_tape(cut), charter::InvalidArgument)
        << "truncated to " << len << " bytes";
  }

  // Wrong magic and wrong version.
  std::vector<std::uint8_t> bad = good;
  bad[0] ^= 0xFF;
  EXPECT_THROW(cn::deserialize_tape(bad), charter::InvalidArgument);
  bad = good;
  bad[4] ^= 0x01;  // version u32 low byte
  EXPECT_THROW(cn::deserialize_tape(bad), charter::InvalidArgument);

  // Any single flipped byte fails the trailing checksum (or a field
  // validation) — fuzz a spread of positions deterministically.
  charter::util::Rng rng(2022);
  for (int i = 0; i < 64; ++i) {
    bad = good;
    const std::size_t at = rng.uniform_int(bad.size());
    bad[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    EXPECT_THROW(cn::deserialize_tape(bad), charter::InvalidArgument)
        << "flipped byte " << at;
  }
}

TEST(TapeSerialization, AcceptsOnlyKnownOptLevels) {
  // The level byte sits after magic (4), version (4), and width (4).  Level
  // 1 (a retired density-matrix fusion level) is unknown like any other
  // unassigned value; 0 (exact) and 2 (fused-wide) round-trip.
  constexpr std::size_t kLevelOffset = 12;
  const cn::NoiseModel m = line_model(3, 41);
  const cc::Circuit c = random_basis_circuit(3, 15, 43);
  const cn::NoiseProgram exact = cn::lower(m, c);
  const cn::NoiseProgram wide = cn::fused_wide(exact);

  const auto with_level = [](std::vector<std::uint8_t> blob,
                             std::uint8_t level) {
    blob[kLevelOffset] = level;
    const std::size_t body = blob.size() - sizeof(std::uint64_t);
    const std::uint64_t sum = charter::util::checksum(
        std::span<const std::uint8_t>(blob.data(), body));
    for (std::size_t k = 0; k < sizeof(std::uint64_t); ++k)
      blob[body + k] = static_cast<std::uint8_t>(sum >> (8 * k));
    return blob;
  };

  const std::vector<std::uint8_t> exact_bytes = cn::serialize_tape(exact);
  const std::vector<std::uint8_t> wide_bytes = cn::serialize_tape(wide);
  ASSERT_EQ(exact_bytes[kLevelOffset], 0);
  ASSERT_EQ(wide_bytes[kLevelOffset], 2);
  // Re-stamping a blob's own level with a recomputed checksum is a no-op.
  EXPECT_EQ(with_level(exact_bytes, 0), exact_bytes);
  EXPECT_EQ(with_level(wide_bytes, 2), wide_bytes);
  EXPECT_EQ(cn::deserialize_tape(exact_bytes).level(), cn::OptLevel::kExact);
  EXPECT_EQ(cn::deserialize_tape(wide_bytes).level(),
            cn::OptLevel::kFusedWide);

  for (const std::uint8_t level : {std::uint8_t{1}, std::uint8_t{3},
                                   std::uint8_t{255}}) {
    for (const auto* bytes : {&exact_bytes, &wide_bytes}) {
      const std::vector<std::uint8_t> bad = with_level(*bytes, level);
      try {
        cn::deserialize_tape(bad);
        ADD_FAILURE() << "level " << int{level} << " accepted";
      } catch (const charter::InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find("unknown optimization level"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(TapeSerialization, RejectsCoincidentOperands) {
  // Op 0 starts after the header: magic (4), version (4), width (4), level
  // (1) and eight u64 counts; its operands follow the kind byte as three
  // little-endian int16 (q0 at +1, q1 at +3, q2 at +5).
  constexpr std::size_t kOp0 = 4 + 4 + 4 + 1 + 8 * 8;
  const auto restamp = [](std::vector<std::uint8_t> blob) {
    const std::size_t body = blob.size() - sizeof(std::uint64_t);
    const std::uint64_t sum = charter::util::checksum(
        std::span<const std::uint8_t>(blob.data(), body));
    for (std::size_t k = 0; k < sizeof(std::uint64_t); ++k)
      blob[body + k] = static_cast<std::uint8_t>(sum >> (8 * k));
    return blob;
  };
  // Copies operand `from` over operand `to` of op 0.
  const auto coincide = [&](const std::vector<std::uint8_t>& good, int to,
                            int from) {
    std::vector<std::uint8_t> bad = good;
    for (std::size_t b = 0; b < 2; ++b)
      bad[kOp0 + 1 + 2 * static_cast<std::size_t>(to) + b] =
          bad[kOp0 + 1 + 2 * static_cast<std::size_t>(from) + b];
    return restamp(bad);
  };
  const charter::math::Mat4 u4 = charter::math::Mat4::identity();
  std::array<charter::math::cplx, 64> u8{};
  for (int k = 0; k < 8; ++k) u8[static_cast<std::size_t>(9 * k)] = 1.0;
  const std::array<charter::math::cplx, 4> d = {1.0, 1.0, 1.0, -1.0};

  const std::vector<std::pair<const char*, std::function<void(cn::NoiseProgram&)>>>
      kinds = {
          {"cx", [](cn::NoiseProgram& t) { t.append_cx(0, 1); }},
          {"diag2q", [&](cn::NoiseProgram& t) { t.append_diag_2q(d, 0, 1); }},
          {"depol2q", [](cn::NoiseProgram& t) { t.append_depol_2q(0, 1, 0.1); }},
          {"unitary2q",
           [&](cn::NoiseProgram& t) { t.append_unitary_2q(u4, 0, 1); }},
          {"unitary3q",
           [&](cn::NoiseProgram& t) { t.append_unitary_3q(u8, 0, 1, 2); }},
      };
  for (const auto& [name, append] : kinds) {
    cn::NoiseProgram tape(3);
    append(tape);
    const std::vector<std::uint8_t> good = cn::serialize_tape(tape);
    EXPECT_EQ(restamp(good), good);
    EXPECT_NO_THROW(cn::deserialize_tape(good)) << name;
    std::vector<std::pair<int, int>> pairs = {{1, 0}};
    if (std::string(name) == "unitary3q") pairs = {{1, 0}, {2, 0}, {2, 1}};
    for (const auto& [to, from] : pairs) {
      try {
        cn::deserialize_tape(coincide(good, to, from));
        ADD_FAILURE() << name << ": operand " << to << " = " << from
                      << " accepted";
      } catch (const charter::InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find("repeats"), std::string::npos)
            << e.what();
      }
    }
  }

  // The append API refuses the same ops.
  cn::NoiseProgram tape(3);
  EXPECT_THROW(tape.append_cx(1, 1), charter::InvalidArgument);
  EXPECT_THROW(tape.append_diag_2q(d, 2, 2), charter::InvalidArgument);
  EXPECT_THROW(tape.append_depol_2q(0, 0, 0.1), charter::InvalidArgument);
  EXPECT_THROW(tape.append_unitary_2q(u4, 1, 1), charter::InvalidArgument);
  EXPECT_THROW(tape.append_unitary_3q(u8, 0, 1, 0), charter::InvalidArgument);
  EXPECT_THROW(tape.append_unitary_3q(u8, 0, 2, 2), charter::InvalidArgument);
  EXPECT_EQ(tape.size(), 0u);
}

TEST(TapeSerialization, RandomizedRoundTripsStayLossless) {
  // Fuzz-ish sweep: many random circuits, widths, and opt levels.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const int n = 2 + static_cast<int>(seed % 3);
    const cn::NoiseModel m = line_model(n, seed * 13);
    const cc::Circuit c =
        random_basis_circuit(n, 10 + static_cast<int>(seed) * 7, seed * 37);
    const cn::NoiseProgram exact = cn::lower(m, c);
    expect_lossless_round_trip(exact, n);
    expect_lossless_round_trip(
        cn::fused_wide(exact, 0, seed % 2 == 0 ? 3 : 2), n);
  }
}

TEST(SnapshotSerialization, RoundTripsEngineStateBitExactly) {
  const cn::NoiseModel m = line_model(3, 3);
  const cc::Circuit c = random_basis_circuit(3, 25, 5);
  cs::DensityMatrixEngine engine(3);
  cn::lower(m, c).execute(engine);

  charter::math::AmpBuffer state;
  engine.save_state(state);
  const std::vector<std::uint8_t> bytes = cs::serialize_snapshot(3, state);
  const cs::SnapshotData back = cs::deserialize_snapshot(bytes);

  ASSERT_EQ(back.num_qubits, 3);
  ASSERT_EQ(back.state.size(), state.size());
  EXPECT_EQ(max_abs_diff(back.state, state), 0.0);

  // A second engine restored from the blob continues identically.
  cs::DensityMatrixEngine restored(3);
  restored.load_state(back.state);
  EXPECT_EQ(max_abs_diff(restored.raw(), engine.raw()), 0.0);
}

// The count is checked against the width and the bytes present before it
// sizes the state: a checksummed 28-byte blob claiming 2^24 entries used to
// value-initialize 256 MiB before the reader noticed the missing body.
TEST(SnapshotSerialization, RejectsAnOversizedCountBeforeAllocating) {
  charter::util::ByteWriter w;
  for (const char c : {'C', 'H', 'S', '\1'}) w.u8(static_cast<std::uint8_t>(c));
  w.u32(1);
  w.i32(12);                        // 4^12 = 2^24, so the count fits the width
  w.u64(std::uint64_t{1} << 24);    // ... but no state follows
  w.u64(charter::util::checksum(w.data()));
  const std::vector<std::uint8_t> blob = w.take();
  ASSERT_EQ(blob.size(), 28u);
  rusage before{};
  ::getrusage(RUSAGE_SELF, &before);
  EXPECT_THROW(cs::deserialize_snapshot(blob), charter::InvalidArgument);
  rusage after{};
  ::getrusage(RUSAGE_SELF, &after);
  // ru_maxrss is in KiB; the state would have been 262144 KiB.
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024);

  // A count that is neither 2^n nor 4^n is rejected even when the blob
  // holds that many entries; both shapes of a real state round-trip.
  EXPECT_THROW(cs::deserialize_snapshot(cs::serialize_snapshot(
                   3, std::vector<charter::math::cplx>(65))),
               charter::InvalidArgument);
  for (const std::size_t count : {8u, 64u})
    EXPECT_EQ(cs::deserialize_snapshot(
                  cs::serialize_snapshot(
                      3, std::vector<charter::math::cplx>(count, 0.5)))
                  .state.size(),
              count);
}

TEST(SnapshotSerialization, RejectsMalformedBlobs) {
  const std::vector<charter::math::cplx> state(16, {0.25, 0.0});
  const std::vector<std::uint8_t> good = cs::serialize_snapshot(2, state);

  EXPECT_THROW(cs::deserialize_snapshot({}), charter::InvalidArgument);
  std::vector<std::uint8_t> bad(good.begin(), good.end() - 1);
  EXPECT_THROW(cs::deserialize_snapshot(bad), charter::InvalidArgument);
  bad = good;
  bad[2] = 'X';  // magic
  EXPECT_THROW(cs::deserialize_snapshot(bad), charter::InvalidArgument);
  bad = good;
  bad[4] ^= 0x02;  // version
  EXPECT_THROW(cs::deserialize_snapshot(bad), charter::InvalidArgument);
  bad = good;
  bad[good.size() / 2] ^= 0x10;  // payload byte: checksum must catch it
  EXPECT_THROW(cs::deserialize_snapshot(bad), charter::InvalidArgument);
}
