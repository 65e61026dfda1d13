// Tests for the fake backends: compilation, compaction, logical-output
// remapping, engine selection and agreement, determinism, shot noise, and
// calibration drift.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>


#include "algos/algorithms.hpp"
#include "backend/backend.hpp"
#include "stats/stats.hpp"
#include "transpile/topology.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace ca = charter::algos;
namespace cb = charter::backend;
namespace cc = charter::circ;
namespace cn = charter::noise;
namespace ct = charter::transpile;
using cc::GateKind;

namespace {

/// Silences every noise mechanism on a backend.
void quiet(cn::NoiseModel& m) {
  m.toggles() = cn::NoiseToggles{};
  m.toggles().decoherence = false;
  m.toggles().depolarizing = false;
  m.toggles().coherent = false;
  m.toggles().static_zz = false;
  m.toggles().drive_zz = false;
  m.toggles().readout = false;
  m.toggles().prep = false;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

TEST(Backend, DeviceConstruction) {
  const cb::FakeBackend lagos = cb::FakeBackend::lagos();
  EXPECT_EQ(lagos.topology().num_qubits(), 7);
  EXPECT_EQ(lagos.name(), "ibm_lagos");
  const cb::FakeBackend guadalupe = cb::FakeBackend::guadalupe();
  EXPECT_EQ(guadalupe.topology().num_qubits(), 16);
}

TEST(Backend, CalibrationIsSeededPerDevice) {
  const cb::FakeBackend a = cb::FakeBackend::lagos(5);
  const cb::FakeBackend b = cb::FakeBackend::lagos(5);
  const cb::FakeBackend c = cb::FakeBackend::lagos(6);
  EXPECT_DOUBLE_EQ(a.model().qubit(3).t1_ns, b.model().qubit(3).t1_ns);
  EXPECT_NE(a.model().qubit(3).t1_ns, c.model().qubit(3).t1_ns);
}

TEST(Backend, CompileProducesLegalProgram) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  const cb::CompiledProgram prog = backend.compile(ca::qft(3, 5));
  EXPECT_EQ(prog.num_logical, 3);
  EXPECT_EQ(prog.physical.num_qubits(), 7);
  ASSERT_EQ(prog.final_layout.size(), 3u);
  for (const cc::Gate& g : prog.physical.ops()) {
    EXPECT_TRUE(cc::is_basis_gate(g.kind) || g.kind == GateKind::BARRIER);
    if (g.kind == GateKind::CX)
      EXPECT_TRUE(backend.topology().connected(g.qubits[0], g.qubits[1]));
  }
}

TEST(Backend, IdealOutputSurvivesCompilation) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  for (const std::uint64_t k : {0ULL, 3ULL, 6ULL}) {
    const cb::CompiledProgram prog = backend.compile(ca::qft(3, k));
    const auto ideal = backend.ideal(prog);
    EXPECT_NEAR(ideal[k], 1.0, 1e-9) << "k=" << k;
  }
}

TEST(Backend, QuietBackendMatchesIdeal) {
  cb::FakeBackend backend = cb::FakeBackend::lagos();
  quiet(backend.model());
  const cb::CompiledProgram prog = backend.compile(ca::qft(3, 2));
  cb::RunOptions opts;
  opts.shots = 0;  // exact distribution
  const auto noisy = backend.run(prog, opts);
  const auto ideal = backend.ideal(prog);
  EXPECT_LT(charter::stats::tvd(noisy, ideal), 1e-9);
}

TEST(Backend, NoisyOutputIsAValidDistribution) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  const cb::CompiledProgram prog = backend.compile(ca::qft(3, 0));
  cb::RunOptions opts;
  opts.shots = 0;
  const auto probs = backend.run(prog, opts);
  ASSERT_EQ(probs.size(), 8u);
  EXPECT_NEAR(sum(probs), 1.0, 1e-9);
  for (const double p : probs) EXPECT_GE(p, -1e-12);
}

TEST(Backend, NoiseDegradesTheDeltaOutput) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  const cb::CompiledProgram prog = backend.compile(ca::qft(3, 0));
  cb::RunOptions opts;
  opts.shots = 0;
  const auto noisy = backend.run(prog, opts);
  const auto ideal = backend.ideal(prog);
  const double err = charter::stats::tvd(noisy, ideal);
  EXPECT_GT(err, 0.02);  // visible error
  EXPECT_LT(err, 0.75);  // but far from garbage
}

TEST(Backend, RunsAreDeterministicInSeed) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  const cb::CompiledProgram prog = backend.compile(ca::qft(3, 1));
  cb::RunOptions opts;
  opts.shots = 2048;
  opts.seed = 99;
  const auto a = backend.run(prog, opts);
  const auto b = backend.run(prog, opts);
  EXPECT_EQ(a, b);
  opts.seed = 100;
  const auto c = backend.run(prog, opts);
  EXPECT_NE(a, c);
}

TEST(Backend, ShotNoiseShrinksWithShots) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  const cb::CompiledProgram prog = backend.compile(ca::qft(3, 1));
  cb::RunOptions exact;
  exact.shots = 0;
  const auto truth = backend.run(prog, exact);

  double err_small = 0.0, err_large = 0.0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    cb::RunOptions small;
    small.shots = 128;
    small.seed = 1000 + s;
    err_small += charter::stats::tvd(backend.run(prog, small), truth);
    cb::RunOptions large;
    large.shots = 32000;
    large.seed = 2000 + s;
    err_large += charter::stats::tvd(backend.run(prog, large), truth);
  }
  EXPECT_GT(err_small, 2.0 * err_large);
}

TEST(Backend, DriftPerturbsRuns) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  const cb::CompiledProgram prog = backend.compile(ca::qft(3, 1));
  cb::RunOptions a;
  a.shots = 0;
  a.drift = 0.05;
  a.seed = 7;
  cb::RunOptions b = a;
  b.seed = 8;
  const auto pa = backend.run(prog, a);
  const auto pb = backend.run(prog, b);
  const double d = charter::stats::tvd(pa, pb);
  EXPECT_GT(d, 1e-5);
  EXPECT_LT(d, 0.2);
}

TEST(Backend, EnginesAgreeOnSmallPrograms) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  const cb::CompiledProgram prog = backend.compile(ca::qft(3, 3));
  cb::RunOptions dm;
  dm.shots = 0;
  dm.engine = cb::EngineKind::kDensityMatrix;
  cb::RunOptions mc;
  mc.shots = 0;
  mc.engine = cb::EngineKind::kTrajectory;
  mc.trajectories = 3000;
  mc.seed = 5;
  const auto p_dm = backend.run(prog, dm);
  const auto p_mc = backend.run(prog, mc);
  EXPECT_LT(charter::stats::tvd(p_dm, p_mc), 0.03);
}

TEST(Backend, TrajectoryRunIsIdenticalOnTheKernelPoolAndMarked) {
  // Off the exec pool, 24 trajectories are three fold groups that run as
  // kernel-pool tasks; the bytes must equal the marked, inline run.
  const cb::FakeBackend backend =
      cb::FakeBackend::from_topology(ct::line(12), 7);
  const cb::CompiledProgram prog = backend.compile(ca::tfim(12, 1));
  ASSERT_EQ(cb::used_qubits(prog).size(), 12u);
  cb::RunOptions mc;
  mc.shots = 0;
  mc.engine = cb::EngineKind::kTrajectory;
  mc.trajectories = 24;
  mc.seed = 9;
  const std::vector<double> pooled = backend.run(prog, mc);
  const charter::util::SerialKernels mark;
  const std::vector<double> marked = backend.run(prog, mc);
  ASSERT_EQ(pooled.size(), marked.size());
  EXPECT_EQ(std::memcmp(pooled.data(), marked.data(),
                        marked.size() * sizeof(double)),
            0);
}

TEST(Backend, CompactionKeepsWideDeviceFeasible) {
  // A 3-qubit program on the 16-qubit guadalupe must run on the DM engine
  // (16 qubits would need a 4^16 density matrix).
  const cb::FakeBackend backend = cb::FakeBackend::guadalupe();
  const cb::CompiledProgram prog = backend.compile(ca::qft(3, 4));
  cb::RunOptions opts;
  opts.shots = 0;
  opts.engine = cb::EngineKind::kDensityMatrix;
  const auto probs = backend.run(prog, opts);
  EXPECT_EQ(probs.size(), 8u);
  EXPECT_NEAR(sum(probs), 1.0, 1e-9);
}

TEST(Backend, RestrictModelRelabelsEdges) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  // Keep qubits {1, 3, 5} (a path in lagos: 1-3, 3-5).
  const cn::NoiseModel sub = cb::restrict_model(backend.model(), {1, 3, 5});
  EXPECT_EQ(sub.num_qubits(), 3);
  EXPECT_TRUE(sub.has_edge(0, 1));   // 1-3
  EXPECT_TRUE(sub.has_edge(1, 2));   // 3-5
  EXPECT_FALSE(sub.has_edge(0, 2));  // 1-5 not coupled
  EXPECT_DOUBLE_EQ(sub.qubit(1).t1_ns, backend.model().qubit(3).t1_ns);
  EXPECT_DOUBLE_EQ(sub.edge(0, 1).cx_depol,
                   backend.model().edge(1, 3).cx_depol);
}

TEST(Backend, DurationGrowsWithCircuitLength) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  const cb::CompiledProgram small = backend.compile(ca::tfim(4, 2));
  const cb::CompiledProgram large = backend.compile(ca::tfim(4, 8));
  EXPECT_GT(backend.duration_ns(large), backend.duration_ns(small));
  EXPECT_GT(backend.duration_ns(small), 100.0);
}

TEST(Backend, RejectsForeignPrograms) {
  const cb::FakeBackend lagos = cb::FakeBackend::lagos();
  const cb::FakeBackend guadalupe = cb::FakeBackend::guadalupe();
  const cb::CompiledProgram prog = lagos.compile(ca::qft(3, 0));
  EXPECT_THROW(guadalupe.run(prog, {}), charter::InvalidArgument);
}

TEST(Backend, ReadoutConfusionKnobValidates) {
  cb::FakeBackend backend = cb::FakeBackend::lagos();
  EXPECT_THROW(backend.set_readout_confusion(-0.1, 0.0),
               charter::InvalidArgument);
  EXPECT_THROW(backend.set_readout_confusion(0.0, 1.0),
               charter::InvalidArgument);
  EXPECT_THROW(backend.set_readout_confusion(99, 0.01, 0.01),
               charter::InvalidArgument);
  backend.set_readout_confusion(0.02, 0.05);  // valid: takes effect
  EXPECT_TRUE(backend.model().toggles().readout);
  EXPECT_DOUBLE_EQ(backend.model().qubit(0).readout.p_meas1_given0, 0.02);
  EXPECT_DOUBLE_EQ(backend.model().qubit(0).readout.p_meas0_given1, 0.05);
}

TEST(Backend, ReadoutConfusionChangesTheOutput) {
  cb::FakeBackend backend = cb::FakeBackend::lagos();
  const cb::CompiledProgram prog = backend.compile(ca::qft(3, 3));
  cb::RunOptions opts;
  opts.shots = 0;
  const auto before = backend.run(prog, opts);
  backend.set_readout_confusion(0.04, 0.08);
  const auto after = backend.run(prog, opts);
  EXPECT_GT(charter::stats::tvd(before, after), 1e-3);
}

// The knob is applied in finalize(), after the engine produced its raw
// distribution — so the density-matrix and trajectory engines must honor
// it identically.  With only deterministic (unitary) noise mechanisms
// left on, every trajectory is the same pure-state evolution and the two
// engines agree to numerical precision, isolating the confusion matrix as
// the only post-processing under test.
TEST(Backend, ReadoutConfusionIsEngineIndependent) {
  cb::FakeBackend backend = cb::FakeBackend::lagos();
  cn::NoiseToggles& toggles = backend.model().toggles();
  toggles.decoherence = false;
  toggles.depolarizing = false;
  toggles.prep = false;
  backend.set_readout_confusion(0, 0.02, 0.05);
  backend.set_readout_confusion(1, 0.01, 0.03);
  backend.set_readout_confusion(2, 0.04, 0.00);

  const cb::CompiledProgram prog = backend.compile(ca::qft(3, 3));
  cb::RunOptions dm;
  dm.shots = 0;
  dm.engine = cb::EngineKind::kDensityMatrix;
  cb::RunOptions mc = dm;
  mc.engine = cb::EngineKind::kTrajectory;
  mc.trajectories = 4;
  const auto p_dm = backend.run(prog, dm);
  const auto p_mc = backend.run(prog, mc);
  ASSERT_EQ(p_dm.size(), p_mc.size());
  for (std::size_t i = 0; i < p_dm.size(); ++i)
    EXPECT_NEAR(p_dm[i], p_mc[i], 1e-12) << "outcome " << i;
}

// With every other mechanism off, the confusion matrix is the entire
// channel and the output marginals are analytic.
TEST(Backend, ReadoutConfusionMatchesAnalyticMarginals) {
  const ct::Topology topo = ct::line(2);
  cn::NoiseModel model = cn::generate_calibration(2, topo.edges(), 3);
  cn::NoiseToggles& toggles = model.toggles();
  toggles.decoherence = false;
  toggles.depolarizing = false;
  toggles.coherent = false;
  toggles.static_zz = false;
  toggles.drive_zz = false;
  toggles.prep = false;
  cb::FakeBackend backend(topo, model);
  backend.set_readout_confusion(0.07, 0.11);

  cc::Circuit idle(1);
  idle.id(0);
  cb::RunOptions opts;
  opts.shots = 0;
  const auto p0 = backend.run(backend.compile(idle), opts);
  ASSERT_EQ(p0.size(), 2u);
  EXPECT_NEAR(p0[1], 0.07, 1e-12);  // p(read 1 | prepared 0)

  cc::Circuit flip(1);
  flip.x(0);
  const auto p1 = backend.run(backend.compile(flip), opts);
  ASSERT_EQ(p1.size(), 2u);
  EXPECT_NEAR(p1[0], 0.11, 1e-12);  // p(read 0 | |1>), X is noiseless here
}
