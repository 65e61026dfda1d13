// Tests for src/characterize/: germ-ladder construction and the checkpoint
// prefix claims it makes, splice bit-exactness against standalone runs, the
// acceptance contract that an injected error channel (over-rotation +
// depolarizing + readout confusion) is recovered within the bootstrap CI,
// CharacterizationReport JSON round-trip / corruption rejection, the
// threads x workers determinism matrix, the Session facade path, and a
// golden fixture for the full report (regenerate with
// CHARTER_REGEN_FIXTURES=1, same protocol as test_regression.cpp).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <charter/charter.hpp>

#include "characterize/characterize.hpp"
#include "characterize/report_io.hpp"
#include "core/analyzer.hpp"
#include "exec/batch.hpp"
#include "exec/cache.hpp"
#include "noise/noise_model.hpp"
#include "transpile/topology.hpp"
#include "util/error.hpp"

#ifndef CHARTER_FIXTURE_DIR
#define CHARTER_FIXTURE_DIR "tests/fixtures"
#endif

namespace ca = charter::algos;
namespace cb = charter::backend;
namespace cc = charter::circ;
namespace cn = charter::noise;
namespace co = charter::core;
namespace ct = charter::transpile;
namespace ex = charter::exec;
namespace ch = charter::characterize;

namespace {

cb::CompiledProgram qft3_program(const cb::FakeBackend& backend) {
  return backend.compile(ca::find_benchmark("qft3").build());
}

/// Engine-exact analysis (shots = 0) so sequence outputs carry no sampling
/// noise and every comparison below is about the estimator, not statistics.
co::CharterOptions analysis_options() {
  co::CharterOptions options;
  options.reversals = 2;
  options.run.shots = 0;
  options.run.seed = 2022;
  return options;
}

/// Small but structurally complete characterization configuration: three
/// ladder depths exercise prefix sharing, a handful of bootstrap replicates
/// exercise the CI path.
ch::CharacterizeOptions quick_options() {
  ch::CharacterizeOptions options;
  options.top_k = 2;
  options.depths = {1, 2, 4, 8};
  options.bootstrap_resamples = 8;
  options.severity_reversals = 2;
  options.run.shots = 0;
  options.run.seed = 2022;
  return options;
}

co::CharterReport analyze(const cb::FakeBackend& backend,
                          const cb::CompiledProgram& program) {
  return co::CharterAnalyzer(backend, analysis_options()).analyze(program);
}

void expect_gate_identical(const ch::GateCharacterization& a,
                           const ch::GateCharacterization& b,
                           const std::string& label) {
  EXPECT_EQ(a.op_index, b.op_index) << label;
  EXPECT_EQ(a.kind, b.kind) << label;
  EXPECT_EQ(a.qubits, b.qubits) << label;
  EXPECT_EQ(a.num_qubits, b.num_qubits) << label;
  EXPECT_EQ(a.charter_tvd, b.charter_tvd) << label;
  ASSERT_EQ(a.decay.size(), b.decay.size()) << label;
  for (std::size_t i = 0; i < a.decay.size(); ++i) {
    EXPECT_EQ(a.decay[i].depth, b.decay[i].depth) << label << " point " << i;
    EXPECT_EQ(a.decay[i].tvd, b.decay[i].tvd) << label << " point " << i;
  }
  EXPECT_EQ(a.fit.rho, b.fit.rho) << label;
  EXPECT_EQ(a.fit.phi, b.fit.phi) << label;
  EXPECT_EQ(a.fit.saturation, b.fit.saturation) << label;
  EXPECT_EQ(a.fit.coherent_amplitude, b.fit.coherent_amplitude) << label;
  EXPECT_EQ(a.fit.residual_rms, b.fit.residual_rms) << label;
  EXPECT_EQ(a.severity, b.severity) << label;
  EXPECT_EQ(a.ci.depol.lower, b.ci.depol.lower) << label;
  EXPECT_EQ(a.ci.depol.upper, b.ci.depol.upper) << label;
  EXPECT_EQ(a.ci.rotation.lower, b.ci.rotation.lower) << label;
  EXPECT_EQ(a.ci.rotation.upper, b.ci.rotation.upper) << label;
  EXPECT_EQ(a.ci.severity.lower, b.ci.severity.lower) << label;
  EXPECT_EQ(a.ci.severity.upper, b.ci.severity.upper) << label;
  EXPECT_EQ(a.spam_p01, b.spam_p01) << label;
  EXPECT_EQ(a.spam_p10, b.spam_p10) << label;
}

/// Bit-identity over the numeric payload (everything the JSON schema pins
/// except the exec diagnostics, which worker sharding may legitimately
/// redistribute between counters).
void expect_reports_identical(const ch::CharacterizationReport& a,
                              const ch::CharacterizationReport& b,
                              const std::string& label) {
  EXPECT_EQ(a.depths, b.depths) << label;
  EXPECT_EQ(a.severity_reversals, b.severity_reversals) << label;
  EXPECT_EQ(a.total_sequences, b.total_sequences) << label;
  EXPECT_EQ(a.rank_agreement, b.rank_agreement) << label;
  ASSERT_EQ(a.original_distribution.size(), b.original_distribution.size())
      << label;
  for (std::size_t i = 0; i < a.original_distribution.size(); ++i)
    EXPECT_EQ(a.original_distribution[i], b.original_distribution[i])
        << label << " outcome " << i;
  ASSERT_EQ(a.gates.size(), b.gates.size()) << label;
  for (std::size_t g = 0; g < a.gates.size(); ++g)
    expect_gate_identical(a.gates[g], b.gates[g],
                          label + " gate " + std::to_string(g));
}

std::size_t first_cx_index(const cb::CompiledProgram& program) {
  for (std::size_t i = 0; i < program.physical.size(); ++i)
    if (program.physical.op(i).kind == cc::GateKind::CX) return i;
  ADD_FAILURE() << "program has no CX gate";
  return 0;
}

bool gates_identical(const cc::Gate& a, const cc::Gate& b) {
  return a.kind == b.kind && a.num_qubits == b.num_qubits &&
         a.num_params == b.num_params && a.flags == b.flags &&
         a.qubits == b.qubits && a.params == b.params;
}

// ---------------------------------------------------------------------------
// Germ scheduling
// ---------------------------------------------------------------------------

TEST(GermScheduler, SortsAndDeduplicatesDepths) {
  const ch::GermScheduler scheduler({4, 1, 2, 2, 4}, true);
  EXPECT_EQ(scheduler.depths(), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(scheduler.max_depth(), 4);
}

TEST(GermScheduler, RejectsInvalidDepths) {
  EXPECT_THROW(ch::GermScheduler({}, true), charter::Error);
  EXPECT_THROW(ch::GermScheduler({2, 0}, true), charter::Error);
  EXPECT_THROW(ch::GermScheduler({-1}, false), charter::Error);
}

TEST(GermScheduler, SharedPrefixCountsPrefixBarrierAndPairs) {
  const ch::GermScheduler isolated({1, 2}, true);
  // Original prefix through the gate (op_index + 1), the opening isolation
  // barrier, and 2L ops per pair.
  EXPECT_EQ(isolated.shared_prefix_ops(5, 3), 5u + 1 + 1 + 6);
  const ch::GermScheduler bare({1, 2}, false);
  EXPECT_EQ(bare.shared_prefix_ops(5, 3), 5u + 1 + 6);
}

TEST(GermScheduler, LadderClaimedPrefixesAreByteIdenticalToBase) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = qft3_program(backend);
  const std::size_t op_index = first_cx_index(program);

  const ch::GermScheduler scheduler({1, 2, 4, 8}, true);
  const ch::GermLadder ladder = scheduler.ladder(program, op_index);

  ASSERT_EQ(ladder.sequences.size(), 4u);
  EXPECT_EQ(ladder.op_index, op_index);
  const ch::GermSequence& base = ladder.sequences.back();
  EXPECT_EQ(base.depth, 8);
  // The base claims its full size — the same convention the analyzer uses
  // for the batch's base program.
  EXPECT_EQ(base.shared_prefix, base.program.physical.size());

  for (const ch::GermSequence& seq : ladder.sequences) {
    // Each depth-L sequence adds the isolation barriers plus L pairs.
    EXPECT_EQ(seq.program.physical.size(),
              program.physical.size() + 2 + 2 * std::size_t(seq.depth));
    EXPECT_EQ(seq.program.num_logical, program.num_logical);
    if (&seq == &base) continue;
    EXPECT_EQ(seq.shared_prefix,
              scheduler.shared_prefix_ops(op_index, seq.depth));
    ASSERT_LE(seq.shared_prefix, base.program.physical.size());
    for (std::size_t i = 0; i < seq.shared_prefix; ++i)
      EXPECT_TRUE(gates_identical(seq.program.physical.op(i),
                                  base.program.physical.op(i)))
          << "depth " << seq.depth << " op " << i;
  }
}

// ---------------------------------------------------------------------------
// Splice bit-exactness
// ---------------------------------------------------------------------------

TEST(GermExecution, SplicedLadderMatchesStandaloneRuns) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = qft3_program(backend);
  const ch::GermScheduler scheduler({1, 2, 4, 8}, true);
  const ch::GermLadder ladder =
      scheduler.ladder(program, first_cx_index(program));

  cb::RunOptions run;
  run.shots = 0;
  run.seed = 2022;

  std::vector<ex::AnalysisJob> jobs;
  for (const ch::GermSequence& seq : ladder.sequences)
    jobs.push_back({&seq.program, run, seq.shared_prefix});

  ex::RunCache::global().clear();
  ex::BatchOptions options;
  options.caching = false;
  ex::BatchRunner runner(backend, options);
  const std::vector<std::vector<double>> spliced =
      runner.run(jobs, &ladder.sequences.back().program);
  // The shallower depths must actually have resumed from the base sweep's
  // prefix snapshots, not fallen back to full runs.
  EXPECT_GT(runner.last_stats().checkpointed, 0u);
  EXPECT_EQ(runner.last_stats().checkpoint_fallbacks, 0u);

  ASSERT_EQ(spliced.size(), ladder.sequences.size());
  for (std::size_t i = 0; i < ladder.sequences.size(); ++i) {
    const std::vector<double> standalone =
        backend.run(ladder.sequences[i].program, run);
    ASSERT_EQ(spliced[i].size(), standalone.size());
    for (std::size_t k = 0; k < standalone.size(); ++k)
      EXPECT_EQ(spliced[i][k], standalone[k])
          << "depth " << ladder.sequences[i].depth << " outcome " << k;
  }
}

// ---------------------------------------------------------------------------
// Ground-truth channel recovery (the subsystem's acceptance criterion)
// ---------------------------------------------------------------------------

/// Backend with a fully known error channel: every mechanism off except
/// per-gate depolarizing + coherent over-rotation and readout confusion.
/// Physical qubit 0's X carries the large injected channel, qubit 1's X a
/// smaller depolarizing-only one, so both the estimates and the severity
/// ordering are checkable (and the expectations hold under either layout
/// the transpiler picks, because they key on physical qubits).
cb::FakeBackend ground_truth_backend(double q0_depol, double q0_overrot,
                                     double q1_depol) {
  const ct::Topology topo = ct::line(2);
  cn::NoiseModel model = cn::generate_calibration(2, topo.edges(), 11);
  cn::NoiseToggles& toggles = model.toggles();
  toggles.decoherence = false;
  toggles.static_zz = false;
  toggles.drive_zz = false;
  toggles.prep = false;
  for (int q = 0; q < 2; ++q) {
    for (cc::GateKind kind :
         {cc::GateKind::SX, cc::GateKind::SXDG, cc::GateKind::X}) {
      model.gate_1q(kind, q).depol = 0.0;
      model.gate_1q(kind, q).overrot_frac = 0.0;
    }
  }
  model.gate_1q(cc::GateKind::X, 0).depol = q0_depol;
  model.gate_1q(cc::GateKind::X, 0).overrot_frac = q0_overrot;
  model.gate_1q(cc::GateKind::X, 1).depol = q1_depol;
  model.edge(0, 1).cx_depol = 0.0;
  model.edge(0, 1).cx_zz_angle = 0.0;
  cb::FakeBackend backend(topo, model);
  backend.set_readout_confusion(0.01, 0.02);
  return backend;
}

/// The calibration's depolarizing knob is a uniform-Pauli error
/// probability; the estimator reports the Bloch contraction it implies
/// (see ChannelFit::depol_per_application).
double contraction_from_pauli(double q) { return 4.0 * q / 3.0; }

TEST(ChannelRecovery, InjectedChannelIsRecoveredWithinBootstrapCi) {
  const double q0_depol = 0.004;
  const double q0_overrot = 0.02;
  const double q1_depol = 0.001;
  const cb::FakeBackend backend =
      ground_truth_backend(q0_depol, q0_overrot, q1_depol);

  // One X per qubit, each the last gate on its wire: the germ block then
  // acts on a pole state and is measured directly, which is the regime
  // where the header's decay model is exact (a trailing rotation on the
  // same wire would shift the oscillation's phase offset away from phi/2).
  cc::Circuit logical(2);
  logical.x(0);
  logical.x(1);
  const cb::CompiledProgram program = backend.compile(logical);

  co::CharterOptions analysis;
  analysis.reversals = 5;
  analysis.run.shots = 0;
  analysis.run.seed = 7;
  const co::CharterReport charter =
      co::CharterAnalyzer(backend, analysis).analyze(program);
  ASSERT_EQ(charter.impacts.size(), 2u);

  ch::CharacterizeOptions options;
  options.top_k = 2;
  options.severity_reversals = 5;
  options.bootstrap_resamples = 200;
  options.run.shots = 0;
  options.run.seed = 7;
  ex::RunCache::global().clear();
  const ch::CharacterizationReport report =
      ch::GateCharacterizer(backend, options).characterize(program, charter);
  ex::RunCache::global().clear();

  ASSERT_EQ(report.gates.size(), 2u);
  // Charter must rank physical qubit 0's heavily miscalibrated X first...
  EXPECT_EQ(report.gates[0].kind, cc::GateKind::X);
  EXPECT_EQ(report.gates[1].kind, cc::GateKind::X);
  EXPECT_EQ(report.gates[0].qubits[0], 0);
  EXPECT_EQ(report.gates[1].qubits[0], 1);
  EXPECT_GT(report.gates[0].charter_tvd, report.gates[1].charter_tvd);
  // ...and the fitted severities must agree with that ordering (the
  // GST-vs-reversibility cross-validation).
  EXPECT_EQ(report.severity_ranking(),
            (std::vector<std::size_t>{0, 1}));
  EXPECT_GT(report.gates[0].severity, report.gates[1].severity);

  // Qubit 0's X: depolarizing and rotation recovered at the injected
  // truth, and inside the (slightly widened) bootstrap interval.  Shots
  // are 0, so the interval is narrow — the widening absorbs the fit's
  // grid resolution only.
  const ch::GateCharacterization& noisy = report.gates[0];
  const double depol_truth = contraction_from_pauli(q0_depol);
  const double phi_truth = M_PI * q0_overrot;
  EXPECT_NEAR(noisy.fit.depol_per_application(), depol_truth, 5e-4);
  EXPECT_NEAR(noisy.fit.phi, phi_truth, 2e-3);
  EXPECT_GE(depol_truth, noisy.ci.depol.lower - 1e-3);
  EXPECT_LE(depol_truth, noisy.ci.depol.upper + 1e-3);
  EXPECT_GE(phi_truth, noisy.ci.rotation.lower - 1e-3);
  EXPECT_LE(phi_truth, noisy.ci.rotation.upper + 1e-3);
  EXPECT_LT(noisy.fit.residual_rms, 1e-3);

  // Qubit 1's X: pure depolarizing, no coherent part.
  const ch::GateCharacterization& mild = report.gates[1];
  const double mild_truth = contraction_from_pauli(q1_depol);
  EXPECT_NEAR(mild.fit.depol_per_application(), mild_truth, 5e-4);
  EXPECT_GE(mild_truth, mild.ci.depol.lower - 1e-3);
  EXPECT_LE(mild_truth, mild.ci.depol.upper + 1e-3);
  EXPECT_LT(mild.fit.coherent_amplitude * mild.fit.phi, 1e-3);

  // SPAM: preparation error is off, so the empty-fiducial marginal is the
  // injected p(1|0) exactly; the all-X fiducial adds one noisy X on top of
  // the injected p(0|1).
  EXPECT_NEAR(noisy.spam_p01, 0.01, 1e-9);
  EXPECT_NEAR(noisy.spam_p10, 0.02, 0.01);
}

// ---------------------------------------------------------------------------
// Report JSON round-trip and corruption rejection
// ---------------------------------------------------------------------------

ch::CharacterizationReport quick_report(const cb::FakeBackend& backend) {
  const cb::CompiledProgram program = qft3_program(backend);
  const co::CharterReport charter = analyze(backend, program);
  return ch::GateCharacterizer(backend, quick_options())
      .characterize(program, charter);
}

TEST(CharacterizationIo, RoundTripsBitIdentically) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  ex::RunCache::global().clear();
  const ch::CharacterizationReport report = quick_report(backend);
  ex::RunCache::global().clear();

  const std::string json = ch::characterization_to_json(report);
  const ch::CharacterizationReport parsed =
      ch::characterization_from_json(json);
  expect_reports_identical(report, parsed, "round-trip");
  // Exec diagnostics survive the round-trip too.
  EXPECT_EQ(report.exec_stats.jobs, parsed.exec_stats.jobs);
  EXPECT_EQ(report.exec_stats.checkpointed, parsed.exec_stats.checkpointed);
  EXPECT_EQ(report.exec_stats.full_runs, parsed.exec_stats.full_runs);
  // And a second serialization is byte-stable.
  EXPECT_EQ(json, ch::characterization_to_json(parsed));
}

TEST(CharacterizationIo, RejectsCorruptedDocuments) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  ex::RunCache::global().clear();
  const std::string json =
      ch::characterization_to_json(quick_report(backend));
  ex::RunCache::global().clear();

  const auto expect_rejected = [](std::string doc, const std::string& what) {
    EXPECT_THROW(ch::characterization_from_json(doc), charter::Error)
        << what;
  };

  expect_rejected(json.substr(0, json.size() / 2), "truncated document");
  expect_rejected(json + "trailing", "trailing garbage");
  expect_rejected("", "empty document");
  expect_rejected("[]", "wrong top-level type");

  std::string renamed = json;
  renamed.replace(renamed.find("\"rho\""), 5, "\"rhO\"");
  expect_rejected(renamed, "renamed required key");

  std::string bad_schema = json;
  bad_schema.replace(bad_schema.find("\"schema\":"), 10, "\"schema\":9");
  expect_rejected(bad_schema, "unknown schema version");

  std::string bad_number = json;
  const std::size_t tvd = bad_number.find("\"charter_tvd\":");
  bad_number.replace(tvd, 15, "\"charter_tvd\":x");
  expect_rejected(bad_number, "malformed number");

  // depol_per_application is redundant with rho; the parser cross-checks
  // them so a hand-edited document cannot carry a silent inconsistency.
  std::string inconsistent = json;
  const std::size_t depol = inconsistent.find("\"depol_per_application\":");
  inconsistent.replace(depol, 25, "\"depol_per_application\":0.43,\"");
  expect_rejected(inconsistent, "depol inconsistent with rho");
}

// ---------------------------------------------------------------------------
// Determinism matrix: threads x workers
// ---------------------------------------------------------------------------

TEST(CharacterizationDeterminism, ThreadsAndWorkersMatrix) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = qft3_program(backend);
  const co::CharterReport charter = analyze(backend, program);

  const auto characterize = [&](int threads, int workers) {
    ch::CharacterizeOptions options = quick_options();
    options.exec.threads = threads;
    options.exec.workers = workers;  // empty worker_exe: plain-fork workers
    ex::RunCache::global().clear();
    const ch::CharacterizationReport report =
        ch::GateCharacterizer(backend, options).characterize(program,
                                                             charter);
    ex::RunCache::global().clear();
    return report;
  };

  const ch::CharacterizationReport baseline = characterize(1, 0);
  ASSERT_EQ(baseline.gates.size(), 2u);
  EXPECT_EQ(baseline.total_sequences, 2u * 4u);
  for (const int threads : {1, 2, 8}) {
    for (const int workers : {0, 2}) {
      if (threads == 1 && workers == 0) continue;
      const std::string label = "threads=" + std::to_string(threads) +
                                " workers=" + std::to_string(workers);
      expect_reports_identical(baseline, characterize(threads, workers),
                               label);
    }
  }
}

TEST(CharacterizationDeterminism, WarmRunCacheIsBitIdentical) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = qft3_program(backend);
  const co::CharterReport charter = analyze(backend, program);
  const ch::GateCharacterizer characterizer(backend, quick_options());

  ex::RunCache::global().clear();
  const ch::CharacterizationReport cold =
      characterizer.characterize(program, charter);
  const ch::CharacterizationReport warm =
      characterizer.characterize(program, charter);
  ex::RunCache::global().clear();

  expect_reports_identical(cold, warm, "warm cache");
  EXPECT_GT(warm.exec_stats.cache_hits, 0u);
}

// ---------------------------------------------------------------------------
// Session facade
// ---------------------------------------------------------------------------

TEST(SessionCharacterization, MatchesDirectCharacterizerBitIdentically) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = qft3_program(backend);

  charter::SessionConfig config =
      charter::SessionConfig().reversals(2).shots(0).seed(2022);
  config.execution().strategy(ex::StrategyKind::kDmExact);

  ex::RunCache::global().clear();
  charter::Session session(backend, config);
  const co::CharterReport charter = session.analyze(program);
  const ch::CharacterizationReport via_session =
      session.characterize(program, charter, 2);

  ch::CharacterizeOptions direct;
  direct.top_k = 2;
  direct.severity_reversals = 2;
  direct.run.shots = 0;
  direct.run.seed = 2022;
  direct.strategy = ex::StrategyKind::kDmExact;
  ex::RunCache::global().clear();
  const ch::CharacterizationReport via_direct =
      ch::GateCharacterizer(backend, direct).characterize(program, charter);
  ex::RunCache::global().clear();

  expect_reports_identical(via_session, via_direct, "session vs direct");
}

TEST(SessionCharacterization, RejectsInvalidTopK) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  charter::Session session(backend,
                           charter::SessionConfig().shots(0).seed(2022));
  const cb::CompiledProgram program = qft3_program(backend);
  const co::CharterReport charter = session.analyze(program);
  EXPECT_THROW(session.characterize(program, charter, 0), charter::Error);
}

// ---------------------------------------------------------------------------
// Golden fixture
// ---------------------------------------------------------------------------

std::string fixture_path(const std::string& name) {
  return std::string(CHARTER_FIXTURE_DIR) + "/" + name + ".json";
}

TEST(CharacterizationGolden, Qft3) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  ex::RunCache::global().clear();
  const ch::CharacterizationReport report =
      quick_report(backend);
  ex::RunCache::global().clear();

  const std::string path = fixture_path("characterize_qft3");
  if (std::getenv("CHARTER_REGEN_FIXTURES") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    // Wall-clock is machine-dependent; fixtures pin it to zero.
    ch::CharacterizationReport pinned = report;
    pinned.exec_stats.actual_ns = 0.0;
    out << ch::characterization_to_json(pinned) << "\n";
    GTEST_SKIP() << "fixture regenerated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing fixture " << path
      << " (regenerate with CHARTER_REGEN_FIXTURES=1)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const ch::CharacterizationReport golden =
      ch::characterization_from_json(buffer.str());

  // Shots are 0 and the estimator is a pure function of the decay points,
  // so doubles replay within the cross-toolchain libm budget; on identical
  // toolchains they are typically bit-equal.
  constexpr double kTol = 1e-12;
  EXPECT_EQ(report.depths, golden.depths);
  EXPECT_EQ(report.severity_reversals, golden.severity_reversals);
  EXPECT_EQ(report.total_sequences, golden.total_sequences);
  EXPECT_NEAR(report.rank_agreement, golden.rank_agreement, kTol);
  ASSERT_EQ(report.original_distribution.size(),
            golden.original_distribution.size());
  for (std::size_t i = 0; i < golden.original_distribution.size(); ++i)
    EXPECT_NEAR(report.original_distribution[i],
                golden.original_distribution[i], kTol)
        << "outcome " << i;
  ASSERT_EQ(report.gates.size(), golden.gates.size());
  for (std::size_t g = 0; g < golden.gates.size(); ++g) {
    const ch::GateCharacterization& got = report.gates[g];
    const ch::GateCharacterization& want = golden.gates[g];
    const std::string label = "gate " + std::to_string(g);
    EXPECT_EQ(got.op_index, want.op_index) << label;
    EXPECT_EQ(got.kind, want.kind) << label;
    EXPECT_EQ(got.qubits, want.qubits) << label;
    EXPECT_NEAR(got.charter_tvd, want.charter_tvd, kTol) << label;
    ASSERT_EQ(got.decay.size(), want.decay.size()) << label;
    for (std::size_t i = 0; i < want.decay.size(); ++i)
      EXPECT_NEAR(got.decay[i].tvd, want.decay[i].tvd, kTol)
          << label << " depth " << want.decay[i].depth;
    EXPECT_NEAR(got.fit.rho, want.fit.rho, kTol) << label;
    EXPECT_NEAR(got.fit.phi, want.fit.phi, kTol) << label;
    EXPECT_NEAR(got.severity, want.severity, kTol) << label;
    EXPECT_NEAR(got.ci.depol.lower, want.ci.depol.lower, kTol) << label;
    EXPECT_NEAR(got.ci.depol.upper, want.ci.depol.upper, kTol) << label;
    EXPECT_NEAR(got.spam_p01, want.spam_p01, kTol) << label;
    EXPECT_NEAR(got.spam_p10, want.spam_p10, kTol) << label;
  }
  // The execution shape (jobs, checkpoint reuse, fallbacks) is part of the
  // pinned contract; timing fields are not.
  EXPECT_EQ(report.exec_stats.jobs, golden.exec_stats.jobs);
  EXPECT_EQ(report.exec_stats.checkpointed, golden.exec_stats.checkpointed);
  EXPECT_EQ(report.exec_stats.full_runs, golden.exec_stats.full_runs);
  EXPECT_EQ(report.exec_stats.checkpoint_fallbacks,
            golden.exec_stats.checkpoint_fallbacks);
}

}  // namespace
