#include "backend/backend.hpp"

#include <algorithm>

#include "math/simd_dispatch.hpp"
#include "noise/executor.hpp"
#include "util/parallel.hpp"
#include "sim/density_matrix.hpp"
#include "sim/measurement.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectory.hpp"
#include "util/error.hpp"

namespace charter::backend {

using circ::Circuit;
using circ::Gate;

LoweredRun Backend::lower(const CompiledProgram&, const RunOptions&) const {
  throw Error("backend '" + name() +
              "' does not support lowering (supports_lowering() is false); "
              "the exec layer must route its jobs through run()");
}

std::vector<double> Backend::finalize(std::vector<double>, const LoweredRun&,
                                      const CompiledProgram&,
                                      const RunOptions&) const {
  throw Error("backend '" + name() +
              "' does not support lowering (supports_lowering() is false); "
              "the exec layer must route its jobs through run()");
}

bool Backend::cache_identity(FingerprintSink&) const { return false; }

FakeBackend::FakeBackend(transpile::Topology topology, noise::NoiseModel model)
    : topology_(std::move(topology)), model_(std::move(model)) {
  require(model_.num_qubits() == topology_.num_qubits(),
          "noise model width must match topology");
}

FakeBackend FakeBackend::lagos(std::uint64_t cal_seed) {
  return from_topology(transpile::ibm_lagos(), cal_seed);
}

FakeBackend FakeBackend::guadalupe(std::uint64_t cal_seed) {
  return from_topology(transpile::ibmq_guadalupe(), cal_seed);
}

FakeBackend FakeBackend::from_topology(const transpile::Topology& topology,
                                       std::uint64_t cal_seed,
                                       const noise::CalibrationConfig& cfg) {
  noise::NoiseModel model = noise::generate_calibration(
      topology.num_qubits(), topology.edges(), cal_seed, cfg);
  return FakeBackend(topology, std::move(model));
}

CompiledProgram FakeBackend::compile(
    const Circuit& logical, const transpile::TranspileOptions& options) const {
  const transpile::TranspileResult result =
      transpile::transpile(logical, topology_, &model_, options);
  return CompiledProgram{result.physical, result.final_layout,
                         logical.num_qubits()};
}

EngineKind resolve_engine(const RunOptions& options, int local_width) {
  if (options.engine != EngineKind::kAuto) return options.engine;
  return local_width <= sim::DensityMatrixEngine::kMaxQubits
             ? EngineKind::kDensityMatrix
             : EngineKind::kTrajectory;
}

int resolve_fusion_width(const RunOptions& options) {
  if (options.fusion_width != 0)
    return std::clamp(options.fusion_width, 2, 3);
  return noise::fusion_width();
}

void FakeBackend::set_readout_confusion(int q, double p_meas1_given0,
                                        double p_meas0_given1) {
  require(q >= 0 && q < model_.num_qubits(),
          "readout confusion qubit out of range");
  require(p_meas1_given0 >= 0.0 && p_meas1_given0 < 1.0 &&
              p_meas0_given1 >= 0.0 && p_meas0_given1 < 1.0,
          "readout confusion probabilities must be in [0, 1)");
  model_.qubit(q).readout = {p_meas1_given0, p_meas0_given1};
  model_.toggles().readout = true;
}

void FakeBackend::set_readout_confusion(double p_meas1_given0,
                                        double p_meas0_given1) {
  for (int q = 0; q < model_.num_qubits(); ++q)
    set_readout_confusion(q, p_meas1_given0, p_meas0_given1);
}

std::string run_environment_summary() {
  namespace simd = math::simd;
  std::string out = "simd=";
  out += simd::path_name(simd::active_path());
  out += " (available: " + simd::available_paths() + ")";
  out += ", threads=" + std::to_string(util::num_threads());
  out += ", dm_max_qubits=" +
         std::to_string(sim::DensityMatrixEngine::kMaxQubits);
  out += ", fusion_width=" + std::to_string(noise::fusion_width());
  return out;
}

noise::NoiseModel restrict_model(const noise::NoiseModel& model,
                                 const std::vector<int>& kept) {
  noise::NoiseModel out(static_cast<int>(kept.size()));
  out.toggles() = model.toggles();
  std::vector<int> local_of(static_cast<std::size_t>(model.num_qubits()), -1);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    local_of[static_cast<std::size_t>(kept[i])] = static_cast<int>(i);
    out.qubit(static_cast<int>(i)) = model.qubit(kept[i]);
    out.gate_1q(circ::GateKind::SX, static_cast<int>(i)) =
        model.gate_1q(circ::GateKind::SX, kept[i]);
    out.gate_1q(circ::GateKind::X, static_cast<int>(i)) =
        model.gate_1q(circ::GateKind::X, kept[i]);
  }
  for (const auto& [a, b] : model.edges()) {
    const int la = local_of[static_cast<std::size_t>(a)];
    const int lb = local_of[static_cast<std::size_t>(b)];
    if (la >= 0 && lb >= 0) out.add_edge(la, lb, model.edge(a, b));
  }
  return out;
}

std::vector<int> used_qubits(const CompiledProgram& program) {
  std::vector<bool> used(
      static_cast<std::size_t>(program.physical.num_qubits()), false);
  for (const Gate& g : program.physical.ops())
    for (std::uint8_t i = 0; i < g.num_qubits; ++i)
      used[static_cast<std::size_t>(g.qubits[i])] = true;
  for (const int p : program.final_layout)
    used[static_cast<std::size_t>(p)] = true;
  std::vector<int> kept;
  for (int q = 0; q < program.physical.num_qubits(); ++q)
    if (used[static_cast<std::size_t>(q)]) kept.push_back(q);
  return kept;
}

Circuit compact_to(const Circuit& physical, const std::vector<int>& kept) {
  std::vector<std::int16_t> local_of(
      static_cast<std::size_t>(physical.num_qubits()), -1);
  for (std::size_t i = 0; i < kept.size(); ++i)
    local_of[static_cast<std::size_t>(kept[i])] =
        static_cast<std::int16_t>(i);
  Circuit out(static_cast<int>(kept.size()));
  for (const Gate& g : physical.ops()) {
    Gate lg = g;
    for (std::uint8_t i = 0; i < g.num_qubits; ++i)
      lg.qubits[i] = local_of[static_cast<std::size_t>(g.qubits[i])];
    out.append(lg);
  }
  return out;
}

namespace {

/// Folds a local-qubit distribution down to the logical qubits.
std::vector<double> to_logical(const std::vector<double>& local_probs,
                               const CompiledProgram& program,
                               const std::vector<int>& kept) {
  std::vector<int> local_of(
      static_cast<std::size_t>(program.physical.num_qubits()), -1);
  for (std::size_t i = 0; i < kept.size(); ++i)
    local_of[static_cast<std::size_t>(kept[i])] = static_cast<int>(i);
  transpile::Layout local_layout(
      static_cast<std::size_t>(program.num_logical));
  for (int q = 0; q < program.num_logical; ++q) {
    const int phys = program.final_layout[static_cast<std::size_t>(q)];
    const int local = local_of[static_cast<std::size_t>(phys)];
    CHARTER_ASSERT(local >= 0, "measured qubit missing from compaction");
    local_layout[static_cast<std::size_t>(q)] = local;
  }
  return transpile::remap_distribution(local_probs, local_layout,
                                       program.num_logical);
}

}  // namespace

LoweredRun FakeBackend::lower(const CompiledProgram& program,
                              const RunOptions& options) const {
  require(program.physical.num_qubits() == topology_.num_qubits(),
          "program compiled for a different device");
  require(static_cast<int>(program.final_layout.size()) ==
              program.num_logical,
          "bad program layout");

  std::vector<int> kept = used_qubits(program);
  Circuit local = compact_to(program.physical, kept);
  noise::NoiseModel model = restrict_model(model_, kept);
  if (options.drift > 0.0)
    model = model.with_drift(options.seed ^ kDriftSeedSalt, options.drift);
  return LoweredRun{std::move(local), std::move(model), std::move(kept)};
}

std::vector<double> FakeBackend::finalize(std::vector<double> engine_probs,
                                          const LoweredRun& lowered,
                                          const CompiledProgram& program,
                                          const RunOptions& options) const {
  sim::apply_readout_error(engine_probs, lowered.model.readout_errors());

  if (options.shots > 0) {
    util::Rng rng(options.seed ^ kShotSeedSalt);
    const std::vector<std::uint64_t> counts = sim::sample_counts(
        engine_probs, static_cast<std::uint64_t>(options.shots), rng);
    engine_probs = sim::counts_to_distribution(counts);
  }
  return to_logical(engine_probs, program, lowered.kept);
}

std::vector<double> FakeBackend::run(const CompiledProgram& program,
                                     const RunOptions& options) const {
  const LoweredRun lowered = lower(program, options);

  const int width = lowered.local.num_qubits();
  const EngineKind engine = resolve_engine(options, width);
  require(engine != EngineKind::kDensityMatrix ||
              width <= sim::DensityMatrixEngine::kMaxQubits,
          "program too wide for the density-matrix engine");

  // Lower once; the tape is reusable across executions, so trajectory
  // averaging interprets the same tape per unravelling instead of
  // re-deriving the schedule and clock walk each time.  The
  // density-matrix engine always runs the exact tape; trajectory runs honor
  // options.opt.
  const noise::OptLevel opt = engine == EngineKind::kTrajectory
                                  ? options.opt
                                  : noise::OptLevel::kExact;
  const noise::NoisyExecutor executor(lowered.model, opt,
                                      resolve_fusion_width(options));
  const noise::NoiseProgram tape = executor.lower(lowered.local);
  std::vector<double> probs;
  if (engine == EngineKind::kDensityMatrix) {
    sim::DensityMatrixEngine dm(width);
    tape.execute(dm);
    probs = dm.probabilities();
  } else {
    probs = sim::run_trajectories(
        width, options.trajectories, options.seed ^ kTrajectorySeedSalt,
        [&](sim::NoisyEngine& engine_ref) { tape.execute(engine_ref); });
  }
  return finalize(std::move(probs), lowered, program, options);
}

std::vector<double> FakeBackend::ideal(const CompiledProgram& program) const {
  const std::vector<int> kept = used_qubits(program);
  const Circuit local = compact_to(program.physical, kept);
  sim::Statevector sv(local.num_qubits());
  sv.apply(local);
  return to_logical(sv.probabilities(), program, kept);
}

double FakeBackend::duration_ns(const CompiledProgram& program) const {
  const std::vector<int> kept = used_qubits(program);
  const Circuit local = compact_to(program.physical, kept);
  const noise::NoiseModel model = restrict_model(model_, kept);
  const noise::NoisyExecutor executor(model);
  return executor.make_schedule(local).total_time;
}

bool FakeBackend::cache_identity(FingerprintSink& sink) const {
  sink.mix_string(name());
  const noise::NoiseModel& m = model_;
  sink.mix(static_cast<std::uint64_t>(m.num_qubits()));
  const noise::NoiseToggles& t = m.toggles();
  sink.mix((static_cast<std::uint64_t>(t.decoherence) << 6) |
           (static_cast<std::uint64_t>(t.depolarizing) << 5) |
           (static_cast<std::uint64_t>(t.coherent) << 4) |
           (static_cast<std::uint64_t>(t.static_zz) << 3) |
           (static_cast<std::uint64_t>(t.drive_zz) << 2) |
           (static_cast<std::uint64_t>(t.readout) << 1) |
           static_cast<std::uint64_t>(t.prep));
  sink.mix_double(m.reset_duration_ns);
  for (int q = 0; q < m.num_qubits(); ++q) {
    const noise::QubitCal& cal = m.qubit(q);
    sink.mix_double(cal.t1_ns);
    sink.mix_double(cal.t2_ns);
    sink.mix_double(cal.prep_error);
    sink.mix_double(cal.readout.p_meas1_given0);
    sink.mix_double(cal.readout.p_meas0_given1);
    for (const circ::GateKind kind : {circ::GateKind::SX, circ::GateKind::X}) {
      const noise::OneQubitGateCal& g = m.gate_1q(kind, q);
      sink.mix_double(g.depol);
      sink.mix_double(g.overrot_frac);
      sink.mix_double(g.duration_ns);
    }
  }
  for (const auto& [a, b] : m.edges()) {
    sink.mix((static_cast<std::uint64_t>(a) << 32) |
             static_cast<std::uint64_t>(b));
    const noise::EdgeCal& e = m.edge(a, b);
    sink.mix_double(e.cx_depol);
    sink.mix_double(e.cx_zz_angle);
    sink.mix_double(e.cx_duration_ns);
    sink.mix_double(e.static_zz_rate);
    sink.mix_double(e.drive_zz_rate);
  }
  return true;
}

}  // namespace charter::backend
