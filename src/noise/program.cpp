#include "noise/program.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace charter::noise {

using circ::Gate;
using circ::GateKind;
using math::cplx;
using math::Mat2;

// ---------------------------------------------------------------------------
// Append API
// ---------------------------------------------------------------------------

namespace {

/// Multi-qubit ops need distinct operands: a repeated one would reach the
/// kernels as a repeated mask, which is not the op the kind names.
void require_distinct(bool distinct, const char* kind) {
  if (!distinct)
    throw InvalidArgument(std::string(kind) + ": qubit operands coincide");
}

}  // namespace

void NoiseProgram::append_unitary_1q(const Mat2& u, int q) {
  TapeOp op;
  op.kind = TapeOpKind::kUnitary1q;
  op.q0 = static_cast<std::int16_t>(q);
  op.payload = static_cast<std::uint32_t>(mats_.size());
  mats_.push_back(u);
  ops_.push_back(op);
}

void NoiseProgram::append_diag_1q(cplx d0, cplx d1, int q) {
  TapeOp op;
  op.kind = TapeOpKind::kDiag1q;
  op.q0 = static_cast<std::int16_t>(q);
  op.payload = static_cast<std::uint32_t>(diags_.size());
  diags_.push_back({d0, d1, cplx(0.0), cplx(0.0)});
  ops_.push_back(op);
}

void NoiseProgram::append_cx(int c, int t) {
  require_distinct(c != t, "cx");
  TapeOp op;
  op.kind = TapeOpKind::kCx;
  op.q0 = static_cast<std::int16_t>(c);
  op.q1 = static_cast<std::int16_t>(t);
  ops_.push_back(op);
}

void NoiseProgram::append_diag_2q(const std::array<cplx, 4>& d, int qa,
                                  int qb) {
  require_distinct(qa != qb, "diag2q");
  TapeOp op;
  op.kind = TapeOpKind::kDiag2q;
  op.q0 = static_cast<std::int16_t>(qa);
  op.q1 = static_cast<std::int16_t>(qb);
  op.payload = static_cast<std::uint32_t>(diags_.size());
  diags_.push_back(d);
  ops_.push_back(op);
}

void NoiseProgram::append_thermal(int q, double gamma, double pz) {
  TapeOp op;
  op.kind = TapeOpKind::kThermal;
  op.q0 = static_cast<std::int16_t>(q);
  op.a = gamma;
  op.b = pz;
  ops_.push_back(op);
}

void NoiseProgram::append_depol_1q(int q, double p) {
  TapeOp op;
  op.kind = TapeOpKind::kDepol1q;
  op.q0 = static_cast<std::int16_t>(q);
  op.a = p;
  ops_.push_back(op);
}

void NoiseProgram::append_depol_2q(int qa, int qb, double p) {
  require_distinct(qa != qb, "depol2q");
  TapeOp op;
  op.kind = TapeOpKind::kDepol2q;
  op.q0 = static_cast<std::int16_t>(qa);
  op.q1 = static_cast<std::int16_t>(qb);
  op.a = p;
  ops_.push_back(op);
}

void NoiseProgram::append_bitflip(int q, double p) {
  TapeOp op;
  op.kind = TapeOpKind::kBitflip;
  op.q0 = static_cast<std::int16_t>(q);
  op.a = p;
  ops_.push_back(op);
}

void NoiseProgram::append_kraus_1q(std::span<const Mat2> kraus, int q) {
  require(!kraus.empty(), "empty Kraus set");
  TapeOp op;
  op.kind = TapeOpKind::kKraus1q;
  op.q0 = static_cast<std::int16_t>(q);
  op.payload = static_cast<std::uint32_t>(kraus_sets_.size());
  kraus_sets_.push_back({static_cast<std::uint32_t>(mats_.size()),
                         static_cast<std::uint32_t>(kraus.size())});
  mats_.insert(mats_.end(), kraus.begin(), kraus.end());
  ops_.push_back(op);
}

void NoiseProgram::append_unitary_2q(const math::Mat4& u, int qa, int qb) {
  require_distinct(qa != qb, "unitary2q");
  TapeOp op;
  op.kind = TapeOpKind::kUnitary2q;
  op.q0 = static_cast<std::int16_t>(qa);
  op.q1 = static_cast<std::int16_t>(qb);
  op.payload = static_cast<std::uint32_t>(mats4_.size());
  mats4_.push_back(u);
  ops_.push_back(op);
}

void NoiseProgram::append_unitary_3q(const std::array<cplx, 64>& u, int qa,
                                     int qb, int qc) {
  require_distinct(qa != qb && qa != qc && qb != qc, "unitary3q");
  TapeOp op;
  op.kind = TapeOpKind::kUnitary3q;
  op.q0 = static_cast<std::int16_t>(qa);
  op.q1 = static_cast<std::int16_t>(qb);
  op.q2 = static_cast<std::int16_t>(qc);
  op.payload = static_cast<std::uint32_t>(mats8_.size());
  mats8_.push_back(u);
  ops_.push_back(op);
}

// ---------------------------------------------------------------------------
// Interpreters
// ---------------------------------------------------------------------------

namespace {

bool is_diag(TapeOpKind kind) {
  return kind == TapeOpKind::kDiag1q || kind == TapeOpKind::kDiag2q;
}

/// A kDiag1q/kDiag2q tape op as a run element (masks in qubit space).
math::DiagOp diag_op(const NoiseProgram& p, const TapeOp& op) {
  const std::array<cplx, 4>& d = p.diag(op.payload);
  if (op.kind == TapeOpKind::kDiag1q)
    return {std::uint64_t{1} << op.q0, 0, {d[0], d[1], d[0], d[1]}};
  return {std::uint64_t{1} << op.q0, std::uint64_t{1} << op.q1, d};
}

/// Shared interpreter body.  Instantiated for the abstract interface
/// (virtual dispatch, any engine) and for the concrete final density-matrix
/// engine, where every apply_* call devirtualizes into a single pair-kernel
/// pass over vec(rho).  Each maximal run of consecutive diagonal ops inside
/// [begin, end) goes to the engine as one apply_diag_run call (split every
/// kMaxDiagRun ops); a run never reaches past \p end, so a region boundary
/// is an op boundary exactly as before.
template <typename Engine>
void run_impl(const NoiseProgram& p, Engine& engine, std::size_t begin,
              std::size_t end) {
  std::array<math::DiagOp, math::kMaxDiagRun> run;
  for (std::size_t i = begin; i < end; ++i) {
    const TapeOp& op = p.op(i);
    switch (op.kind) {
      case TapeOpKind::kUnitary1q:
        engine.apply_unitary_1q(p.mat(op.payload), op.q0);
        break;
      case TapeOpKind::kDiag1q:
      case TapeOpKind::kDiag2q: {
        int k = 0;
        run[0] = diag_op(p, op);
        while (++k < math::kMaxDiagRun && i + 1 < end &&
               is_diag(p.op(i + 1).kind))
          run[static_cast<std::size_t>(k)] = diag_op(p, p.op(++i));
        engine.apply_diag_run(run.data(), k);
        break;
      }
      case TapeOpKind::kCx:
        engine.apply_cx(op.q0, op.q1);
        break;
      case TapeOpKind::kThermal:
        engine.apply_thermal_relaxation(op.q0, op.a, op.b);
        break;
      case TapeOpKind::kDepol1q:
        engine.apply_depolarizing_1q(op.q0, op.a);
        break;
      case TapeOpKind::kDepol2q:
        engine.apply_depolarizing_2q(op.q0, op.q1, op.a);
        break;
      case TapeOpKind::kBitflip:
        engine.apply_bitflip(op.q0, op.a);
        break;
      case TapeOpKind::kKraus1q:
        engine.apply_kraus_1q(p.kraus(op.payload), op.q0);
        break;
      case TapeOpKind::kUnitary2q:
        engine.apply_unitary_2q(p.mat4(op.payload), op.q0, op.q1);
        break;
      case TapeOpKind::kUnitary3q:
        engine.apply_unitary_3q(p.mat8(op.payload), op.q0, op.q1, op.q2);
        break;
    }
  }
}

}  // namespace

void NoiseProgram::run(sim::NoisyEngine& engine, std::size_t begin,
                       std::size_t end) const {
  // A density-matrix engine handed in through the interface still deserves
  // the devirtualized path; the cast costs one check per region, not per op.
  if (auto* dm = dynamic_cast<sim::DensityMatrixEngine*>(&engine)) {
    run_impl(*this, *dm, begin, end);
    return;
  }
  run_impl<sim::NoisyEngine>(*this, engine, begin, end);
}

void NoiseProgram::run(sim::DensityMatrixEngine& engine, std::size_t begin,
                       std::size_t end) const {
  run_impl(*this, engine, begin, end);
}

void NoiseProgram::execute(sim::NoisyEngine& engine) const {
  require(engine.num_qubits() == num_qubits_,
          "program width does not match engine");
  engine.reset();
  run(engine, 0, ops_.size());
}

// ---------------------------------------------------------------------------
// Fingerprints / comparison
// ---------------------------------------------------------------------------

namespace {

struct Hash128 {
  std::uint64_t lo = 0x243f6a8885a308d3ULL;
  std::uint64_t hi = 0x13198a2e03707344ULL;

  void mix(std::uint64_t v) {
    std::uint64_t s = lo ^ (v + 0x9e3779b97f4a7c15ULL + (lo << 6));
    lo = util::splitmix64(s);
    s = hi ^ (v * 0xc2b2ae3d27d4eb4fULL + (hi >> 3) + 1);
    hi = util::splitmix64(s);
  }
  void mix_double(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix_cplx(cplx v) {
    mix_double(v.real());
    mix_double(v.imag());
  }
};

}  // namespace

std::array<std::uint64_t, 2> NoiseProgram::fingerprint() const {
  Hash128 h;
  h.mix(static_cast<std::uint64_t>(num_qubits_));
  h.mix(static_cast<std::uint64_t>(level_));
  h.mix(ops_.size());
  for (const TapeOp& op : ops_) {
    h.mix((static_cast<std::uint64_t>(op.kind) << 48) |
          (static_cast<std::uint64_t>(static_cast<std::uint16_t>(op.q0))
           << 32) |
          (static_cast<std::uint64_t>(static_cast<std::uint16_t>(op.q1))
           << 16) |
          static_cast<std::uint64_t>(static_cast<std::uint16_t>(op.q2)));
    h.mix_double(op.a);
    h.mix_double(op.b);
    switch (op.kind) {
      case TapeOpKind::kUnitary1q:
        for (const cplx& v : mats_[op.payload].m) h.mix_cplx(v);
        break;
      case TapeOpKind::kDiag1q:
      case TapeOpKind::kDiag2q:
        for (const cplx& v : diags_[op.payload]) h.mix_cplx(v);
        break;
      case TapeOpKind::kKraus1q: {
        const KrausSet& set = kraus_sets_[op.payload];
        h.mix(set.count);
        for (std::uint32_t k = 0; k < set.count; ++k)
          for (const cplx& v : mats_[set.offset + k].m) h.mix_cplx(v);
        break;
      }
      case TapeOpKind::kUnitary2q:
        for (const cplx& v : mats4_[op.payload].m) h.mix_cplx(v);
        break;
      case TapeOpKind::kUnitary3q:
        for (const cplx& v : mats8_[op.payload]) h.mix_cplx(v);
        break;
      default:
        break;
    }
  }
  return {h.lo, h.hi};
}

std::array<std::uint64_t, 2> tape_schema_fingerprint() {
  // Version tag of the lowering pipeline semantics; bump when the tape op
  // set, emission rules, or interpreter behavior change incompatibly.
  // v2: dense kUnitary2q/kUnitary3q ops (wide-gate fusion), q2 operand in
  // the per-op fingerprint word.
  constexpr std::uint64_t kTapeSchemaVersion = 2;
  Hash128 h;
  h.mix(0x7a9e5cafe7001ULL);
  h.mix(kTapeSchemaVersion);
  return {h.lo, h.hi};
}

bool NoiseProgram::region_equal(const NoiseProgram& other, std::size_t begin,
                                std::size_t end) const {
  if (end > ops_.size() || end > other.ops_.size()) return false;
  for (std::size_t i = begin; i < end; ++i) {
    const TapeOp& a = ops_[i];
    const TapeOp& b = other.ops_[i];
    if (a.kind != b.kind || a.q0 != b.q0 || a.q1 != b.q1 || a.q2 != b.q2 ||
        a.a != b.a || a.b != b.b)
      return false;
    switch (a.kind) {
      case TapeOpKind::kUnitary1q:
        if (mats_[a.payload].m != other.mats_[b.payload].m) return false;
        break;
      case TapeOpKind::kDiag1q:
      case TapeOpKind::kDiag2q:
        if (diags_[a.payload] != other.diags_[b.payload]) return false;
        break;
      case TapeOpKind::kKraus1q: {
        const KrausSet& sa = kraus_sets_[a.payload];
        const KrausSet& sb = other.kraus_sets_[b.payload];
        if (sa.count != sb.count) return false;
        for (std::uint32_t k = 0; k < sa.count; ++k)
          if (mats_[sa.offset + k].m != other.mats_[sb.offset + k].m)
            return false;
        break;
      }
      case TapeOpKind::kUnitary2q:
        if (mats4_[a.payload].m != other.mats4_[b.payload].m) return false;
        break;
      case TapeOpKind::kUnitary3q:
        if (mats8_[a.payload] != other.mats8_[b.payload]) return false;
        break;
      default:
        break;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

namespace {

/// RZZ(theta) diagonal phases, index = bit(qa) + 2*bit(qb).
std::array<cplx, 4> rzz_phases(double theta) {
  const cplx i(0.0, 1.0);
  const cplx em = std::exp(-i * (theta / 2.0));
  const cplx ep = std::exp(i * (theta / 2.0));
  return {em, ep, ep, em};
}

/// RX(theta) unitary (imperfect SX/X realization, global-phase free).
Mat2 rx_matrix(double theta) {
  Mat2 u;
  const cplx i(0.0, 1.0);
  u(0, 0) = std::cos(theta / 2.0);
  u(0, 1) = -i * std::sin(theta / 2.0);
  u(1, 0) = -i * std::sin(theta / 2.0);
  u(1, 1) = std::cos(theta / 2.0);
  return u;
}

bool same_gate(const Gate& a, const Gate& b) {
  return a.kind == b.kind && a.num_qubits == b.num_qubits &&
         a.num_params == b.num_params && a.flags == b.flags &&
         a.qubits == b.qubits && a.params == b.params;
}

void validate(const NoiseModel& model, const circ::Circuit& c) {
  require(c.num_qubits() <= model.num_qubits(),
          "circuit wider than the device");
  for (const Gate& g : c.ops())
    require(circ::is_basis_gate(g.kind) || g.kind == GateKind::BARRIER ||
                g.kind == GateKind::ID || g.kind == GateKind::RESET,
            "noisy execution requires basis gates; found " +
                circ::gate_name(g.kind));
}

}  // namespace

/// Ports the NoisyExecutor walk op by op, emitting tape ops instead of
/// engine calls.  Emission skips channels that every engine treats as an
/// exact no-op (zero-probability flips/depolarizing, zero relaxation, and
/// zero-angle ZZ phases, which multiply by exactly 1), so the exact tape
/// stays bit-identical to the interpretive walk — including the stochastic
/// branch order of trajectory engines — while never carrying dead ops.
class Lowerer {
 public:
  Lowerer(const NoiseModel& model, const circ::Circuit& c, bool record)
      : model_(model), c_(c), record_(record), out_(c.num_qubits()) {
    validate(model, c);
    sched_ = circ::schedule_asap(
        c, [&model](const Gate& g) { return model.duration(g); },
        /*with_overlaps=*/model.toggles().drive_zz);

    // Drive-crosstalk contributions: for each temporal overlap between ops
    // on coupled qubits, attach an RZZ to the later-starting op.
    drive_terms_.resize(c.size());
    if (model_.toggles().drive_zz) {
      for (const auto& ov : sched_.overlaps) {
        const Gate& ga = c.op(ov.op_a);
        const Gate& gb = c.op(ov.op_b);
        for (std::uint8_t i = 0; i < ga.num_qubits; ++i)
          for (std::uint8_t j = 0; j < gb.num_qubits; ++j) {
            const int u = ga.qubits[i];
            const int v = gb.qubits[j];
            if (u == v || !model_.has_edge(u, v)) continue;
            const double angle = model_.edge(u, v).drive_zz_rate * ov.duration;
            if (angle != 0.0)
              drive_terms_[ov.op_b].push_back(
                  {static_cast<double>(u), static_cast<double>(v), angle});
          }
      }
    }

    qubit_clock_.assign(static_cast<std::size_t>(c.num_qubits()), 0.0);
    for (const auto& [a, b] : model_.edges()) {
      if (a < c.num_qubits() && b < c.num_qubits()) {
        edges_.emplace_back(a, b);
        zz_clock_.push_back(0.0);
      }
    }
  }

  /// Splice path: verifies that ops [0, shared_ops) of this walk's circuit
  /// would lower bit-identically to \p base's prefix (same gates, schedule
  /// times, and drive-crosstalk terms), then seeds the walk from the base
  /// tape and recorded clock state and lowers only the suffix.  Returns
  /// nullopt when the prefix is not provably exact.
  std::optional<NoiseProgram> splice_from(const circ::Circuit& base_circuit,
                                          const NoiseProgram& base,
                                          std::size_t shared_ops) {
    const circ::Schedule& base_sched = base.resume_->sched;
    for (std::size_t i = 0; i < shared_ops; ++i) {
      // An over-claimed shared prefix must degrade to a cold run, never to
      // a resumed wrong answer.
      if (!same_gate(base_circuit.op(i), c_.op(i))) return std::nullopt;
      const circ::ScheduledOp& a = base_sched.ops[i];
      const circ::ScheduledOp& b = sched_.ops[i];
      if (a.t_start != b.t_start || a.t_end != b.t_end) return std::nullopt;
      if (base.resume_->drive_terms[i] != drive_terms_[i])
        return std::nullopt;
    }
    if (base.resume_->edges != edges_) return std::nullopt;
    resume_from(base, shared_ops);
    return take();
  }

  /// Seeds the walk from a shared prefix: tape ops, boundaries, payloads,
  /// and clock state are taken from \p base as of \p shared_ops.
  void resume_from(const NoiseProgram& base, std::size_t shared_ops) {
    const std::size_t prefix = base.op_end(shared_ops - 1);
    out_.ops_.assign(base.ops_.begin(),
                     base.ops_.begin() +
                         static_cast<std::ptrdiff_t>(prefix));
    // Payloads are appended in tape order, so the prefix references only a
    // leading slice of each array; copying past it would duplicate the
    // base's entire suffix payload per spliced circuit (O(G^2) across an
    // analysis).
    std::size_t mats = 0, diags = 0, kraus = 0, mats4 = 0, mats8 = 0;
    for (std::size_t i = 0; i < prefix; ++i) {
      const TapeOp& op = base.ops_[i];
      switch (op.kind) {
        case TapeOpKind::kUnitary1q:
          mats = std::max<std::size_t>(mats, op.payload + 1);
          break;
        case TapeOpKind::kDiag1q:
        case TapeOpKind::kDiag2q:
          diags = std::max<std::size_t>(diags, op.payload + 1);
          break;
        case TapeOpKind::kKraus1q: {
          kraus = std::max<std::size_t>(kraus, op.payload + 1);
          const NoiseProgram::KrausSet& set = base.kraus_sets_[op.payload];
          mats = std::max<std::size_t>(mats, set.offset + set.count);
          break;
        }
        case TapeOpKind::kUnitary2q:
          mats4 = std::max<std::size_t>(mats4, op.payload + 1);
          break;
        case TapeOpKind::kUnitary3q:
          mats8 = std::max<std::size_t>(mats8, op.payload + 1);
          break;
        default:
          break;
      }
    }
    out_.mats_.assign(base.mats_.begin(),
                      base.mats_.begin() + static_cast<std::ptrdiff_t>(mats));
    out_.diags_.assign(
        base.diags_.begin(),
        base.diags_.begin() + static_cast<std::ptrdiff_t>(diags));
    out_.kraus_sets_.assign(
        base.kraus_sets_.begin(),
        base.kraus_sets_.begin() + static_cast<std::ptrdiff_t>(kraus));
    out_.mats4_.assign(base.mats4_.begin(),
                       base.mats4_.begin() + static_cast<std::ptrdiff_t>(mats4));
    out_.mats8_.assign(base.mats8_.begin(),
                       base.mats8_.begin() + static_cast<std::ptrdiff_t>(mats8));
    out_.prologue_end_ = base.prologue_end_;
    out_.op_end_.assign(base.op_end_.begin(),
                        base.op_end_.begin() +
                            static_cast<std::ptrdiff_t>(shared_ops));
    qubit_clock_ = base.resume_->after_op[shared_ops - 1].qubit_clock;
    zz_clock_ = base.resume_->after_op[shared_ops - 1].zz_clock;
    next_op_ = shared_ops;
  }

  NoiseProgram take() {
    emit_prologue_if_first();
    while (next_op_ < c_.size()) emit_op(next_op_++);
    emit_epilogue();
    if (record_) {
      NoiseProgram::ResumeInfo info;
      info.sched = sched_;
      info.drive_terms = drive_terms_;
      info.edges = edges_;
      info.after_op = std::move(after_op_);
      out_.resume_ = std::move(info);
    }
    return std::move(out_);
  }

 private:
  void emit_prologue_if_first() {
    if (next_op_ != 0) return;  // spliced: prologue came with the prefix
    if (model_.toggles().prep) {
      for (int q = 0; q < c_.num_qubits(); ++q) {
        const double p = model_.qubit(q).prep_error;
        if (p > 0.0) out_.append_bitflip(q, p);
      }
    }
    out_.prologue_end_ = out_.ops_.size();
  }

  // Flushes accumulated static ZZ phase on every edge touching q up to t.
  void flush_zz(int q, double t) {
    if (!model_.toggles().static_zz) return;
    for (std::size_t e = 0; e < edges_.size(); ++e) {
      if (edges_[e].first != q && edges_[e].second != q) continue;
      const double dt = t - zz_clock_[e];
      if (dt <= 0.0) continue;
      const double angle =
          model_.edge(edges_[e].first, edges_[e].second).static_zz_rate * dt;
      if (angle != 0.0)
        out_.append_diag_2q(rzz_phases(angle), edges_[e].first,
                            edges_[e].second);
      zz_clock_[e] = t;
    }
  }

  // Advances qubit q's clock to time t, emitting T1/T2 for the window.
  void advance(int q, double t) {
    double& clock = qubit_clock_[static_cast<std::size_t>(q)];
    const double dt = t - clock;
    if (dt > 0.0 && model_.toggles().decoherence) {
      const double gamma = model_.gamma_for(q, dt);
      const double pz = model_.pz_for(q, dt);
      if (gamma > 0.0 || pz > 0.0) out_.append_thermal(q, gamma, pz);
    }
    clock = std::max(clock, t);
  }

  void emit_op(std::size_t i) {
    const Gate& g = c_.op(i);
    const NoiseToggles& tog = model_.toggles();
    const double t_start = sched_.ops[i].t_start;
    const double t_end = sched_.ops[i].t_end;
    const cplx imag(0.0, 1.0);
    switch (g.kind) {
      case GateKind::BARRIER:
      case GateKind::ID:
        break;
      case GateKind::RZ:
        // Virtual, instantaneous, commutes with every noise channel here:
        // no flush, no advance, no noise.
        out_.append_diag_1q(std::exp(-imag * (g.params[0] / 2.0)),
                            std::exp(imag * (g.params[0] / 2.0)),
                            g.qubits[0]);
        break;
      case GateKind::SX:
      case GateKind::SXDG:
      case GateKind::X: {
        const int q = g.qubits[0];
        flush_zz(q, t_start);
        advance(q, t_start);
        const OneQubitGateCal& cal = model_.gate_1q(g.kind, q);
        const double over = tog.coherent ? cal.overrot_frac : 0.0;
        double angle = 0.0;
        if (g.kind == GateKind::SX) angle = M_PI_2 * (1.0 + over);
        if (g.kind == GateKind::SXDG) angle = -M_PI_2 * (1.0 + over);
        if (g.kind == GateKind::X) angle = M_PI * (1.0 + over);
        out_.append_unitary_1q(rx_matrix(angle), q);
        if (tog.depolarizing && cal.depol > 0.0)
          out_.append_depol_1q(q, cal.depol);
        advance(q, t_end);
        break;
      }
      case GateKind::RESET: {
        // Active reset: collapse to |0> (exact amplitude-damping channel
        // with gamma = 1); decoherence bookkeeping as for any physical op.
        const int q = g.qubits[0];
        flush_zz(q, t_start);
        advance(q, t_start);
        out_.append_thermal(q, 1.0, 0.0);
        advance(q, t_end);
        break;
      }
      case GateKind::CX: {
        const int qc = g.qubits[0];
        const int qt = g.qubits[1];
        require(model_.has_edge(qc, qt),
                "CX on uncoupled qubits " + std::to_string(qc) + "," +
                    std::to_string(qt) + " (route the circuit first)");
        flush_zz(qc, t_start);
        flush_zz(qt, t_start);
        advance(qc, t_start);
        advance(qt, t_start);
        out_.append_cx(qc, qt);
        const EdgeCal& cal = model_.edge(qc, qt);
        if (tog.coherent && cal.cx_zz_angle != 0.0)
          out_.append_diag_2q(rzz_phases(cal.cx_zz_angle), qc, qt);
        if (tog.depolarizing && cal.cx_depol > 0.0)
          out_.append_depol_2q(qc, qt, cal.cx_depol);
        advance(qc, t_end);
        advance(qt, t_end);
        break;
      }
      default:
        CHARTER_ASSERT(false, "unreachable: non-basis gate after validation");
    }
    // Drive-crosstalk phases attached to this op (diagonal; no flush
    // needed).
    for (const auto& term : drive_terms_[i])
      out_.append_diag_2q(rzz_phases(term[2]), static_cast<int>(term[0]),
                          static_cast<int>(term[1]));
    out_.op_end_.push_back(out_.ops_.size());
    if (record_) after_op_.push_back({qubit_clock_, zz_clock_});
  }

  void emit_epilogue() {
    const double t_final = sched_.total_time;
    for (int q = 0; q < c_.num_qubits(); ++q) flush_zz(q, t_final);
    for (int q = 0; q < c_.num_qubits(); ++q) advance(q, t_final);
  }

  const NoiseModel& model_;
  const circ::Circuit& c_;
  bool record_;
  NoiseProgram out_;
  circ::Schedule sched_;
  std::vector<std::vector<std::array<double, 3>>> drive_terms_;
  std::vector<std::pair<int, int>> edges_;
  std::vector<double> qubit_clock_;
  std::vector<double> zz_clock_;
  std::vector<NoiseProgram::ClockState> after_op_;
  std::size_t next_op_ = 0;
};

NoiseProgram lower(const NoiseModel& model, const circ::Circuit& c,
                   bool record_resume_info) {
  Lowerer lowerer(model, c, record_resume_info);
  return lowerer.take();
}

// ---------------------------------------------------------------------------
// Wide-gate fusion (kFusedWide)
// ---------------------------------------------------------------------------

namespace {

int initial_fusion_width() {
  if (const char* env = std::getenv("CHARTER_FUSION_WIDTH")) {
    if (std::strcmp(env, "2") == 0) return 2;
    if (std::strcmp(env, "3") == 0) return 3;
    std::fprintf(stderr,
                 "charter: ignoring CHARTER_FUSION_WIDTH=%s (want 2 or 3); "
                 "keeping default 2\n",
                 env);
  }
  return 2;
}

std::atomic<int>& fusion_width_state() {
  static std::atomic<int> width{initial_fusion_width()};
  return width;
}

/// Pending coherent block in the fused-wide walk: a dense unitary over
/// `width` cluster qubits.  Index bit k of `u` corresponds to qubits[k];
/// `u` is row-major with dim = 2^width, and only the leading dim*dim
/// entries are meaningful.
struct Cluster {
  int width = 0;
  std::array<int, 3> qubits{{-1, -1, -1}};
  std::array<cplx, 64> u{};
  std::uint64_t seq = 0;  ///< creation order; fixes the final-flush order
  bool live = false;
};

/// Left-multiplies a gw-qubit gate (row-major, dim 2^gw) acting on cluster
/// index bits pos[0..gw-1] into the cluster matrix.  Each column of the
/// cluster matrix is a width-qubit mini-statevector; the gate contracts
/// its bits the same way the engines contract amplitude indices.
void cluster_lmul(Cluster& c, const cplx* g, const int* pos, int gw) {
  const int dim = 1 << c.width;
  const int gd = 1 << gw;
  int gate_mask = 0;
  for (int k = 0; k < gw; ++k) gate_mask |= 1 << pos[k];
  for (int col = 0; col < dim; ++col) {
    for (int base = 0; base < dim; ++base) {
      if (base & gate_mask) continue;
      cplx in[4];
      for (int t = 0; t < gd; ++t) {
        int r = base;
        for (int k = 0; k < gw; ++k)
          if (t & (1 << k)) r |= 1 << pos[k];
        in[t] = c.u[static_cast<std::size_t>(r * dim + col)];
      }
      for (int rt = 0; rt < gd; ++rt) {
        cplx acc = 0.0;
        for (int t = 0; t < gd; ++t) acc += g[rt * gd + t] * in[t];
        int r = base;
        for (int k = 0; k < gw; ++k)
          if (rt & (1 << k)) r |= 1 << pos[k];
        c.u[static_cast<std::size_t>(r * dim + col)] = acc;
      }
    }
  }
}

}  // namespace

int fusion_width() {
  return fusion_width_state().load(std::memory_order_relaxed);
}

void set_fusion_width(int width) {
  fusion_width_state().store(std::clamp(width, 2, 3),
                             std::memory_order_relaxed);
}

NoiseProgram fused_wide(const NoiseProgram& p, std::size_t from_pos,
                        int max_width) {
  require(from_pos <= p.size(), "fusion start past the end of the tape");
  if (max_width == 0) max_width = fusion_width();
  max_width = std::clamp(max_width, 2, 3);

  NoiseProgram out(p.num_qubits());
  out.level_ = OptLevel::kFusedWide;
  out.mats_ = p.mats_;
  out.diags_ = p.diags_;
  out.kraus_sets_ = p.kraus_sets_;
  out.mats4_ = p.mats4_;
  out.mats8_ = p.mats8_;
  // Verbatim prefix: ops before from_pos are copied untouched so a
  // checkpoint snapshot at from_pos stays a valid resume point on the
  // optimized tape.
  out.ops_.assign(p.ops_.begin(),
                  p.ops_.begin() + static_cast<std::ptrdiff_t>(from_pos));
  out.prologue_end_ = std::min(p.prologue_end_, from_pos);
  for (const std::size_t e : p.op_end_) {
    if (e > from_pos) break;
    out.op_end_.push_back(e);
  }

  const std::size_t nq = static_cast<std::size_t>(p.num_qubits());
  std::vector<Cluster> clusters;   // slots are never erased; ids stay stable
  std::vector<int> owner(nq, -1);  // qubit -> live cluster slot, or -1
  std::uint64_t next_seq = 0;

  const auto bit_of = [](const Cluster& c, int q) {
    for (int k = 0; k < c.width; ++k)
      if (c.qubits[k] == q) return k;
    CHARTER_ASSERT(false, "qubit not in cluster");
    return -1;
  };

  const auto make_cluster = [&](int q) -> int {
    Cluster c;
    c.width = 1;
    c.qubits[0] = q;
    c.u[0] = 1.0;
    c.u[3] = 1.0;
    c.seq = next_seq++;
    c.live = true;
    clusters.push_back(c);
    const int id = static_cast<int>(clusters.size() - 1);
    owner[static_cast<std::size_t>(q)] = id;
    return id;
  };

  const auto ensure = [&](int q) -> int {
    const int id = owner[static_cast<std::size_t>(q)];
    return id != -1 ? id : make_cluster(q);
  };

  // Emits a cluster as the narrowest tape op that represents it: pure
  // diagonals become kDiag1q/kDiag2q (so the cheap diagonal kernels keep
  // handling them), everything else a dense unitary.
  const auto flush = [&](int id) {
    Cluster& c = clusters[static_cast<std::size_t>(id)];
    if (!c.live) return;
    const int dim = 1 << c.width;
    bool diagonal = true;
    for (int r = 0; r < dim && diagonal; ++r)
      for (int col = 0; col < dim; ++col)
        if (r != col &&
            c.u[static_cast<std::size_t>(r * dim + col)] != 0.0) {
          diagonal = false;
          break;
        }
    if (c.width == 1) {
      if (diagonal) {
        out.append_diag_1q(c.u[0], c.u[3], c.qubits[0]);
      } else {
        Mat2 m;
        for (std::size_t k = 0; k < 4; ++k) m.m[k] = c.u[k];
        out.append_unitary_1q(m, c.qubits[0]);
      }
    } else if (c.width == 2) {
      if (diagonal) {
        out.append_diag_2q({c.u[0], c.u[5], c.u[10], c.u[15]}, c.qubits[0],
                           c.qubits[1]);
      } else {
        math::Mat4 m;
        for (std::size_t k = 0; k < 16; ++k) m.m[k] = c.u[k];
        out.append_unitary_2q(m, c.qubits[0], c.qubits[1]);
      }
    } else {
      out.append_unitary_3q(c.u, c.qubits[0], c.qubits[1], c.qubits[2]);
    }
    for (int k = 0; k < c.width; ++k)
      owner[static_cast<std::size_t>(c.qubits[k])] = -1;
    c.live = false;
  };

  const auto flush_qubit = [&](int q) {
    const int id = owner[static_cast<std::size_t>(q)];
    if (id != -1) flush(id);
  };

  // Kronecker-merges cluster b_id into a_id's slot with A's index bits
  // low: merged[(rb << wa) | ra, (cb << wa) | ca] = B[rb, cb] * A[ra, ca].
  const auto merge = [&](int a_id, int b_id) -> int {
    const Cluster a = clusters[static_cast<std::size_t>(a_id)];
    const Cluster b = clusters[static_cast<std::size_t>(b_id)];
    Cluster m;
    m.width = a.width + b.width;
    CHARTER_ASSERT(m.width <= 3, "merged cluster exceeds max fusion width");
    const int da = 1 << a.width;
    const int db = 1 << b.width;
    const int dm = da * db;
    for (int k = 0; k < a.width; ++k) m.qubits[k] = a.qubits[k];
    for (int k = 0; k < b.width; ++k) m.qubits[a.width + k] = b.qubits[k];
    for (int rb = 0; rb < db; ++rb)
      for (int cb = 0; cb < db; ++cb)
        for (int ra = 0; ra < da; ++ra)
          for (int ca = 0; ca < da; ++ca)
            m.u[static_cast<std::size_t>(((rb << a.width) | ra) * dm +
                                         ((cb << a.width) | ca))] =
                b.u[static_cast<std::size_t>(rb * db + cb)] *
                a.u[static_cast<std::size_t>(ra * da + ca)];
    m.seq = std::min(a.seq, b.seq);
    m.live = true;
    clusters[static_cast<std::size_t>(a_id)] = m;
    clusters[static_cast<std::size_t>(b_id)].live = false;
    for (int k = 0; k < m.width; ++k)
      owner[static_cast<std::size_t>(m.qubits[k])] = a_id;
    return a_id;
  };

  // Folds a two-qubit gate (row-major 4x4, index bit 0 = qa) into the
  // cluster state.  If the operands' clusters cannot merge under
  // max_width, both retire and the gate seeds a fresh pair cluster.
  const auto apply_2q_gate = [&](const std::array<cplx, 16>& g, int qa,
                                 int qb) {
    int ia = owner[static_cast<std::size_t>(qa)];
    const int ib = owner[static_cast<std::size_t>(qb)];
    if (ia == -1 || ia != ib) {
      const int wa = ia != -1 ? clusters[static_cast<std::size_t>(ia)].width
                              : 1;
      const int wb = ib != -1 ? clusters[static_cast<std::size_t>(ib)].width
                              : 1;
      if (wa + wb > max_width) {
        flush_qubit(qa);
        flush_qubit(qb);
        Cluster c;
        c.width = 2;
        c.qubits = {{qa, qb, -1}};
        for (std::size_t k = 0; k < 16; ++k) c.u[k] = g[k];
        c.seq = next_seq++;
        c.live = true;
        clusters.push_back(c);
        const int id = static_cast<int>(clusters.size() - 1);
        owner[static_cast<std::size_t>(qa)] = id;
        owner[static_cast<std::size_t>(qb)] = id;
        return;
      }
      const int a_id = ensure(qa);
      const int b_id = ensure(qb);
      ia = merge(a_id, b_id);
    }
    Cluster& c = clusters[static_cast<std::size_t>(ia)];
    const int pos[2] = {bit_of(c, qa), bit_of(c, qb)};
    cluster_lmul(c, g.data(), pos, 2);
  };

  for (std::size_t i = from_pos; i < p.size(); ++i) {
    const TapeOp& op = p.ops_[i];
    switch (op.kind) {
      case TapeOpKind::kUnitary1q: {
        Cluster& c = clusters[static_cast<std::size_t>(ensure(op.q0))];
        const int pos = bit_of(c, op.q0);
        cluster_lmul(c, p.mats_[op.payload].m.data(), &pos, 1);
        break;
      }
      case TapeOpKind::kDiag1q: {
        Cluster& c = clusters[static_cast<std::size_t>(ensure(op.q0))];
        const auto& d = p.diags_[op.payload];
        const std::array<cplx, 4> g{d[0], 0.0, 0.0, d[1]};
        const int pos = bit_of(c, op.q0);
        cluster_lmul(c, g.data(), &pos, 1);
        break;
      }
      case TapeOpKind::kCx: {
        // |c + 2t>: CX permutes 1 <-> 3 (control set flips the target).
        std::array<cplx, 16> g{};
        g[0 * 4 + 0] = 1.0;
        g[3 * 4 + 1] = 1.0;
        g[2 * 4 + 2] = 1.0;
        g[1 * 4 + 3] = 1.0;
        apply_2q_gate(g, op.q0, op.q1);
        break;
      }
      case TapeOpKind::kDiag2q: {
        const auto& d = p.diags_[op.payload];
        std::array<cplx, 16> g{};
        for (int k = 0; k < 4; ++k)
          g[static_cast<std::size_t>(k * 4 + k)] = d[static_cast<std::size_t>(k)];
        apply_2q_gate(g, op.q0, op.q1);
        break;
      }
      case TapeOpKind::kThermal:
      case TapeOpKind::kDepol1q:
      case TapeOpKind::kDepol2q:
      case TapeOpKind::kBitflip:
      case TapeOpKind::kKraus1q:
      case TapeOpKind::kUnitary2q:
      case TapeOpKind::kUnitary3q: {
        // Stochastic channels are hard barriers: a trajectory run draws
        // RNG values in tape order, so pending coherent blocks on the
        // touched qubits retire first and the channel copies through
        // verbatim.  (Blocks on *disjoint* qubits may stay pending — a
        // unitary elsewhere leaves this channel's marginals invariant.)
        // Dense wide ops from an already-optimized input tape take the
        // same path.
        flush_qubit(op.q0);
        if (op.q1 >= 0) flush_qubit(op.q1);
        if (op.q2 >= 0) flush_qubit(op.q2);
        out.ops_.push_back(op);  // payload arrays were copied wholesale
        break;
      }
    }
  }

  // Retire the remaining blocks in creation order — deterministic, and
  // since live clusters are qubit-disjoint the value is order-independent.
  std::vector<int> pending;
  for (std::size_t id = 0; id < clusters.size(); ++id)
    if (clusters[id].live) pending.push_back(static_cast<int>(id));
  std::sort(pending.begin(), pending.end(),
            [&](int x, int y) { return clusters[x].seq < clusters[y].seq; });
  for (const int id : pending) flush(id);
  return out;
}

std::optional<NoiseProgram> lower_spliced(const NoiseModel& model,
                                          const circ::Circuit& base_circuit,
                                          const NoiseProgram& base,
                                          const circ::Circuit& c,
                                          std::size_t shared_ops) {
  if (!base.has_resume_info()) return std::nullopt;
  if (shared_ops == 0 || shared_ops > base_circuit.size() ||
      shared_ops > c.size())
    return std::nullopt;
  if (c.num_qubits() != base_circuit.num_qubits()) return std::nullopt;

  Lowerer lowerer(model, c, /*record=*/false);
  return lowerer.splice_from(base_circuit, base, shared_ops);
}

}  // namespace charter::noise
