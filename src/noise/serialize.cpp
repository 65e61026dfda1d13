#include "noise/serialize.hpp"

#include <string>

#include "util/byte_io.hpp"
#include "util/error.hpp"

namespace charter::noise {

namespace {

// 'C' 'H' 'P' 0x02 — the trailing byte tracks the tape schema version,
// like the disk cache's "CHD\1".
constexpr std::uint8_t kMagic[4] = {'C', 'H', 'P', 2};
constexpr std::uint32_t kFormatVersion = 2;

/// Counts an absurd header cannot exceed — 1 << 28 ops/payloads is far
/// beyond any real tape and keeps corrupt counts from driving huge
/// allocations (same bound as the disk cache).
constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 28;

/// Widest register a tape can address; TapeOp operands are int16 and the
/// engines cap far lower, so anything bigger is corrupt input.
constexpr std::int32_t kMaxQubits = 64;

void write_cplx(util::ByteWriter& w, const math::cplx& v) {
  w.f64(v.real());
  w.f64(v.imag());
}

math::cplx read_cplx(util::ByteReader& r) {
  const double re = r.f64();
  const double im = r.f64();
  return {re, im};
}

[[noreturn]] void reject(const std::string& what) {
  throw InvalidArgument("tape blob: " + what);
}

std::uint64_t checked_count(util::ByteReader& r, const char* what) {
  const std::uint64_t n = r.u64();
  if (n > kMaxCount)
    reject(std::string(what) + " count " + std::to_string(n) +
           " exceeds the sanity bound");
  return n;
}

/// Operand arity and payload side-array of each op kind, for validation.
struct KindShape {
  int operands;      ///< how many of q0/q1/q2 must be valid qubits
  int payload_kind;  ///< 0 none, 1 mats, 2 diags, 3 kraus, 4 mats4, 5 mats8
};

KindShape shape_of(TapeOpKind kind) {
  switch (kind) {
    case TapeOpKind::kUnitary1q: return {1, 1};
    case TapeOpKind::kDiag1q: return {1, 2};
    case TapeOpKind::kCx: return {2, 0};
    case TapeOpKind::kDiag2q: return {2, 2};
    case TapeOpKind::kThermal: return {1, 0};
    case TapeOpKind::kDepol1q: return {1, 0};
    case TapeOpKind::kDepol2q: return {2, 0};
    case TapeOpKind::kBitflip: return {1, 0};
    case TapeOpKind::kKraus1q: return {1, 3};
    case TapeOpKind::kUnitary2q: return {2, 4};
    case TapeOpKind::kUnitary3q: return {3, 5};
  }
  reject("unknown op kind " +
         std::to_string(static_cast<unsigned>(kind)));
}

}  // namespace

std::vector<std::uint8_t> serialize_tape(const NoiseProgram& p) {
  util::ByteWriter w;
  for (const std::uint8_t b : kMagic) w.u8(b);
  w.u32(kFormatVersion);
  w.i32(p.num_qubits_);
  w.u8(static_cast<std::uint8_t>(p.level_));
  w.u64(p.ops_.size());
  w.u64(p.mats_.size());
  w.u64(p.diags_.size());
  w.u64(p.kraus_sets_.size());
  w.u64(p.mats4_.size());
  w.u64(p.mats8_.size());
  w.u64(p.op_end_.size());
  w.u64(p.prologue_end_);
  for (const TapeOp& op : p.ops_) {
    w.u8(static_cast<std::uint8_t>(op.kind));
    w.i16(op.q0);
    w.i16(op.q1);
    w.i16(op.q2);
    w.u32(op.payload);
    w.f64(op.a);
    w.f64(op.b);
  }
  for (const math::Mat2& m : p.mats_)
    for (const math::cplx& v : m.m) write_cplx(w, v);
  for (const auto& d : p.diags_)
    for (const math::cplx& v : d) write_cplx(w, v);
  for (const auto& set : p.kraus_sets_) {
    w.u32(set.offset);
    w.u32(set.count);
  }
  for (const math::Mat4& m : p.mats4_)
    for (const math::cplx& v : m.m) write_cplx(w, v);
  for (const auto& m : p.mats8_)
    for (const math::cplx& v : m) write_cplx(w, v);
  for (const std::size_t e : p.op_end_) w.u64(e);
  const std::uint64_t check = util::checksum(w.data());
  w.u64(check);
  return w.take();
}

NoiseProgram deserialize_tape(std::span<const std::uint8_t> bytes) {
  // Authenticate the whole blob before parsing any of it: the checksum is
  // the last 8 bytes, over everything that precedes it.
  if (bytes.size() < sizeof(kMagic) + sizeof(std::uint64_t))
    reject("shorter than magic + checksum (" + std::to_string(bytes.size()) +
           " bytes)");
  for (std::size_t i = 0; i < sizeof(kMagic); ++i)
    if (bytes[i] != kMagic[i]) reject("bad magic (not a CHP tape blob)");
  const std::span<const std::uint8_t> body =
      bytes.first(bytes.size() - sizeof(std::uint64_t));
  util::ByteReader tail(bytes.last(sizeof(std::uint64_t)), "tape blob");
  if (tail.u64() != util::checksum(body)) reject("checksum mismatch");

  util::ByteReader r(body, "tape blob");
  for (std::size_t i = 0; i < sizeof(kMagic); ++i) r.u8();  // validated above
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion)
    reject("unsupported format version " + std::to_string(version) +
           " (this build reads version " + std::to_string(kFormatVersion) +
           ")");
  const std::int32_t num_qubits = r.i32();
  if (num_qubits < 1 || num_qubits > kMaxQubits)
    reject("implausible register width " + std::to_string(num_qubits));
  const std::uint8_t level = r.u8();
  if (level != static_cast<std::uint8_t>(OptLevel::kExact) &&
      level != static_cast<std::uint8_t>(OptLevel::kFusedWide))
    reject("unknown optimization level " + std::to_string(level));
  const std::uint64_t num_ops = checked_count(r, "op");
  const std::uint64_t num_mats = checked_count(r, "mat");
  const std::uint64_t num_diags = checked_count(r, "diag");
  const std::uint64_t num_kraus = checked_count(r, "kraus-set");
  const std::uint64_t num_mats4 = checked_count(r, "mat4");
  const std::uint64_t num_mats8 = checked_count(r, "mat8");
  const std::uint64_t num_op_end = checked_count(r, "boundary");
  const std::uint64_t prologue_end = r.u64();
  if (prologue_end > num_ops) reject("prologue extends past the tape");

  NoiseProgram p(num_qubits);
  p.level_ = static_cast<OptLevel>(level);
  p.prologue_end_ = static_cast<std::size_t>(prologue_end);

  const auto slot_count = [&](int payload_kind) -> std::uint64_t {
    switch (payload_kind) {
      case 1: return num_mats;
      case 2: return num_diags;
      case 3: return num_kraus;
      case 4: return num_mats4;
      case 5: return num_mats8;
      default: return 0;
    }
  };
  p.ops_.reserve(static_cast<std::size_t>(num_ops));
  for (std::uint64_t i = 0; i < num_ops; ++i) {
    TapeOp op;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(TapeOpKind::kUnitary3q))
      reject("op " + std::to_string(i) + ": unknown kind " +
             std::to_string(kind));
    op.kind = static_cast<TapeOpKind>(kind);
    op.q0 = r.i16();
    op.q1 = r.i16();
    op.q2 = r.i16();
    op.payload = r.u32();
    op.a = r.f64();
    op.b = r.f64();
    const KindShape shape = shape_of(op.kind);
    const std::int16_t operands[3] = {op.q0, op.q1, op.q2};
    for (int k = 0; k < shape.operands; ++k)
      if (operands[k] < 0 || operands[k] >= num_qubits)
        reject("op " + std::to_string(i) + ": qubit operand " +
               std::to_string(operands[k]) + " outside the " +
               std::to_string(num_qubits) + "-qubit register");
    // Coincident operands would reach the kernels as a repeated mask: a
    // two-qubit depolarizing block on {q, q} is not even a channel.
    for (int k = 1; k < shape.operands; ++k)
      for (int m = 0; m < k; ++m)
        if (operands[k] == operands[m])
          reject("op " + std::to_string(i) + ": qubit operand " +
                 std::to_string(operands[k]) + " repeats");
    if (shape.payload_kind != 0 && op.payload >= slot_count(shape.payload_kind))
      reject("op " + std::to_string(i) + ": payload slot " +
             std::to_string(op.payload) + " out of range");
    p.ops_.push_back(op);
  }

  p.mats_.resize(static_cast<std::size_t>(num_mats));
  for (auto& m : p.mats_)
    for (auto& v : m.m) v = read_cplx(r);
  p.diags_.resize(static_cast<std::size_t>(num_diags));
  for (auto& d : p.diags_)
    for (auto& v : d) v = read_cplx(r);
  p.kraus_sets_.resize(static_cast<std::size_t>(num_kraus));
  for (std::size_t i = 0; i < p.kraus_sets_.size(); ++i) {
    auto& set = p.kraus_sets_[i];
    set.offset = r.u32();
    set.count = r.u32();
    if (std::uint64_t{set.offset} + set.count > num_mats)
      reject("kraus set " + std::to_string(i) + ": range [" +
             std::to_string(set.offset) + ", " +
             std::to_string(set.offset + set.count) +
             ") outside the mat array");
  }
  p.mats4_.resize(static_cast<std::size_t>(num_mats4));
  for (auto& m : p.mats4_)
    for (auto& v : m.m) v = read_cplx(r);
  p.mats8_.resize(static_cast<std::size_t>(num_mats8));
  for (auto& m : p.mats8_)
    for (auto& v : m) v = read_cplx(r);

  p.op_end_.reserve(static_cast<std::size_t>(num_op_end));
  std::uint64_t prev = prologue_end;
  for (std::uint64_t i = 0; i < num_op_end; ++i) {
    const std::uint64_t e = r.u64();
    if (e < prev || e > num_ops)
      reject("boundary " + std::to_string(i) + " = " + std::to_string(e) +
             " is not a monotone tape position");
    p.op_end_.push_back(static_cast<std::size_t>(e));
    prev = e;
  }
  r.expect_end();
  return p;
}

}  // namespace charter::noise
