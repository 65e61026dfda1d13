#include "sim/snapshot.hpp"

#include <string>

#include "util/byte_io.hpp"
#include "util/error.hpp"

namespace charter::sim {

namespace {

constexpr std::uint8_t kMagic[4] = {'C', 'H', 'S', 1};
constexpr std::uint32_t kFormatVersion = 1;

/// 1 << 28 complex entries (4 GiB) is far beyond any engine state; a
/// bigger count is a corrupt header, not a big snapshot.
constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 28;

[[noreturn]] void reject(const std::string& what) {
  throw InvalidArgument("snapshot blob: " + what);
}

}  // namespace

std::vector<std::uint8_t> serialize_snapshot(
    int num_qubits, std::span<const math::cplx> state) {
  util::ByteWriter w;
  for (const std::uint8_t b : kMagic) w.u8(b);
  w.u32(kFormatVersion);
  w.i32(num_qubits);
  w.u64(state.size());
  for (const math::cplx& v : state) {
    w.f64(v.real());
    w.f64(v.imag());
  }
  w.u64(util::checksum(w.data()));
  return w.take();
}

SnapshotData deserialize_snapshot(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < sizeof(kMagic) + sizeof(std::uint64_t))
    reject("shorter than magic + checksum (" + std::to_string(bytes.size()) +
           " bytes)");
  for (std::size_t i = 0; i < sizeof(kMagic); ++i)
    if (bytes[i] != kMagic[i]) reject("bad magic (not a CHS snapshot blob)");
  const std::span<const std::uint8_t> body =
      bytes.first(bytes.size() - sizeof(std::uint64_t));
  util::ByteReader tail(bytes.last(sizeof(std::uint64_t)), "snapshot blob");
  if (tail.u64() != util::checksum(body)) reject("checksum mismatch");

  util::ByteReader r(body, "snapshot blob");
  for (std::size_t i = 0; i < sizeof(kMagic); ++i) r.u8();
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion)
    reject("unsupported format version " + std::to_string(version));
  SnapshotData out;
  out.num_qubits = r.i32();
  if (out.num_qubits < 1 || out.num_qubits > 64)
    reject("implausible register width " + std::to_string(out.num_qubits));
  const std::uint64_t count = r.u64();
  if (count > kMaxCount)
    reject("state count " + std::to_string(count) +
           " exceeds the sanity bound");
  // Everything about count is checked before it sizes an allocation.
  const int n = out.num_qubits;
  const bool statevector = n < 64 && count == std::uint64_t{1} << n;
  const bool density = n < 32 && count == std::uint64_t{1} << (2 * n);
  if (!statevector && !density)
    reject("state count " + std::to_string(count) + " is neither 2^" +
           std::to_string(n) + " nor 4^" + std::to_string(n));
  if (r.remaining() != count * 2 * sizeof(double))
    reject("state count " + std::to_string(count) + " needs " +
           std::to_string(count * 2 * sizeof(double)) + " bytes, " +
           std::to_string(r.remaining()) + " present");
  out.state.resize(static_cast<std::size_t>(count));
  for (auto& v : out.state) {
    const double re = r.f64();
    const double im = r.f64();
    v = {re, im};
  }
  r.expect_end();
  return out;
}

}  // namespace charter::sim
