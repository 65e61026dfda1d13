#pragma once

/// \file serialize.hpp
/// Versioned, checksummed binary serialization of NoiseProgram tapes.
///
/// A tape is a flat, self-contained structure — typed ops plus payload
/// side arrays — so it round-trips through a byte buffer losslessly: the
/// deserialized tape is op-for-op, payload-for-payload identical
/// (fingerprint() equal, execution bit-identical) to the original.  This
/// is the unit the multi-process sweep ships to `charter worker` child
/// processes (exec/worker.hpp) alongside an engine snapshot
/// (sim/snapshot.hpp).
///
/// Wire format "CHP\2" (all fields little-endian; the layout mirrors the
/// disk cache's "CHD\1" header discipline — magic, version, sizes,
/// payload, trailing checksum; see docs/protocol.md "Worker wire
/// formats"):
///
///   magic        'C' 'H' 'P' 0x02
///   version      u32 == 2 (the tape schema version; bumping the schema in
///                program.cpp obsoletes serialized tapes too)
///   num_qubits   i32
///   level        u8 (OptLevel): 0 exact, 2 fused-wide; any other value
///                is rejected
///   counts       7 x u64: ops, mats, diags, kraus_sets, mats4, mats8,
///                op_end entries
///   prologue_end u64
///   ops          per op: kind u8, q0/q1/q2 i16, payload u32, a/b f64
///   mats         4 complex (8 doubles) each
///   diags        4 complex each
///   kraus_sets   offset u32, count u32 each
///   mats4        16 complex each
///   mats8        64 complex each
///   op_end       u64 each
///   check        u64 over every preceding byte
///
/// ResumeInfo (the splice base's schedule/clock records) is deliberately
/// not serialized: the interpreter never reads it, and the parent process
/// performs all splicing before shipping a tape — has_resume_info() is
/// false after a round-trip.
///
/// deserialize_tape() validates everything before constructing the tape —
/// magic, version, checksum, bounded counts, payload-slot and kraus-range
/// indices, qubit operands within the register — and throws
/// charter::InvalidArgument on any violation.  Corrupt bytes are a
/// structured error, never UB.

#include <cstdint>
#include <span>
#include <vector>

#include "noise/program.hpp"

namespace charter::noise {

/// Serializes \p program to the "CHP\2" byte format.
std::vector<std::uint8_t> serialize_tape(const NoiseProgram& program);

/// Parses a "CHP\2" blob back into a tape.  Throws InvalidArgument on
/// truncated, corrupt, wrong-magic, or wrong-version input.
NoiseProgram deserialize_tape(std::span<const std::uint8_t> bytes);

}  // namespace charter::noise
