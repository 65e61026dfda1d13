#pragma once

/// \file snapshot.hpp
/// Versioned, checksummed binary serialization of engine state snapshots.
///
/// A checkpoint snapshot is exactly what NoisyEngine::save_state produces:
/// a width plus a flat complex vector (vec(rho) for the density-matrix
/// engine, amplitudes for a statevector).  This module gives those bytes a
/// wire format so the multi-process sweep can ship a resume state to a
/// `charter worker` child, which load_state()s it and interprets the
/// accompanying tape (noise/serialize.hpp) from the resume position —
/// raw double bits end to end, so the child's numbers are bit-identical
/// to an in-process resume.
///
/// Wire format "CHS\1" (little-endian; same header discipline as the disk
/// cache's "CHD\1" and the tape's "CHP\2"):
///
///   magic      'C' 'H' 'S' 0x01
///   version    u32 == 1
///   num_qubits i32
///   count      u64 (complex entries)
///   state      count x (re f64, im f64)
///   check      u64 over every preceding byte
///
/// count must be 2^n (a statevector) or 4^n (vec(rho)) for the header's
/// width n, and the state must hold exactly count entries.
///
/// deserialize_snapshot() throws charter::InvalidArgument on truncated,
/// corrupt, wrong-magic, or wrong-version input — never UB — and checks the
/// count against the width and the bytes present before it allocates.

#include <cstdint>
#include <span>
#include <vector>

#include "math/amp_buffer.hpp"

namespace charter::sim {

/// A deserialized snapshot: the register width the state was saved at
/// plus the flat state vector save_state() produced.
struct SnapshotData {
  int num_qubits = 0;
  math::AmpBuffer state;
};

/// Serializes one engine snapshot to the "CHS\1" byte format.
std::vector<std::uint8_t> serialize_snapshot(
    int num_qubits, std::span<const math::cplx> state);

/// Parses a "CHS\1" blob.  Throws InvalidArgument on malformed input.
SnapshotData deserialize_snapshot(std::span<const std::uint8_t> bytes);

}  // namespace charter::sim
