#pragma once

/// \file worker.hpp
/// Child worker processes for multi-process sweep sharding.
///
/// The multi-process execution path fans checkpoint-segment shards out to
/// `charter worker` children.  Each worker is a forked (or fork+exec'd)
/// process holding one end of a socketpair; the parent ships it serialized
/// work units and reads back raw probability doubles.  The framing reuses
/// the charterd line-protocol discipline (docs/protocol.md): one
/// newline-terminated JSON header per message, followed by the exact
/// binary payloads the header announces.
///
/// Requests (parent -> worker):
///
///   {"op":"tape_run","id":N,"tape_bytes":B1,"state_bytes":B2,
///    "resume_pos":P}\n  <B1 tape blob>  <B2 snapshot blob>
///       load the snapshot, interpret ops [P, size).
///
///   {"op":"traj_group","id":N,"tape_bytes":B,"begin":x,"end":y,
///    "seed":"<decimal u64>"}\n  <B tape blob>
///       run trajectories [x, y) of the family rooted at Rng(seed) and
///       return the group's probability sum.  The seed travels as a
///       decimal *string*: JSON numbers are doubles and would mangle
///       high-entropy 64-bit seeds.
///
/// Responses (worker -> parent):
///
///   {"ok":true,"id":N,"count":C}\n  <C x f64 raw>  <u64 checksum>
///   {"ok":false,"id":N,"error":{"code":"...","message":"..."}}\n
///
/// The tape ("CHP\2") and snapshot ("CHS\1") blobs carry raw double bits,
/// and the reply doubles come back raw with a trailing checksum, so a
/// worker's numbers are bit-identical to the same interpretation run
/// in-process — the submission-index-ordered reduction in BatchRunner then
/// preserves the bit-identical-at-any-width contract.
///
/// Fault model: a worker that dies mid-request (SIGKILL, OOM) surfaces as
/// EOF/EPIPE on the socket; the parent marks it dead, reaps it with
/// waitpid, and retries the unit in-process.  A worker that hits a
/// structured error (malformed request — a parent bug) replies with an
/// error line and stays alive.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <sys/types.h>
#include <vector>

namespace charter::exec {

/// Serves worker requests on \p fd until EOF (parent closed the socket).
/// Returns the process exit code.  This is the body of the `charter
/// worker --fd N` subcommand and of forked in-binary workers.
///
/// Fault injection: when the environment variable CHARTER_WORKER_KILL_AFTER
/// is set to K, the worker raises SIGKILL on itself after serving K
/// requests — the deterministic hook the worker-kill tests use.
int worker_serve(int fd);

/// One child worker and the parent's end of its socketpair.
///
/// With an empty \p exe the child is a plain fork() that calls
/// worker_serve() directly in the child image (cheap, used by tests and
/// library callers).  With a non-empty \p exe the child fork+execs
/// `<exe> worker --fd N` — the production path for the CLI and charterd,
/// which keeps the child address space fresh.
///
/// Not thread-safe: each driver thread owns one WorkerProcess.
class WorkerProcess {
 public:
  /// \p close_in_child lists parent-side fds of *other* workers that this
  /// child inherits across fork and must close before serving.  Without
  /// this, a sibling's duplicate keeps a closed socket half-open: the
  /// earlier child never sees EOF when the parent hangs up, so it never
  /// exits and the parent's reaping waitpid blocks forever.  WorkerSet
  /// threads this through; single-worker callers can omit it.
  explicit WorkerProcess(const std::string& exe,
                         const std::vector<int>& close_in_child = {});
  ~WorkerProcess();

  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  /// False once the child died or the socket broke; a dead worker is
  /// never revived — the caller runs remaining units in-process.
  bool alive() const { return alive_; }

  /// Ships a tape + snapshot and returns the child's
  /// probabilities.  nullopt on any failure: worker death (alive()
  /// flips false) or a structured error reply (alive() stays true).
  /// Either way the caller retries the unit in-process.
  std::optional<std::vector<double>> run_tape(
      std::span<const std::uint8_t> tape_bytes, std::size_t resume_pos,
      std::span<const std::uint8_t> snapshot_bytes);

  /// Ships a tape and a trajectory-group assignment; returns the group's
  /// probability sum (same semantics as sim::run_trajectory_group).
  std::optional<std::vector<double>> run_trajectory_group(
      std::span<const std::uint8_t> tape_bytes, int begin, int end,
      std::uint64_t seed);

 private:
  friend class WorkerSet;  // reads fd_ to build close_in_child lists

  std::optional<std::vector<double>> transact(
      const std::string& header,
      std::span<const std::span<const std::uint8_t>> blobs);
  void mark_dead();

  int fd_ = -1;
  pid_t pid_ = -1;
  bool alive_ = false;
  std::uint64_t next_id_ = 1;
  std::string pending_;  ///< bytes read past the last parsed header line
};

/// A fixed-size set of workers, one per driver thread.
class WorkerSet {
 public:
  WorkerSet(int count, const std::string& exe);

  std::size_t size() const { return workers_.size(); }
  WorkerProcess& worker(std::size_t i) { return *workers_[i]; }

 private:
  std::vector<std::unique_ptr<WorkerProcess>> workers_;
};

}  // namespace charter::exec
