#include "exec/worker.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "noise/serialize.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "sim/density_matrix.hpp"
#include "sim/snapshot.hpp"
#include "sim/trajectory.hpp"
#include "util/byte_io.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace charter::exec {

namespace {

using service::ErrorCode;
using service::JsonValue;
using service::ProtocolError;

/// A request header cannot legitimately announce more than this per blob;
/// a bigger size is a desynced or corrupt stream, not a big tape.
constexpr std::uint64_t kMaxBlobBytes = std::uint64_t{1} << 31;

// ---- socket I/O ------------------------------------------------------
// Both sides buffer reads through a `pending` string: header lines and
// binary payloads share one stream, so bytes read past a newline must be
// kept for the next field instead of dropped.

bool read_some(int fd, std::string& pending) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      pending.append(buf, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) return false;  // EOF: peer closed or died
    if (errno == EINTR) continue;
    return false;
  }
}

bool read_line(int fd, std::string& pending, std::string& line) {
  for (;;) {
    const std::size_t pos = pending.find('\n');
    if (pos != std::string::npos) {
      line.assign(pending, 0, pos);
      pending.erase(0, pos + 1);
      return true;
    }
    if (!read_some(fd, pending)) return false;
  }
}

bool read_exact(int fd, std::string& pending, std::uint8_t* dst,
                std::size_t n) {
  while (n > 0) {
    if (!pending.empty()) {
      const std::size_t take = std::min(n, pending.size());
      std::memcpy(dst, pending.data(), take);
      pending.erase(0, take);
      dst += take;
      n -= take;
      continue;
    }
    const ssize_t r = ::read(fd, dst, n);
    if (r > 0) {
      dst += r;
      n -= static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

// send() with MSG_NOSIGNAL instead of write(): a dead peer must surface
// as EPIPE, not a process-killing SIGPIPE.
bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w > 0) {
      p += w;
      n -= static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

// ---- worker-side request handling ------------------------------------

std::uint64_t u64_field(const JsonValue& req, const char* key) {
  const JsonValue* v = req.find(key);
  if (v == nullptr || !v->is_number() || v->number < 0)
    throw ProtocolError(ErrorCode::kBadRequest,
                        std::string("missing or invalid '") + key + "'");
  return static_cast<std::uint64_t>(v->number);
}

std::uint64_t blob_size_field(const JsonValue& req, const char* key) {
  const std::uint64_t n = u64_field(req, key);
  if (n > kMaxBlobBytes)
    throw ProtocolError(ErrorCode::kTooLarge,
                        std::string("'") + key + "' exceeds the blob bound");
  return n;
}

// The seed travels as a decimal string: JSON numbers are doubles, which
// cannot carry a high-entropy 64-bit seed exactly.
std::uint64_t seed_field(const JsonValue& req) {
  const JsonValue* v = req.find("seed");
  if (v == nullptr || !v->is_string())
    throw ProtocolError(ErrorCode::kBadRequest,
                        "missing or invalid 'seed' (decimal string)");
  errno = 0;
  char* end = nullptr;
  const unsigned long long s = std::strtoull(v->string.c_str(), &end, 10);
  if (end == v->string.c_str() || *end != '\0' || errno == ERANGE)
    throw ProtocolError(ErrorCode::kBadRequest,
                        "'seed' is not a decimal u64: '" + v->string + "'");
  return s;
}

bool send_error(int fd, std::uint64_t id, ErrorCode code,
                const std::string& message) {
  const std::string line = "{\"ok\":false,\"id\":" + std::to_string(id) +
                           ",\"error\":{\"code\":\"" +
                           service::error_code_name(code) +
                           "\",\"message\":\"" + service::json_escape(message) +
                           "\"}}\n";
  return write_all(fd, line.data(), line.size());
}

bool send_result(int fd, std::uint64_t id, const std::vector<double>& probs) {
  const std::string line = "{\"ok\":true,\"id\":" + std::to_string(id) +
                           ",\"count\":" + std::to_string(probs.size()) +
                           "}\n";
  const std::span<const std::uint8_t> payload(
      reinterpret_cast<const std::uint8_t*>(probs.data()),
      probs.size() * sizeof(double));
  util::ByteWriter check;
  check.u64(util::checksum(payload));
  return write_all(fd, line.data(), line.size()) &&
         write_all(fd, payload.data(), payload.size()) &&
         write_all(fd, check.data().data(), check.size());
}

}  // namespace

int worker_serve(int fd) {
  // A worker child is one core's worth of the parent's sweep: its siblings
  // and the parent's coordinator run beside it.  The mark also keeps a
  // plain-fork child off the kernel pool, whose threads it did not inherit.
  const util::SerialKernels serial;
  long kill_after = -1;
  if (const char* s = std::getenv("CHARTER_WORKER_KILL_AFTER"))
    kill_after = std::strtol(s, nullptr, 10);

  std::string pending;
  std::string line;
  // The engine is the expensive part (16 bytes * 4^n); reuse it across
  // requests of the same width — shard affinity means that is the common
  // case.
  std::unique_ptr<sim::DensityMatrixEngine> engine;
  long served = 0;

  while (read_line(fd, pending, line)) {
    std::uint64_t id = 0;
    // Header errors are fatal: without trusted blob sizes the stream can
    // never be re-synchronized.  Post-blob execution errors are answered
    // with a structured error line and the worker keeps serving.
    try {
      const JsonValue req = service::parse_json(line);
      id = u64_field(req, "id");
      const JsonValue* op = req.find("op");
      if (op == nullptr || !op->is_string())
        throw ProtocolError(ErrorCode::kBadRequest, "missing 'op'");

      if (op->string == "tape_run") {
        const std::uint64_t tape_bytes = blob_size_field(req, "tape_bytes");
        const std::uint64_t state_bytes = blob_size_field(req, "state_bytes");
        const std::uint64_t resume_pos = u64_field(req, "resume_pos");
        std::vector<std::uint8_t> tape_blob(tape_bytes);
        std::vector<std::uint8_t> state_blob(state_bytes);
        if (!read_exact(fd, pending, tape_blob.data(), tape_blob.size()) ||
            !read_exact(fd, pending, state_blob.data(), state_blob.size()))
          return 1;
        bool sent = false;
        try {
          const noise::NoiseProgram tape = noise::deserialize_tape(tape_blob);
          if (!engine || engine->num_qubits() != tape.num_qubits())
            engine =
                std::make_unique<sim::DensityMatrixEngine>(tape.num_qubits());
          const sim::SnapshotData snap = sim::deserialize_snapshot(state_blob);
          if (snap.num_qubits != tape.num_qubits())
            throw ProtocolError(ErrorCode::kBadRequest,
                                "snapshot width does not match the tape");
          if (resume_pos > tape.size())
            throw ProtocolError(ErrorCode::kBadRequest,
                                "resume position past the tape end");
          engine->load_state(snap.state);
          tape.run(*engine, static_cast<std::size_t>(resume_pos), tape.size());
          sent = send_result(fd, id, engine->probabilities());
        } catch (const ProtocolError& e) {
          sent = send_error(fd, id, e.code(), e.what());
        } catch (const InvalidArgument& e) {
          sent = send_error(fd, id, ErrorCode::kBadRequest, e.what());
        } catch (const std::exception& e) {
          sent = send_error(fd, id, ErrorCode::kInternal, e.what());
        }
        if (!sent) return 1;
      } else if (op->string == "traj_group") {
        const std::uint64_t tape_bytes = blob_size_field(req, "tape_bytes");
        const std::uint64_t begin = u64_field(req, "begin");
        const std::uint64_t end = u64_field(req, "end");
        const std::uint64_t seed = seed_field(req);
        std::vector<std::uint8_t> tape_blob(tape_bytes);
        if (!read_exact(fd, pending, tape_blob.data(), tape_blob.size()))
          return 1;
        bool sent = false;
        try {
          // Fits an int here; run_trajectory_group then requires a
          // non-empty part of one fold group (InvalidArgument, answered
          // as bad_request below), which bounds a request's work.
          if (begin > end || end > (std::uint64_t{1} << 30))
            throw ProtocolError(ErrorCode::kBadRequest,
                                "bad trajectory range");
          const noise::NoiseProgram tape = noise::deserialize_tape(tape_blob);
          const util::Rng seeder(seed);
          const std::vector<double> partial = sim::run_trajectory_group(
              tape.num_qubits(), static_cast<int>(begin),
              static_cast<int>(end), seeder,
              [&](sim::NoisyEngine& e) { tape.execute(e); });
          sent = send_result(fd, id, partial);
        } catch (const ProtocolError& e) {
          sent = send_error(fd, id, e.code(), e.what());
        } catch (const InvalidArgument& e) {
          sent = send_error(fd, id, ErrorCode::kBadRequest, e.what());
        } catch (const std::exception& e) {
          sent = send_error(fd, id, ErrorCode::kInternal, e.what());
        }
        if (!sent) return 1;
      } else {
        throw ProtocolError(ErrorCode::kUnknownOp,
                            "unknown op '" + op->string + "'");
      }
    } catch (const ProtocolError& e) {
      send_error(fd, id, e.code(), e.what());
      return 1;
    } catch (const std::exception& e) {
      send_error(fd, id, ErrorCode::kInternal, e.what());
      return 1;
    }

    ++served;
    if (kill_after >= 0 && served >= kill_after) ::raise(SIGKILL);
  }
  return 0;
}

// ---- parent side ------------------------------------------------------

WorkerProcess::WorkerProcess(const std::string& exe,
                             const std::vector<int>& close_in_child) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw Error(std::string("socketpair failed: ") + std::strerror(errno));
  // The parent side must not leak into exec'd children spawned later.
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(fds[0]);
    ::close(fds[1]);
    throw Error(std::string("fork failed: ") + std::strerror(err));
  }
  if (pid == 0) {
    // Drop inherited duplicates of the siblings' parent-side fds (see the
    // ctor doc in worker.hpp); plain-fork children don't get CLOEXEC help.
    for (const int other : close_in_child) ::close(other);
    // Child.  The plain-fork path serves directly from the forked image:
    // it only interprets tapes and does socket I/O (no locks taken across
    // the fork matter — glibc's atfork handlers keep malloc consistent),
    // and _exit() skips the parent's atexit/leak-check hooks.
    ::close(fds[0]);
    if (exe.empty()) ::_exit(worker_serve(fds[1]));
    char fdbuf[16];
    std::snprintf(fdbuf, sizeof(fdbuf), "%d", fds[1]);
    ::execl(exe.c_str(), exe.c_str(), "worker", "--fd", fdbuf,
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);
  fd_ = fds[0];
  pid_ = pid;
  alive_ = true;
}

WorkerProcess::~WorkerProcess() { mark_dead(); }

void WorkerProcess::mark_dead() {
  alive_ = false;
  if (fd_ >= 0) {
    ::close(fd_);  // EOF tells a live child to exit its serve loop
    fd_ = -1;
  }
  if (pid_ > 0) {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
}

std::optional<std::vector<double>> WorkerProcess::run_tape(
    std::span<const std::uint8_t> tape_bytes, std::size_t resume_pos,
    std::span<const std::uint8_t> snapshot_bytes) {
  const std::uint64_t id = next_id_++;
  const std::string header =
      "{\"op\":\"tape_run\",\"id\":" + std::to_string(id) +
      ",\"tape_bytes\":" + std::to_string(tape_bytes.size()) +
      ",\"state_bytes\":" + std::to_string(snapshot_bytes.size()) +
      ",\"resume_pos\":" + std::to_string(resume_pos) + "}\n";
  const std::span<const std::uint8_t> blobs[] = {tape_bytes, snapshot_bytes};
  return transact(header, blobs);
}

std::optional<std::vector<double>> WorkerProcess::run_trajectory_group(
    std::span<const std::uint8_t> tape_bytes, int begin, int end,
    std::uint64_t seed) {
  const std::uint64_t id = next_id_++;
  const std::string header =
      "{\"op\":\"traj_group\",\"id\":" + std::to_string(id) +
      ",\"tape_bytes\":" + std::to_string(tape_bytes.size()) +
      ",\"begin\":" + std::to_string(begin) +
      ",\"end\":" + std::to_string(end) + ",\"seed\":\"" +
      std::to_string(seed) + "\"}\n";
  const std::span<const std::uint8_t> blobs[] = {tape_bytes};
  return transact(header, blobs);
}

std::optional<std::vector<double>> WorkerProcess::transact(
    const std::string& header,
    std::span<const std::span<const std::uint8_t>> blobs) {
  if (!alive_) return std::nullopt;
  if (!write_all(fd_, header.data(), header.size())) {
    mark_dead();
    return std::nullopt;
  }
  for (const std::span<const std::uint8_t> blob : blobs) {
    if (!blob.empty() && !write_all(fd_, blob.data(), blob.size())) {
      mark_dead();
      return std::nullopt;
    }
  }
  std::string line;
  if (!read_line(fd_, pending_, line)) {
    mark_dead();  // EOF mid-reply: the child died (SIGKILL, OOM, crash)
    return std::nullopt;
  }
  try {
    const JsonValue resp = service::parse_json(line);
    const JsonValue* ok = resp.find("ok");
    const JsonValue* rid = resp.find("id");
    if (ok == nullptr || !ok->is_bool() || rid == nullptr ||
        !rid->is_number() ||
        static_cast<std::uint64_t>(rid->number) != next_id_ - 1) {
      mark_dead();  // desynced reply stream
      return std::nullopt;
    }
    if (!ok->boolean) return std::nullopt;  // structured error; worker lives
    const JsonValue* count = resp.find("count");
    if (count == nullptr || !count->is_number() || count->number < 0) {
      mark_dead();
      return std::nullopt;
    }
    std::vector<double> probs(static_cast<std::size_t>(count->number));
    std::uint8_t check_bytes[8];
    if (!read_exact(fd_, pending_,
                    reinterpret_cast<std::uint8_t*>(probs.data()),
                    probs.size() * sizeof(double)) ||
        !read_exact(fd_, pending_, check_bytes, sizeof(check_bytes))) {
      mark_dead();
      return std::nullopt;
    }
    util::ByteReader cr(std::span<const std::uint8_t>(check_bytes, 8),
                        "worker reply");
    const std::span<const std::uint8_t> payload(
        reinterpret_cast<const std::uint8_t*>(probs.data()),
        probs.size() * sizeof(double));
    if (cr.u64() != util::checksum(payload)) {
      mark_dead();  // corrupt payload: do not trust this channel again
      return std::nullopt;
    }
    return probs;
  } catch (const std::exception&) {
    mark_dead();  // malformed reply line
    return std::nullopt;
  }
}

WorkerSet::WorkerSet(int count, const std::string& exe) {
  workers_.reserve(static_cast<std::size_t>(count));
  std::vector<int> parent_fds;
  parent_fds.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.push_back(std::make_unique<WorkerProcess>(exe, parent_fds));
    parent_fds.push_back(workers_.back()->fd_);
  }
}

}  // namespace charter::exec
