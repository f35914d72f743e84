#include "obs/blackbox.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "obs/event_log.hpp"
#include "obs/export.hpp"
#include "obs/profiler.hpp"
#include "obs/seq_ring.hpp"
#include "obs/shard_stats.hpp"
#include "obs/telemetry.hpp"

namespace mldcs::obs {

namespace {

// ---------------------------------------------------------------------------
// Async-signal-safe primitives.  Everything the dump path touches is below
// this line, a SeqRing read, or an atomic load: no malloc, no stdio, no
// locks.

/// write(2) the whole buffer, retrying EINTR; short writes keep going.
void safe_write(int fd, const char* p, std::size_t n) noexcept {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;  // nothing useful to do with a failing fd in a crash path
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// write(2) v in decimal.
void write_u64(int fd, std::uint64_t v) noexcept {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  char buf[20];
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  safe_write(fd, buf, n);
}

/// write(2) `text` as the body of a JSON string, escaped as json_escape
/// does (quote and backslash get a backslash, control characters become a
/// space), through a stack buffer: no allocation, no strlen.
void write_json_escaped(int fd, const char* text) noexcept {
  char buf[256];
  std::size_t n = 0;
  for (; *text != '\0'; ++text) {
    if (n + 2 > sizeof(buf)) {
      safe_write(fd, buf, n);
      n = 0;
    }
    const char c = *text;
    if (c == '"' || c == '\\') buf[n++] = '\\';
    buf[n++] = static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  safe_write(fd, buf, n);
}

/// The signals the crash handler covers, and their report reasons.
constexpr int kCrashSignals[3] = {SIGSEGV, SIGABRT, SIGBUS};
constexpr const char* kCrashSignalNames[3] = {"SIGSEGV", "SIGABRT", "SIGBUS"};

// ---------------------------------------------------------------------------
// Recorder state.

constexpr std::size_t kFrameBytes = 4096;
/// Bytes a frame may fill before its `,"truncated":true}\n` suffix.
constexpr std::size_t kFrameBudget = kFrameBytes - 32;
constexpr std::size_t kTailBytes = 16384;
constexpr std::size_t kMaxFrames = 256;
constexpr std::size_t kMaxTail = 256;

using FrameRing = detail::SeqRing<kFrameBytes>;

struct State {
  // Arm/heartbeat side (normal context only).
  std::mutex hb_mu;  ///< serializes arm/disarm/heartbeat; never on dump path
  std::vector<std::pair<std::string, std::uint64_t>> prev_counters;
  std::vector<ShardStat> shard_scratch;
  std::size_t event_tail_cap = 64;

  // Shared with the dump path: atomics, plus strings and rings set up
  // before `armed` is published.
  std::atomic<bool> armed{false};
  /// Collapses concurrent/reentrant dumps, and keeps dumps out while
  /// blackbox_arm rebuilds the state below.
  std::atomic<int> dumping{0};
  std::atomic<std::uint64_t> heartbeats{0};
  std::string path;
  std::string header;  ///< pre-serialized up to ...,"reason":"
  std::unique_ptr<FrameRing> frames;  ///< reused across rearms of one size
  /// Newest event tail, one JSON line per event; two slots, so a dump
  /// always finds the previous tail while the next is being written.
  detail::SeqRing<kTailBytes> tail{2};
  bool handlers_installed = false;
  struct sigaction prev_sa[3] = {};  ///< per kCrashSignals entry
};

State& state() {
  // Leaked: the crash handler may fire during static teardown.
  static State* s = new State;
  return *s;
}

/// The report writer.  Callable from signal context: only atomics,
/// open/write, SeqRing copies and stack buffers.  Returns heartbeat
/// frames written, or -1 when disarmed / already dumping / the file
/// cannot be opened.
long dump_impl(State& s, const char* reason) noexcept {
  // The flag comes first: blackbox_arm holds it while it rebuilds the
  // path, header and rings, so once it is ours the armed state stays put.
  int expected = 0;
  if (!s.dumping.compare_exchange_strong(expected, 1,
                                         std::memory_order_acq_rel)) {
    return -1;  // another dump or a re-arm in flight
  }
  if (!s.armed.load(std::memory_order_acquire)) {
    s.dumping.store(0, std::memory_order_release);
    return -1;
  }
  const int fd = ::open(s.path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    s.dumping.store(0, std::memory_order_release);
    return -1;
  }

  // Header: pre-serialized prefix + reason + close.
  safe_write(fd, s.header.data(), s.header.size());
  write_json_escaped(fd, reason);
  safe_write(fd, "\"}\n", 3);

  const std::size_t written = s.frames->for_each_oldest_first(
      [fd](const char* p, std::size_t n) { safe_write(fd, p, n); });

  // The event tail, then the profiler's appendix line (present when the
  // sampling profiler is or was armed); one buffer serves both.
  char buf[kTailBytes];
  const std::size_t tail_len = s.tail.copy_newest(buf, sizeof(buf));
  safe_write(fd, buf, tail_len);
  std::uint64_t tail_events = 0;
  for (std::size_t i = 0; i < tail_len; ++i) tail_events += buf[i] == '\n';
  safe_write(fd, buf, profiler_crash_snapshot(buf, sizeof(buf)));

  safe_write(fd, "{\"kind\":\"end\",\"frames\":", 23);
  write_u64(fd, written);
  safe_write(fd, ",\"events\":", 10);
  write_u64(fd, tail_events);
  safe_write(fd, "}\n", 2);
  ::close(fd);
  s.dumping.store(0, std::memory_order_release);
  return static_cast<long>(written);
}

void crash_handler(int sig) {
  State& s = state();
  for (int i = 0; i < 3; ++i) {
    if (kCrashSignals[i] != sig) continue;
    dump_impl(s, kCrashSignalNames[i]);
    ::sigaction(sig, &s.prev_sa[i], nullptr);
  }
  ::raise(sig);  // re-deliver to the restored (usually default) disposition
}

// ---------------------------------------------------------------------------
// Heartbeat serialization (normal context; allocation fine).

/// Append `head`, then as many of the section's `n` comma-separated
/// entries (each built by `entry(out, i)`) as fit whole, then `close`; a
/// section whose head does not fit is left out.  Returns false when
/// anything was left out.
template <typename Entry>
bool append_section(std::string& frame, std::string_view head, char close,
                    std::size_t n, Entry&& entry) {
  if (frame.size() + head.size() + 1 > kFrameBudget) return false;
  frame += head;
  std::string e;
  for (std::size_t i = 0; i < n; ++i) {
    e.clear();
    if (i > 0) e += ',';
    entry(e, i);
    if (frame.size() + e.size() + 1 > kFrameBudget) {
      frame += close;
      return false;
    }
    frame += e;
  }
  frame += close;
  return true;
}

void append_key(std::string& out, const std::string& name) {
  out += '"';
  out += json_escape(name);
  out += "\":";
}

}  // namespace

bool blackbox_arm(const BlackBoxConfig& config) {
  State& s = state();
  const std::scoped_lock lock(s.hb_mu);
  if (s.armed.load(std::memory_order_relaxed)) return false;
  if (config.path == nullptr || *config.path == '\0') return false;

  // Fail fast on an unwritable destination — a crash is the wrong moment
  // to discover a bad path.
  const int fd = ::open(config.path, O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return false;
  ::close(fd);

  // A dump that passed its checks before a disarm may still be reading
  // the path, header and rings; take its flag before replacing them.
  int idle = 0;
  while (!s.dumping.compare_exchange_weak(idle, 1,
                                          std::memory_order_acquire)) {
    idle = 0;
    std::this_thread::yield();
  }
  s.path = config.path;

  const std::size_t n =
      std::clamp<std::size_t>(config.frames, 1, kMaxFrames);
  if (s.frames == nullptr || s.frames->slots() != n) {
    s.frames = std::make_unique<FrameRing>(n);
  }
  s.frames->clear();
  s.tail.clear();
  s.heartbeats.store(0, std::memory_order_relaxed);
  s.event_tail_cap = std::clamp<std::size_t>(config.event_tail, 1, kMaxTail);
  s.prev_counters.clear();

  s.header = "{\"kind\":\"header\",\"schema\":\"mldcs-blackbox-v1\",\"pid\":";
  s.header += std::to_string(::getpid());
  s.header += ",\"frames\":";
  s.header += std::to_string(n);
  s.header += ",\"event_tail\":";
  s.header += std::to_string(s.event_tail_cap);
  s.header += ",\"path\":\"";
  s.header += json_escape(s.path);
  s.header += "\",\"reason\":\"";

  if (config.install_signal_handlers) {
    struct sigaction sa = {};
    sa.sa_handler = crash_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    for (int i = 0; i < 3; ++i) {
      ::sigaction(kCrashSignals[i], &sa, &s.prev_sa[i]);
    }
    s.handlers_installed = true;
  }

  s.armed.store(true, std::memory_order_release);
  s.dumping.store(0, std::memory_order_release);
  return true;
}

void blackbox_disarm() {
  State& s = state();
  const std::scoped_lock lock(s.hb_mu);
  if (!s.armed.load(std::memory_order_relaxed)) return;
  if (s.handlers_installed) {
    for (int i = 0; i < 3; ++i) {
      ::sigaction(kCrashSignals[i], &s.prev_sa[i], nullptr);
    }
    s.handlers_installed = false;
  }
  s.armed.store(false, std::memory_order_release);
}

bool blackbox_armed() noexcept {
  return state().armed.load(std::memory_order_acquire);
}

std::uint64_t blackbox_heartbeat_count() noexcept {
  return state().heartbeats.load(std::memory_order_relaxed);
}

// Alloc-exempt: heartbeats snapshot the registry and event log (both
// allocate) — they run at the caller's reporting cadence, never inside
// the step hot path (see header).
MLDCS_ALLOC_OK void blackbox_heartbeat(std::uint64_t step) {
  State& s = state();
  if (!s.armed.load(std::memory_order_relaxed)) return;
  const std::scoped_lock lock(s.hb_mu);
  if (!s.armed.load(std::memory_order_relaxed)) return;

  const RegistrySnapshot snap = registry().snapshot();
  const std::uint64_t shard_step = shard_stats(s.shard_scratch);
  const std::vector<Event> events = events_snapshot();
  const std::uint64_t seq = s.heartbeats.load(std::memory_order_relaxed);

  std::string f = "{\"kind\":\"heartbeat\",\"seq\":";
  f += std::to_string(seq);
  f += ",\"step\":";
  f += std::to_string(step);
  bool complete = true;

  // Counters as [absolute, delta-since-previous-frame]; the baseline walk
  // is a two-pointer merge (both sides sorted by name).
  std::size_t p = 0;
  const auto& prev = s.prev_counters;
  complete &= append_section(
      f, ",\"counters\":{", '}', snap.counters.size(),
      [&](std::string& e, std::size_t i) {
        const auto& [name, abs] = snap.counters[i];
        while (p < prev.size() && prev[p].first < name) ++p;
        const std::uint64_t base =
            p < prev.size() && prev[p].first == name ? prev[p].second : 0;
        append_key(e, name);
        e += '[';
        e += std::to_string(abs);
        e += ',';
        e += std::to_string(abs >= base ? abs - base : abs);
        e += ']';
      });
  complete &= append_section(
      f, ",\"gauges\":{", '}', snap.gauges.size(),
      [&](std::string& e, std::size_t i) {
        append_key(e, snap.gauges[i].first);
        e += std::to_string(snap.gauges[i].second);
      });
  complete &= append_section(
      f, ",\"hists\":{", '}', snap.histograms.size(),
      [&](std::string& e, std::size_t i) {
        append_key(e, snap.histograms[i].first);
        e += '[';
        e += std::to_string(snap.histograms[i].second.count);
        e += ',';
        e += std::to_string(snap.histograms[i].second.sum);
        e += ']';
      });
  // Per-shard load table (empty array when no sharded engine is live).
  complete &= append_section(
      f, ",\"shard_step\":" + std::to_string(shard_step) + ",\"shards\":[",
      ']', s.shard_scratch.size(), [&](std::string& e, std::size_t i) {
        append_shard_json(e, s.shard_scratch[i]);
      });
  // Event-log cursor: where the log stood when this frame was cut.
  const std::string cursor =
      ",\"events\":{\"next\":" +
      std::to_string(events.empty() ? 0 : events.back().id + 1) +
      ",\"dropped\":" + std::to_string(events_dropped()) + "}";
  if (f.size() + cursor.size() <= kFrameBudget) {
    f += cursor;
  } else {
    complete = false;
  }
  if (!complete) f += ",\"truncated\":true";
  f += "}\n";
  s.frames->publish(f);

  // The event tail: the newest event_tail_cap events in global order,
  // cut at a line boundary to the newest lines that fit one slot.
  std::string tail;
  const std::size_t keep = std::min(s.event_tail_cap, events.size());
  for (std::size_t i = events.size() - keep; i < events.size(); ++i) {
    append_event_line(tail, events[i], "\"kind\":\"event\",");
  }
  if (tail.size() > kTailBytes) {
    tail.erase(0, tail.find('\n', tail.size() - kTailBytes - 1) + 1);
  }
  s.tail.publish(tail);

  s.heartbeats.fetch_add(1, std::memory_order_relaxed);
  emit_event(EventType::kHeartbeat, static_cast<std::uint32_t>(seq), kNoNode,
             kNoEvent, step);
  s.prev_counters.assign(snap.counters.begin(), snap.counters.end());
}

bool blackbox_dump_now(const char* reason) noexcept {
  State& s = state();
  const long written =
      dump_impl(s, reason != nullptr && *reason != '\0' ? reason : "manual");
  if (written < 0) return false;
  emit_event(EventType::kCrashDump, kNoNode, kNoNode, kNoEvent,
             static_cast<std::uint64_t>(written));
  return true;
}

}  // namespace mldcs::obs
