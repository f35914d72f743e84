#include "obs/event_log.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <ostream>
#include <span>
#include <string>

#include "core/annotations.hpp"
#include "obs/thread_buffers.hpp"

namespace mldcs::obs {

const char* event_type_name(EventType t) noexcept {
  switch (t) {
    case EventType::kBroadcast:
      return "broadcast";
    case EventType::kTx:
      return "tx";
    case EventType::kRx:
      return "rx";
    case EventType::kDuplicateRx:
      return "dup_rx";
    case EventType::kDesignate:
      return "designate";
    case EventType::kSuppress:
      return "suppress";
    case EventType::kCacheUpdate:
      return "cache_update";
    case EventType::kWatchdogCheck:
      return "watchdog_check";
    case EventType::kWatchdogMismatch:
      return "watchdog_mismatch";
    case EventType::kShardExchange:
      return "shard_exchange";
    case EventType::kHeartbeat:
      return "heartbeat";
    case EventType::kCrashDump:
      return "crash_dump";
  }
  return "unknown";
}

void append_event_line(std::string& out, const Event& e,
                       std::string_view lead) {
  out += '{';
  out += lead;
  out += "\"id\":";
  out += std::to_string(e.id);
  out += ",\"t\":\"";
  out += event_type_name(e.type);
  out += '"';
  if (e.a != kNoNode) {
    out += ",\"a\":";
    out += std::to_string(e.a);
  }
  if (e.b != kNoNode) {
    out += ",\"b\":";
    out += std::to_string(e.b);
  }
  if (e.parent != kNoEvent) {
    out += ",\"parent\":";
    out += std::to_string(e.parent);
  }
  out += ",\"v\":";
  out += std::to_string(e.value);
  out += "}\n";
}

namespace {

using Buffers = detail::ThreadBuffers<Event>;

struct EventState {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> next_id{0};
  std::atomic<std::uint64_t> capacity{kDefaultEventCapacity};
  std::atomic<std::uint64_t> dropped{0};
};

EventState& state() {
  // Leaked: worker threads may emit during static teardown.
  static EventState* s = new EventState;
  return *s;
}

}  // namespace

void events_start(std::size_t capacity) {
  EventState& s = state();
  s.capacity.store(capacity, std::memory_order_relaxed);
  s.enabled.store(true, std::memory_order_relaxed);
}

void events_stop() {
  state().enabled.store(false, std::memory_order_relaxed);
}

bool events_enabled() noexcept {
  return state().enabled.load(std::memory_order_relaxed);
}

// Alloc-exempt: the disarmed emit is one relaxed load; the armed path
// buffers into per-thread storage (bounded by events_start's capacity),
// and benches measure the skyline path events-disarmed at 0 allocs/op.
MLDCS_ALLOC_OK std::uint64_t emit_event(EventType type, std::uint32_t a,
                                        std::uint32_t b, std::uint64_t parent,
                                        std::uint64_t value) noexcept {
  EventState& s = state();
  if (!s.enabled.load(std::memory_order_relaxed)) return kNoEvent;
  const std::uint64_t id = s.next_id.fetch_add(1, std::memory_order_relaxed);
  if (id >= s.capacity.load(std::memory_order_relaxed)) {
    s.dropped.fetch_add(1, std::memory_order_relaxed);
    return kNoEvent;
  }
  Buffers::append({id, parent, value, a, b, type});
  return id;
}

std::uint64_t events_dropped() noexcept {
  return state().dropped.load(std::memory_order_relaxed);
}

void events_clear() {
  Buffers::for_each(
      [](std::uint32_t, std::vector<Event>& events) { events.clear(); });
  EventState& s = state();
  s.next_id.store(0, std::memory_order_relaxed);
  s.dropped.store(0, std::memory_order_relaxed);
}

std::vector<Event> events_snapshot() {
  std::vector<Event> out;
  Buffers::for_each([&out](std::uint32_t, std::vector<Event>& events) {
    out.insert(out.end(), events.begin(), events.end());
  });
  std::sort(out.begin(), out.end(),
            [](const Event& x, const Event& y) { return x.id < y.id; });
  return out;
}

void write_events_jsonl_tail(std::ostream& os, std::size_t tail) {
  const std::vector<Event> events = events_snapshot();
  const std::size_t n = std::min(tail, events.size());
  os << "{\"schema\":\"mldcs-events-v1\",\"enabled\":"
     << (events_enabled() ? "true" : "false") << ",\"count\":" << n
     << ",\"dropped\":" << events_dropped() << "}\n";
  std::string line;
  for (const Event& e : std::span<const Event>(events).last(n)) {
    line.clear();
    append_event_line(line, e);
    os << line;
  }
}

void write_events_jsonl(std::ostream& os) {
  write_events_jsonl_tail(os, std::numeric_limits<std::size_t>::max());
}

}  // namespace mldcs::obs
