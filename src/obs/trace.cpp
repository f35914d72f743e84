#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <ostream>
#include <vector>

#include "obs/export.hpp"
#include "obs/thread_buffers.hpp"

namespace mldcs::obs {

namespace {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct TraceEvent {
  const char* name;
  std::int64_t t0_ns;   ///< relative to the trace epoch
  std::int64_t dur_ns;
};

using Buffers = detail::ThreadBuffers<TraceEvent>;

struct TraceState {
  std::atomic<bool> enabled{false};
  std::atomic<std::int64_t> epoch_ns{0};
};

TraceState& state() {
  // Leaked: worker threads may record spans during static teardown.
  static TraceState* s = new TraceState;
  return *s;
}

}  // namespace

void trace_start() {
  TraceState& s = state();
  std::int64_t expected = 0;
  // First start fixes the epoch; restarts keep it so event timestamps from
  // separate start/stop windows stay on one timeline.
  s.epoch_ns.compare_exchange_strong(expected, now_ns(),
                                     std::memory_order_relaxed);
  s.enabled.store(true, std::memory_order_relaxed);
}

void trace_stop() {
  state().enabled.store(false, std::memory_order_relaxed);
}

bool trace_enabled() noexcept {
  return state().enabled.load(std::memory_order_relaxed);
}

TraceSpan::TraceSpan(const char* name) noexcept
    : name_(trace_enabled() ? name : nullptr) {
  if (name_ != nullptr) t0_ns_ = now_ns();
}

TraceSpan::~TraceSpan() {
  if (name_ == nullptr) return;
  const std::int64_t t1 = now_ns();
  const std::int64_t epoch = state().epoch_ns.load(std::memory_order_relaxed);
  Buffers::append({name_, t0_ns_ - epoch, t1 - t0_ns_});
}

void write_trace_json(std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  Buffers::for_each([&](std::uint32_t tid, std::vector<TraceEvent>& events) {
    for (const TraceEvent& e : events) {
      if (!first) os << ",";
      first = false;
      // chrome://tracing wants microsecond timestamps; fractional values
      // keep the ns resolution.
      os << "{\"name\":\"" << json_escape(e.name)
         << "\",\"cat\":\"mldcs\",\"ph\":\"X\",\"pid\":0,\"tid\":" << tid
         << ",\"ts\":" << static_cast<double>(e.t0_ns) / 1e3
         << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1e3 << "}";
    }
    events.clear();
  });
  os << "]}\n";
}

void trace_clear() {
  Buffers::for_each(
      [](std::uint32_t, std::vector<TraceEvent>& events) { events.clear(); });
}

}  // namespace mldcs::obs
