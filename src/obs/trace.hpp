#pragma once

/// \file trace.hpp
/// Scoped tracing spans emitting chrome://tracing-compatible trace-event
/// JSON (load the file at chrome://tracing or https://ui.perfetto.dev).
///
/// Usage:
///
///   obs::trace_start();                      // arm collection
///   { obs::TraceSpan span("cache.update");   // RAII: one complete event
///     ... }
///   obs::write_trace_json(out);              // flush all thread buffers
///
/// Design:
///  - **Per-thread buffers.**  Each thread appends completed spans to its
///    own buffer (registered once, kept alive past thread exit), so span
///    recording never contends across threads; the per-buffer mutex is
///    only ever contended by an in-flight flush.
///  - **Runtime arming.**  When tracing is stopped (the default), a span
///    costs one relaxed atomic load — cheap enough to leave spans compiled
///    into steady-state paths like ShardedSkylineCache::step.  Do not put spans
///    in per-arc/per-disk inner loops; counters (telemetry.hpp) are the
///    tool at that granularity.
///
/// Span names must be string literals (or otherwise outlive the flush):
/// buffers store the pointer, not a copy.

#include <cstdint>
#include <iosfwd>

namespace mldcs::obs {

/// Begin collecting spans (clock epoch is set on the first start).
void trace_start();

/// Stop collecting.  Already-recorded events stay buffered until
/// write_trace_json or trace_clear.
void trace_stop();

[[nodiscard]] bool trace_enabled() noexcept;

/// Write every buffered event as one chrome://tracing JSON document and
/// clear the buffers.  Collection state (started/stopped) is unchanged;
/// spans still open on other threads flush with whatever has completed.
void write_trace_json(std::ostream& os);

/// Drop all buffered events.
void trace_clear();

/// RAII span: records one complete ("ph":"X") event on the calling
/// thread's buffer, from construction to destruction, iff tracing was
/// enabled at construction.  `name` must outlive the flush (use literals).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept;
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;  ///< nullptr when disarmed
  std::int64_t t0_ns_ = 0;
};

}  // namespace mldcs::obs
