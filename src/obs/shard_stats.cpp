#include "obs/shard_stats.hpp"

#include <mutex>
#include <string>
#include <utility>

namespace mldcs::obs {

namespace {

/// Provider registration is cold-path (engine construction/destruction)
/// and reads come from introspection/blackbox threads, never from the
/// simulation step — a plain mutex is fine here.  The installed callback
/// itself must still be cheap and thread-safe (the engine reads relaxed
/// atomics), because it runs under this mutex on a foreign thread.
struct ProviderState {
  std::mutex mu;
  const void* owner = nullptr;
  ShardStatsFn fn;
};

ProviderState& provider_state() {
  static ProviderState* s = new ProviderState();  // leaked: callable at exit
  return *s;
}

}  // namespace

void append_shard_json(std::string& out, const ShardStat& s) {
  out += "{\"shard\":";
  out += std::to_string(s.shard);
  out += ",\"owned\":";
  out += std::to_string(s.owned);
  out += ",\"halo\":";
  out += std::to_string(s.halo);
  out += ",\"incoming\":";
  out += std::to_string(s.incoming);
  out += ",\"dirty\":";
  out += std::to_string(s.dirty);
  out += ",\"step_ns\":";
  out += std::to_string(s.step_ns);
  out += ",\"barrier_wait_ns\":";
  out += std::to_string(s.barrier_wait_ns);
  out += '}';
}

void set_shard_stats_provider(const void* owner, ShardStatsFn fn) {
  ProviderState& s = provider_state();
  const std::scoped_lock lock(s.mu);
  s.owner = owner;
  s.fn = std::move(fn);
}

void clear_shard_stats_provider(const void* owner) {
  ProviderState& s = provider_state();
  const std::scoped_lock lock(s.mu);
  if (s.owner != owner) return;  // a later engine already took over
  s.owner = nullptr;
  s.fn = nullptr;
}

std::uint64_t shard_stats(std::vector<ShardStat>& out) {
  out.clear();
  ProviderState& s = provider_state();
  const std::scoped_lock lock(s.mu);
  if (!s.fn) return 0;
  return s.fn(out);
}

}  // namespace mldcs::obs
