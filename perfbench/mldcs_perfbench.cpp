/// \file mldcs_perfbench.cpp
/// The repository benchmark binary: keeps every relay's skyline forwarding
/// set (the paper's MLDCS, Theorem 3) current on a seeded workload, floods
/// broadcasts over those sets, and times only calls into the public API of
/// the mldcs libraries.
///
///   mldcs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                   [--scale <f>] [--corrupt-at <op>] [--out-dir <dir>]
///
/// Workloads (all on the Chapter 5 setup scaled up by area, average degree
/// 36.8, square side 12.5 * sqrt(10); see README.md for why each exists):
///   mobility_moderate       ~10k nodes, r ~ U[1,2], random waypoint
///                           v 0.1-0.5, pause 2; one op = one sharded step
///                           plus 4 floods
///   quasi_static_broadcast  same deployment, pause 2000, max_leg 1,
///                           steady-state init; one op = one step plus 8
///                           floods
///   batch_rebuild           ~18k nodes, r = 1; one op = DiskGraph::build +
///                           compute_all_skylines on a fresh deployment plus
///                           4 floods
///
/// Closed loop, one client: an op starts when the previous one finished.
/// Inputs (trajectories, deployments, flood sources, check choices) come
/// from --seed only.  Correctness checks run outside the timed window: the
/// sets observed at a checked op are captured and compared after the loop
/// with an independent recomputation (see verify_mobility / verify_batch).
///
/// End-to-end times are on-CPU critical paths (CpuPath) divided by how much
/// slower than its reference the host ran, as two fixed probes measure it
/// beside every op (HostProbe); README.md, "Timing".
///
/// --trace 0 prints the end-to-end metrics; --trace 1 runs the same loop,
/// alternating untraced and traced ops, records spans around every public
/// call in memory, and prints the per-layer metrics.  The last stdout line
/// is the result object {"correct", "attempted", "failed", "metrics"};
/// the line before it carries provenance.  With --out-dir, the full report
/// (and, traced, every span plus per-span self time) is written there.

#include <pthread.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <latch>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "broadcast/all_skylines.hpp"
#include "broadcast/sharded_cache.hpp"
#include "core/skyline_dc.hpp"
#include "core/skyline_reference.hpp"
#include "geometry/simd.hpp"
#include "net/disk_graph.hpp"
#include "net/mobility.hpp"
#include "net/sharded_engine.hpp"
#include "net/topology.hpp"
#include "obs/shard_stats.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "support/alloc_guard.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace {

using namespace mldcs;
using net::Node;
using net::NodeId;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// --- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  double scale = 1.0;           ///< node-count factor (self-test: tiny runs)
  std::int64_t corrupt_at = -1; ///< op at which to corrupt one cached slot
  std::string out_dir;          ///< where to write the full report
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mldcs_perfbench: " << why
            << "\nusage: mldcs_perfbench --workload <mobility_moderate|"
               "quasi_static_broadcast|batch_rebuild> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <f>] "
               "[--corrupt-at <op>] [--out-dir <dir>]\n";
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    usage("bad value for " + std::string(flag) + ": " + std::string(text));
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = parse_number<std::uint64_t>(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = parse_number<double>(flag, v);
      have_seconds = true;
    } else if (flag == "--trace") {
      const int t = parse_number<int>(flag, v);
      if (t != 0 && t != 1) usage("--trace must be 0 or 1");
      o.trace = t == 1;
      have_trace = true;
    } else if (flag == "--scale") {
      o.scale = parse_number<double>(flag, v);
    } else if (flag == "--corrupt-at") {
      o.corrupt_at = parse_number<std::int64_t>(flag, v);
    } else if (flag == "--out-dir") {
      o.out_dir = v;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(o.seconds > 0.0) || !(o.scale > 0.0) || o.scale > 4.0) {
    usage("--seconds must be > 0 and --scale in (0, 4]");
  }
  return o;
}

// --- tracing ---------------------------------------------------------------

/// In-memory span buffer.  Spans are recorded only by this file, around
/// calls into the libraries; spans of one op share its op id.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  explicit Tracer(bool on) : on_(on) {}

  struct Span {
    const char* name;
    std::uint64_t op;
    std::uint32_t parent;
    std::int64_t t0;
    std::int64_t t1;
  };

  /// Record a closed span [t0, t1]; returns its id.
  std::uint32_t add(const char* name, std::uint64_t op, std::uint32_t parent,
                    std::int64_t t0, std::int64_t t1) {
    if (!on_) return kNone;
    spans_.push_back({name, op, parent, t0, t1});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  /// Open a span whose end is set later by close().
  std::uint32_t open(const char* name, std::uint64_t op,
                     std::uint32_t parent = kNone) {
    return on_ ? add(name, op, parent, now_ns(), 0) : kNone;
  }
  void close(std::uint32_t id) {
    if (id != kNone) spans_[id].t1 = now_ns();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per-name self time (duration minus the time covered by direct
  /// children; children never overlap here), summed, in ns.
  [[nodiscard]] std::map<std::string, std::pair<double, std::uint64_t>>
  self_time() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNone) child[s.parent] += s.t1 - s.t0;
    }
    std::map<std::string, std::pair<double, std::uint64_t>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& [total, count] = out[spans_[i].name];
      total += static_cast<double>(spans_[i].t1 - spans_[i].t0 - child[i]);
      ++count;
    }
    return out;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    m = (m + *std::max_element(v.begin(),
                               v.begin() + static_cast<std::ptrdiff_t>(mid))) /
        2.0;
  }
  return m;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// A tail percentile and the samples behind it.  Each workload fixes its
/// tail percentiles in advance (Workload::update_q / query_q), so every run
/// of a workload reports the same percentile, and a run keeps going until
/// at least ten samples lie beyond it.  The choice is the highest of p90,
/// p95, p99 with ten samples beyond it at the workload's usual sample
/// count, lowered where that percentile sits on host preemption spikes
/// rather than on the program (README.md, "Tails").
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile `q` of `v`.
Tail tail_of(std::vector<double> v, double q) {
  Tail t;
  t.percentile = q;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  t.value = v[idx];
  t.beyond = v.size() - 1 - idx;
  return t;
}

/// Samples needed for at least ten beyond nearest-rank percentile `q`.
std::size_t samples_for_tail(double q) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q / 100.0))) + 1;
}

struct Usage {
  std::int64_t minor_faults = 0;
  std::int64_t ctx_switches = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {ru.ru_minflt, ru.ru_nvcsw + ru.ru_nivcsw};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// On-CPU critical path of an op, with its parallel phases evenly spread:
/// the calling thread's CPU time plus the pool workers' CPU time divided by
/// their number.  The calling thread is blocked while the workers run a
/// parallel phase, so this leaves out every interval in which a thread
/// waited for a core (preempted by another process, or its vCPU taken by
/// the hypervisor).  It is the mean worker, not the busiest, because when
/// one worker is late to wake, another runs two chunks, and how often that
/// happens is the host's doing (README.md, "Timing").  Shard imbalance
/// therefore shows in the traced run's net.* metrics, not here.
class CpuPath {
 public:
  static constexpr std::size_t kMaxWorkers = 4;

  struct Mark {
    std::int64_t main = 0;
    std::array<std::int64_t, kMaxWorkers> workers{};
  };

  /// Learns every worker's CPU clock: one task per worker, each held at a
  /// latch until all have started, so no worker runs two of them.  A pool
  /// of one worker runs parallel work inline on the caller.  The pool has
  /// at most kMaxWorkers workers.
  explicit CpuPath(sim::ThreadPool& pool) {
    if (pool.size() < 2) return;
    workers_.resize(pool.size());
    std::latch started(static_cast<std::ptrdiff_t>(pool.size()));
    for (std::size_t i = 0; i < pool.size(); ++i) {
      pool.submit([this, i, &started] {
        pthread_getcpuclockid(pthread_self(), &workers_[i]);
        started.arrive_and_wait();
      });
    }
    pool.wait_idle();
  }

  [[nodiscard]] Mark mark() const {
    Mark m;
    m.main = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      m.workers[i] = cpu_ns(workers_[i]);
    }
    return m;
  }

  /// Critical-path CPU time since `m`, in ns.
  [[nodiscard]] std::int64_t since(const Mark& m) const {
    std::int64_t workers = 0;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      workers += cpu_ns(workers_[i]) - m.workers[i];
    }
    const std::int64_t main = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - m.main;
    return workers_.empty()
               ? main
               : main + workers / static_cast<std::int64_t>(workers_.size());
  }

 private:
  std::vector<clockid_t> workers_;
};

/// Allocates straight from mmap, past malloc, so the probes' memory leaves
/// the program's heap as it would be without them; through malloc, the
/// probe's blocks changed which heap pages the program's blocks reused and
/// made batch_rebuild's peak_rss_mb vary by 3 MB from run to run.
template <typename T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <typename U>
  explicit PageAllocator(const PageAllocator<U>&) {}
  T* allocate(std::size_t n) {
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) { munmap(p, n * sizeof(T)); }
  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }
};
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

/// Two fixed pieces of work owned by the benchmark, timed on the calling
/// thread before every op to measure how fast the host runs at that
/// moment.  Their inputs are constants and the libraries never run them,
/// so between two runs only the host changes their times.  On a shared
/// host both drift by tens of percent over minutes, and differently
/// (README.md, "Timing"):
/// - core(): eight independent square-root chains, throughput-bound like
///   the skyline kernel's arithmetic, with no memory traffic.  Updates and
///   set-up follow it.
/// - memory(): a breadth-first search over a fixed random disk graph the
///   size of a mobility deployment (9984 nodes, average degree about 45),
///   bound by cache and memory latency like a flood.  Floods follow it.
class HostProbe {
 public:
  HostProbe() {
    constexpr double kSide = 39.528;
    constexpr double kRadius = 1.5;
    constexpr int kGrid = static_cast<int>(kSide / kRadius) + 1;
    const auto cell = [](double v) {
      return std::min(kGrid - 1, static_cast<int>(v / kRadius));
    };
    // Bucket the nodes by grid cell (counting sort).
    sim::Xoshiro256 rng(0x243F6A8885A308D3ULL);
    PageVector<double> x(kNodes), y(kNodes);
    PageVector<std::uint32_t> start(kGrid * kGrid + 1, 0), members(kNodes);
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      x[i] = rng.uniform() * kSide;
      y[i] = rng.uniform() * kSide;
      ++start[static_cast<std::size_t>(cell(x[i]) * kGrid + cell(y[i])) + 1];
    }
    for (std::size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
    PageVector<std::uint32_t> next(start);
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      members[next[static_cast<std::size_t>(cell(x[i]) * kGrid +
                                            cell(y[i]))]++] = i;
    }
    const auto for_each_neighbor = [&](std::uint32_t i, auto&& f) {
      for (int cx = cell(x[i]) - 1; cx <= cell(x[i]) + 1; ++cx) {
        for (int cy = cell(y[i]) - 1; cy <= cell(y[i]) + 1; ++cy) {
          if (cx < 0 || cy < 0 || cx >= kGrid || cy >= kGrid) continue;
          const auto c = static_cast<std::size_t>(cx * kGrid + cy);
          for (std::uint32_t k = start[c]; k < start[c + 1]; ++k) {
            const std::uint32_t j = members[k];
            const double dx = x[i] - x[j], dy = y[i] - y[j];
            if (j != i && dx * dx + dy * dy <= kRadius * kRadius) f(j);
          }
        }
      }
    };
    offsets_.assign(kNodes + 1, 0);
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      offsets_[i + 1] = offsets_[i];
      for_each_neighbor(i, [&](std::uint32_t) { ++offsets_[i + 1]; });
    }
    adjacency_.reserve(offsets_[kNodes]);
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      for_each_neighbor(i, [&](std::uint32_t j) { adjacency_.push_back(j); });
    }
    seen_.assign(kNodes, 0);
    queue_.resize(kNodes);
  }

  /// One run of the arithmetic; its on-CPU time in ms.
  double core() {
    const std::int64_t t0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    std::array<double, 8> x{};
    for (std::size_t j = 0; j < x.size(); ++j) {
      x[j] = static_cast<double>(j + 1);
    }
    for (int i = 0; i < kCoreSteps; ++i) {
      for (double& v : x) v = v * 0.999999 + std::sqrt(v + 1.0) * 1e-6;
    }
    double acc = 0.0;
    for (const double v : x) acc += v;
    sink_ = sink_ + acc;
    return ms(cpu_ns(CLOCK_THREAD_CPUTIME_ID) - t0);
  }

  /// One search, from the next of a fixed sequence of sources; its on-CPU
  /// time in ms.
  double memory() {
    const std::int64_t t0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    src_ = (src_ + 7919) % kNodes;
    ++epoch_;
    std::size_t head = 0, tail = 0;
    queue_[tail++] = src_;
    seen_[src_] = epoch_;
    std::uint64_t acc = 0;
    while (head < tail) {
      const std::uint32_t u = queue_[head++];
      for (std::uint32_t k = offsets_[u]; k < offsets_[u + 1]; ++k) {
        const std::uint32_t v = adjacency_[k];
        acc += v;
        if (seen_[v] != epoch_) {
          seen_[v] = epoch_;
          queue_[tail++] = v;
        }
      }
    }
    sink_ = sink_ + static_cast<double>(acc + tail);
    return ms(cpu_ns(CLOCK_THREAD_CPUTIME_ID) - t0);
  }

 private:
  static constexpr std::uint32_t kNodes = 9984;
  static constexpr int kCoreSteps = 1 << 15;

  PageVector<std::uint32_t> offsets_, adjacency_, seen_, queue_;
  std::uint32_t epoch_ = 0;
  std::uint32_t src_ = 0;
  volatile double sink_ = 0.0;
};

// --- broadcast flood -------------------------------------------------------

struct FloodResult {
  std::uint64_t transmissions = 0;
  std::uint64_t delivered = 0;
  friend bool operator==(const FloodResult&, const FloodResult&) = default;
};

/// Sender-designated broadcast (broadcast_sim.hpp semantics): the source
/// transmits, every transmission reaches the sender's neighbors, and a node
/// re-transmits once iff some sender designated it.  Reads one forwarding
/// set and one neighbor list per transmitter.
class Flooder {
 public:
  explicit Flooder(std::size_t n) : got_(n, 0), sent_(n, 0) {
    queue_.reserve(n);
  }

  template <typename Fwd, typename Nbrs>
  FloodResult run(NodeId src, Fwd&& fwd, Nbrs&& nbrs) {
    ++epoch_;
    queue_.clear();
    queue_.push_back(src);
    sent_[src] = epoch_;
    got_[src] = epoch_;
    FloodResult r{0, 1};
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const NodeId u = queue_[i];
      ++r.transmissions;
      for (const NodeId v : nbrs(u)) {
        if (got_[v] != epoch_) {
          got_[v] = epoch_;
          ++r.delivered;
        }
      }
      for (const NodeId v : fwd(u)) {
        if (sent_[v] != epoch_) {
          sent_[v] = epoch_;
          queue_.push_back(v);
        }
      }
    }
    return r;
  }

 private:
  std::vector<std::uint32_t> got_;
  std::vector<std::uint32_t> sent_;
  std::vector<NodeId> queue_;
  std::uint32_t epoch_ = 0;
};

// --- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  bool mobile;
  net::RadiusModel model;
  net::WaypointParams move;
  int floods_per_op;
  /// Distinct trajectory steps (mobility) or deployments (batch) per run.
  int inputs;
  /// Share of ops whose output is captured for the deferred check, sized so
  /// verification stays a few seconds per run.
  double check_share;
  /// Tail percentiles of update and flood times (see Tail).
  double update_q;
  double query_q;

  /// True once a run has enough samples for both tails.
  [[nodiscard]] bool enough(std::uint64_t ops) const {
    return ops >= samples_for_tail(update_q) &&
           ops * static_cast<std::uint64_t>(floods_per_op) >=
               samples_for_tail(query_q);
  }
};

std::optional<Workload> find_workload(std::string_view name) {
  net::WaypointParams moderate;
  moderate.v_min = 0.1;
  moderate.v_max = 0.5;
  moderate.pause = 2.0;
  net::WaypointParams quasi_static;
  quasi_static.v_min = 0.02;
  quasi_static.v_max = 0.1;
  quasi_static.pause = 2000.0;
  quasi_static.max_leg = 1.0;
  quasi_static.steady_state_init = true;
  // Every workload floods several times per op: the first flood after an
  // update reads caches the update evicted, and a lone cold flood per op
  // made query_ms_p50 track host memory contention (README.md).
  const Workload all[] = {
      {.name = "mobility_moderate",
       .mobile = true,
       .model = net::RadiusModel::kUniform,
       .move = moderate,
       .floods_per_op = 4,
       .inputs = 40,
       .check_share = 0.25,
       .update_q = 95,
       .query_q = 95},
      // Few movers per step, so many distinct steps are needed for a run's
      // median to stop depending on where this seed's movers happen to be.
      {.name = "quasi_static_broadcast",
       .mobile = true,
       .model = net::RadiusModel::kUniform,
       .move = quasi_static,
       .floods_per_op = 8,
       .inputs = 1024,
       .check_share = 0.05,
       .update_q = 95,
       .query_q = 95},
      {.name = "batch_rebuild",
       .mobile = false,
       .model = net::RadiusModel::kHomogeneous,
       .move = {},
       .floods_per_op = 4,
       .inputs = 8,
       .check_share = 0.25,
       .update_q = 90,
       .query_q = 95},
  };
  for (const Workload& w : all) {
    if (name == w.name) return w;
  }
  return std::nullopt;
}

/// Engine/cache (or cold rebuild) constructions per run; setup_s is their
/// median.
constexpr int kSetupReps = 9;
/// Relays compared per checked op.
constexpr std::size_t kCheckedRelaysMobile = 512;
constexpr std::size_t kCheckedRelaysBatch = 24;
/// Relays whose skyline kernel is timed serially per traced op.
constexpr std::size_t kKernelSamples = 32;

net::DeploymentParams deployment_for(const Workload& w, double scale) {
  net::DeploymentParams p;
  p.model = w.model;
  p.r_fixed = 1.0;
  p.target_avg_degree = 36.8;
  p.side = 12.5 * std::sqrt(10.0 * scale);
  return p;
}

/// One op's output captured for the deferred correctness check.
struct Capture {
  std::uint64_t op = 0;
  int input = 0;  ///< frame (mobility) or deployment (batch) index
  std::vector<NodeId> relays;
  std::vector<std::uint32_t> offsets;  ///< relays.size() + 1 entries
  std::vector<NodeId> ids;
  NodeId flood_src = 0;
  FloodResult flood;
};

template <typename SetOf>
void capture_sets(Capture& c, SetOf&& set_of) {
  c.offsets.assign(1, 0);
  c.ids.clear();
  for (const NodeId u : c.relays) {
    const auto s = set_of(u);
    c.ids.insert(c.ids.end(), s.begin(), s.end());
    c.offsets.push_back(static_cast<std::uint32_t>(c.ids.size()));
  }
}

std::vector<NodeId> sample_relays(std::size_t n, std::size_t k,
                                  sim::Xoshiro256& rng) {
  std::vector<NodeId> out;
  out.reserve(k);
  for (std::size_t i = 0; i < std::min(k, n); ++i) {
    out.push_back(static_cast<NodeId>(rng.uniform_int(n)));
  }
  return out;
}

// --- per-layer accumulation (traced runs) ----------------------------------

struct Layers {
  // core
  std::vector<double> kernel_us;
  double disks = 0, arcs = 0;
  // net (incremental engine) and broadcast (shard caches), per traced step
  std::vector<double> engine_ms, recompute_ms, shard_max_ms, barrier_ms,
      imbalance, serial_ms;
  double flips = 0, incoming = 0, migrations = 0, halo = 0;
  double dirty = 0, changed = 0, steps = 0, nodes = 0;
  // net (batch) and broadcast (batch sweep)
  std::vector<double> build_ms, sweep_ms;
  // per op
  double allocs = 0, faults = 0, ctx = 0, ops = 0;
  double tx = 0, floods = 0;
  double movers = 0, frames = 0, gen_ms = 0;
  std::vector<double> traced_update_ms, untraced_update_ms;
};

/// The incremental stack measured by traced runs: the sharded engine with
/// its cache, and a bare engine (no cache) fed the identical inputs.
/// Snapshotting the sets before a step yields the changed fraction.
class IncrementalProbe {
 public:
  void snapshot(const bcast::ShardedSkylineCache& cache) {
    const std::size_t n = cache.size();
    off_.assign(1, 0);
    ids_.clear();
    for (NodeId u = 0; u < n; ++u) {
      const auto s = cache.forwarding_set(u);
      ids_.insert(ids_.end(), s.begin(), s.end());
      off_.push_back(static_cast<std::uint32_t>(ids_.size()));
    }
  }

  /// Layer figures of the cache step just taken (wall `step_ns`) and a
  /// bare-engine step on the same input.
  void observe(const bcast::ShardedSkylineCache& cache,
               net::ShardedEngine& bare, std::span<const Node> frame,
               std::span<const NodeId> hint, std::int64_t step_ns,
               Tracer& tr, std::uint64_t op, std::uint32_t parent,
               Layers& L) {
    const net::ShardedEngine& eng = cache.engine();
    obs::shard_stats(stats_);
    double max_ns = 0.0, sum_ns = 0.0, wait_ns = 0.0, incoming = 0.0;
    for (const obs::ShardStat& s : stats_) {
      max_ns = std::max(max_ns, static_cast<double>(s.step_ns));
      sum_ns += static_cast<double>(s.step_ns);
      wait_ns += static_cast<double>(s.barrier_wait_ns);
      incoming += static_cast<double>(s.incoming);
    }
    const auto shards =
        static_cast<double>(std::max<std::size_t>(1, stats_.size()));
    L.shard_max_ms.push_back(max_ns / 1e6);
    L.barrier_ms.push_back(wait_ns / shards / 1e6);
    L.imbalance.push_back(sum_ns > 0 ? max_ns / (sum_ns / shards) : 1.0);
    L.serial_ms.push_back((static_cast<double>(step_ns) - max_ns) / 1e6);
    L.incoming += incoming;
    for (std::size_t s = 0; s < eng.shard_count(); ++s) {
      const auto& d = eng.shard_delta(s);
      L.flips += static_cast<double>(d.edges_added + d.edges_removed);
    }
    L.migrations += static_cast<double>(eng.migrated_last_step().size());
    L.halo += eng.halo_fraction();
    std::uint64_t changed = 0;
    for (std::size_t s = 0; s < eng.shard_count(); ++s) {
      for (const NodeId u : cache.shard(s).last_dirty()) {
        const auto now = cache.forwarding_set(u);
        const std::span<const NodeId> before{ids_.data() + off_[u],
                                             ids_.data() + off_[u + 1]};
        if (!std::equal(now.begin(), now.end(), before.begin(), before.end())) {
          ++changed;
        }
      }
    }
    L.dirty += static_cast<double>(cache.last_dirty_count());
    L.changed += static_cast<double>(changed);
    L.steps += 1;
    L.nodes = static_cast<double>(cache.size());

    const std::int64_t t0 = now_ns();
    bare.step(frame, hint);
    const std::int64_t t1 = now_ns();
    tr.add("engine.step", op, parent, t0, t1);
    L.engine_ms.push_back(ms(t1 - t0));
    L.recompute_ms.push_back(ms(step_ns - (t1 - t0)));
  }

 private:
  std::vector<std::uint32_t> off_;
  std::vector<NodeId> ids_;
  std::vector<obs::ShardStat> stats_;
};

/// Serially times the skyline kernel on sampled relays' 1-hop disk sets.
class KernelSampler {
 public:
  /// `node_of(u, v)` reads node v from the graph holding relay u's 1-hop
  /// set; `nbrs_of(u)` reads u's neighbors from it.
  template <typename NodeOf, typename NbrsOf>
  void sample(std::size_t n, NodeOf&& node_of, NbrsOf&& nbrs_of,
              sim::Xoshiro256& rng, Tracer& tr, std::uint64_t op,
              std::uint32_t parent, Layers& L) {
    for (std::size_t i = 0; i < kKernelSamples; ++i) {
      const auto u = static_cast<NodeId>(rng.uniform_int(n));
      disks_.clear();
      disks_.push_back(node_of(u, u).disk());
      for (const NodeId v : nbrs_of(u)) disks_.push_back(node_of(u, v).disk());
      const std::int64_t t0 = now_ns();
      core::compute_skyline_arcs(disks_, node_of(u, u).pos, ws_, arcs_);
      const std::int64_t t1 = now_ns();
      tr.add("kernel.relay", op, parent, t0, t1);
      L.kernel_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      L.disks += static_cast<double>(disks_.size());
      L.arcs += static_cast<double>(arcs_.size());
    }
  }

 private:
  core::SkylineWorkspace ws_;
  std::vector<geom::Disk> disks_;
  std::vector<core::Arc> arcs_;
};

/// A seeded random-waypoint trajectory, stored as per-step deltas and
/// replayed forward then backward (ping-pong), so the node distribution
/// stays that of its first steps however many ops a run completes.
class Trajectory {
 public:
  Trajectory(const net::DeploymentParams& p, const net::WaypointParams& move,
             std::uint64_t seed, int steps, Tracer& tr, Layers& L) {
    sim::Xoshiro256 rng(seed);
    net::MobileNetwork mobile(p, move, rng);
    initial_ = mobile.nodes();
    std::vector<Node> prev = initial_;
    for (int k = 0; k < steps; ++k) {
      const std::int64_t t0 = now_ns();
      mobile.step(1.0, rng);
      const std::int64_t t1 = now_ns();
      tr.add("mobility.generate", 0, Tracer::kNone, t0, t1);
      L.gen_ms += ms(t1 - t0);
      L.frames += 1;
      Step& st = steps_.emplace_back();
      for (const NodeId u : mobile.moved_last_step()) {
        st.ids.push_back(u);
        st.from.push_back(prev[u].pos);
        st.to.push_back(mobile.nodes()[u].pos);
      }
      prev = mobile.nodes();
    }
    cur_ = initial_;
  }

  [[nodiscard]] const std::vector<Node>& initial() const { return initial_; }
  [[nodiscard]] const std::vector<Node>& current() const { return cur_; }
  [[nodiscard]] int position() const { return pos_; }

  /// Move current() one step along the ping-pong; returns that step's
  /// movers (ascending).
  std::span<const NodeId> advance() {
    const int last = static_cast<int>(steps_.size());
    if (pos_ + dir_ > last || pos_ + dir_ < 0) dir_ = -dir_;
    const Step& st =
        steps_[static_cast<std::size_t>(dir_ > 0 ? pos_ : pos_ - 1)];
    const auto& to = dir_ > 0 ? st.to : st.from;
    for (std::size_t i = 0; i < st.ids.size(); ++i) cur_[st.ids[i]].pos = to[i];
    pos_ += dir_;
    return st.ids;
  }

  /// Positions after `k` forward steps.
  [[nodiscard]] std::vector<Node> frame(int k) const {
    std::vector<Node> f = initial_;
    for (int j = 0; j < k; ++j) {
      const Step& st = steps_[static_cast<std::size_t>(j)];
      for (std::size_t i = 0; i < st.ids.size(); ++i) {
        f[st.ids[i]].pos = st.to[i];
      }
    }
    return f;
  }

 private:
  struct Step {
    std::vector<NodeId> ids;
    std::vector<geom::Vec2> from, to;
  };
  std::vector<Node> initial_, cur_;
  std::vector<Step> steps_;
  int pos_ = 0, dir_ = 1;
};

// --- run outcome -----------------------------------------------------------

struct Outcome {
  std::size_t nodes = 0;
  std::uint64_t ops = 0;
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
  /// On-CPU critical paths (CpuPath) of updates, floods and set-ups.
  std::vector<double> update_ms;
  std::vector<double> query_ms;
  std::vector<double> setup_s;
  double update_total_s = 0.0;
  /// Wall time of every update, for the share of it spent on a core.
  double update_wall_s = 0.0;
  std::vector<double> update_wall_ms, query_wall_ms;
  /// One time per op of each HostProbe.
  std::vector<double> core_probe_ms, memory_probe_ms;
  double peak_rss_mb = 0.0;
  Layers layers;
};

/// Process and allocation figures of a traced update.
void record_traced_update(Layers& L, const test::AllocGuard& allocs,
                          const Usage& u0, std::size_t movers, double update) {
  L.allocs += static_cast<double>(allocs.count());
  const Usage u1 = usage_now();
  L.faults += static_cast<double>(u1.minor_faults - u0.minor_faults);
  L.ctx += static_cast<double>(u1.ctx_switches - u0.ctx_switches);
  L.ops += 1;
  L.movers += static_cast<double>(movers);
  L.traced_update_ms.push_back(update);
}

/// One op's floods from seeded sources, each timed; the first flood's
/// source and counts go into `cap` for the deferred check.
template <typename Fwd, typename Nbrs>
void flood_op(int floods, std::size_t n, Flooder& flood, Fwd&& fwd,
              Nbrs&& nbrs, sim::Xoshiro256& rng, const CpuPath& cpu,
              bool traced, Tracer& tr, std::uint64_t op, std::uint32_t parent,
              Outcome& out, Capture& cap) {
  for (int f = 0; f < floods; ++f) {
    const auto src = static_cast<NodeId>(rng.uniform_int(n));
    const CpuPath::Mark c0 = cpu.mark();
    const std::int64_t q0 = now_ns();
    const FloodResult r = flood.run(src, fwd, nbrs);
    const std::int64_t q1 = now_ns();
    out.query_ms.push_back(ms(cpu.since(c0)));
    out.query_wall_ms.push_back(ms(q1 - q0));
    if (traced) {
      tr.add("flood", op, parent, q0, q1);
      out.layers.tx += static_cast<double>(r.transmissions);
      out.layers.floods += 1;
    }
    if (f == 0) {
      cap.flood_src = src;
      cap.flood = r;
    }
  }
}

/// Sharded engine + cache construction, kSetupReps times; the last pair is
/// kept.  `setup_s` gets one on-CPU critical path per construction.
struct Stack {
  std::unique_ptr<net::ShardedEngine> engine;
  std::unique_ptr<bcast::ShardedSkylineCache> cache;
};

Stack build_stack(const std::vector<Node>& initial, sim::ThreadPool& pool,
                  const net::ShardedEngine::Config& cfg, int reps,
                  const CpuPath& cpu, std::vector<double>* setup_s) {
  Stack st;
  for (int r = 0; r < reps; ++r) {
    st.cache.reset();
    st.engine.reset();
    std::vector<Node> copy = initial;
    const CpuPath::Mark c0 = cpu.mark();
    st.engine =
        std::make_unique<net::ShardedEngine>(std::move(copy), pool, cfg);
    st.cache = std::make_unique<bcast::ShardedSkylineCache>(*st.engine);
    if (setup_s) setup_s->push_back(static_cast<double>(cpu.since(c0)) / 1e9);
  }
  return st;
}

// --- mobility workloads ----------------------------------------------------

void verify_mobility(const Trajectory& traj, const std::vector<Capture>& caps,
                     sim::ThreadPool& pool, Tracer& tr, Outcome& out) {
  std::map<int, std::vector<const Capture*>> by_frame;
  for (const Capture& c : caps) by_frame[c.input].push_back(&c);
  Flooder flood(traj.initial().size());
  for (const auto& [frame, list] : by_frame) {
    const std::uint32_t vs = tr.open("verify", list.front()->op);
    std::vector<Node> positions = traj.frame(frame);
    std::int64_t t0 = now_ns();
    const net::DiskGraph g = net::DiskGraph::build(std::move(positions));
    std::int64_t t1 = now_ns();
    tr.add("graph.build", list.front()->op, vs, t0, t1);
    out.layers.build_ms.push_back(ms(t1 - t0));
    t0 = now_ns();
    const bcast::AllSkylines oracle = bcast::compute_all_skylines(g, pool);
    t1 = now_ns();
    tr.add("sweep.all_skylines", list.front()->op, vs, t0, t1);
    out.layers.sweep_ms.push_back(ms(t1 - t0));
    for (const Capture* c : list) {
      bool ok = true;
      for (std::size_t i = 0; i < c->relays.size() && ok; ++i) {
        const auto want = oracle.forwarding_set(c->relays[i]);
        const std::span<const NodeId> got{c->ids.data() + c->offsets[i],
                                          c->ids.data() + c->offsets[i + 1]};
        ok = std::equal(got.begin(), got.end(), want.begin(), want.end());
      }
      const FloodResult ref = flood.run(
          c->flood_src, [&](NodeId u) { return oracle.forwarding_set(u); },
          [&](NodeId u) { return g.neighbors(u); });
      ok = ok && ref == c->flood;
      ++out.checked;
      if (!ok) ++out.failed;
    }
    tr.close(vs);
  }
}

Outcome run_mobility(const Options& o, const Workload& w, sim::ThreadPool& pool,
                     const CpuPath& cpu, HostProbe& host, Tracer& tr) {
  Outcome out;
  Layers& L = out.layers;
  const net::DeploymentParams p = deployment_for(w, o.scale);

  // Load generator: the trajectory is produced before anything is timed.
  Trajectory traj(p, w.move, o.seed, w.inputs, tr, L);
  const std::size_t n = traj.initial().size();
  out.nodes = n;

  net::ShardedEngine::Config cfg;
  cfg.shards = pool.size();
  cfg.deployment = {{0.0, 0.0}, {p.side, p.side}};

  // Traced runs replay the trajectory on a bare engine too.  It is built
  // first so the cache's engine is the process's shard-stats provider.
  std::unique_ptr<net::ShardedEngine> bare;
  if (o.trace) {
    bare = std::make_unique<net::ShardedEngine>(traj.initial(), pool, cfg);
  }
  Stack st =
      build_stack(traj.initial(), pool, cfg, kSetupReps, cpu, &out.setup_s);
  bcast::ShardedSkylineCache& cache = *st.cache;
  const net::ShardedEngine& engine = *st.engine;

  IncrementalProbe probe;
  KernelSampler kernel;
  Flooder flood(n);
  sim::Xoshiro256 op_rng(o.seed ^ 0x6A09E667F3BCC908ULL);
  sim::Xoshiro256 kernel_rng(o.seed ^ 0xBB67AE8584CAA73BULL);
  std::vector<Capture> caps;
  // A relay's 1-hop disk set is complete in its owner shard's graph.
  const auto node_of = [&](NodeId u, NodeId v) -> const Node& {
    return engine.shard_graph(engine.owner_of(u)).node(v);
  };
  const auto set_of = [&](NodeId u) { return cache.forwarding_set(u); };
  const auto nbrs_of = [&](NodeId u) {
    return engine.shard_graph(engine.owner_of(u)).neighbors(u);
  };

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  for (std::uint64_t op = 0;; ++op) {
    if (w.enough(op) && now_ns() >= deadline) break;
    const std::span<const NodeId> hint = traj.advance();
    const std::vector<Node>& frame = traj.current();
    const bool traced = o.trace && op % 2 == 1;
    out.core_probe_ms.push_back(host.core());
    out.memory_probe_ms.push_back(host.memory());

    std::uint32_t op_span = Tracer::kNone;
    if (traced) {
      probe.snapshot(cache);
      op_span = tr.open("op", op);
    }
    const Usage u0 = traced ? usage_now() : Usage{};
    const test::AllocGuard allocs;
    const CpuPath::Mark c0 = cpu.mark();
    const std::int64_t t0 = now_ns();
    cache.step(frame, hint);
    const std::int64_t t1 = now_ns();
    const std::int64_t on_cpu = cpu.since(c0);
    const double update = ms(t1 - t0);
    out.update_ms.push_back(ms(on_cpu));
    out.update_total_s += static_cast<double>(on_cpu) / 1e9;
    out.update_wall_s += static_cast<double>(t1 - t0) / 1e9;
    out.update_wall_ms.push_back(update);
    if (traced) {
      record_traced_update(L, allocs, u0, hint.size(), update);
      tr.add("cache.step", op, op_span, t0, t1);
      probe.observe(cache, *bare, frame, hint, t1 - t0, tr, op, op_span, L);
    } else if (o.trace) {
      L.untraced_update_ms.push_back(update);
      bare->step(frame, hint);  // keep the replay in step
    }

    const bool sampled = op_rng.uniform() < w.check_share;
    const bool check = sampled || op == 0 ||
                       static_cast<std::int64_t>(op) == o.corrupt_at;
    Capture cap;
    flood_op(w.floods_per_op, n, flood, set_of, nbrs_of, op_rng, cpu, traced,
             tr, op, op_span, out, cap);
    if (traced) {
      kernel.sample(n, node_of, nbrs_of, kernel_rng, tr, op, op_span, L);
      tr.close(op_span);
    }
    if (check) {
      cap.op = op;
      cap.input = traj.position();
      cap.relays = sample_relays(n, kCheckedRelaysMobile, op_rng);
      if (static_cast<std::int64_t>(op) == o.corrupt_at) {
        cache.corrupt_slot_for_testing(cap.relays.front());
      }
      capture_sets(cap, set_of);
      caps.push_back(std::move(cap));
    }
    ++out.ops;
  }
  out.peak_rss_mb = peak_rss_mb();
  verify_mobility(traj, caps, pool, tr, out);
  return out;
}

// --- batch rebuild ---------------------------------------------------------

void verify_batch(const std::vector<std::vector<Node>>& deployments,
                  const std::vector<Capture>& caps, Tracer& tr, Outcome& out) {
  std::map<int, std::vector<const Capture*>> by_input;
  for (const Capture& c : caps) by_input[c.input].push_back(&c);
  std::vector<geom::Disk> disks;
  std::vector<NodeId> want;
  for (const auto& [d, list] : by_input) {
    const std::uint32_t vs = tr.open("verify", list.front()->op);
    const net::DiskGraph g = net::DiskGraph::build(deployments[d]);
    for (const Capture* c : list) {
      bool ok = true;
      for (std::size_t i = 0; i < c->relays.size() && ok; ++i) {
        const NodeId u = c->relays[i];
        const auto nb = g.neighbors(u);
        disks.clear();
        disks.push_back(g.node(u).disk());
        for (const NodeId v : nb) disks.push_back(g.node(v).disk());
        const core::Skyline sky =
            core::compute_skyline_bruteforce(disks, g.node(u).pos);
        want.clear();
        for (const std::size_t idx : sky.skyline_set()) {
          if (idx != 0) want.push_back(nb[idx - 1]);
        }
        ok = std::equal(c->ids.begin() + c->offsets[i],
                        c->ids.begin() + c->offsets[i + 1], want.begin(),
                        want.end());
      }
      // Equal radii: every node the skyline set covers is linked to a
      // forwarder, so a flood must reach the source's whole component.
      ok = ok && c->flood.delivered == g.reachable_from(c->flood_src).size();
      ++out.checked;
      if (!ok) ++out.failed;
    }
    tr.close(vs);
  }
}

Outcome run_batch(const Options& o, const Workload& w, sim::ThreadPool& pool,
                  const CpuPath& cpu, HostProbe& host, Tracer& tr) {
  Outcome out;
  Layers& L = out.layers;
  const net::DeploymentParams p = deployment_for(w, o.scale);

  sim::Xoshiro256 rng(o.seed);
  std::vector<std::vector<Node>> deployments;
  for (int d = 0; d < w.inputs; ++d) {
    const std::int64_t t0 = now_ns();
    deployments.push_back(net::generate_deployment(p, rng));
    const std::int64_t t1 = now_ns();
    tr.add("mobility.generate", 0, Tracer::kNone, t0, t1);
    L.gen_ms += ms(t1 - t0);
    L.frames += 1;
  }
  const std::size_t n = deployments.front().size();
  out.nodes = n;

  // Set-up: there is no engine; the first forwarding sets come from a cold
  // build + sweep of the initial deployment.
  for (int r = 0; r < kSetupReps; ++r) {
    std::vector<Node> copy = deployments.front();
    const CpuPath::Mark c0 = cpu.mark();
    const net::DiskGraph g = net::DiskGraph::build(std::move(copy));
    const bcast::AllSkylines all = bcast::compute_all_skylines(g, pool);
    out.setup_s.push_back(static_cast<double>(cpu.since(c0)) / 1e9);
  }

  // Traced runs also feed each op's deployment to the incremental stack as
  // one step in which every node teleports (equal radii make that a legal
  // step): the incremental path's cost on the same input.
  net::ShardedEngine::Config cfg;
  cfg.shards = pool.size();
  cfg.deployment = {{0.0, 0.0}, {p.side, p.side}};
  std::unique_ptr<net::ShardedEngine> bare;
  Stack st;
  if (o.trace) {
    bare = std::make_unique<net::ShardedEngine>(deployments.front(), pool, cfg);
    st = build_stack(deployments.front(), pool, cfg, 1, cpu, nullptr);
  }
  IncrementalProbe probe;
  KernelSampler kernel;
  std::vector<NodeId> teleported;

  Flooder flood(n);
  sim::Xoshiro256 op_rng(o.seed ^ 0x6A09E667F3BCC908ULL);
  sim::Xoshiro256 kernel_rng(o.seed ^ 0xBB67AE8584CAA73BULL);
  std::vector<Capture> caps;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  for (std::uint64_t op = 0;; ++op) {
    if (w.enough(op) && now_ns() >= deadline) break;
    const auto d = static_cast<int>((op + 1) %
                                    static_cast<std::uint64_t>(w.inputs));
    std::vector<Node> input = deployments[static_cast<std::size_t>(d)];
    const bool traced = o.trace && op % 2 == 1;
    out.core_probe_ms.push_back(host.core());
    out.memory_probe_ms.push_back(host.memory());

    const std::uint32_t op_span = traced ? tr.open("op", op) : Tracer::kNone;
    const Usage u0 = traced ? usage_now() : Usage{};
    const test::AllocGuard allocs;
    const CpuPath::Mark c0 = cpu.mark();
    const std::int64_t t0 = now_ns();
    const net::DiskGraph g = net::DiskGraph::build(std::move(input));
    const std::int64_t t1 = now_ns();
    const bcast::AllSkylines all = bcast::compute_all_skylines(g, pool);
    const std::int64_t t2 = now_ns();
    const std::int64_t on_cpu = cpu.since(c0);
    const double update = ms(t2 - t0);
    out.update_ms.push_back(ms(on_cpu));
    out.update_total_s += static_cast<double>(on_cpu) / 1e9;
    out.update_wall_s += static_cast<double>(t2 - t0) / 1e9;
    out.update_wall_ms.push_back(update);
    if (traced) {
      record_traced_update(L, allocs, u0, n, update);
      tr.add("graph.build", op, op_span, t0, t1);
      tr.add("sweep.all_skylines", op, op_span, t1, t2);
      L.build_ms.push_back(ms(t1 - t0));
      L.sweep_ms.push_back(ms(t2 - t1));
    } else if (o.trace) {
      L.untraced_update_ms.push_back(update);
    }

    const bool check = op_rng.uniform() < w.check_share || op == 0;
    Capture cap;
    flood_op(
        w.floods_per_op, n, flood,
        [&](NodeId u) { return all.forwarding_set(u); },
        [&](NodeId u) { return g.neighbors(u); }, op_rng, cpu, traced, tr,
        op, op_span, out, cap);
    if (traced) {
      kernel.sample(
          n, [&](NodeId, NodeId v) -> const Node& { return g.node(v); },
          [&](NodeId u) { return g.neighbors(u); }, kernel_rng, tr, op,
          op_span, L);
      const std::span<const Node> now = st.engine->nodes();
      teleported.clear();
      for (NodeId u = 0; u < n; ++u) {
        if (now[u].pos != g.node(u).pos) teleported.push_back(u);
      }
      probe.snapshot(*st.cache);
      const std::int64_t s0 = now_ns();
      st.cache->step(g.nodes(), teleported);
      const std::int64_t s1 = now_ns();
      tr.add("cache.step", op, op_span, s0, s1);
      probe.observe(*st.cache, *bare, g.nodes(), teleported, s1 - s0, tr, op,
                    op_span, L);
      tr.close(op_span);
    }
    if (check) {
      cap.op = op;
      cap.input = d;
      cap.relays = sample_relays(n, kCheckedRelaysBatch, op_rng);
      capture_sets(cap, [&](NodeId u) { return all.forwarding_set(u); });
      caps.push_back(std::move(cap));
    }
    ++out.ops;
  }
  out.peak_rss_mb = peak_rss_mb();
  verify_batch(deployments, caps, tr, out);
  return out;
}

// --- reporting -------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// HostProbe medians on the reference host, the VM of README.md's tables
/// at its usual speed.
constexpr double kRefCoreProbeMs = 0.7;
constexpr double kRefMemoryProbeMs = 1.7;

/// How much slower than the reference the host ran during this run: each
/// probe's run median over its reference median.  End-to-end times are
/// divided by the slowdown of the probe that does the same kind of work.
struct HostSlowdown {
  double core;
  double memory;
};

HostSlowdown host_slowdown(const Outcome& r) {
  return {median(r.core_probe_ms) / kRefCoreProbeMs,
          median(r.memory_probe_ms) / kRefMemoryProbeMs};
}

std::vector<Metric> end_to_end(const Outcome& r, const Workload& w) {
  const HostSlowdown h = host_slowdown(r);
  const Tail ut = tail_of(r.update_ms, w.update_q);
  const Tail qt = tail_of(r.query_ms, w.query_q);
  return {
      {"update_norm_ms_p50", median(r.update_ms) / h.core, "ms"},
      {"update_norm_ms_tail", ut.value / h.core, "ms"},
      {"query_norm_ms_p50", median(r.query_ms) / h.memory, "ms"},
      {"query_norm_ms_tail", qt.value / h.memory, "ms"},
      {"relays_per_norm_s",
       static_cast<double>(r.nodes) * static_cast<double>(r.ops) * h.core /
           r.update_total_s,
       "1/s"},
      {"setup_s", median(r.setup_s) / h.core, "s"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> per_layer(const Outcome& r, std::size_t threads,
                              bool mobile) {
  const Layers& L = r.layers;
  const auto per = [](double x, double d) { return d > 0 ? x / d : 0.0; };
  const double kernel_us = mean(L.kernel_us);
  const double sweep_ms = median(L.sweep_ms);
  const double engine_ms = median(L.engine_ms);
  const double recompute_ms = median(L.recompute_ms);
  const double traced = median(L.traced_update_ms);
  const auto samples = static_cast<double>(L.kernel_us.size());
  // What the named layers leave of a traced update.  Mobility: update =
  // bare engine step + cache recompute; batch_rebuild: update = graph
  // build + sweep.  The remainder is reported, not spread over layers.
  const double unattributed =
      mobile ? traced - engine_ms - recompute_ms
             : traced - median(L.build_ms) - sweep_ms;
  return {
      {"core.kernel_us_per_relay", kernel_us, "us"},
      {"core.disks_per_relay", per(L.disks, samples), "count"},
      {"core.arcs_per_relay", per(L.arcs, samples), "count"},
      {"net.engine_step_ms", engine_ms, "ms"},
      {"net.edge_flips_per_step", per(L.flips, L.steps), "count"},
      {"net.incoming_per_step", per(L.incoming, L.steps), "count"},
      {"net.migrations_per_step", per(L.migrations, L.steps), "count"},
      {"net.halo_fraction", per(L.halo, L.steps), "ratio"},
      {"net.shard_step_ms_max", median(L.shard_max_ms), "ms"},
      {"net.barrier_wait_ms", median(L.barrier_ms), "ms"},
      {"net.shard_imbalance", median(L.imbalance), "ratio"},
      {"net.serial_ms", median(L.serial_ms), "ms"},
      {"net.graph_build_ms", median(L.build_ms), "ms"},
      {"bcast.recompute_ms", recompute_ms, "ms"},
      {"bcast.dirty_per_step", per(L.dirty, L.steps), "count"},
      {"bcast.dirty_fraction", per(L.dirty, L.steps * L.nodes), "ratio"},
      {"bcast.changed_fraction", per(L.changed, L.dirty), "ratio"},
      {"bcast.sweep_ms", sweep_ms, "ms"},
      {"bcast.allocs_per_update", per(L.allocs, L.ops), "count"},
      {"bcast.tx_per_flood", per(L.tx, L.floods), "count"},
      {"sim.sweep_efficiency",
       per(kernel_us * static_cast<double>(r.nodes) / 1e3,
           static_cast<double>(threads) * sweep_ms),
       "ratio"},
      {"sim.generate_ms", per(L.gen_ms, L.frames), "ms"},
      {"sim.movers_per_step", per(L.movers, L.ops), "count"},
      {"proc.minor_faults_per_op", per(L.faults, L.ops), "count"},
      {"proc.ctx_switches_per_op", per(L.ctx, L.ops), "count"},
      {"update.unattributed_ms", unattributed, "ms"},
      {"trace.traced_update_ms_p50", traced, "ms"},
      {"trace.untraced_update_ms_p50", median(L.untraced_update_ms), "ms"},
      {"host.core_probe_ms", median(r.core_probe_ms), "ms"},
      {"host.memory_probe_ms", median(r.memory_probe_ms), "ms"},
      {"host.oncpu_share", per(r.update_total_s, r.update_wall_s), "ratio"},
  };
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += json_str(ms[i].name) + ": {\"value\": " + num(ms[i].value) +
           ", \"unit\": " + json_str(ms[i].unit) + "}";
  }
  return out + "}";
}

std::string provenance_json(const Options& o, const Workload& w,
                            const Outcome& r, std::size_t threads) {
  const Tail ut = tail_of(r.update_ms, w.update_q);
  const Tail qt = tail_of(r.query_ms, w.query_q);
  std::ostringstream os;
  os << "{\"provenance\": {\"workload\": " << json_str(w.name)
     << ", \"seed\": " << o.seed << ", \"seconds\": " << num(o.seconds)
     << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"scale\": " << num(o.scale)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"pool_threads\": " << threads << ", \"shards\": " << threads
     << ", \"simd_dispatch\": " << json_str(geom::simd::dispatch_choice())
     << ", \"simd_detected\": " << json_str(geom::simd::detected_isa())
     << ", \"compiler\": " << json_str(PERFBENCH_COMPILER)
     << ", \"flags\": " << json_str(PERFBENCH_FLAGS)
     << ", \"nodes\": " << r.nodes << ", \"ops\": " << r.ops
     << ", \"update_norm_ms_tail_percentile\": " << num(ut.percentile)
     << ", \"update_norm_ms_tail_samples\": " << ut.samples
     << ", \"update_norm_ms_tail_beyond\": " << ut.beyond
     << ", \"query_norm_ms_tail_percentile\": " << num(qt.percentile)
     << ", \"query_norm_ms_tail_samples\": " << qt.samples
     << ", \"query_norm_ms_tail_beyond\": " << qt.beyond
     << ", \"host_slowdown_core\": " << num(host_slowdown(r).core)
     << ", \"host_slowdown_memory\": " << num(host_slowdown(r).memory)
     << ", \"update_cpu_ms_p50\": " << num(median(r.update_ms))
     << ", \"update_wall_ms_p50\": " << num(median(r.update_wall_ms))
     << ", \"query_cpu_ms_p50\": " << num(median(r.query_ms))
     << ", \"query_wall_ms_p50\": " << num(median(r.query_wall_ms))
     << ", \"checked_ops\": " << r.checked
     << ", \"failed_ops\": " << r.failed << ", \"fail_frac\": "
     << num(r.checked ? static_cast<double>(r.failed) /
                            static_cast<double>(r.checked)
                      : 1.0)
     << ", \"corrupt_at\": " << o.corrupt_at << "}}";
  return os.str();
}

/// Full report: provenance, both metric sets, and for traced runs the
/// per-span self time and every span (times relative to the first span).
void write_report(const Options& o, const std::string& provenance,
                  const std::string& metrics, const Outcome& r,
                  const Tracer& tr) {
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string path = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  std::ofstream f(path);
  f << "{\"report\": " << provenance << ",\n\"metrics\": " << metrics;
  for (const auto& [key, samples] :
       {std::pair{"update_ms", &r.update_ms},
        std::pair{"query_ms", &r.query_ms}, std::pair{"setup_s", &r.setup_s},
        std::pair{"update_wall_ms", &r.update_wall_ms},
        std::pair{"query_wall_ms", &r.query_wall_ms},
        std::pair{"core_probe_ms", &r.core_probe_ms},
        std::pair{"memory_probe_ms", &r.memory_probe_ms}}) {
    f << ",\n\"" << key << "\": [";
    for (std::size_t i = 0; i < samples->size(); ++i) {
      f << (i ? ", " : "") << num((*samples)[i]);
    }
    f << "]";
  }
  if (o.trace) {
    f << ",\n\"self_time_ms\": {";
    bool first = true;
    for (const auto& [name, tc] : tr.self_time()) {
      f << (first ? "" : ", ") << json_str(name) << ": {\"total\": "
        << num(tc.first / 1e6) << ", \"count\": " << tc.second << "}";
      first = false;
    }
    f << "},\n\"spans\": [";
    const auto& spans = tr.spans();
    const std::int64_t base = spans.empty() ? 0 : spans.front().t0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& sp = spans[i];
      const std::int64_t parent =
          sp.parent == Tracer::kNone ? -1 : std::int64_t{sp.parent};
      f << (i ? ",\n" : "\n") << "[" << json_str(sp.name) << ", " << sp.op
        << ", " << parent << ", " << sp.t0 - base << ", " << sp.t1 - base
        << "]";
    }
    f << "]";
  }
  f << "}\n";
  if (!f) std::cerr << "mldcs_perfbench: could not write " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  const std::optional<Workload> w = find_workload(o.workload);
  if (!w) usage("unknown workload " + o.workload);

  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = std::min<std::size_t>(hw, CpuPath::kMaxWorkers);
  sim::ThreadPool pool(threads);
  const CpuPath cpu(pool);
  HostProbe host;
  Tracer tr(o.trace);
  const Outcome r =
      w->mobile ? run_mobility(o, *w, pool, cpu, host, tr)
                : run_batch(o, *w, pool, cpu, host, tr);

  const std::vector<Metric> metrics =
      o.trace ? per_layer(r, threads, w->mobile) : end_to_end(r, *w);
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  const bool correct = finite && r.checked > 0 && r.failed == 0;
  const std::string provenance = provenance_json(o, *w, r, threads);
  const std::string mjson = metrics_json(metrics);
  if (!o.out_dir.empty()) write_report(o, provenance, mjson, r, tr);
  std::cout << provenance << "\n"
            << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.checked << ", \"failed\": " << r.failed
            << ", \"metrics\": " << mjson << "}" << std::endl;
  return 0;
}
