// Differential tests for the SIMD skyline kernels (geometry/simd.hpp):
// the workspace engine under runtime dispatch must produce *byte-equal*
// arcs to the same engine pinned to the scalar reference kernels, across
// a corpus built from the degenerate regimes the kernels special-case —
// coincident centers, dominating disks, sub-kAngleTol breakpoint
// clusters, tangencies, and batch sizes that exercise lane remainders
// (n < lane width and n % lane width != 0; kernels see padded batches
// either way, but the *task counts* land on every remainder).
//
// tests/CMakeLists.txt registers this binary twice: once as-is (runtime
// dispatch picks the widest compiled-in ISA the CPU supports) and once
// with MLDCS_SIMD=off in the environment (suffix ".simd_off"), which
// forces the fallback before the first dispatch decision — proving the
// override works and that the corpus passes on the scalar path alone.

#include "geometry/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/skyline_dc.hpp"
#include "core/skyline_reference.hpp"
#include "geometry/angle.hpp"
#include "geometry/disk.hpp"
#include "geometry/disk_soa.hpp"
#include "net/disk_graph.hpp"
#include "net/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/rng.hpp"

namespace mldcs::core {
namespace {

namespace simd = geom::simd;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Run the engine under runtime dispatch and pinned to the scalar
/// reference, and require bitwise-equal arc output (bit patterns, not
/// double equality: -0.0 vs 0.0 or a 1-ulp drift must fail).
void expect_bit_identical(const std::vector<geom::Disk>& disks,
                          geom::Vec2 o, const std::string& label) {
  SkylineWorkspace ws;
  std::vector<Arc> active;
  std::vector<Arc> scalar;
  compute_skyline_arcs(disks, o, ws, active);
  {
    const simd::ScopedKernelOverride pin(simd::scalar_kernels());
    compute_skyline_arcs(disks, o, ws, scalar);
  }
  ASSERT_EQ(active.size(), scalar.size()) << label;
  for (std::size_t i = 0; i < active.size(); ++i) {
    EXPECT_EQ(bits(active[i].start), bits(scalar[i].start))
        << label << ": arc " << i << " start";
    EXPECT_EQ(bits(active[i].end), bits(scalar[i].end))
        << label << ": arc " << i << " end";
    EXPECT_EQ(active[i].disk, scalar[i].disk)
        << label << ": arc " << i << " disk";
  }
}

/// The bench's hard regime: nearly equal radii, neighbors at 97% of the
/// maximum bidirectional distance — almost every disk survives.
std::vector<geom::Disk> narrow_band(sim::Xoshiro256& rng, std::size_t n) {
  std::vector<geom::Disk> disks;
  disks.reserve(n);
  const double r0 = 1.01;
  disks.push_back({{0.0, 0.0}, r0});
  for (std::size_t i = 1; i < n; ++i) {
    const double radius = rng.uniform(1.0, 1.02);
    const double dist = 0.97 * std::min(r0, radius);
    const double theta = rng.uniform(0.0, geom::kTwoPi);
    disks.push_back({{dist * std::cos(theta), dist * std::sin(theta)}, radius});
  }
  return disks;
}

TEST(SkylineSimdTest, CoincidentCentersAndExactDuplicates) {
  sim::Xoshiro256 rng(0xC01DC01DULL);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<geom::Disk> disks = narrow_band(rng, 12);
    // A stack of concentric disks at a random member's center, plus an
    // exact duplicate of another member: the prefilter and the merge
    // tie-breaks must resolve both identically on every kernel set.
    // Every stacked radius stays >= the center's distance to the relay,
    // keeping the local-disk-set premise (o inside every disk) intact.
    const geom::Disk base = disks[1 + static_cast<std::size_t>(
                                          rng.uniform(0.0, 10.0))];
    const geom::Vec2 c = base.center;
    const double d = std::sqrt(c.x * c.x + c.y * c.y);
    disks.push_back({c, d + (base.radius - d) * 0.25});
    disks.push_back({c, base.radius * 0.999});
    disks.push_back({c, base.radius});  // coincident *and* equal radius
    disks.push_back(disks[3]);          // exact duplicate
    expect_bit_identical(disks, {0.0, 0.0},
                         "coincident rep " + std::to_string(rep));
  }
}

TEST(SkylineSimdTest, DominatingDiskCollapsesEitherWay) {
  sim::Xoshiro256 rng(0xD0111ACEULL);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<geom::Disk> disks = narrow_band(rng, 24);
    // One disk strictly containing every other: the skyline collapses
    // to a single full-circle arc through the dominance prefilter.
    disks.push_back({{0.01, -0.02}, 5.0});
    expect_bit_identical(disks, {0.0, 0.0},
                         "dominating rep " + std::to_string(rep));
  }
}

TEST(SkylineSimdTest, SubAngleTolBreakpointClusters) {
  sim::Xoshiro256 rng(0x70CC1U);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<geom::Disk> disks = narrow_band(rng, 10);
    // Shadow three disks with copies rotated about the origin by half
    // of kAngleTol: every breakpoint of the original reappears within
    // tolerance, forcing the equal-angle and equal-radius tie-break
    // paths in Merge's cut handling.
    const double eps = 0.5 * geom::kAngleTol;
    const double c = std::cos(eps);
    const double s = std::sin(eps);
    for (std::size_t i = 1; i <= 3; ++i) {
      const geom::Vec2 p = disks[i].center;
      disks.push_back(
          {{c * p.x - s * p.y, s * p.x + c * p.y}, disks[i].radius});
    }
    expect_bit_identical(disks, {0.0, 0.0},
                         "sub-tol rep " + std::to_string(rep));
  }
}

TEST(SkylineSimdTest, TangentAndContainedPairs) {
  sim::Xoshiro256 rng(0x7A46E47ULL);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<geom::Disk> disks = narrow_band(rng, 8);
    // Internal tangencies (dist == |r_a - r_b|, from either side) and a
    // strict containment: the h^2 <= 0 clamp must pick the same
    // tangent-point verdict on every kernel set.  (External tangency
    // cannot occur in a local disk set — every disk contains o, so all
    // pairs overlap.)
    disks.push_back({{0.3, 0.0}, 1.31});   // contains disk 0, tangent
    disks.push_back({{0.5, 0.0}, 0.51});   // inside disk 0, tangent
    disks.push_back({{0.1, 0.1}, 0.25});   // strictly contained
    expect_bit_identical(disks, {0.0, 0.0},
                         "tangent rep " + std::to_string(rep));
  }
}

TEST(SkylineSimdTest, LaneRemainderSizes) {
  // Below any lane width, exactly at it, and off every multiple: the
  // batches the engine builds from these sets land on every n % W.
  sim::Xoshiro256 rng(0x5123E5ULL);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{5}, std::size_t{7},
                              std::size_t{9}, std::size_t{13},
                              std::size_t{17}, std::size_t{31}}) {
    for (int rep = 0; rep < 5; ++rep) {
      expect_bit_identical(narrow_band(rng, n), {0.0, 0.0},
                           "n=" + std::to_string(n) + " rep " +
                               std::to_string(rep));
    }
  }
}

TEST(SkylineSimdTest, RandomizedDegenerateFuzz) {
  // Mixed fuzz: a random base set with a random sprinkle of every
  // degeneracy above, off-origin evaluation points included.
  sim::Xoshiro256 rng(0xF0220FULL);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t n = 3 + static_cast<std::size_t>(
                                  rng.uniform(0.0, 40.0));
    std::vector<geom::Disk> disks = narrow_band(rng, n);
    if (rng.uniform() < 0.5) {  // coincident-center stack
      const geom::Disk base = disks[static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(n)))];
      const geom::Vec2 c = base.center;
      // Radius in [|c - o|, base.radius]: coincident centers without
      // breaking the local-disk-set premise.
      const double d = std::sqrt(c.x * c.x + c.y * c.y);
      disks.push_back(
          {c, d + (base.radius - d) * rng.uniform(0.0, 1.0)});
    }
    if (rng.uniform() < 0.3) {  // exact duplicate
      disks.push_back(disks[static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(n)))]);
    }
    if (rng.uniform() < 0.3) {  // dominator
      disks.push_back({{rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)},
                       4.0 + rng.uniform(0.0, 2.0)});
    }
    if (rng.uniform() < 0.5) {  // sub-tolerance rotated shadow
      const double eps = geom::kAngleTol * rng.uniform(0.01, 0.99);
      const geom::Vec2 p = disks[1].center;
      disks.push_back({{std::cos(eps) * p.x - std::sin(eps) * p.y,
                        std::sin(eps) * p.x + std::cos(eps) * p.y},
                       disks[1].radius});
    }
    expect_bit_identical(disks, {0.0, 0.0},
                         "fuzz rep " + std::to_string(rep));
  }
}

// --- Sector-envelope prefilter ----------------------------------------------

struct SectorVerdicts {
  std::vector<std::uint8_t> drop;  ///< one verdict per disk
  std::vector<double> hi;          ///< per-sector upper bounds (padded rows)
  std::size_t dropped = 0;
};

SectorVerdicts sector_verdicts(const std::vector<geom::Disk>& disks,
                               geom::Vec2 o,
                               const simd::SkylineKernels& kernels) {
  geom::DiskSoA soa;
  soa.assign(disks);
  SectorVerdicts v;
  v.drop.assign(soa.padded_size(), 0xff);
  v.dropped = detail::sector_envelope_prefilter(soa, o, kernels, v.hi,
                                                v.drop.data());
  v.drop.resize(disks.size());
  return v;
}

/// Runtime dispatch and the scalar reference must agree bit for bit on
/// every bound and verdict.
void expect_same_sector_verdicts(const std::vector<geom::Disk>& disks,
                                 geom::Vec2 o, const std::string& label) {
  const SectorVerdicts a = sector_verdicts(disks, o, simd::active_kernels());
  const SectorVerdicts s = sector_verdicts(disks, o, simd::scalar_kernels());
  ASSERT_EQ(a.hi.size(), s.hi.size()) << label;
  for (std::size_t i = 0; i < a.hi.size(); ++i) {
    ASSERT_EQ(bits(a.hi[i]), bits(s.hi[i])) << label << ": bound " << i;
  }
  EXPECT_EQ(a.drop, s.drop) << label;
  EXPECT_EQ(a.dropped, s.dropped) << label;
}

/// No dropped disk may own a skyline arc: check against the brute-force
/// envelope, which shares no code with the prefilter or Merge.
void expect_drops_off_skyline(const std::vector<geom::Disk>& disks,
                              geom::Vec2 o, const std::string& label) {
  const SectorVerdicts v = sector_verdicts(disks, o, simd::active_kernels());
  const Skyline brute = compute_skyline_bruteforce(disks, o);
  for (const std::size_t idx : brute.skyline_set()) {
    EXPECT_EQ(v.drop[idx], 0) << label << ": dropped disk " << idx
                              << " owns a brute-force skyline arc";
  }
}

/// A relay's local disk set around the origin: the relay's own disk plus
/// n - 1 neighbors within min(r_relay, r_v), radii from [r_lo, r_hi].
std::vector<geom::Disk> local_set(sim::Xoshiro256& rng, std::size_t n,
                                  double r_lo, double r_hi) {
  std::vector<geom::Disk> disks;
  const double r0 = rng.uniform(r_lo, r_hi);
  disks.push_back({{0.0, 0.0}, r0});
  while (disks.size() < n) {
    const double radius = rng.uniform(r_lo, r_hi);
    const double reach = std::min(r0, radius);
    const geom::Vec2 c{rng.uniform(-reach, reach), rng.uniform(-reach, reach)};
    if (c.x * c.x + c.y * c.y > reach * reach) continue;
    disks.push_back({c, radius});
  }
  return disks;
}

/// de Berg et al.'s narrow-strip layouts: equal radii, every center inside
/// a strip of width `w` through the relay, so the centers are nearly
/// collinear and most boundaries cross at grazing angles.
std::vector<geom::Disk> narrow_strip(sim::Xoshiro256& rng, std::size_t n,
                                     double w) {
  std::vector<geom::Disk> disks;
  disks.push_back({{0.0, 0.0}, 1.0});
  while (disks.size() < n) {
    const geom::Vec2 c{rng.uniform(-1.0, 1.0), rng.uniform(0.0, w)};
    if (c.x * c.x + c.y * c.y <= 1.0) disks.push_back({c, 1.0});
  }
  return disks;
}

/// The degenerate corpus, each layout beside its label.
std::vector<std::pair<std::string, std::vector<geom::Disk>>>
sector_corpus() {
  std::vector<std::pair<std::string, std::vector<geom::Disk>>> corpus;
  sim::Xoshiro256 rng(0x5EC708ULL);
  for (int rep = 0; rep < 20; ++rep) {
    const std::string tag = " rep " + std::to_string(rep);
    std::vector<geom::Disk> base = local_set(rng, 24, 1.0, 2.0);

    std::vector<geom::Disk> coincident = base;  // duplicates and stacks
    coincident.push_back(base[3]);
    coincident.push_back(base[3]);
    coincident.push_back({base[5].center, base[5].radius * 0.9999999});
    corpus.emplace_back("coincident" + tag, std::move(coincident));

    std::vector<geom::Disk> tangent = base;  // internally tangent pairs
    tangent.push_back({{0.25, 0.0}, 0.5});   // inside the next one...
    tangent.push_back({{0.1, 0.0}, 0.65});   // ...touching it at (0.75, 0)
    tangent.push_back({{0.0, 0.5}, base[0].radius + 0.5});  // holds disk 0
    corpus.emplace_back("tangent" + tag, std::move(tangent));

    std::vector<geom::Disk> boundary = base;  // relay on a disk boundary
    boundary.push_back({{0.75, 0.0}, 0.75});
    boundary.push_back({{0.0, -1.5}, 1.5});
    corpus.emplace_back("boundary" + tag, std::move(boundary));

    std::vector<geom::Disk> centered = base;  // d = 0, several radii
    centered.push_back({{0.0, 0.0}, 0.5});
    centered.push_back({{0.0, 0.0}, 1.99});
    corpus.emplace_back("d=0" + tag, std::move(centered));

    corpus.emplace_back("equal radii" + tag, local_set(rng, 37, 1.0, 1.0));
    corpus.emplace_back("narrow band" + tag, narrow_band(rng, 30));
    corpus.emplace_back("strip 1e-3" + tag, narrow_strip(rng, 30, 1e-3));
    corpus.emplace_back("strip 1e-9" + tag, narrow_strip(rng, 30, 1e-9));
  }
  return corpus;
}

TEST(SkylineSimdTest, SectorVerdictsMatchScalarOnRandomSets) {
  sim::Xoshiro256 rng(0x5EC7012ULL);
  for (int rep = 0; rep < 50; ++rep) {
    const std::size_t n =
        1 + static_cast<std::size_t>(rng.uniform(0.0, 60.0));
    const std::vector<geom::Disk> disks = local_set(rng, n, 1.0, 2.0);
    const geom::Vec2 shift{rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)};
    std::vector<geom::Disk> moved = disks;
    for (geom::Disk& d : moved) d.center = d.center + shift;
    expect_same_sector_verdicts(disks, {0.0, 0.0},
                                "random rep " + std::to_string(rep));
    expect_same_sector_verdicts(moved, shift,
                                "shifted rep " + std::to_string(rep));
  }
}

TEST(SkylineSimdTest, SectorVerdictsMatchScalarOnDegenerateCorpus) {
  for (const auto& [label, disks] : sector_corpus()) {
    expect_same_sector_verdicts(disks, {0.0, 0.0}, label);
  }
}

TEST(SkylineSimdTest, SectorPrefilterKeepsEverySkylineDiskOfTheCorpus) {
  for (const auto& [label, disks] : sector_corpus()) {
    expect_drops_off_skyline(disks, {0.0, 0.0}, label);
  }
}

TEST(SkylineSimdTest, SectorUpperBoundsHoldAcrossEachSector) {
  // hi[k] must bound the radial distance at every angle of sector k, the
  // sector that holds the disk's center direction included.
  sim::Xoshiro256 rng(0xB0D5ULL);
  constexpr std::size_t kSectors = simd::kSectors;
  for (int rep = 0; rep < 20; ++rep) {
    const std::vector<geom::Disk> disks = local_set(rng, 13, 1.0, 2.0);
    const SectorVerdicts v =
        sector_verdicts(disks, {0.0, 0.0}, simd::active_kernels());
    const std::size_t stride = v.hi.size() / kSectors;
    for (std::size_t i = 0; i < disks.size(); ++i) {
      const long double cx = disks[i].center.x;
      const long double cy = disks[i].center.y;
      const long double r = disks[i].radius;
      for (std::size_t k = 0; k < kSectors; ++k) {
        for (int t = 0; t <= 64; ++t) {
          const long double theta =
              geom::kTwoPi * (static_cast<long double>(k) + t / 64.0L) /
              static_cast<long double>(kSectors);
          const long double ux = std::cos(theta);
          const long double uy = std::sin(theta);
          const long double across = cx * uy - cy * ux;
          const long double rho =
              cx * ux + cy * uy + std::sqrt(r * r - across * across);
          EXPECT_LE(static_cast<double>(rho),
                    v.hi[k * stride + i] + 1e-12 * disks[i].radius)
              << "rep " << rep << " disk " << i << " sector " << k;
        }
      }
    }
  }
}

TEST(SkylineSimdTest, SectorPrefilterKeepsPeaksInsideASector) {
  // Two tight layouts, rotated so the peak visits every part of every
  // sector.  (a) A disk whose center direction lies inside a sector pokes
  // 1e-3 past a unit circle around the relay: its true maximum, not the
  // sector's boundary rays, must bound it.  (b) A circle of radius 0.502
  // around the relay beats a big disk only near that disk's antipode,
  // where the big disk dips to r - d = 0.5: the antipode, not the
  // boundary rays, must give the big disk's lower bound.
  for (int t = 0; t < 64; ++t) {
    const double phi = (t + 0.5) * geom::kTwoPi / 64.0;
    const geom::Vec2 u{std::cos(phi), std::sin(phi)};
    const std::string tag = "phi " + std::to_string(phi);
    const std::vector<geom::Disk> peak = {{{0.0, 0.0}, 1.0},
                                          {{0.5 * u.x, 0.5 * u.y}, 0.501}};
    const std::vector<geom::Disk> dip = {{{-0.5 * u.x, -0.5 * u.y}, 1.0},
                                         {{0.0, 0.0}, 0.502}};
    for (const auto& [label, disks] :
         {std::pair{"peak " + tag, peak}, std::pair{"dip " + tag, dip}}) {
      const SectorVerdicts v =
          sector_verdicts(disks, {0.0, 0.0}, simd::active_kernels());
      EXPECT_EQ(v.dropped, 0u) << label;
      expect_drops_off_skyline(disks, {0.0, 0.0}, label);
    }
  }
}

TEST(SkylineSimdTest, SectorPrefilterKeepsDisksMissingTheRelay) {
  // The local-disk premise violated (d > r): such a disk is kept, and it
  // must not raise the envelope either, so a disk it would cover stays.
  const std::vector<geom::Disk> disks = {
      {{0.0, 0.0}, 1.0},   // the relay's disk
      {{3.0, 0.0}, 2.5},   // misses the relay, covers disk 2 to the right
      {{0.9, 0.0}, 0.95},  // pokes out of disk 0 only near +x
  };
  const SectorVerdicts v =
      sector_verdicts(disks, {0.0, 0.0}, simd::active_kernels());
  EXPECT_EQ(v.drop, (std::vector<std::uint8_t>{0, 0, 0}));
}

TEST(SkylineSimdTest, SectorPrefilterKeepsEverySkylineDiskOfDeployments) {
  // A few hundred relays of both radius models, at the paper's density.
  for (const auto model :
       {net::RadiusModel::kHomogeneous, net::RadiusModel::kUniform}) {
    net::DeploymentParams p;
    p.model = model;
    p.target_avg_degree = 36.8;
    sim::Xoshiro256 rng(0xB00DULL);
    const net::DiskGraph g =
        net::DiskGraph::build(net::generate_deployment(p, rng));
    std::vector<geom::Disk> disks;
    for (net::NodeId id = 0; id < g.size(); id += 8) {
      disks.clear();
      disks.push_back(g.node(id).disk());
      for (const net::NodeId v : g.neighbors(id)) {
        disks.push_back(g.node(v).disk());
      }
      expect_drops_off_skyline(disks, g.node(id).pos,
                               "relay " + std::to_string(id));
    }
  }
}

TEST(SkylineSimdTest, SectorPrefilterHalvesLiveDisksAtEqualRadii) {
  // Equal radii defeat the containment prefilter: before the sector pass
  // every one of the ~37 disks per relay reached the Merge levels.
  net::DeploymentParams p;
  p.model = net::RadiusModel::kHomogeneous;
  p.target_avg_degree = 36.8;
  p.side = 25.0;
  sim::Xoshiro256 rng(0xE0A1ULL);
  const net::DiskGraph g =
      net::DiskGraph::build(net::generate_deployment(p, rng));
  obs::Registry& reg = obs::registry();
  const auto read = [&reg](const char* name) {
    return reg.counter(name).value();
  };
  const std::uint64_t calls0 = read("skyline.calls");
  const std::uint64_t in0 = read("skyline.disks_in");
  const std::uint64_t sector0 = read("skyline.sector_rejects");
  const std::uint64_t contain0 = read("skyline.prefilter_rejects");
  SkylineWorkspace ws;
  std::vector<geom::Disk> disks;
  std::vector<Arc> arcs;
  for (net::NodeId id = 0; id < g.size(); id += 4) {
    disks.clear();
    disks.push_back(g.node(id).disk());
    for (const net::NodeId v : g.neighbors(id)) {
      disks.push_back(g.node(v).disk());
    }
    compute_skyline_arcs(disks, g.node(id).pos, ws, arcs);
  }
  const double calls = static_cast<double>(read("skyline.calls") - calls0);
  const double live = static_cast<double>(
      (read("skyline.disks_in") - in0) - (read("skyline.sector_rejects") -
                                          sector0) -
      (read("skyline.prefilter_rejects") - contain0));
  ASSERT_GT(calls, 0.0);
  EXPECT_LE(live / calls, 22.0);
}

TEST(SkylineSimdTest, DispatchRespectsEnvironmentOverride) {
  const char* env = std::getenv("MLDCS_SIMD");
  const bool forced_off =
      env != nullptr && (std::strcmp(env, "off") == 0 ||
                         std::strcmp(env, "scalar") == 0);
  if (forced_off) {
    // The .simd_off registration: the override must win over the CPU.
    EXPECT_STREQ(simd::dispatch_choice(), "scalar");
    EXPECT_EQ(&simd::active_kernels(), &simd::scalar_kernels());
  } else if (simd::simd_compiled() &&
             std::strcmp(simd::detected_isa(), "none") != 0) {
    // Wide kernels compiled in and supported: dispatch must take them.
    EXPECT_STREQ(simd::dispatch_choice(), simd::detected_isa());
  } else {
    EXPECT_STREQ(simd::dispatch_choice(), "scalar");
  }
}

}  // namespace
}  // namespace mldcs::core
