#pragma once

/// \file simd.hpp
/// Runtime-dispatched batch kernels for the skyline geometry hot path.
///
/// The divide-and-conquer skyline engine batches its per-span geometry —
/// circle-circle intersection, cut-angle finalization (atan2 + unit
/// vector), paired radial-distance evaluation, the dominated-disk
/// prefilter, and the sector-envelope prefilter — into flat task arrays
/// (see geom::DiskSoA) and runs each batch through one of these kernels.
/// Every kernel is implemented once, templated over a lane-width policy
/// (simd_kernels_impl.hpp), and instantiated per ISA:
///
///   * "scalar" — width-1 emulation, always compiled in.  This is the
///     differential reference: it executes the exact same operation
///     sequence as the wide policies, one lane at a time.
///   * "avx2"   — 4 x double, compiled on x86-64 when MLDCS_ENABLE_SIMD is
///     ON, selected at runtime only if the CPU reports AVX2.
///   * "neon"   — 2 x double, compiled on AArch64 (NEON is baseline there).
///
/// Bit-identity contract: kernels use only elementwise correctly-rounded
/// IEEE-754 double operations (add/sub/mul/div/sqrt/abs/compare/select) in
/// an identical order across policies, reduce across lanes only by an
/// exact max (sector_prefilter's envelope), and the kernel translation
/// units are built with -ffp-contract=off so the compiler cannot fuse a
/// mul+add into an FMA on one policy but not another.  Consequently scalar and SIMD dispatch produce byte-identical
/// outputs, which the engine turns into byte-identical skyline arcs.
///
/// Dispatch order: the `MLDCS_SIMD` environment variable ("off" or
/// "scalar" forces the fallback), else the best kernel the CPU supports,
/// else scalar.  The choice is made once per process.

#include <cstddef>
#include <cstdint>

namespace mldcs::geom::simd {

/// Callers pad every task batch up to a multiple of this many lanes
/// (equal to DiskSoA::kLaneBlock) with neutral inputs; kernels assume
/// `n % kBatchPad == 0` and that all arrays are readable/writable up to n.
inline constexpr std::size_t kBatchPad = 8;

/// Batched geom::intersect_circles against a common origin `o` = (ox, oy),
/// fused with the Merge span-acceptance test.  Lane i intersects circle
/// (ax, ay, ar)[i] with (bx, by, br)[i], writes the intersection points
/// *relative to o* (v0 = p0 - o, v1 = p1 - o; tangent lanes get
/// v0 = foot - o), and decides which points fall strictly inside the span
/// [alpha, beta][i] whose endpoint unit vectors are (uax, uay) / (ubx,
/// uby)[i]: spans narrower than 3.0 rad test two cross products against
/// the endpoint units, exact full-circle spans [0.0, 2*pi] test proximity
/// to the +x axis, and anything between is deferred to the caller.
/// acc[i] encodes the verdict: 0 = nothing to do (coincident / disjoint /
/// contained, or no point accepted); bit 0 / bit 1 = intersection point
/// 0 / 1 accepted; bit 2 = deferred — the caller must run the scalar
/// atan2 acceptance itself, on (acc[i] & 3) candidate points.
/// Arithmetic and tolerance tests replicate intersect_circles
/// (geometry/circle_intersect.cpp), up to a multiply-by-reciprocal
/// rewrite of its divisions (<= 1 ulp per quotient, far inside kTol).
///
/// The kernel additionally evaluates both disks' scaled radial distance
/// along the span's representative ray — the midpoint bisector ua + ub
/// for spans narrower than 3.0 rad, else the perpendicular of ua — into
/// (sda, sdb, sss), exactly as RhoPairsFn would (sss = |s|^2).  Spans
/// that end up cut-free (the common case) then need no separate
/// evaluation batch; spans with cuts simply ignore the speculation.
using CircleIsectFn = void (*)(std::size_t n, const double* ax,
                               const double* ay, const double* ar,
                               const double* bx, const double* by,
                               const double* br, const double* uax,
                               const double* uay, const double* ubx,
                               const double* uby, const double* alpha,
                               const double* beta, double ox, double oy,
                               double* v0x, double* v0y, double* v1x,
                               double* v1y, int* acc, double* sda,
                               double* sdb, double* sss);

/// Batched cut finalization: for each accepted cut vector v = p - o
/// (guaranteed |v| > kTol by the caller), writes ang = the angle of v in
/// [0, 2*pi) and the unit direction (ux, uy) = v / |v|.  The angle uses a
/// branch-free polynomial atan2 (max error ~1.5e-14 rad, five orders of
/// magnitude inside kAngleTol) so wide lanes need no libm calls.
using CutFinalizeFn = void (*)(std::size_t n, const double* vx,
                               const double* vy, double* ang, double* ux,
                               double* uy);

/// Batched paired radial-distance evaluation along *unnormalized* ray
/// directions s = (sx, sy): lane i writes
///   da[i] = dot(a - o, s) + sqrt(max(ar^2 |s|^2 - cross(a - o, s)^2, 0))
/// (= |s| * rho_a at the ray angle) and db[i] likewise — the scaled form
/// of merge.cpp's radial_distance_along, letting the caller use the cheap
/// bisector s = u_lo + u_hi instead of a normalized unit vector — plus
/// ss[i] = |s|^2, which the caller's tolerance gate rescales by.
using RhoPairsFn = void (*)(std::size_t n, const double* sx,
                            const double* sy, const double* ax,
                            const double* ay, const double* ar,
                            const double* bx, const double* by,
                            const double* br, double ox, double oy,
                            double* da, double* db, double* ss);

/// Dominated-disk prefilter for one candidate disk (cx, cy, r) against the
/// already-accepted containers (lx, ly, lr), stored radius-descending and
/// sentinel-padded to `n` (a kBatchPad multiple; see DiskSoA).  Returns
/// true iff the sequential scalar scan would: walk containers in order,
/// stop at the first with gap = (lr - r) - margin <= 0, report dominated
/// at the first with dist^2 <= gap^2, and give up after `max_checks`
/// inconclusive tests.  Lane blocks evaluate the tests in parallel but the
/// verdict is taken at the lowest-index lane, so the result matches the
/// scalar scan exactly, cap semantics included.
using PrefilterFn = bool (*)(double cx, double cy, double r,
                             const double* lx, const double* ly,
                             const double* lr, std::size_t n, double margin,
                             int max_checks);

/// Number of fixed angular sectors of the sector-envelope prefilter.
/// Sector k spans the angles [2*pi*k/kSectors, 2*pi*(k+1)/kSectors]
/// around the relay.
inline constexpr std::size_t kSectors = 16;

/// Sector-envelope prefilter for disks (cx, cy, r)[i] around relay
/// (ox, oy), `n` a kBatchPad multiple (sentinel-padded DiskSoA).  For each
/// disk i and sector k the kernel bounds disk i's radial distance rho_i
/// over the sector, lo_ik <= rho_i(theta) <= hi_ik, and sets drop[i] = 1
/// iff hi_ik < max_j lo_jk - margin in every sector (else 0): such a disk
/// trails the envelope at every angle.  With the relay inside the disk
/// (d = |c - o| <= r), rho is non-increasing in the angular distance from
/// the center direction, so each bound is rho at one of the sector's two
/// boundary rays, or d + r (hi) / r - d (lo) when the center direction /
/// its antipode lies in the sector — decided by the signs of two cross
/// products, no atan2.  Lanes with d^2 > r^2 (relay outside the disk) or a
/// negative radius (padding) get hi = +inf and lo = -inf, so they are never
/// dropped and never raise the envelope.  `hi` is kSectors * n scratch,
/// row k at [k * n, (k + 1) * n), left holding the upper bounds.  The one
/// cross-lane step, the per-sector max of lo, is exact in any order, so
/// verdicts are byte-identical across ISAs.
using SectorPrefilterFn = void (*)(std::size_t n, const double* cx,
                                   const double* cy, const double* r,
                                   double ox, double oy, double margin,
                                   double* hi, std::uint8_t* drop);

/// One ISA's kernel set.  All five entries always come from the same
/// policy instantiation, so mixing is impossible.
struct SkylineKernels {
  const char* name;  ///< "scalar", "avx2", or "neon"
  CircleIsectFn circle_isect;
  CutFinalizeFn cut_finalize;
  RhoPairsFn rho_pairs;
  PrefilterFn prefilter_dominated;
  SectorPrefilterFn sector_prefilter;
};

/// The width-1 reference kernels (always available).
[[nodiscard]] const SkylineKernels& scalar_kernels() noexcept;

/// The kernels selected for this process: scalar if the MLDCS_SIMD
/// environment variable is "off"/"scalar" or nothing better is compiled
/// in/supported, else the widest supported ISA.  The decision is made on
/// first call and cached.
[[nodiscard]] const SkylineKernels& active_kernels() noexcept;

/// ISA the CPU supports among the compiled-in kernels ("avx2", "neon",
/// "none") — independent of the MLDCS_SIMD override.
[[nodiscard]] const char* detected_isa() noexcept;

/// Name of the kernel set active_kernels() returns.
[[nodiscard]] const char* dispatch_choice() noexcept;

/// True when a wide (non-scalar) kernel set was compiled into this binary
/// (MLDCS_ENABLE_SIMD=ON and the target architecture has one).
[[nodiscard]] bool simd_compiled() noexcept;

/// Test/bench hook: force active_kernels() to return `k` for this object's
/// lifetime.  Process-global and not thread-safe — install it before
/// spawning workers and keep it alive until they quiesce (the differential
/// tests and the perf suite both use it single-threaded).
class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(const SkylineKernels& k) noexcept;
  ~ScopedKernelOverride();

  ScopedKernelOverride(const ScopedKernelOverride&) = delete;
  ScopedKernelOverride& operator=(const ScopedKernelOverride&) = delete;

 private:
  const SkylineKernels* prev_;
};

}  // namespace mldcs::geom::simd
