#pragma once

/// \file bbox.hpp
/// Axis-aligned bounding boxes; used by the spatial grid, the SVG example,
/// and the area-estimation helpers.

#include <algorithm>
#include <limits>
#include <span>

#include "geometry/disk.hpp"
#include "geometry/vec2.hpp"

namespace mldcs::geom {

/// Axis-aligned bounding box [min.x, max.x] x [min.y, max.y].
struct BBox {
  Vec2 min{std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity()};
  Vec2 max{-std::numeric_limits<double>::infinity(),
           -std::numeric_limits<double>::infinity()};

  /// The whole plane: contains every finite point.
  [[nodiscard]] static BBox plane() noexcept {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    return {{-kInf, -kInf}, {kInf, kInf}};
  }

  [[nodiscard]] bool empty() const noexcept {
    return min.x > max.x || min.y > max.y;
  }

  [[nodiscard]] double width() const noexcept { return max.x - min.x; }
  [[nodiscard]] double height() const noexcept { return max.y - min.y; }
  [[nodiscard]] double area() const noexcept {
    return empty() ? 0.0 : width() * height();
  }
  [[nodiscard]] Vec2 center() const noexcept { return midpoint(min, max); }

  [[nodiscard]] bool contains(Vec2 p) const noexcept {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }

  void expand(Vec2 p) noexcept {
    min.x = std::min(min.x, p.x);
    min.y = std::min(min.y, p.y);
    max.x = std::max(max.x, p.x);
    max.y = std::max(max.y, p.y);
  }

  void expand(const Disk& d) noexcept {
    expand(d.center - Vec2{d.radius, d.radius});
    expand(d.center + Vec2{d.radius, d.radius});
  }

  /// Grow the box by `margin` on every side.
  [[nodiscard]] BBox inflated(double margin) const noexcept {
    BBox b = *this;
    b.min -= Vec2{margin, margin};
    b.max += Vec2{margin, margin};
    return b;
  }
};

/// Bounding box of a set of disks.
[[nodiscard]] inline BBox bbox_of(std::span<const Disk> disks) noexcept {
  BBox b;
  for (const Disk& d : disks) b.expand(d);
  return b;
}

/// Bounding box of a set of points.
[[nodiscard]] inline BBox bbox_of(std::span<const Vec2> pts) noexcept {
  BBox b;
  for (const Vec2& p : pts) b.expand(p);
  return b;
}

}  // namespace mldcs::geom
