// EpsCellGrid — the one definition of the ε-cell ("dense box") grid.
//
// Prokopenko et al.'s certificate: a Cartesian grid whose cell DIAGONAL is
// ε (edge ε/√3, or ε/√2 for flat z = const data) anchored at the low corner
// of the points' bounds.  Any two points sharing a cell are then within ε
// of each other.  index::DenseBoxIndex walks these cells to answer queries;
// the engine's cell phases (dbscan::group_eps_cells, sort_eps_cells,
// cell_phase1, cell_graph_phase2) group the points by them.  All build
// their grid through this type, so a cell means the same thing everywhere.
#pragma once

#include <cmath>
#include <cstdint>

#include "geom/aabb.hpp"

namespace rtd::index {

struct EpsCellGrid {
  /// Cells per axis a packed cell key can address (21 bits per axis, one
  /// bit of headroom for query coordinates below the origin).
  static constexpr float kMaxAxisCells = static_cast<float>(1 << 20);

  geom::Vec3 origin{0.0f, 0.0f, 0.0f};
  float edge = 0.0f;

  EpsCellGrid() = default;

  /// The grid over points bounded by `bounds` at radius `eps`.  Flat data
  /// (zero z-extent, or no points at all) only needs the 2-D diagonal.
  EpsCellGrid(const geom::Aabb& bounds, float eps)
      : origin(bounds.is_empty() ? geom::Vec3{0.0f, 0.0f, 0.0f} : bounds.lo),
        edge(eps / std::sqrt(bounds.is_empty() || bounds.extent().z <= 0.0f
                                 ? 2.0f
                                 : 3.0f)) {}

  /// Cell coordinate of `v` on the axis whose origin component is `lo`.
  [[nodiscard]] std::int64_t coord(float v, float lo) const {
    return static_cast<std::int64_t>(std::floor((v - lo) / edge));
  }

  /// True when every axis of `bounds` spans fewer than kMaxAxisCells cells.
  /// Beyond that, packed keys would alias distinct cells, and a cell
  /// certificate could fuse far-apart points.
  [[nodiscard]] bool fits_key_range(const geom::Aabb& bounds) const {
    if (bounds.is_empty()) return true;
    const geom::Vec3 e = bounds.extent();
    // `<` is false for an inf/NaN ratio (ε tiny against the extent), so
    // those fail too.
    return e.x / edge < kMaxAxisCells && e.y / edge < kMaxAxisCells &&
           e.z / edge < kMaxAxisCells;
  }
};

}  // namespace rtd::index
