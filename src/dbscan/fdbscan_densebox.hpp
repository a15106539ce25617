// FDBSCAN-DenseBox — Prokopenko et al.'s dense-box variant.
//
// The paper deliberately does not benchmark against it ("specialized to
// improve performance in datasets with very high density regions. In the
// absence of such regions, performance remains the same or is worse"), but
// discusses it in §V-B and §VII; we implement it so that claim is testable.
//
// Idea: superimpose a Cartesian grid whose cell diagonal is <= ε.  Any two
// points in the same cell are then within ε of each other, so a cell with
// >= minPts points (a "dense box") proves all its members are core points
// belonging to one cluster — with zero distance computations.  Phase 1
// skips all dense-box members; phase 2 replaces their per-point traversals
// with one inflated-box traversal per dense cell.
//
// Port notes: the original merges dense boxes into the BVH itself; here it
// is a configuration of the unified engine (dbscan/engine.hpp).  The
// engine's ε-cell grouping (group_eps_cells, the index::EpsCellGrid cells)
// supplies the dense boxes, phase 1 (index_phase1) queries only the points
// outside them, and phase 2 is the engine's cell-aware body (cell_phase2),
// which issues one volume query per all-core cell against the per-point
// backend (point BVH by default, swappable via Params::index).  That keeps
// the asymptotic savings (queries ~ #cells instead of #points in dense
// regions) with a simpler structure.  The session API (rtd::Clusterer)
// runs the same phase 2, without the phase-1 skip.
#pragma once

#include <span>

#include "dbscan/core.hpp"
#include "dbscan/fdbscan.hpp"

namespace rtd::dbscan {

struct DenseboxResult {
  Clustering clustering;
  std::uint64_t dense_cells = 0;   ///< grid cells that met the threshold
  std::uint64_t dense_points = 0;  ///< points proven core for free
  rt::TraversalStats phase1_work;
  rt::TraversalStats phase2_work;
};

DenseboxResult fdbscan_densebox(std::span<const geom::Vec3> points,
                                const Params& params,
                                const FdbscanOptions& options = {});

}  // namespace rtd::dbscan
