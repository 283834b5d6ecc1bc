#pragma once
// Wirelength-driven global placement + row legalization.
//
// The global pass is an iterated centroid (force-directed) scheme with
// grid-density spreading: each cell is pulled to the weighted centroid of
// its nets' bounding boxes while overfull density bins push cells apart.
// Legalization is a tetris sweep onto rows/sites.  The result has the
// one property the paper's voltage-island methodology relies on: cells of
// different pipeline stages end up *interleaved* across the floorplan
// according to connectivity, not grouped by logic hierarchy.
//
// PlacementDb keeps the per-site occupancy after legalization so that the
// level-shifter insertion step can place new cells incrementally near a
// target point without disturbing the optimized placement.

#include <optional>
#include <vector>

#include "netlist/design.hpp"
#include "placement/floorplan.hpp"

namespace vipvt {

struct PlacerConfig {
  int iterations = 60;          ///< centroid+spreading rounds
  double damping = 0.85;        ///< fraction of the move toward the centroid
  int spread_every = 4;         ///< density spreading every k-th iteration
  double spread_strength = 0.55;///< fraction of overflow displacement applied
  int density_bins = 24;        ///< density grid is bins x bins
  /// Whitespace quantum during legalization: sub-quantum gaps are
  /// squeezed out so free space clusters into ECO-usable holes at least
  /// this many sites wide (level shifters are ~30+ sites).
  int eco_gap_sites = 44;
  /// true: start from uniform random positions (baseline experiments);
  /// false: seed with the construction-order serpentine, which carries
  /// strong logical locality for generated netlists.
  bool random_init = false;
  std::uint64_t seed = 0x91acedULL;
};

/// Site-granular occupancy map of the legalized placement.  Sites record
/// which instance occupies them, which lets ECO insertion shove existing
/// cells aside (the paper's "incremental placement" for level shifters).
class PlacementDb {
 public:
  /// Marker for sites occupied by something that must not be moved.
  static constexpr InstId kBlocked = kInvalidInst - 1;

  explicit PlacementDb(const Floorplan& fp);

  const Floorplan& floorplan() const { return *fp_; }

  bool is_free(int row, int site, int span) const;
  /// Occupy with an immovable blocker (tests / reserved areas).
  void occupy(int row, int site, int span) {
    occupy_inst(row, site, span, kBlocked);
  }
  /// Occupy on behalf of an instance (movable during ECO shoves).
  void occupy_inst(int row, int site, int span, InstId inst);
  void release(int row, int site, int span);

  /// Finds the free span of `span` sites nearest to `target` (spiral row
  /// search + in-row scan), occupies it and returns its lower-left
  /// coordinate.  Returns nullopt if no free span exists.
  std::optional<Point> allocate_near(Point target, int span,
                                     InstId inst = kBlocked);

  /// ECO insertion: like allocate_near, but when no free span exists it
  /// opens one by shifting movable cells sideways within a row (their
  /// Instance::pos in `design` is updated).  Returns nullopt only if the
  /// die genuinely lacks `span` free sites in every row.
  std::optional<Point> allocate_with_shove(Design& design, Point target,
                                           int span, InstId inst);

  /// Fraction of sites occupied.
  double utilization() const;

 private:
  /// Opens a `span`-site gap in `row` as close to `site` as the row's
  /// free space allows, shifting movable cells; returns the gap's start
  /// site, or nullopt if the row lacks room.
  std::optional<int> try_open_gap(Design& design, int row, int site, int span);

  const Floorplan* fp_;
  std::vector<std::vector<InstId>> occ_;  // [row][site]; kInvalidInst = free
  std::size_t occupied_ = 0;
};

struct PlaceResult {
  double hpwl_um = 0.0;      ///< total half-perimeter wirelength
  double max_displacement = 0.0;  ///< global->legal displacement [um]
};

/// Places every instance of `design` (writes Instance::pos / placed) and
/// returns the occupancy database for incremental edits.
PlaceResult place_design(Design& design, const Floorplan& fp,
                         const PlacerConfig& cfg, PlacementDb& db);

/// Total half-perimeter wirelength of the current placement.  Nets with
/// fewer than 2 pins and the clock net are skipped.
double total_hpwl(const Design& design);

/// Bounding-box wirelength of one net (primary ports count at their
/// boundary position; unplaced instances are an error).
double net_hpwl(const Design& design, NetId net);

/// Cell-count density over an n x n grid (row-major, [y][x] flattened).
std::vector<double> density_map(const Design& design, const Floorplan& fp,
                                int n);

}  // namespace vipvt
