#pragma once
// Placement-aware voltage-island generation (paper §4.5).
//
// Islands are floorplan slices — full-height vertical strips or
// full-width horizontal strips — grown greedily from the most promising
// die side, so the performance-optimized placement is disturbed only by
// the later level-shifter insertion, never by cell regrouping.  Islands
// are *nested by severity*: island 1 alone compensates the mildest
// violation scenario; islands 1+2 the next; islands 1+2+3 the worst.
// Moving from one scenario to the next severity raises exactly one more
// island, which is the property that makes post-silicon control trivial.
//
// The growth check is the methodology's own validation loop: a trial
// Monte-Carlo SSTA at the scenario's representative die location with the
// candidate cells at high Vdd; the slice is the minimal prefix (in the
// slicing direction) for which no pipeline stage violates its 3-sigma
// slack.  The search uses common random numbers so the pass/fail
// predicate is monotone in the prefix size and binary search applies:
// every trial at one location reads the same draws, from one DrawTable.

#include <vector>

#include "placement/floorplan.hpp"
#include "variation/mc_ssta.hpp"
#include "vi/scenario.hpp"

namespace vipvt {

enum class SliceDir { Horizontal, Vertical };
const char* slice_dir_name(SliceDir d);

struct IslandConfig {
  SliceDir dir = SliceDir::Vertical;
  int mc_samples = 120;
  std::uint64_t seed = 0x151a9d5;
  /// Required post-boost 3-sigma slack: max of the absolute value and
  /// the clock fraction.  A small positive margin absorbs Monte-Carlo
  /// estimator noise so islands sized with one seed still compensate
  /// chips sampled with another.
  double slack_margin_ns = 0.0;
  double slack_margin_fraction = 0.008;
  double confidence = 0.95;
};

struct IslandPlan {
  SliceDir dir = SliceDir::Vertical;
  bool from_low_side = true;  ///< slices grow from the low-x/low-y edge
  /// Cut coordinate (um, in slice-key space measured from the start
  /// side) per island; island k spans keys [cuts[k-1], cuts[k]).
  std::vector<double> cuts;
  std::vector<std::size_t> cell_count;  ///< cells per island
  std::vector<bool> feasible;           ///< island compensates its scenario

  int num_islands() const { return static_cast<int>(cuts.size()); }
  std::size_t total_island_cells() const;

  /// Supply corner per domain when `severity` stages violate: islands
  /// 1..severity at the high corner.  Vector is indexed by DomainId.
  std::vector<int> corners_for_severity(int severity) const;

  /// Priority rank of a domain: can domain `a` ever be at high Vdd while
  /// `b` is still low?  Yes iff rank(a) > rank(b).  Island 1 has the
  /// highest rank (raised first), the base domain rank 0.
  int domain_rank(DomainId d) const;
};

class IslandGenerator {
 public:
  /// The engine must hold nominal all-low base delays on entry; on exit
  /// the design's Instance::domain fields carry the island assignment and
  /// the engine is restored to all-low base delays.
  IslandGenerator(Design& design, const Floorplan& fp, StaEngine& sta,
                  const VariationModel& model, const IslandConfig& cfg);

  /// `severity_locations[k]` is the representative (worst) die location
  /// where k+1 stages violate; one island is generated per entry.  Both
  /// start sides grow island k from one draw table of location k before
  /// either moves on, so one table is alive at a time.
  IslandPlan generate(const std::vector<DieLocation>& severity_locations);

 private:
  /// Slice-space key of an instance (distance from the start side).
  double slice_key(InstId i, bool from_low_side) const;
  bool trial_passes(const DrawTable& table);

  Design* design_;
  const Floorplan* fp_;
  StaEngine* sta_;
  const VariationModel* model_;
  IslandConfig cfg_;
};

}  // namespace vipvt
