#pragma once
// Razor-style timing-sensor planning (paper §4.4).
//
// The violation scenario must be *detected* on fabricated silicon.  The
// paper's key cost saving: only flip-flops fed by signal paths that can
// become critical under process variation need a Razor (shadow-latch)
// flop — the Monte-Carlo SSTA reports exactly which endpoints those are
// (12 for the EX stage of the VEX at point A).  Everything else keeps a
// plain flop.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/design.hpp"
#include "timing/sta.hpp"
#include "variation/mc_ssta.hpp"

namespace vipvt {

struct RazorConfig {
  /// Minimum Monte-Carlo probability of endpoint violation for a sensor
  /// to be planned.  0 means "ever violated in any sample".
  double crit_prob_threshold = 0.0;
};

struct RazorPlan {
  std::vector<std::size_t> endpoint_indices;  ///< into StaEngine::endpoints()
  std::array<std::size_t, kNumPipeStages> per_stage{};
  std::size_t total() const { return endpoint_indices.size(); }
};

/// Plans sensors from the worst-case-location MC results (point A): every
/// flop endpoint whose violation probability exceeds the threshold.
RazorPlan plan_razor_sensors(const StaEngine& sta, const McResult& worst_case,
                             const RazorConfig& cfg = {});

/// Swaps the planned flops to Razor flip-flops (same pin interface,
/// larger area/power).  Returns the added area [um^2].  Rebuild timing
/// engines afterwards.
double apply_razor_plan(Design& design, const StaEngine& sta,
                        const RazorPlan& plan);

/// Post-silicon sensor readout: with the chip's true per-instance delay
/// factors at the all-low supply, which stages do the sensors flag?
std::array<bool, kNumPipeStages> sensor_flags(const StaEngine& sta,
                                              const RazorPlan& plan,
                                              const StaResult& all_low_truth);

/// Same readout from per-endpoint violation flags (violating[k] != 0 iff
/// endpoint k's slack is negative), as StaEngine::analyze_lazy reports
/// them.
std::array<bool, kNumPipeStages> sensor_flags(
    const StaEngine& sta, const RazorPlan& plan,
    std::span<const std::uint8_t> violating);

}  // namespace vipvt
