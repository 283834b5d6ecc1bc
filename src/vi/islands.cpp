#include "vi/islands.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace vipvt {

const char* slice_dir_name(SliceDir d) {
  return d == SliceDir::Horizontal ? "horizontal" : "vertical";
}

std::size_t IslandPlan::total_island_cells() const {
  std::size_t total = 0;
  for (auto c : cell_count) total += c;
  return total;
}

std::vector<int> IslandPlan::corners_for_severity(int severity) const {
  std::vector<int> corners(static_cast<std::size_t>(num_islands()) + 1,
                           kVddLow);
  for (int k = 1; k <= severity && k <= num_islands(); ++k) {
    corners[static_cast<std::size_t>(k)] = kVddHigh;
  }
  return corners;
}

int IslandPlan::domain_rank(DomainId d) const {
  if (d == kDomainBase) return 0;
  // Island 1 is raised in every scenario => highest rank.
  return num_islands() - static_cast<int>(d) + 1;
}

IslandGenerator::IslandGenerator(Design& design, const Floorplan& fp,
                                 StaEngine& sta, const VariationModel& model,
                                 const IslandConfig& cfg)
    : design_(&design), fp_(&fp), sta_(&sta), model_(&model), cfg_(cfg) {}

double IslandGenerator::slice_key(InstId i, bool from_low_side) const {
  const Instance& inst = design_->instance(i);
  const Rect& die = fp_->die();
  const double coord =
      cfg_.dir == SliceDir::Vertical ? inst.pos.x : inst.pos.y;
  const double lo = cfg_.dir == SliceDir::Vertical ? die.lo.x : die.lo.y;
  const double hi = cfg_.dir == SliceDir::Vertical ? die.hi.x : die.hi.y;
  return from_low_side ? coord - lo : hi - coord;
}

bool IslandGenerator::trial_passes(const DrawTable& table) {
  // Base delays at the trial's corner assignment were already installed
  // by the caller; run the scenario MC and apply the 3-sigma criterion.
  MonteCarloSsta mc(*design_, *sta_, *model_);
  McConfig mcc;
  mcc.samples = cfg_.mc_samples;
  mcc.seed = cfg_.seed;  // common random numbers across trials
  mcc.confidence = cfg_.confidence;
  const McResult res =
      mc.run_with_systematic(table.systematic(), mcc, nullptr, nullptr, &table);
  const double margin =
      std::max(cfg_.slack_margin_ns,
               cfg_.slack_margin_fraction * sta_->options().clock_period_ns);
  for (PipeStage s :
       {PipeStage::Decode, PipeStage::Execute, PipeStage::WriteBack}) {
    const auto& sd = res.stage(s);
    if (sd.present && sd.three_sigma_slack() < margin) {
      return false;
    }
  }
  return true;
}

IslandPlan IslandGenerator::generate(
    const std::vector<DieLocation>& severity_locations) {
  Design& d = *design_;
  const auto n = static_cast<std::uint32_t>(d.num_instances());
  if (severity_locations.empty()) {
    throw std::invalid_argument("IslandGenerator: no scenarios");
  }
  if (severity_locations.size() >= 250) {
    throw std::invalid_argument("IslandGenerator: too many islands");
  }

  const int num_islands = static_cast<int>(severity_locations.size());

  // One nested-island construction per start side.  A trial reads only
  // the design's domain assignment, from which compute_base rebuilds
  // every base delay, so the sides take turns on the design: each keeps
  // its committed domains and installs them before its search.
  struct Side {
    IslandPlan plan;
    std::vector<InstId> sorted;  ///< instances sorted by slice key
    std::vector<DomainId> domains;
    std::size_t prev_idx = 0;
  };
  std::array<Side, 2> sides;
  for (std::size_t s = 0; s < sides.size(); ++s) {
    Side& side = sides[s];
    const bool from_low = s == 0;
    side.plan.dir = cfg_.dir;
    side.plan.from_low_side = from_low;
    side.sorted.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) side.sorted[i] = i;
    std::sort(side.sorted.begin(), side.sorted.end(),
              [&](InstId a, InstId b) {
                return slice_key(a, from_low) < slice_key(b, from_low);
              });
    side.domains.assign(n, kDomainBase);
  }

  for (int island = 1; island <= num_islands; ++island) {
    const DieLocation& loc =
        severity_locations[static_cast<std::size_t>(island - 1)];
    const auto dom = static_cast<DomainId>(island);
    const auto corners = [&] {
      std::vector<int> c(static_cast<std::size_t>(num_islands) + 1, kVddLow);
      for (int k = 1; k <= island; ++k) {
        c[static_cast<std::size_t>(k)] = kVddHigh;
      }
      return c;
    }();
    const DrawTable table(d, *model_, model_->systematic_lgates(d, loc),
                          cfg_.seed, cfg_.mc_samples);

    for (Side& side : sides) {
      for (InstId i = 0; i < n; ++i) d.instance(i).domain = side.domains[i];
      const std::size_t prev_idx = side.prev_idx;
      auto assign_prefix = [&](std::size_t from, std::size_t to,
                               DomainId to_dom) {
        for (std::size_t k = from; k < to; ++k) {
          d.instance(side.sorted[k]).domain = to_dom;
        }
      };
      auto passes_with_prefix = [&](std::size_t idx) {
        assign_prefix(prev_idx, idx, dom);
        sta_->compute_base(corners);
        const bool ok = trial_passes(table);
        assign_prefix(prev_idx, idx, kDomainBase);  // roll back trial
        return ok;
      };

      bool feasible = true;
      std::size_t cut_idx;
      if (passes_with_prefix(prev_idx)) {
        // Already-raised islands suffice; this island stays empty so the
        // nesting structure stays intact.
        cut_idx = prev_idx;
      } else if (!passes_with_prefix(n)) {
        feasible = false;
        cut_idx = n;
      } else {
        std::size_t lo = prev_idx, hi = n;  // lo fails, hi passes
        while (hi - lo > 1) {
          const std::size_t mid = lo + (hi - lo) / 2;
          if (passes_with_prefix(mid)) {
            hi = mid;
          } else {
            lo = mid;
          }
        }
        cut_idx = hi;
      }

      for (std::size_t k = prev_idx; k < cut_idx; ++k) {
        side.domains[side.sorted[k]] = dom;
      }
      IslandPlan& plan = side.plan;
      plan.cell_count.push_back(cut_idx - prev_idx);
      plan.feasible.push_back(feasible);
      plan.cuts.push_back(
          cut_idx == 0 ? 0.0
          : cut_idx >= n
              ? slice_key(side.sorted[n - 1], plan.from_low_side) + 1.0
              : slice_key(side.sorted[cut_idx], plan.from_low_side));
      side.prev_idx = cut_idx;
    }
  }

  // "Most promising side" (paper §4.5): evaluated empirically — build
  // from both sides and keep the plan that compensates the mildest
  // scenario with the smaller first island (ties: fewer total cells).
  auto better = [&](const IslandPlan& a, const IslandPlan& b) {
    const bool a_ok = a.feasible.empty() || a.feasible.front();
    const bool b_ok = b.feasible.empty() || b.feasible.front();
    if (a_ok != b_ok) return a_ok;
    if (a.cell_count.front() != b.cell_count.front()) {
      return a.cell_count.front() < b.cell_count.front();
    }
    return a.total_island_cells() <= b.total_island_cells();
  };
  Side& winner = better(sides[0].plan, sides[1].plan) ? sides[0] : sides[1];
  for (InstId i = 0; i < n; ++i) d.instance(i).domain = winner.domains[i];

  // Restore nominal base delays for the caller.
  sta_->compute_base_all_low();
  return std::move(winner.plan);
}

}  // namespace vipvt
