#include "vi/logic_islands.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vipvt {

LogicIslandGenerator::LogicIslandGenerator(Design& design, StaEngine& sta,
                                           const VariationModel& model,
                                           const LogicIslandConfig& cfg)
    : design_(&design), sta_(&sta), model_(&model), cfg_(cfg) {}

bool LogicIslandGenerator::trial_passes(const DrawTable& table) {
  MonteCarloSsta mc(*design_, *sta_, *model_);
  McConfig mcc;
  mcc.samples = cfg_.mc_samples;
  mcc.seed = cfg_.seed;  // common random numbers across trials
  mcc.confidence = cfg_.confidence;
  const McResult res =
      mc.run_with_systematic(table.systematic(), mcc, nullptr, nullptr, &table);
  const double margin =
      cfg_.slack_margin_fraction * sta_->options().clock_period_ns;
  for (PipeStage s :
       {PipeStage::Decode, PipeStage::Execute, PipeStage::WriteBack}) {
    const auto& sd = res.stage(s);
    if (sd.present && sd.three_sigma_slack() < margin) return false;
  }
  return true;
}

IslandPlan LogicIslandGenerator::generate(
    const std::vector<DieLocation>& severity_locations) {
  Design& d = *design_;
  const auto n = static_cast<InstId>(d.num_instances());
  if (severity_locations.empty()) {
    throw std::invalid_argument("LogicIslandGenerator: no scenarios");
  }
  const int num_islands = static_cast<int>(severity_locations.size());

  for (InstId i = 0; i < n; ++i) d.instance(i).domain = kDomainBase;

  IslandPlan plan;
  plan.dir = SliceDir::Vertical;  // nominal; geometry is not sliced
  plan.from_low_side = true;

  for (int island = 1; island <= num_islands; ++island) {
    const DieLocation& loc =
        severity_locations[static_cast<std::size_t>(island - 1)];
    const auto dom = static_cast<DomainId>(island);
    const auto corners = [&] {
      std::vector<int> c(static_cast<std::size_t>(num_islands) + 1, kVddLow);
      for (int k = 1; k <= island; ++k) c[static_cast<std::size_t>(k)] = kVddHigh;
      return c;
    }();

    // Every trial at this location reads the same draws, made once.
    const DrawTable table(d, *model_, model_->systematic_lgates(d, loc),
                          cfg_.seed, cfg_.mc_samples);

    // Criticality under this scenario's systematic corner: per-instance
    // slack with the current (already-raised) islands active and the
    // location's systematic Lgate applied.
    sta_->compute_base(corners);
    std::vector<double> factors(d.num_instances());
    for (InstId i = 0; i < n; ++i) {
      factors[i] = model_->delay_factor(table.systematic()[i],
                                        sta_->inst_corner(i), d.cell_of(i).vth);
    }
    const std::vector<double> slack = sta_->instance_slack(factors);

    // Candidates: base-domain cells ordered by ascending slack.
    std::vector<InstId> order;
    order.reserve(d.num_instances());
    for (InstId i = 0; i < n; ++i) {
      if (d.instance(i).domain == kDomainBase && std::isfinite(slack[i])) {
        order.push_back(i);
      }
    }
    std::sort(order.begin(), order.end(),
              [&](InstId a, InstId b) { return slack[a] < slack[b]; });

    auto assign_prefix = [&](std::size_t count, DomainId to) {
      for (std::size_t k = 0; k < count && k < order.size(); ++k) {
        d.instance(order[k]).domain = to;
      }
    };
    auto passes_with = [&](std::size_t count) {
      assign_prefix(count, dom);
      sta_->compute_base(corners);
      const bool ok = trial_passes(table);
      assign_prefix(count, kDomainBase);
      return ok;
    };

    bool feasible = true;
    std::size_t cut;
    if (passes_with(0)) {
      cut = 0;
    } else if (!passes_with(order.size())) {
      feasible = false;
      cut = order.size();
    } else {
      std::size_t lo = 0, hi = order.size();  // lo fails, hi passes
      while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (passes_with(mid)) {
          hi = mid;
        } else {
          lo = mid;
        }
      }
      cut = hi;
    }

    assign_prefix(cut, dom);
    plan.cell_count.push_back(cut);
    plan.feasible.push_back(feasible);
    plan.cuts.push_back(cut == 0 ? 0.0
                        : cut >= order.size()
                            ? slack[order.back()]
                            : slack[order[cut - 1]]);
  }

  sta_->compute_base_all_low();
  return plan;
}

}  // namespace vipvt
