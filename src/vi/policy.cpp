#include "vi/policy.hpp"

#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"
#include "vi/compensate.hpp"

namespace vipvt {

std::vector<double> instance_criticality(const Design& design,
                                         const StaEngine& sta,
                                         const VariationModel& model,
                                         const DieLocation& loc, int samples,
                                         std::uint64_t seed,
                                         ThreadPool* pool) {
  if (samples < 1) {
    throw std::invalid_argument("instance_criticality: samples < 1");
  }
  // Per-worker private engine copy and fail tally; the integer tallies
  // are summed at the end.  Criticality is measured at the all-low supply
  // (the corner where the yield cliff manifests), independent of whatever
  // corner state the caller's engine happens to hold.
  struct Worker {
    Worker(const StaEngine& base, std::size_t n)
        : eng(base), fail_count(n, 0), factors(n) {
      eng.compute_base_all_low();
    }
    StaEngine eng;
    std::vector<std::uint32_t> fail_count;
    std::vector<double> factors;
  };
  std::mutex workers_mu;
  std::vector<std::shared_ptr<Worker>> workers;  // guarded by workers_mu
  const auto make_worker = [&] {
    auto w = std::make_shared<Worker>(sta, design.num_instances());
    std::lock_guard<std::mutex> lock(workers_mu);
    workers.push_back(w);
    return w;
  };
  const auto body = [&](std::shared_ptr<Worker>& w, std::size_t k) {
    Rng rng(substream_seed(seed, static_cast<std::uint64_t>(k)));
    const VirtualChip chip = fabricate_chip(design, model, loc, rng);
    for (InstId i = 0; i < design.num_instances(); ++i) {
      w->factors[i] = model.delay_factor(
          chip.lgate_nm[i], w->eng.inst_corner(i), design.cell_of(i).vth);
    }
    const std::vector<double> slack = w->eng.instance_slack(w->factors);
    for (InstId i = 0; i < design.num_instances(); ++i) {
      if (slack[i] < 0.0) ++w->fail_count[i];
    }
  };
  const auto n = static_cast<std::size_t>(samples);
  if (pool != nullptr) {
    parallel_for(*pool, n, make_worker, body);
  } else {
    auto w = make_worker();
    for (std::size_t k = 0; k < n; ++k) body(w, k);
  }

  std::vector<double> crit(design.num_instances());
  for (InstId i = 0; i < design.num_instances(); ++i) {
    std::uint32_t fails = 0;
    for (const auto& w : workers) fails += w->fail_count[i];
    crit[i] = static_cast<double>(fails) / static_cast<double>(samples);
  }
  return crit;
}

CompiledPolicy compile_policy_mix(const PolicyMix& mix, const Design& base,
                                  const StaEngine& base_sta,
                                  const VariationModel& model,
                                  const ActivityDb& base_activity,
                                  ThreadPool* pool) {
  CompiledPolicy out;
  out.stats.mix = mix.name;
  out.stats.sizing = mix.sizing.enabled;
  out.stats.buffering = mix.buffering.enabled;
  out.stats.area_um2 = base.total_area();
  if (!mix.transforms_design()) return out;  // pure-VI mix: alias baseline

  out.stats.crit_samples = mix.crit_samples;
  const std::vector<double> crit = instance_criticality(
      base, base_sta, model, DieLocation::point('A'), mix.crit_samples,
      mix.crit_seed, pool);

  auto design = std::make_unique<Design>(base);
  if (mix.sizing.enabled) {
    const SizingReport r = upsize_critical(*design, crit, mix.sizing);
    out.stats.gates_upsized = r.upsized;
  }
  if (mix.buffering.enabled) {
    const BufferingReport r =
        buffer_critical_nets(*design, crit, mix.buffering);
    out.stats.buffers_inserted = r.buffers_inserted;
    out.stats.nets_buffered = r.nets_split;
  }
  design->check();
  out.stats.area_delta_um2 = design->total_area() - out.stats.area_um2;
  out.stats.area_um2 = design->total_area();

  // Extend the activity database: each inserted buffer's leg toggles at
  // its source net's rate (a buffer repeats its input).  The buffer's
  // input is always an ORIGINAL net — buffer_critical_nets never
  // re-splits a leg — so the source rate is already present.
  auto activity = std::make_unique<ActivityDb>(base_activity);
  activity->toggle_rate.resize(design->num_nets(), 0.0);
  for (NetId n = static_cast<NetId>(base.num_nets());
       n < design->num_nets(); ++n) {
    const NetId src =
        design->instance(design->net(n).driver.inst).conns[0];
    activity->toggle_rate[n] = activity->toggle_rate[src];
  }

  auto sta = std::make_unique<StaEngine>(*design, base_sta.options());
  sta->compute_base_all_low();

  out.design = std::move(design);
  out.sta = std::move(sta);
  out.activity = std::move(activity);
  return out;
}

}  // namespace vipvt
