#include "variation/mc_ssta.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

namespace vipvt {

double McResult::worst_three_sigma_slack() const {
  double worst = std::numeric_limits<double>::infinity();
  for (const auto& sd : stages) {
    if (sd.present) worst = std::min(worst, sd.three_sigma_slack());
  }
  return worst;
}

const char* mc_stop_name(McStop reason) {
  switch (reason) {
    case McStop::FixedBudget: return "fixed-budget";
    case McStop::Converged: return "converged";
    case McStop::MaxSamples: return "max-samples";
  }
  return "?";
}

int McResult::num_violating_stages() const {
  int n = 0;
  for (PipeStage s : {PipeStage::Decode, PipeStage::Execute,
                      PipeStage::WriteBack}) {
    if (stage(s).violates()) ++n;
  }
  return n;
}

MonteCarloSsta::MonteCarloSsta(const Design& design, const StaEngine& sta,
                               const VariationModel& model)
    : design_(&design), sta_(&sta), model_(&model) {}

McResult MonteCarloSsta::run(const DieLocation& loc,
                             const McConfig& cfg) const {
  const std::vector<double> systematic =
      model_->systematic_lgates(*design_, loc);
  return run_with_systematic(systematic, cfg);
}

TimingCone MonteCarloSsta::cone(std::span<const double> systematic) const {
  std::vector<double> bounds;
  model_->factor_bounds(model_->table_rows(*design_, *sta_), systematic,
                        bounds);
  return sta_->build_cone(bounds);
}

McResult MonteCarloSsta::run_with_systematic(std::span<const double> systematic,
                                             const McConfig& cfg,
                                             const TimingCone* cone,
                                             McWorkspace* ws) const {
  const AdaptivePolicy& ap = cfg.adaptive;
  if (ap.enabled &&
      (ap.min_samples < 1 || ap.max_samples < ap.min_samples ||
       ap.check_every_batches < 1 ||
       !(ap.confidence > 0.0 && ap.confidence < 1.0))) {
    throw std::invalid_argument(
        "MonteCarloSsta: degenerate AdaptivePolicy (need 1 <= min_samples "
        "<= max_samples, check_every_batches >= 1, confidence in (0,1))");
  }
  if (cfg.profile != DrawProfile::Scalar &&
      cfg.profile != DrawProfile::BatchedSimd) {
    throw std::invalid_argument(
        "MonteCarloSsta: unknown draw profile id " +
        std::to_string(static_cast<int>(cfg.profile)) +
        " (id 1, the Batched profile, is retired; use Scalar = 0 or "
        "BatchedSimd = 2)");
  }
  const std::size_t num_inst = design_->num_instances();
  if (systematic.size() < num_inst) {
    throw std::invalid_argument("run_with_systematic: short systematic map");
  }
  // Fixed mode runs the whole budget; adaptive mode treats it as a cap
  // and may stop at any earlier round boundary.
  const int budget = ap.enabled ? ap.max_samples : cfg.samples;

  McResult result;
  result.samples = budget;
  for (int s = 0; s < kNumPipeStages; ++s) {
    result.stages[s].stage = static_cast<PipeStage>(s);
    result.stages[s].samples.reserve(
        static_cast<std::size_t>(std::max(budget, 0)));
  }
  const auto& endpoints = sta_->endpoints();
  const std::size_t num_eps = endpoints.size();
  result.endpoint_crit_prob.assign(num_eps, 0.0);
  result.endpoint_stage_crit.assign(num_eps, 0);
  if (budget <= 0) return result;
  const auto cap = static_cast<std::size_t>(budget);
  // No batch holds more than the budget, so the lane buffers never need
  // more; the width-invariance contract keeps every bit.
  const auto width =
      static_cast<std::size_t>(std::min(std::max(cfg.batch, 1), budget));
  result.min_period_samples.reserve(cap);

  // Sample-invariant precomputes: the systematic Lgate map arrives from
  // the caller (evaluated once per run — or once per reticle slot in the
  // wafer path); the correlated-field stencils hoist the bilinear
  // index/weight/sqrt work out of the per-gate per-sample loop.
  TimingCone own_cone;
  if (cone == nullptr) {
    own_cone = this->cone(systematic);
    cone = &own_cone;
  }
  const std::vector<CorrelatedField::Stencil> stencils =
      model_->field_stencils(*design_);
  // The table row per instance depends only on the engine's corners,
  // which the run does not change: built once here, read by every batch
  // (DESIGN.md §11).  The cone's instances decide what a batch draws: the
  // BatchedSimd profile draws their Box–Muller pair runs only; the Scalar
  // profile draws every normal but evaluates only their factors
  // (DESIGN.md §22).
  std::vector<std::int32_t> rows;
  std::vector<VariationModel::PairRun> runs;
  std::vector<std::uint8_t> live;
  if (cfg.profile != DrawProfile::Scalar) {
    rows = model_->table_rows(*design_, *sta_);
    runs = VariationModel::pair_runs(cone->instances);
  } else {
    live.assign(num_inst, 0);
    for (const std::uint32_t i : cone->instances) live[i] = 1;
  }

  // Per-sample slots (the adaptive cap is the worst case), aggregated in
  // sample order after the loop.  Appending each lane straight to the
  // result allocates less, yet measured 21.1 MB peak RSS against 18.2 on
  // bench/e2e's four-thread wafer_mc: a glibc heap-layout effect.
  std::vector<std::array<double, kNumPipeStages>> stage_wns(cap);
  std::vector<double> min_period(cap);

  // The run samples on the engine itself, through the caller's workspace
  // when one is given; workspace buffers only grow, so a workspace reused
  // across runs allocates once.  The BatchedSimd SoA factor arena is the
  // run's own (see McWorkspace); the Scalar profile needs none.
  McWorkspace own_ws;
  McWorkspace& w = ws != nullptr ? *ws : own_ws;
  if (w.results.size() < width) w.results.resize(width);
  w.crit.assign(num_eps, 0);
  w.stage_crit.assign(num_eps, 0);
  if (cfg.profile == DrawProfile::Scalar && w.factors.size() < width) {
    w.factors.resize(width);
  }
  AlignedVec<double> factor_soa(
      cfg.profile == DrawProfile::Scalar ? 0 : num_inst * width);

  // Batches [begin, end), in sample order.
  const std::size_t total_batches = (cap + width - 1) / width;
  const auto run_batches = [&](std::size_t begin, std::size_t end) {
    for (std::size_t bi = begin; bi < end; ++bi) {
      const std::size_t first = bi * width;
      const std::size_t lanes = std::min(width, cap - first);
      const auto results = std::span(w.results).first(lanes);
      if (cfg.profile != DrawProfile::Scalar) {
        // Draw all lanes in one pass directly into the SoA layout the
        // propagation kernel consumes; no per-batch transpose.  (lanes is
        // the SoA stride: the tail batch packs tightly, and every lane's
        // bits are width-independent by the draw's contract.)
        const auto soa = std::span(factor_soa).first(num_inst * lanes);
        model_->draw_batch(rows, systematic, stencils, cfg.seed, first,
                           lanes, soa, w.scratch, runs);
        sta_->analyze_batch_soa(soa, lanes, results, *cone);
      } else {
        for (std::size_t l = 0; l < lanes; ++l) {
          Rng rng(substream_seed(cfg.seed, first + l));
          model_->draw_factors(*design_, *sta_, systematic, stencils, rng,
                               w.factors[l], live);
        }
        if (lanes == 1) {  // one lane is its own SoA row
          sta_->analyze_batch_soa(w.factors[0], 1, results, *cone);
        } else {
          sta_->analyze_batch(std::span(w.factors).first(lanes), results,
                              *cone);
        }
      }
      for (std::size_t l = 0; l < lanes; ++l) {
        const StaResult& sr = results[l];
        stage_wns[first + l] = sr.stage_wns;
        min_period[first + l] = sr.min_period_ns;
        // Only live endpoints can count (DESIGN.md §22).
        for (const std::uint32_t epi : cone->endpoints) {
          const double slack = sr.endpoint_slack[epi];
          if (!std::isfinite(slack)) continue;
          if (slack < 0.0) ++w.crit[epi];
          const double swns =
              sr.stage_wns[static_cast<std::size_t>(endpoints[epi].stage)];
          if (slack <= swns + 1e-12) ++w.stage_crit[epi];
        }
      }
    }
  };

  std::size_t num_samples = cap;
  if (!ap.enabled) {
    run_batches(0, total_batches);
  } else {
    // Sequential sampling: draw `check_every_batches` whole batches per
    // round, extend the per-stage Welford accumulators with ONLY the new
    // round's samples (in sample order — no refit over the prefix), and
    // stop at the first round boundary >= min_samples where every
    // present stage's µ and σ confidence intervals are tight enough.
    // Round boundaries are sample counts, a function of (policy, batch
    // width) alone.
    const auto cadence = static_cast<std::size_t>(ap.check_every_batches);
    std::array<RunningStats, kNumPipeStages> acc;
    std::size_t accumulated = 0;
    std::size_t batches_done = 0;
    result.stopping_reason = McStop::MaxSamples;
    while (batches_done < total_batches) {
      const std::size_t round =
          std::min(cadence, total_batches - batches_done);
      run_batches(batches_done, batches_done + round);
      batches_done += round;
      const std::size_t n_now = std::min(cap, batches_done * width);
      for (std::size_t k = accumulated; k < n_now; ++k) {
        for (int s = 0; s < kNumPipeStages; ++s) {
          const double wns = stage_wns[k][static_cast<std::size_t>(s)];
          if (std::isfinite(wns)) acc[static_cast<std::size_t>(s)].add(wns);
        }
      }
      accumulated = n_now;
      McRound rnd;
      rnd.samples = static_cast<int>(n_now);
      bool converged = true;
      for (const RunningStats& rs : acc) {
        if (rs.count() == 0) continue;  // stage absent (so far)
        const double mean_hw =
            mean_confidence_interval(rs.count(), rs.mean(), rs.stddev(),
                                     ap.confidence)
                .half_width();
        const double sigma_hw =
            stddev_confidence_interval(rs.count(), rs.stddev(), ap.confidence)
                .half_width();
        rnd.worst_mean_half_width_ns =
            std::max(rnd.worst_mean_half_width_ns, mean_hw);
        rnd.worst_sigma_half_width_ns =
            std::max(rnd.worst_sigma_half_width_ns, sigma_hw);
        // NaN / infinite half-widths (n < 2, corrupted samples) fail
        // both comparisons, which is the conservative direction.
        converged = converged && mean_hw <= ap.mean_half_width_ns &&
                    sigma_hw <= ap.sigma_half_width_ns;
      }
      rnd.converged = converged;
      result.convergence.push_back(rnd);
      num_samples = n_now;
      if (converged &&
          n_now >= static_cast<std::size_t>(ap.min_samples)) {
        result.stopping_reason = McStop::Converged;
        break;
      }
    }
    result.samples = static_cast<int>(num_samples);
  }

  // Aggregation in sample order.  Everything below sees only samples
  // [0, num_samples) — the prefix an equivalent fixed run would have
  // drawn — so adaptive and fixed agree bit-for-bit.  The endpoint
  // tallies are integer counts.
  for (std::size_t k = 0; k < num_samples; ++k) {
    for (int s = 0; s < kNumPipeStages; ++s) {
      const double wns = stage_wns[k][static_cast<std::size_t>(s)];
      if (std::isfinite(wns)) {
        result.stages[s].present = true;
        result.stages[s].samples.push_back(wns);
      }
    }
    result.min_period_samples.push_back(min_period[k]);
  }
  const double inv_n = 1.0 / static_cast<double>(num_samples);
  for (const std::uint32_t epi : cone->endpoints) {
    result.endpoint_crit_prob[epi] = static_cast<double>(w.crit[epi]) * inv_n;
    result.endpoint_stage_crit[epi] = w.stage_crit[epi];
  }
  for (auto& sd : result.stages) {
    if (!sd.present) continue;
    sd.fit = fit_normal(sd.samples, cfg.confidence);
    const auto [lo, hi] =
        std::minmax_element(sd.samples.begin(), sd.samples.end());
    sd.min_slack = *lo;
    sd.max_slack = *hi;
  }
  return result;
}

}  // namespace vipvt
