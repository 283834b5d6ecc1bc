#include "variation/mc_ssta.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>

#include "util/parallel.hpp"

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

namespace {

/// Sizes a workspace for `width` lanes and zeroes its tallies.  Buffers
/// only grow, so a workspace reused across runs allocates once.
void prepare(McWorkspace& ws, std::size_t width, std::size_t num_eps,
             DrawProfile profile) {
  if (ws.results.size() < width) ws.results.resize(width);
  ws.crit.assign(num_eps, 0);
  ws.stage_crit.assign(num_eps, 0);
  if (profile == DrawProfile::Scalar && ws.factors.size() < width) {
    ws.factors.resize(width);
  }
}

/// The BatchedSimd SoA factor arena of one run's worker (empty for the
/// Scalar profile).
AlignedVec<double> factor_arena(std::size_t width, std::size_t num_inst,
                                DrawProfile profile) {
  return AlignedVec<double>(
      profile == DrawProfile::Scalar ? 0 : num_inst * width);
}

/// Worker-local state of the pooled sampling loop: an engine clone
/// (mutable scratch) and its lane buffers.  Tallies are unsigned counts
/// so the cross-worker merge is exact integer addition — bit-identical
/// no matter which worker counted what.
struct McWorker {
  McWorker(const StaEngine& sta, std::size_t width, std::size_t num_eps,
           std::size_t num_inst, DrawProfile profile)
      : engine(sta), factor_soa(factor_arena(width, num_inst, profile)) {
    prepare(ws, width, num_eps, profile);
  }

  StaEngine engine;
  McWorkspace ws;
  AlignedVec<double> factor_soa;
};

}  // namespace

McResult MonteCarloSsta::run(const DieLocation& loc, const McConfig& cfg,
                             ThreadPool* pool) const {
  const std::vector<double> systematic =
      model_->systematic_lgates(*design_, loc);
  return run_with_systematic(systematic, cfg, pool);
}

TimingCone MonteCarloSsta::cone(std::span<const double> systematic) const {
  std::vector<double> bounds;
  model_->factor_bounds(model_->table_rows(*design_, *sta_), systematic,
                        bounds);
  return sta_->build_cone(bounds);
}

McResult MonteCarloSsta::run_with_systematic(std::span<const double> systematic,
                                             const McConfig& cfg,
                                             ThreadPool* pool,
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
  // No batch holds more than the budget, so the workers' lane buffers
  // never need more; the width-invariance contract keeps every bit.
  const int width = std::min(std::max(cfg.batch, 1), budget);
  const auto uwidth = static_cast<std::size_t>(width);
  const std::size_t num_inst = design_->num_instances();
  result.min_period_samples.reserve(cap);

  // Sample-invariant precomputes: the systematic Lgate map arrives from
  // the caller (evaluated once per run — or once per reticle slot in the
  // wafer path); the correlated-field stencils hoist the bilinear
  // index/weight/sqrt work out of the per-gate per-sample loop.
  if (systematic.size() < num_inst) {
    throw std::invalid_argument("run_with_systematic: short systematic map");
  }
  TimingCone own_cone;
  if (cone == nullptr) {
    own_cone = this->cone(systematic);
    cone = &own_cone;
  }
  const std::vector<CorrelatedField::Stencil> stencils =
      model_->field_stencils(*design_);
  // The table row per instance depends only on the engine's corners,
  // which no worker clone changes during the run: built once here, read
  // by every batch (DESIGN.md §11).  The cone's instances decide what a
  // batch draws: the BatchedSimd profile draws their Box–Muller pair
  // runs only; the Scalar profile draws every normal but evaluates only
  // their factors (DESIGN.md §22).
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

  // Pre-sized per-sample slots (the adaptive cap is the worst case);
  // workers only ever write their own indices, so the thread schedule
  // cannot reach the output.
  std::vector<std::array<double, kNumPipeStages>> stage_wns(cap);
  std::vector<double> min_period(cap);

  // Pooled workers are leased per parallel_for call and returned to the
  // idle list afterwards, so adaptive rounds reuse engine clones instead
  // of re-copying the StaEngine every round.  Which worker counted which
  // endpoint tally is schedule-dependent, but the final merge is exact
  // integer addition — order-free by construction.  A serial run samples
  // through the engine itself, and through the caller's workspace when
  // one is given.
  std::mutex workers_mu;
  std::vector<std::shared_ptr<McWorker>> workers, idle;
  auto make_worker = [&]() -> std::shared_ptr<McWorker> {
    const std::lock_guard<std::mutex> lock(workers_mu);
    if (!idle.empty()) {
      auto w = idle.back();
      idle.pop_back();
      return w;
    }
    auto w = std::make_shared<McWorker>(*sta_, uwidth, num_eps, num_inst,
                                        cfg.profile);
    workers.push_back(w);
    return w;
  };
  McWorkspace own_ws;
  McWorkspace* const serial =
      pool != nullptr ? nullptr : ws != nullptr ? ws : &own_ws;
  AlignedVec<double> serial_soa;
  if (serial != nullptr) {
    prepare(*serial, uwidth, num_eps, cfg.profile);
    serial_soa = factor_arena(uwidth, num_inst, cfg.profile);
  }

  const std::size_t total_batches = (cap + uwidth - 1) / uwidth;
  auto process_batch = [&](const StaEngine& eng, McWorkspace& w,
                           AlignedVec<double>& factor_soa, std::size_t bi) {
    const std::size_t first = bi * uwidth;
    const std::size_t lanes = std::min(uwidth, cap - first);
    const auto results = std::span(w.results).first(lanes);
    if (cfg.profile != DrawProfile::Scalar) {
      // Draw all lanes in one pass directly into the SoA layout the
      // propagation kernel consumes; no per-batch transpose.  (lanes is
      // the SoA stride: the tail batch packs tightly, and every lane's
      // bits are width-independent by the draw's contract.)
      const auto soa = std::span(factor_soa).first(num_inst * lanes);
      model_->draw_batch(rows, systematic, stencils, cfg.seed, first, lanes,
                         soa, w.scratch, runs);
      eng.analyze_batch_soa(soa, lanes, results, *cone);
    } else {
      for (std::size_t l = 0; l < lanes; ++l) {
        Rng rng(substream_seed(cfg.seed, first + l));
        model_->draw_factors(*design_, eng, systematic, stencils, rng,
                             w.factors[l], live);
      }
      if (lanes == 1) {  // one lane is its own SoA row
        eng.analyze_batch_soa(w.factors[0], 1, results, *cone);
      } else {
        eng.analyze_batch(std::span(w.factors).first(lanes), results, *cone);
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      const StaResult& sr = w.results[l];
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
  };

  auto run_batches = [&](std::size_t first_batch, std::size_t count) {
    if (serial != nullptr) {
      for (std::size_t bi = 0; bi < count; ++bi) {
        process_batch(*sta_, *serial, serial_soa, first_batch + bi);
      }
    } else {
      parallel_for(*pool, count, make_worker,
                   [&](std::shared_ptr<McWorker>& w, std::size_t bi) {
                     process_batch(w->engine, w->ws, w->factor_soa,
                                   first_batch + bi);
                   });
    }
    // The parallel_for barrier has passed: every lease is back.
    const std::lock_guard<std::mutex> lock(workers_mu);
    idle = workers;
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
    // width) alone — the thread schedule cannot move the stopping N.
    const auto cadence = static_cast<std::size_t>(ap.check_every_batches);
    std::array<RunningStats, kNumPipeStages> acc;
    std::size_t accumulated = 0;
    std::size_t batches_done = 0;
    result.stopping_reason = McStop::MaxSamples;
    while (batches_done < total_batches) {
      const std::size_t round =
          std::min(cadence, total_batches - batches_done);
      run_batches(batches_done, round);
      batches_done += round;
      const std::size_t n_now =
          std::min(cap, batches_done * static_cast<std::size_t>(width));
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

  // Serial aggregation in sample order (vector outputs), plus the exact
  // integer merge of the per-worker endpoint tallies.  Everything below
  // sees only samples [0, num_samples) — the prefix an equivalent fixed
  // run would have drawn — so adaptive and fixed agree bit-for-bit.
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
  const auto merge = [&](const McWorkspace& w) {
    for (const std::uint32_t epi : cone->endpoints) {
      result.endpoint_crit_prob[epi] += static_cast<double>(w.crit[epi]);
      result.endpoint_stage_crit[epi] += w.stage_crit[epi];
    }
  };
  if (serial != nullptr) merge(*serial);
  for (const auto& w : workers) merge(w->ws);

  const double inv_n = 1.0 / static_cast<double>(num_samples);
  for (auto& p : result.endpoint_crit_prob) p *= inv_n;
  for (int s = 0; s < kNumPipeStages; ++s) {
    auto& sd = result.stages[s];
    if (!sd.present || sd.samples.empty()) continue;
    sd.fit = fit_normal(sd.samples, cfg.confidence);
    const auto [lo, hi] =
        std::minmax_element(sd.samples.begin(), sd.samples.end());
    sd.min_slack = *lo;
    sd.max_slack = *hi;
  }
  return result;
}

}  // namespace vipvt
