#include "campaign/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "campaign/checkpoint.hpp"
#include "io/ndjson.hpp"
#include "variation/model.hpp"
#include "vi/flow.hpp"
#include "vi/policy.hpp"

namespace vipvt {

namespace {

/// FNV-1a 64-bit over the canonical byte stream spec_digest feeds it.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void flag(bool v) { u64(v ? 1 : 0); }
};

}  // namespace

std::uint64_t CampaignReport::total_dies() const {
  std::uint64_t n = 0;
  for (const CellResult& c : cells) n += c.agg.dies;
  return n;
}

std::uint64_t CampaignReport::shipped_dies() const {
  std::uint64_t n = 0;
  for (const CellResult& c : cells) n += c.agg.shipped_dies();
  return n;
}

double CampaignReport::parametric_yield() const {
  const std::uint64_t total = total_dies();
  return total == 0 ? 0.0
                    : static_cast<double>(shipped_dies()) /
                          static_cast<double>(total);
}

void CampaignRunner::add_variant(std::string name, const Flow& flow) {
  if (!flow.sensors_planned() || !flow.activity_simulated()) {
    throw std::logic_error(
        "CampaignRunner::add_variant: run plan_sensors() and "
        "simulate_activity() first");
  }
  add_variant(std::move(name), flow.design(), flow.sta(), flow.variation(),
              flow.island_plan(), flow.razor_plan(), flow.activity(),
              1.0 / flow.post_shifter_clock_ns());
}

void CampaignRunner::add_variant(std::string name, const Design& design,
                                 const StaEngine& sta,
                                 const VariationModel& model,
                                 const IslandPlan& plan,
                                 const RazorPlan& sensors,
                                 const ActivityDb& activity,
                                 double clock_freq_ghz) {
  for (const Variant& v : variants_) {
    if (v.name == name) {
      throw std::invalid_argument("CampaignRunner: duplicate variant name '" +
                                  name + "'");
    }
  }
  variants_.push_back(Variant{std::move(name), &design, &sta, &model, &plan,
                              &sensors, &activity, clock_freq_ghz});
}

std::vector<std::uint32_t> CampaignRunner::variant_axis(
    const CampaignSpec& spec) const {
  // Explicit names, or every registered variant in registration order.
  std::vector<std::uint32_t> axis;
  if (spec.variants.empty()) {
    for (std::size_t i = 0; i < variants_.size(); ++i) {
      axis.push_back(static_cast<std::uint32_t>(i));
    }
    return axis;
  }
  for (const std::string& name : spec.variants) {
    const auto it =
        std::find_if(variants_.begin(), variants_.end(),
                     [&name](const Variant& v) { return v.name == name; });
    if (it == variants_.end()) {
      throw std::invalid_argument("campaign: unknown variant '" + name + "'");
    }
    axis.push_back(static_cast<std::uint32_t>(it - variants_.begin()));
  }
  return axis;
}

std::vector<CampaignCell> CampaignRunner::expand(
    const CampaignSpec& spec) const {
  if (variants_.empty()) {
    throw std::invalid_argument("campaign: no variants registered");
  }
  if (spec.wafer_grids.empty() || spec.sigma_scales.empty() ||
      spec.policies.empty() || spec.mc_samples.empty()) {
    throw std::invalid_argument("campaign: every sweep axis must be non-empty");
  }
  if (spec.wafers_per_cell < 1) {
    throw std::invalid_argument("campaign: wafers_per_cell must be >= 1");
  }
  if (spec.shard_dies < 1) {
    throw std::invalid_argument("campaign: shard_dies must be >= 1");
  }
  for (const double s : spec.sigma_scales) {
    if (!(std::isfinite(s) && s > 0.0)) {
      throw std::invalid_argument(
          "campaign: sigma scales must be positive and finite");
    }
  }
  for (const int m : spec.mc_samples) {
    if (m < 1) {
      throw std::invalid_argument("campaign: mc_samples must be positive");
    }
  }
  spec.base.validate();
  const std::vector<std::uint32_t> axis = variant_axis(spec);

  std::vector<CampaignCell> cells;
  cells.reserve(axis.size() * spec.wafer_grids.size() *
                spec.sigma_scales.size() * spec.policies.size() *
                spec.mc_samples.size());
  std::uint32_t index = 0;
  for (std::uint32_t v = 0; v < axis.size(); ++v) {
    for (std::uint32_t g = 0; g < spec.wafer_grids.size(); ++g) {
      for (std::uint32_t s = 0; s < spec.sigma_scales.size(); ++s) {
        for (std::uint32_t p = 0; p < spec.policies.size(); ++p) {
          for (std::uint32_t m = 0; m < spec.mc_samples.size(); ++m) {
            CampaignCell cell;
            cell.index = index++;
            cell.variant = v;
            cell.wafer_grid = g;
            cell.sigma = s;
            cell.policy = p;
            cell.samples = m;
            cell.config = spec.base;
            const PolicyMix& pol = spec.policies[p];
            cell.config.allow_escalation = pol.allow_escalation;
            cell.config.allow_chip_wide_fallback = pol.allow_chip_wide_fallback;
            const int budget = spec.mc_samples[m];
            if (spec.base.mc.adaptive.enabled) {
              cell.config.mc.adaptive.max_samples = budget;
              cell.config.mc.adaptive.min_samples =
                  std::min(spec.base.mc.adaptive.min_samples, budget);
            } else {
              cell.config.mc.samples = budget;
            }
            cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return cells;
}

struct CampaignRunner::Plan {
  std::vector<std::uint32_t> variant_axis;  ///< indices into variants_
  std::vector<std::string> variant_names;
  std::vector<CampaignCell> cells;
  std::vector<WaferModel> wafers;  ///< one per wafer_grids entry
  /// One compiled (variant-axis, policy) netlist (DESIGN.md §18):
  /// pure-VI mixes alias the variant's baseline design/sta/activity
  /// (CompiledPolicy holds null pointers), transforming mixes own a
  /// rewritten copy.  Compiled ONCE per pair — the sigma and MC-budget
  /// axes share it read-only, since criticality is measured on the
  /// characterized process.
  struct NetlistSlot {
    CompiledPolicy compiled;
    const Design* design = nullptr;
    const StaEngine* sta = nullptr;
    const ActivityDb* activity = nullptr;
  };
  std::vector<NetlistSlot> netlists;  ///< variant-axis-major x policy
  /// Sigma-scaled model copies, variant-axis-major x sigma.
  std::vector<std::unique_ptr<VariationModel>> models;
  /// One analyzer per (variant, policy, sigma) — the netlist a cell's
  /// dies fabricate on depends on its policy now, not just its variant.
  /// Each analyzer's memo holds the slot maps, screens and slot cones
  /// every shard of its cells reads (DESIGN.md §22).
  std::vector<std::unique_ptr<YieldAnalyzer>> analyzers;
  struct Job {
    std::uint32_t cell = 0;
    std::uint32_t wafer = 0;
    std::uint32_t die_begin = 0;
    std::uint32_t die_end = 0;
  };
  std::vector<Job> jobs;  ///< canonical job order (cell, wafer, shard)
  std::size_t npol = 1;
  std::size_t nsig = 1;

  std::size_t netlist_index(const CampaignCell& c) const {
    return c.variant * npol + c.policy;
  }
  std::size_t analyzer_index(const CampaignCell& c) const {
    return netlist_index(c) * nsig + c.sigma;
  }
};

void CampaignRunner::build_plan(const CampaignSpec& spec, ThreadPool* pool,
                                Plan& plan) const {
  plan.cells = expand(spec);  // validates the spec
  plan.variant_axis = variant_axis(spec);
  for (const std::uint32_t v : plan.variant_axis) {
    plan.variant_names.push_back(variants_[v].name);
  }

  plan.wafers.reserve(spec.wafer_grids.size());
  for (const WaferConfig& wc : spec.wafer_grids) plan.wafers.emplace_back(wc);

  const std::size_t nsig = spec.sigma_scales.size();
  const std::size_t npol = spec.policies.size();
  plan.nsig = nsig;
  plan.npol = npol;

  // Compiled (variant, policy) netlists (DESIGN.md §18): pure-VI mixes
  // alias the baseline references; transforming mixes own a rewritten
  // copy selected by criticality under the variant's characterized
  // model.  Planner phase 1 on the pool: each compile runs its
  // criticality dies there, one compile at a time (a pool job must never
  // wait on its own pool, so pooled phases do not nest).
  plan.netlists.resize(plan.variant_axis.size() * npol);
  for (std::size_t v = 0; v < plan.variant_axis.size(); ++v) {
    const Variant& var = variants_[plan.variant_axis[v]];
    for (std::size_t p = 0; p < npol; ++p) {
      Plan::NetlistSlot& ns = plan.netlists[v * npol + p];
      ns.compiled =
          compile_policy_mix(spec.policies[p], *var.design, *var.sta,
                             *var.model, *var.activity, pool);
      ns.design = &ns.compiled.design_or(*var.design);
      ns.sta = &ns.compiled.sta_or(*var.sta);
      ns.activity = &ns.compiled.activity_or(*var.activity);
    }
  }

  // Sigma-scaled model copies: the scaled model reuses the variant's
  // characterization and exposure field, with only the random budget
  // rescaled.  Scale 1.0 still builds a copy — identical config, so
  // identical bits — which keeps every cell on the same code path.
  plan.models.resize(plan.variant_axis.size() * nsig);
  for (std::size_t v = 0; v < plan.variant_axis.size(); ++v) {
    const Variant& var = variants_[plan.variant_axis[v]];
    for (std::size_t s = 0; s < nsig; ++s) {
      VariationConfig vc = var.model->config();
      vc.three_sigma_random_frac *= spec.sigma_scales[s];
      plan.models[v * nsig + s] = std::make_unique<VariationModel>(
          var.model->char_params(), var.model->field(), vc);
    }
  }

  // One analyzer per (variant, policy, sigma), bound to the policy's
  // compiled netlist and the sigma-scaled model; island/sensor plans are
  // the baseline variant's (valid on the transformed netlist by the
  // zero-displacement ECO contract).
  plan.analyzers.resize(plan.netlists.size() * nsig);
  for (std::size_t v = 0; v < plan.variant_axis.size(); ++v) {
    const Variant& var = variants_[plan.variant_axis[v]];
    for (std::size_t p = 0; p < npol; ++p) {
      const Plan::NetlistSlot& ns = plan.netlists[v * npol + p];
      for (std::size_t s = 0; s < nsig; ++s) {
        auto analyzer = std::make_unique<YieldAnalyzer>(
            *ns.design, *ns.sta, *plan.models[v * nsig + s], *var.plan,
            *var.sensors, *ns.activity, var.clock_freq_ghz);
        analyzer->set_portfolio(ns.compiled.stats);
        plan.analyzers[(v * npol + p) * nsig + s] = std::move(analyzer);
      }
    }
  }

  // Planner phase 2 on the pool: one job per cell warms its analyzer's
  // memo with the cell's screen (DESIGN.md §22), so the first cell of
  // each analyzer characterizes its macromodel library in parallel with
  // the others' instead of under the first shards.  Cells differing only
  // in MC budget share the analyzer's maps and library and memoize a
  // screen each.  A serial run leaves the screens to its first shards.
  if (pool != nullptr && spec.base.effective_tier() != EvalTier::Flat) {
    parallel_jobs(
        *pool, plan.cells.size(), [] { return 0; },
        [&plan](int&, std::size_t c) {
          const CampaignCell& cell = plan.cells[c];
          (void)plan.analyzers[plan.analyzer_index(cell)]->tier_screen(
              plan.wafers[cell.wafer_grid], cell.config);
        });
  }

  const auto shard = static_cast<std::size_t>(spec.shard_dies);
  for (const CampaignCell& cell : plan.cells) {
    const std::size_t dies = plan.wafers[cell.wafer_grid].num_dies();
    const std::size_t shards = dies == 0 ? 0 : (dies + shard - 1) / shard;
    for (std::uint32_t w = 0; w < static_cast<std::uint32_t>(spec.wafers_per_cell); ++w) {
      for (std::size_t k = 0; k < shards; ++k) {
        Plan::Job job;
        job.cell = cell.index;
        job.wafer = w;
        job.die_begin = static_cast<std::uint32_t>(k * shard);
        job.die_end = static_cast<std::uint32_t>(std::min(dies, (k + 1) * shard));
        plan.jobs.push_back(job);
      }
    }
  }
}

std::size_t CampaignRunner::num_jobs(const CampaignSpec& spec) const {
  const std::vector<CampaignCell> cells = expand(spec);
  const auto shard = static_cast<std::size_t>(spec.shard_dies);
  std::vector<std::size_t> dies_per_grid;
  dies_per_grid.reserve(spec.wafer_grids.size());
  for (const WaferConfig& wc : spec.wafer_grids) {
    dies_per_grid.push_back(WaferModel(wc).num_dies());
  }
  std::size_t jobs = 0;
  for (const CampaignCell& cell : cells) {
    const std::size_t dies = dies_per_grid[cell.wafer_grid];
    jobs += static_cast<std::size_t>(spec.wafers_per_cell) *
            (dies == 0 ? 0 : (dies + shard - 1) / shard);
  }
  return jobs;
}

std::uint64_t CampaignRunner::spec_digest(const CampaignSpec& spec) const {
  // Everything that decides what a job computes or how jobs are laid out
  // goes into the digest (shard_dies included: it shapes the job list a
  // checkpoint's records must align with).
  Fnv f;
  f.str(kCampaignStreamSchema);
  f.u64(kCampaignStreamVersion);
  if (spec.variants.empty()) {
    for (const Variant& v : variants_) f.str(v.name);
  } else {
    for (const std::string& name : spec.variants) f.str(name);
  }
  f.u64(spec.wafer_grids.size());
  for (const WaferConfig& wc : spec.wafer_grids) {
    f.f64(wc.wafer_diameter_mm);
    f.f64(wc.edge_exclusion_mm);
    f.f64(wc.field_mm);
    f.f64(wc.die_mm);
  }
  f.u64(spec.sigma_scales.size());
  for (const double s : spec.sigma_scales) f.f64(s);
  f.u64(spec.policies.size());
  for (const PolicyMix& p : spec.policies) {
    f.str(p.name);
    f.flag(p.allow_escalation);
    f.flag(p.allow_chip_wide_fallback);
    // Portfolio knobs (DESIGN.md §18): any of these changes which
    // netlist a cell's dies fabricate on, so a checkpoint must not
    // survive them.
    f.flag(p.sizing.enabled);
    f.f64(p.sizing.min_crit_prob);
    f.i64(p.sizing.max_upsized);
    f.i64(p.sizing.max_drive_steps);
    f.flag(p.buffering.enabled);
    f.f64(p.buffering.min_crit_prob);
    f.i64(p.buffering.max_nets);
    f.i64(p.buffering.min_fanout);
    f.i64(p.buffering.cluster);
    f.i64(p.crit_samples);
    f.u64(p.crit_seed);
  }
  f.u64(spec.mc_samples.size());
  for (const int m : spec.mc_samples) f.i64(m);
  f.i64(spec.wafers_per_cell);
  f.i64(spec.shard_dies);
  f.u64(spec.seed);
  const YieldConfig& b = spec.base;
  f.i64(b.mc.samples);
  f.f64(b.mc.confidence);
  f.i64(static_cast<std::int64_t>(b.mc.profile));
  f.flag(b.mc.adaptive.enabled);
  f.f64(b.mc.adaptive.mean_half_width_ns);
  f.f64(b.mc.adaptive.sigma_half_width_ns);
  f.f64(b.mc.adaptive.confidence);
  f.i64(b.mc.adaptive.min_samples);
  f.i64(b.mc.adaptive.max_samples);
  f.i64(b.mc.adaptive.check_every_batches);
  f.u64(b.seed);
  f.f64(b.speed_percentile);
  f.u64(b.speed_bins);
  f.flag(b.allow_escalation);
  f.flag(b.allow_chip_wide_fallback);
  f.flag(b.triage.enabled);
  f.f64(b.triage.confidence);
  f.f64(b.triage.band_scale);
  f.f64(b.triage.model_error_ns);
  f.i64(static_cast<std::int64_t>(b.tier));
  f.i64(b.macro.knots);
  f.f64(b.macro.grad_step);
  return f.h;
}

CampaignReport CampaignRunner::run(const CampaignSpec& spec,
                                   const CampaignRunOptions& opts) const {
  Plan plan;
  build_plan(spec, opts.pool, plan);
  const std::uint64_t digest = spec_digest(spec);
  const std::size_t total = plan.jobs.size();

  CampaignRunStats stats;
  stats.jobs_total = total;

  // ---- resume: recover the stream's complete-record prefix ---------------
  std::vector<ShardRecord> resumed;
  bool need_header = true;
  bool trailer_already = false;
  if (!opts.stream_path.empty() && opts.resume) {
    LoadedCampaignStream loaded = load_campaign_stream(opts.stream_path);
    if (loaded.header_seen) {
      if (loaded.spec_digest != digest || loaded.jobs_total != total) {
        throw std::runtime_error(
            "campaign resume: checkpoint was written by a different campaign "
            "spec (digest mismatch)");
      }
      if (loaded.records.size() > total) {
        throw std::runtime_error("campaign resume: more records than jobs");
      }
      for (std::size_t j = 0; j < loaded.records.size(); ++j) {
        const ShardRecord& r = loaded.records[j];
        const Plan::Job& job = plan.jobs[j];
        if (r.cell != job.cell || r.wafer != job.wafer ||
            r.die_begin != job.die_begin || r.die_end != job.die_end) {
          throw std::runtime_error(
              "campaign resume: checkpoint record does not match the job "
              "plan");
        }
      }
      resumed = std::move(loaded.records);
      need_header = false;
      trailer_already = loaded.trailer_seen;
      // Drop any torn tail a kill left behind; the next record appends
      // exactly where an uninterrupted run would have written it.
      std::filesystem::resize_file(opts.stream_path, loaded.valid_bytes);
    }
  }
  stats.jobs_resumed = resumed.size();

  // Jobs [first, last) run now; stop_after_jobs is the deliberate kill
  // point of the resume gates (counted over ALL completed jobs).
  const std::size_t first = resumed.size();
  const std::size_t stop =
      opts.stop_after_jobs == 0 ? total : std::min(opts.stop_after_jobs, total);
  const std::size_t last = std::max(stop, first);
  const std::size_t n = last - first;
  stats.jobs_run = n;

  std::ofstream os;
  std::unique_ptr<NdjsonWriter> writer;
  if (!opts.stream_path.empty()) {
    os.open(opts.stream_path,
            need_header ? std::ios::binary | std::ios::trunc
                        : std::ios::binary | std::ios::app);
    if (!os) {
      throw std::runtime_error("campaign: cannot open stream file '" +
                               opts.stream_path + "'");
    }
    writer = std::make_unique<NdjsonWriter>(os);
    if (need_header) {
      writer->record_line(serialize_campaign_header(digest, total, spec.seed));
    }
  }

  CampaignReport report;
  report.spec = spec;
  report.variant_names = plan.variant_names;
  report.cells.reserve(plan.cells.size());
  for (const CampaignCell& cell : plan.cells) {
    report.cells.push_back(CellResult{
        cell, YieldAggregate{},
        plan.netlists[plan.netlist_index(cell)].compiled.stats});
  }
  report.jobs_total = total;

  // Resumed records merge first — they are the job-order prefix, and
  // merge() is exact, so the final aggregates match an uninterrupted run
  // bit-for-bit.
  for (const ShardRecord& r : resumed) {
    report.cells[r.cell].agg.merge(r.agg);
  }

  // ---- in-order emission (the reorder buffer) ----------------------------
  // Workers finish shards in schedule order; records are emitted, merged
  // and streamed strictly in job order.  Transient state is bounded by
  // the out-of-order window (~pool size), never by die count.
  std::mutex mu;
  std::map<std::size_t, ShardRecord> pending;
  std::size_t next_emit = first;
  const auto emit_ready = [&]() {  // callers hold mu
    for (auto it = pending.find(next_emit); it != pending.end();
         it = pending.find(next_emit)) {
      const ShardRecord rec = std::move(it->second);
      pending.erase(it);
      const std::string line = serialize_shard_record(rec);
      if (writer) writer->record_line(line);
      if (opts.on_record) opts.on_record(line);
      report.cells[rec.cell].agg.merge(rec.agg);
      ++next_emit;
      ++stats.records_emitted;
    }
  };

  // Worker state: one {engine clone, controller} per (variant, policy,
  // sigma) analyzer slot, built lazily on the first job that needs it.
  // The controller restores its level bases from the slot analyzer's
  // shared snapshots (DESIGN.md §20), so each level is computed once per
  // analyzer across every worker and shard — on the policy's compiled
  // netlist exactly as on the baseline.
  struct SlotState {
    SlotState(const YieldAnalyzer& analyzer, const StaEngine& sta)
        : engine(sta), ctrl(analyzer.controller(engine)) {}
    StaEngine engine;
    CompensationController ctrl;
  };
  struct WorkerState {
    std::vector<std::unique_ptr<SlotState>> slots;
  };
  const auto make_state = [&] {
    WorkerState w;
    w.slots.resize(plan.analyzers.size());
    return w;
  };
  const auto body = [&](WorkerState& w, std::size_t k) {
    const std::size_t j = first + k;
    const Plan::Job& job = plan.jobs[j];
    const CampaignCell& cell = plan.cells[job.cell];
    const std::size_t slot = plan.analyzer_index(cell);
    if (!w.slots[slot]) {
      w.slots[slot] = std::make_unique<SlotState>(
          *plan.analyzers[slot],
          *plan.netlists[plan.netlist_index(cell)].sta);
    }
    SlotState& s = *w.slots[slot];

    YieldConfig cfg = cell.config;
    cfg.seed = campaign_wafer_seed(spec.seed, cell.index, job.wafer);
    ShardRecord rec;
    rec.job = j;
    rec.cell = job.cell;
    rec.wafer = job.wafer;
    rec.die_begin = job.die_begin;
    rec.die_end = job.die_end;
    rec.agg = plan.analyzers[slot]->analyze_shard(
        s.engine, s.ctrl, plan.wafers[cell.wafer_grid], cfg, job.die_begin,
        job.die_end);

    std::lock_guard<std::mutex> lock(mu);
    pending.emplace(j, std::move(rec));
    stats.peak_pending_shards =
        std::max(stats.peak_pending_shards, pending.size());
    emit_ready();
  };

  if (opts.pool != nullptr && opts.pool->size() > 1 && n > 1) {
    parallel_jobs(*opts.pool, n, make_state, body);
  } else {
    WorkerState w = make_state();
    for (std::size_t k = 0; k < n; ++k) body(w, k);
  }

  if (next_emit != last || !pending.empty()) {
    throw std::logic_error("campaign: emission did not drain the job range");
  }
  if (writer && next_emit == total && !trailer_already) {
    writer->record_line(serialize_campaign_trailer(total));
  }

  report.jobs_done = next_emit;
  if (opts.stats != nullptr) *opts.stats = stats;
  return report;
}

}  // namespace vipvt
