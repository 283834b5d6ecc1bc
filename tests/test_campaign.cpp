// Campaign subsystem tests: sweep expansion, the partition-invariance
// contract (byte-identical campaign reports for any shard size and any
// thread count), NDJSON stream round-trips, and checkpoint/resume
// byte-identity — including recovery from a torn (killed mid-write)
// stream tail.  These are the tier-1 guards behind DESIGN.md §15.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/checkpoint.hpp"
#include "io/campaign_writers.hpp"
#include "io/ndjson.hpp"
#include "vi/flow.hpp"

namespace vipvt {
namespace {

FlowConfig tiny_flow_config() {
  FlowConfig cfg;
  cfg.vex = VexConfig::tiny();
  cfg.floorplan.target_utilization = 0.55;
  cfg.scenario.sweep_points = 6;
  cfg.scenario.mc.samples = 100;
  cfg.islands.mc_samples = 80;
  cfg.sim_cycles = 150;
  return cfg;
}

WaferConfig small_wafer() {
  WaferConfig wc;
  wc.wafer_diameter_mm = 70.0;  // a handful of dies: campaign tests
                                // multiply wafers by cells, keep each tiny
  return wc;
}

CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.wafer_grids = {small_wafer()};
  spec.sigma_scales = {1.0, 1.2};
  spec.policies = {PolicyMix{"full", true, true},
                   PolicyMix{"no-escalation", false, true}};
  spec.mc_samples = {6};
  spec.wafers_per_cell = 2;
  spec.shard_dies = 3;
  spec.seed = 0xc0ffee01;
  spec.base.mc.samples = 6;
  spec.base.speed_bins = 4;
  return spec;
}

class CampaignFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    flow_ = new Flow(tiny_flow_config());
    flow_->simulate_activity();
    runner_ = new CampaignRunner;
    runner_->add_variant("tiny", *flow_);
  }
  static void TearDownTestSuite() {
    delete runner_;
    delete flow_;
    runner_ = nullptr;
    flow_ = nullptr;
  }
  static Flow* flow_;
  static CampaignRunner* runner_;
};
Flow* CampaignFixture::flow_ = nullptr;
CampaignRunner* CampaignFixture::runner_ = nullptr;

std::string report_bytes(const CampaignReport& report) {
  std::ostringstream os;
  write_campaign_json(os, report);
  return os.str();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string agg_bytes(const YieldAggregate& agg) {
  ShardRecord r;
  r.agg = agg;
  return serialize_shard_record(r);
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// ---- expansion ------------------------------------------------------------

TEST_F(CampaignFixture, ExpandBuildsDenseCartesianGrid) {
  CampaignSpec spec = tiny_spec();
  spec.mc_samples = {6, 12};
  const std::vector<CampaignCell> cells = runner_->expand(spec);
  // 1 variant x 1 grid x 2 sigma x 2 policies x 2 budgets.
  ASSERT_EQ(cells.size(), 8u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, static_cast<std::uint32_t>(i));
  }
  // mc_samples is the innermost axis, policy next.
  EXPECT_EQ(cells[0].config.mc.samples, 6);
  EXPECT_EQ(cells[1].config.mc.samples, 12);
  EXPECT_TRUE(cells[0].config.allow_escalation);
  EXPECT_FALSE(cells[2].config.allow_escalation);
  EXPECT_EQ(cells[4].sigma, 1u);
}

TEST_F(CampaignFixture, ExpandValidatesSpec) {
  CampaignSpec spec = tiny_spec();
  spec.policies.clear();
  EXPECT_THROW(runner_->expand(spec), std::invalid_argument);

  spec = tiny_spec();
  spec.variants = {"no-such-variant"};
  EXPECT_THROW(runner_->expand(spec), std::invalid_argument);

  spec = tiny_spec();
  spec.shard_dies = 0;
  EXPECT_THROW(runner_->expand(spec), std::invalid_argument);

  spec = tiny_spec();
  spec.sigma_scales = {-1.0};
  EXPECT_THROW(runner_->expand(spec), std::invalid_argument);

  spec = tiny_spec();
  spec.sigma_scales = {1.0, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(runner_->expand(spec), std::invalid_argument);

  for (const double p :
       {0.0, 1.0, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    spec = tiny_spec();
    spec.base.speed_percentile = p;
    EXPECT_THROW(runner_->expand(spec), std::invalid_argument) << p;
  }
}

TEST_F(CampaignFixture, NumJobsCountsWaferShards) {
  const CampaignSpec spec = tiny_spec();
  const std::size_t dies = WaferModel(small_wafer()).num_dies();
  ASSERT_GT(dies, 0u);
  const std::size_t shards =
      (dies + static_cast<std::size_t>(spec.shard_dies) - 1) /
      static_cast<std::size_t>(spec.shard_dies);
  EXPECT_EQ(runner_->num_jobs(spec),
            4u * static_cast<std::size_t>(spec.wafers_per_cell) * shards);
}

// ---- the determinism contract ---------------------------------------------

TEST_F(CampaignFixture, ReportBytesInvariantAcrossShardSizeAndThreads) {
  CampaignSpec spec = tiny_spec();
  spec.wafers_per_cell = 1;  // smallest spec that still exercises 4 cells
  const std::string baseline = report_bytes(runner_->run(spec));

  ThreadPool pool2(2), pool4(4);
  for (const int shard : {1, 3, 7}) {
    spec.shard_dies = shard;
    CampaignRunOptions opts;
    opts.pool = &pool2;
    EXPECT_EQ(report_bytes(runner_->run(spec, opts)), baseline)
        << "shard_dies=" << shard << " threads=2";
  }
  spec.shard_dies = 2;
  CampaignRunOptions opts4;
  opts4.pool = &pool4;
  EXPECT_EQ(report_bytes(runner_->run(spec, opts4)), baseline)
      << "shard_dies=2 threads=4";
}

/// Macro-tier campaigns (DESIGN.md §19): the per-cell screen comes from
/// the analyzer slot's cached macromodel library, macro tallies flow
/// into the cell aggregates, and the report stays byte-invariant across
/// shard sizes and thread counts.  The spec digest covers the tier
/// selector and the macromodel knobs, so checkpoints can't cross tiers.
TEST_F(CampaignFixture, MacroTierCampaignIsShardInvariantAndDigested) {
  CampaignSpec spec = tiny_spec();
  spec.wafers_per_cell = 1;
  spec.sigma_scales = {1.0};
  spec.policies = {PolicyMix{"full", true, true}};
  // Two budgets: both cells share one analyzer and read two screens from
  // its memo, on the pooled runs below as well.
  spec.mc_samples = {6, 12};
  spec.base.tier = EvalTier::Macro;

  CampaignSpec flat = spec;
  flat.base.tier = EvalTier::Flat;
  EXPECT_NE(runner_->spec_digest(spec), runner_->spec_digest(flat));
  CampaignSpec knots = spec;
  knots.base.macro.knots = 5;
  EXPECT_NE(runner_->spec_digest(spec), runner_->spec_digest(knots));

  const CampaignReport whole = runner_->run(spec);
  std::uint64_t macro_decided = 0;
  for (const CellResult& cell : whole.cells) {
    macro_decided += cell.agg.triage_macro;
    EXPECT_EQ(cell.agg.triage_macro + cell.agg.triage_mc_fallback,
              cell.agg.dies);
  }
  EXPECT_GT(macro_decided, 0u);

  const std::string baseline = report_bytes(whole);
  ThreadPool pool(3);
  for (const int shard : {2, 5}) {
    spec.shard_dies = shard;
    CampaignRunOptions opts;
    opts.pool = &pool;
    EXPECT_EQ(report_bytes(runner_->run(spec, opts)), baseline)
        << "shard_dies=" << shard;
  }
}

/// The pooled planner (criticality dies, then per-cell screens and the
/// macromodel characterization they trigger) and the analyzers' shared
/// level bases and power caches must leave no trace of the schedule:
/// two wafer grids — 2x2 and 4x4 reticle slots, so shared caches see
/// both geometries — a design-transforming mix and the macro tier write
/// the same report and NDJSON stream with no pool, 1 thread and 4.
TEST_F(CampaignFixture, TwoGridCampaignBytesInvariantAcrossPools) {
  CampaignSpec spec = tiny_spec();
  spec.wafers_per_cell = 1;
  WaferConfig fine = small_wafer();
  fine.die_mm = 7.0;
  spec.wafer_grids = {small_wafer(), fine};
  PolicyMix sizing{"sizing+vi", true, true};
  sizing.sizing.enabled = true;
  sizing.sizing.min_crit_prob = 0.02;
  sizing.crit_samples = 8;
  spec.policies = {PolicyMix{"full", true, true}, sizing};
  spec.base.tier = EvalTier::Macro;

  const std::string path = temp_path("campaign_pools.ndjson");
  CampaignRunOptions serial;
  serial.stream_path = path;
  const std::string report = report_bytes(runner_->run(spec, serial));
  const std::string stream = file_bytes(path);
  ThreadPool one(1), four(4);
  for (ThreadPool* pool : {&one, &four}) {
    CampaignRunOptions opts;
    opts.pool = pool;
    opts.stream_path = path;
    EXPECT_EQ(report_bytes(runner_->run(spec, opts)), report)
        << pool->size() << " thread(s)";
    EXPECT_EQ(file_bytes(path), stream) << pool->size() << " thread(s)";
  }
  std::remove(path.c_str());
}

TEST_F(CampaignFixture, ShardPartitionMergeMatchesSinglePass) {
  // Merging per-shard aggregates of ANY partition must reproduce the
  // one-shot aggregate bit-for-bit (compared through the exact
  // checkpoint serialization, which captures the full reducer state).
  const CampaignSpec spec = tiny_spec();
  CampaignSpec one = spec;
  one.wafers_per_cell = 1;
  one.sigma_scales = {1.0};
  one.policies = {spec.policies[0]};

  CampaignRunOptions opts;
  const CampaignReport whole = runner_->run(one, opts);
  ASSERT_EQ(whole.cells.size(), 1u);

  for (const int shard : {1, 2, 5}) {
    CampaignSpec sharded = one;
    sharded.shard_dies = shard;
    const CampaignReport part = runner_->run(sharded, opts);
    ASSERT_EQ(part.cells.size(), 1u);
    EXPECT_EQ(agg_bytes(part.cells[0].agg), agg_bytes(whole.cells[0].agg))
        << "shard_dies=" << shard;
  }
}

TEST_F(CampaignFixture, OneWaferCellEqualsTheWaferReportAggregate) {
  // One reducer: the campaign's shards and analyze() fold the same dies
  // through YieldAggregate::add, so a one-cell, one-wafer campaign's cell
  // equals the wafer report's aggregate as a whole struct (tiny_spec's
  // 3-die shards make the cell a merge of several).
  CampaignSpec spec = tiny_spec();
  spec.wafers_per_cell = 1;
  spec.sigma_scales = {1.0};
  spec.policies = {spec.policies[0]};
  const CampaignReport rep = runner_->run(spec, CampaignRunOptions{});
  ASSERT_EQ(rep.cells.size(), 1u);

  YieldConfig cfg = runner_->expand(spec)[0].config;
  cfg.seed = campaign_wafer_seed(spec.seed, 0, 0);
  const YieldReport wafer_rep = YieldAnalyzer::from_flow(*flow_).analyze(
      WaferModel(spec.wafer_grids[0]), cfg);
  EXPECT_EQ(rep.cells[0].agg, wafer_rep.agg);
}

TEST_F(CampaignFixture, OnRecordStreamsInJobOrder) {
  CampaignSpec spec = tiny_spec();
  spec.wafers_per_cell = 1;
  spec.sigma_scales = {1.0};
  ThreadPool pool(4);
  std::vector<std::uint64_t> jobs;
  CampaignRunOptions opts;
  opts.pool = &pool;
  opts.on_record = [&jobs](const std::string& line) {
    std::uint64_t j = ~0ULL;
    ASSERT_TRUE(ndjson_find_u64(line, "job", j));
    jobs.push_back(j);
  };
  CampaignRunStats stats;
  opts.stats = &stats;
  const CampaignReport report = runner_->run(spec, opts);
  ASSERT_EQ(jobs.size(), report.jobs_total);
  for (std::size_t i = 0; i < jobs.size(); ++i) EXPECT_EQ(jobs[i], i);
  EXPECT_EQ(stats.records_emitted, jobs.size());
  EXPECT_GE(stats.peak_pending_shards, 1u);
}

// ---- streaming + checkpoint/resume ----------------------------------------

TEST_F(CampaignFixture, ResumedCampaignIsByteIdenticalToUninterrupted) {
  CampaignSpec spec = tiny_spec();
  spec.wafers_per_cell = 1;
  const std::string full_path = temp_path("campaign_full.ndjson");
  const std::string cut_path = temp_path("campaign_cut.ndjson");

  CampaignRunOptions opts;
  opts.stream_path = full_path;
  const CampaignReport uninterrupted = runner_->run(spec, opts);
  EXPECT_TRUE(uninterrupted.complete());

  // "Kill" mid-campaign, then resume on a pool (the resumed half may run
  // on any schedule — bytes must not care).
  CampaignRunOptions cut;
  cut.stream_path = cut_path;
  cut.stop_after_jobs = uninterrupted.jobs_total / 2;
  CampaignRunStats cut_stats;
  cut.stats = &cut_stats;
  const CampaignReport partial = runner_->run(spec, cut);
  EXPECT_FALSE(partial.complete());
  EXPECT_EQ(partial.jobs_done, uninterrupted.jobs_total / 2);
  EXPECT_EQ(cut_stats.jobs_run, uninterrupted.jobs_total / 2);

  ThreadPool pool(2);
  CampaignRunOptions resume;
  resume.stream_path = cut_path;
  resume.resume = true;
  resume.pool = &pool;
  CampaignRunStats resume_stats;
  resume.stats = &resume_stats;
  const CampaignReport resumed = runner_->run(spec, resume);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resume_stats.jobs_resumed, uninterrupted.jobs_total / 2);

  EXPECT_EQ(report_bytes(resumed), report_bytes(uninterrupted));
  EXPECT_EQ(file_bytes(cut_path), file_bytes(full_path));
  std::remove(full_path.c_str());
  std::remove(cut_path.c_str());
}

TEST_F(CampaignFixture, ResumeRecoversFromTornTail) {
  CampaignSpec spec = tiny_spec();
  spec.wafers_per_cell = 1;
  spec.sigma_scales = {1.0};
  const std::string path = temp_path("campaign_torn.ndjson");

  CampaignRunOptions opts;
  opts.stream_path = path;
  const CampaignReport reference = runner_->run(spec, opts);
  const std::string intact = file_bytes(path);

  // Chop into the middle of the last record: a kill mid-write.
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << intact.substr(0, intact.size() - 25);
  }
  const LoadedCampaignStream loaded = load_campaign_stream(path);
  EXPECT_LT(loaded.records.size(), reference.jobs_total);
  EXPECT_FALSE(loaded.trailer_seen);

  CampaignRunOptions resume;
  resume.stream_path = path;
  resume.resume = true;
  const CampaignReport resumed = runner_->run(spec, resume);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(report_bytes(resumed), report_bytes(reference));
  EXPECT_EQ(file_bytes(path), intact);
  std::remove(path.c_str());
}

TEST_F(CampaignFixture, ResumeRejectsMismatchedSpec) {
  CampaignSpec spec = tiny_spec();
  spec.wafers_per_cell = 1;
  spec.sigma_scales = {1.0};
  spec.policies = {PolicyMix{"full", true, true}};
  const std::string path = temp_path("campaign_mismatch.ndjson");

  CampaignRunOptions opts;
  opts.stream_path = path;
  opts.stop_after_jobs = 1;
  (void)runner_->run(spec, opts);

  CampaignSpec other = spec;
  other.seed ^= 1;
  CampaignRunOptions resume;
  resume.stream_path = path;
  resume.resume = true;
  EXPECT_THROW(runner_->run(other, resume), std::runtime_error);
  std::remove(path.c_str());
}

// ---- shard-record invariants ------------------------------------------------

void set_count(ExactMoments& m, std::uint64_t n) {
  ExactMoments::State s = m.state();
  s.n = n;
  m = ExactMoments::from_state(s);
}

std::uint64_t& policy_count(ShardRecord& r, TuningPolicy p) {
  return r.agg.policy_count[static_cast<std::size_t>(p)];
}

/// One edit per invariant parse_shard_record enforces (the ones
/// YieldAggregate::add keeps), breaking that invariant alone: every other
/// one still holds on any record the reducer wrote.
struct BrokenInvariant {
  const char* what;
  void (*apply)(ShardRecord&);
};

const BrokenInvariant kBrokenInvariants[] = {
    {"de >= db",  // de - db still wraps around to dies
     [](ShardRecord& r) {
       r.die_begin = std::numeric_limits<std::uint64_t>::max();
       r.die_end = r.agg.dies - 1;
     }},
    {"dies == de - db", [](ShardRecord& r) { ++r.die_end; }},
    {"sum(policy) == dies",
     [](ShardRecord& r) {
       ++policy_count(r, TuningPolicy::ChipWideHigh);
       ExactMoments& pw = r.agg.power_mw[2];
       ExactMoments& lk = r.agg.leakage_mw[2];
       set_count(pw, pw.count() + 1);
       set_count(lk, lk.count() + 1);
     }},
    {"sum(islands) == AllLow + NestedIslands",
     [](ShardRecord& r) { ++r.agg.island_activation[0]; }},
    {"wnsa_n == dies",
     [](ShardRecord& r) {
       set_count(r.agg.wns_all_low_ns, r.agg.dies + 1);
     }},
    {"wnsf_n == dies",
     [](ShardRecord& r) { set_count(r.agg.wns_final_ns, r.agg.dies + 1); }},
    {"pw0_n == policy[AllLow]",
     [](ShardRecord& r) {
       set_count(r.agg.power_mw[0], policy_count(r, TuningPolicy::AllLow) + 1);
     }},
    {"pw3_n == policy[Discard]",
     [](ShardRecord& r) {
       set_count(r.agg.power_mw[3], policy_count(r, TuningPolicy::Discard) + 1);
     }},
    {"lk1_n == policy[NestedIslands]",
     [](ShardRecord& r) {
       set_count(r.agg.leakage_mw[1],
                 policy_count(r, TuningPolicy::NestedIslands) + 1);
     }},
    {"lk2_n == policy[ChipWideHigh]",
     [](ShardRecord& r) {
       set_count(r.agg.leakage_mw[2],
                 policy_count(r, TuningPolicy::ChipWideHigh) + 1);
     }},
    {"fmax_n <= dies - policy[Discard]",
     [](ShardRecord& r) {
       set_count(r.agg.fmax_ghz, r.agg.shipped_dies() + 1);
     }},
    {"met <= dies", [](ShardRecord& r) { r.agg.timing_met = r.agg.dies + 1; }},
    {"esc <= dies", [](ShardRecord& r) { r.agg.escalated = r.agg.dies + 1; }},
    {"miss <= dies",
     [](ShardRecord& r) { r.agg.missed_violation = r.agg.dies + 1; }},
    {"conv <= dies",
     [](ShardRecord& r) { r.agg.mc_converged_dies = r.agg.dies + 1; }},
    {"tga + tgm + mac <= dies",
     [](ShardRecord& r) {
       r.agg.triage_analytical = r.agg.dies - r.agg.triage_mc_fallback -
                                 r.agg.triage_macro + 1;
     }},
    {"drawn <= budget",
     [](ShardRecord& r) {
       r.agg.mc_samples_drawn = r.agg.mc_samples_budget + 1;
     }},
};

std::vector<std::string> split_lines(const std::string& bytes) {
  std::vector<std::string> lines;
  std::istringstream in(bytes);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// `stream` with line `index` (a shard record) re-serialized after
/// `edit`; throws if that line does not parse.
std::string with_broken_record(const std::string& stream, std::size_t index,
                               const BrokenInvariant& edit) {
  std::vector<std::string> lines = split_lines(stream);
  ShardRecord r;
  if (!parse_shard_record(lines.at(index), r)) {
    throw std::runtime_error("with_broken_record: line is no shard record");
  }
  edit.apply(r);
  lines[index] = serialize_shard_record(r);
  std::string out;
  for (const std::string& line : lines) out += line + '\n';
  return out;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

TEST(CampaignCheckpoint, GoldenStreamPrefixEndsAtEachBrokenInvariant) {
  const std::string golden =
      file_bytes(std::string(VIPVT_GOLDEN_DIR) + "/campaign_stream.ndjson");
  const std::vector<std::string> lines = split_lines(golden);
  ASSERT_EQ(lines.size(), 4u);  // header, two shards, trailer
  const std::string path = temp_path("campaign_invariants.ndjson");
  write_bytes(path, golden);
  const LoadedCampaignStream intact = load_campaign_stream(path);
  ASSERT_EQ(intact.records.size(), 2u);
  EXPECT_TRUE(intact.trailer_seen);
  for (std::size_t rec = 1; rec <= 2; ++rec) {
    // Re-serializing an unedited record reproduces its line.
    ShardRecord r;
    ASSERT_TRUE(parse_shard_record(lines[rec], r)) << "record " << rec;
    ASSERT_EQ(serialize_shard_record(r), lines[rec]) << "record " << rec;
    std::uint64_t prefix = 0;
    for (std::size_t i = 0; i < rec; ++i) prefix += lines[i].size() + 1;
    for (const BrokenInvariant& edit : kBrokenInvariants) {
      SCOPED_TRACE(std::string(edit.what) + ", record " + std::to_string(rec));
      ShardRecord broken = r;
      edit.apply(broken);
      ShardRecord back;
      EXPECT_FALSE(parse_shard_record(serialize_shard_record(broken), back));
      write_bytes(path, with_broken_record(golden, rec, edit));
      const LoadedCampaignStream loaded = load_campaign_stream(path);
      EXPECT_EQ(loaded.records.size(), rec - 1);
      EXPECT_EQ(loaded.valid_bytes, prefix);
      EXPECT_FALSE(loaded.trailer_seen);
    }
  }
  std::remove(path.c_str());
}

TEST_F(CampaignFixture, ResumeRecomputesRecordsBreakingAnInvariant) {
  CampaignSpec spec = tiny_spec();
  spec.wafers_per_cell = 1;
  spec.sigma_scales = {1.0};
  const std::string path = temp_path("campaign_broken.ndjson");
  CampaignRunOptions opts;
  opts.stream_path = path;
  const CampaignReport reference = runner_->run(spec, opts);
  const std::string intact = file_bytes(path);
  const std::size_t middle = 1 + reference.jobs_total / 2;  // a shard line
  for (const BrokenInvariant& edit : kBrokenInvariants) {
    SCOPED_TRACE(edit.what);
    write_bytes(path, with_broken_record(intact, middle, edit));
    CampaignRunOptions resume;
    resume.stream_path = path;
    resume.resume = true;
    CampaignRunStats stats;
    resume.stats = &stats;
    const CampaignReport resumed = runner_->run(spec, resume);
    EXPECT_EQ(stats.jobs_resumed, middle - 1);
    EXPECT_EQ(report_bytes(resumed), report_bytes(reference));
    EXPECT_EQ(file_bytes(path), intact);
  }
  std::remove(path.c_str());
}

// ---- record round-trip ----------------------------------------------------

TEST(CampaignCheckpoint, ShardRecordRoundTripsBitExactly) {
  ShardRecord r;
  r.job = 41;
  r.cell = 7;
  r.wafer = 3;
  r.die_begin = 12;
  r.die_end = 19;
  r.agg.dies = 7;
  r.agg.policy_count = {2, 3, 1, 1};
  r.agg.island_activation = {2, 1, 2};
  r.agg.timing_met = 6;
  r.agg.escalated = 1;
  r.agg.missed_violation = 0;
  r.agg.mc_severity_sum = 9;
  r.agg.mc_samples_drawn = 42;
  r.agg.mc_samples_budget = 56;
  r.agg.mc_converged_dies = 5;
  // Moments as YieldAggregate::add leaves them for these seven dies — one
  // wns sample per die, one power and leakage sample per die under its
  // policy — since parse_shard_record rejects a record that breaks the
  // reducer's invariants.
  const double v[] = {1.25, -0.32768111111, 3.0009765625, 1e-7,
                      0.5,  2.75,           -1.0 / 3.0};
  const std::size_t policy_of[] = {0, 0, 1, 1, 1, 2, 3};
  for (std::size_t d = 0; d < 7; ++d) {
    if (d < 4) r.agg.fmax_ghz.add(v[d] + 1.0);
    r.agg.wns_all_low_ns.add(-v[d]);
    r.agg.wns_final_ns.add(v[d] * 0.5);
    r.agg.power_mw[policy_of[d]].add(100.0 * v[d]);
    r.agg.leakage_mw[policy_of[d]].add(0.125 * v[d]);
  }

  const std::string line = serialize_shard_record(r);
  ShardRecord back;
  ASSERT_TRUE(parse_shard_record(line, back));
  EXPECT_EQ(back.job, r.job);
  EXPECT_EQ(back.cell, r.cell);
  EXPECT_EQ(back.wafer, r.wafer);
  EXPECT_EQ(back.die_begin, r.die_begin);
  EXPECT_EQ(back.die_end, r.die_end);
  EXPECT_EQ(back.agg.dies, r.agg.dies);
  EXPECT_EQ(back.agg.policy_count, r.agg.policy_count);
  EXPECT_EQ(back.agg.island_activation, r.agg.island_activation);
  EXPECT_EQ(back.agg.mc_samples_drawn, r.agg.mc_samples_drawn);
  // ExactMoments equality is state equality: bit-for-bit round-trip.
  EXPECT_EQ(back.agg.fmax_ghz, r.agg.fmax_ghz);
  EXPECT_EQ(back.agg.wns_all_low_ns, r.agg.wns_all_low_ns);
  EXPECT_EQ(back.agg.wns_final_ns, r.agg.wns_final_ns);
  for (int p = 0; p < kNumTuningPolicies; ++p) {
    EXPECT_EQ(back.agg.power_mw[static_cast<std::size_t>(p)],
              r.agg.power_mw[static_cast<std::size_t>(p)]);
    EXPECT_EQ(back.agg.leakage_mw[static_cast<std::size_t>(p)],
              r.agg.leakage_mw[static_cast<std::size_t>(p)]);
  }
  // And the re-serialization is byte-identical (stream determinism).
  EXPECT_EQ(serialize_shard_record(back), line);
}

TEST(CampaignSeeding, DieSeedMatchesWaferPathDerivation) {
  // The campaign hands analyze_shard a cfg whose seed is the wafer seed;
  // the die path then derives substream_seed(cfg.seed, die_id).  The
  // exposed helper must agree with that composition exactly.
  const std::uint64_t seed = 0xfeedface;
  EXPECT_EQ(campaign_die_seed(seed, 5, 2, 17),
            substream_seed(campaign_wafer_seed(seed, 5, 2), 17));
  EXPECT_NE(campaign_die_seed(seed, 5, 2, 17), campaign_die_seed(seed, 5, 3, 17));
  EXPECT_NE(campaign_die_seed(seed, 5, 2, 17), campaign_die_seed(seed, 6, 2, 17));
}

}  // namespace
}  // namespace vipvt
