// Golden-report regression tests: serialize hand-constructed synthetic
// reports and byte-compare against committed fixtures under
// tests/golden/.  The fixtures pin the WRITER SCHEMA (column order,
// field names, formatting) — any schema drift shows up as a byte diff
// here before it breaks downstream dashboards.  The synthetic values
// are exactly representable (dyadic fractions), so the %.6f rendering
// is identical on every platform and the fixtures stay FP-safe.
//
// Regeneration after an intentional schema change:
//   VIPVT_UPDATE_GOLDEN=1 ./build/tests/test_golden_writers
// then commit the rewritten files with the schema change.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/checkpoint.hpp"
#include "io/campaign_writers.hpp"
#include "io/yield_writers.hpp"
#include "yield/wafer.hpp"
#include "yield/yield.hpp"

namespace vipvt {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(VIPVT_GOLDEN_DIR) + "/" + name;
}

void expect_matches_golden(const std::string& name, const std::string& got) {
  const std::string path = golden_path(name);
  if (std::getenv("VIPVT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os) << "cannot rewrite " << path;
    os << got;
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is) << "missing fixture " << path
                  << " (regenerate with VIPVT_UPDATE_GOLDEN=1)";
  std::ostringstream want;
  want << is.rdbuf();
  EXPECT_EQ(got, want.str()) << "writer schema drifted from " << name
                             << "; if intentional, regenerate with "
                                "VIPVT_UPDATE_GOLDEN=1 and commit";
}

/// Small wafer (60 mm) so the CSV fixture stays a handful of rows.
WaferConfig golden_wafer_config() {
  WaferConfig wc;
  wc.wafer_diameter_mm = 60.0;
  return wc;
}

/// One synthetic die: every value a small dyadic fraction of the id, so
/// nothing depends on libm or accumulation order.
DieOutcome synthetic_die(int id) {
  DieOutcome d;
  d.die_id = id;
  d.mc_severity = id % 3;
  d.detected_severity = id % 3;
  d.policy = static_cast<TuningPolicy>(id % kNumTuningPolicies);
  d.islands_raised = d.policy == TuningPolicy::NestedIslands ? 1 + id % 2 : 0;
  d.timing_met = d.policy == TuningPolicy::AllLow;
  d.escalated = id % 4 == 3;
  d.missed_violation = false;
  d.wns_all_low_ns = -0.25 + 0.125 * id;
  d.wns_final_ns = 0.0625 * id;
  d.fmax_ghz = d.policy == TuningPolicy::Discard ? 0.0 : 1.0 + 0.25 * (id % 4);
  d.total_mw = 40.0 + 0.5 * id;
  d.leakage_mw = 4.0 + 0.125 * id;
  if (id % 3 == 0) {
    d.triage_tier = TriageTier::Macro;
    d.mc_samples = 0;
    d.triage_margin_ns = 0.5;
    d.triage_band_ns = 0.125;
  } else {
    d.triage_tier = TriageTier::McFallback;
    d.mc_samples = 16;
    d.triage_margin_ns = 0.0625;
    d.triage_band_ns = 0.125;
  }
  return d;
}

YieldReport synthetic_yield_report(const WaferModel& wafer) {
  YieldReport r;
  r.wafer = golden_wafer_config();
  r.config.mc.samples = 16;
  r.config.seed = 77;
  r.config.tier = EvalTier::Macro;
  // Folded as analyze() folds a wafer: two islands, the config's budget.
  r.agg.island_activation.assign(3, 0);
  for (std::size_t i = 0; i < wafer.num_dies(); ++i) {
    r.dies.push_back(synthetic_die(static_cast<int>(i)));
    r.agg.add(r.dies.back(), 2, per_die_mc_budget(r.config.mc));
  }
  r.speed_bin_lo_ghz = 1.0;
  r.speed_bin_step_ghz = 0.25;
  r.speed_bin_count.assign(4, 0);
  for (const DieOutcome& d : r.dies) {
    if (d.policy == TuningPolicy::Discard || d.fmax_ghz <= 0.0) continue;
    ++r.speed_bin_count[static_cast<std::size_t>(d.mc_severity == 0
                                                     ? (d.die_id % 4)
                                                     : 0)];
  }
  return r;
}

CampaignReport synthetic_campaign_report(const WaferModel& wafer) {
  CampaignReport r;
  r.spec.variants = {"tiny"};
  r.spec.wafer_grids = {golden_wafer_config()};
  r.spec.sigma_scales = {1.0, 1.5};
  PolicyMix vi_only;
  PolicyMix sizing;
  sizing.name = "sizing";
  sizing.sizing.enabled = true;
  sizing.sizing.min_crit_prob = 0.25;
  sizing.crit_samples = 8;
  r.spec.policies = {vi_only, sizing};
  r.spec.mc_samples = {16};
  r.spec.seed = 99;
  r.variant_names = {"tiny"};
  for (std::uint32_t c = 0; c < 2; ++c) {
    CellResult cell;
    cell.cell.index = c;
    cell.cell.sigma = c;
    cell.cell.policy = c;
    for (std::size_t i = 0; i < wafer.num_dies(); ++i) {
      cell.agg.add(synthetic_die(static_cast<int>(i)), 2, 16);
    }
    if (c == 1) {
      cell.portfolio.mix = "sizing";
      cell.portfolio.sizing = true;
      cell.portfolio.gates_upsized = 5;
      cell.portfolio.crit_samples = 8;
      cell.portfolio.area_um2 = 1024.0;
      cell.portfolio.area_delta_um2 = 32.0;
    }
    r.cells.push_back(std::move(cell));
  }
  r.jobs_done = 2;
  r.jobs_total = 2;
  return r;
}

TEST(GoldenWriters, YieldCsvMatchesGolden) {
  const WaferModel wafer(golden_wafer_config());
  std::ostringstream os;
  write_yield_csv(os, wafer, synthetic_yield_report(wafer));
  expect_matches_golden("yield_report.csv", os.str());
}

TEST(GoldenWriters, YieldJsonMatchesGolden) {
  const WaferModel wafer(golden_wafer_config());
  std::ostringstream os;
  write_yield_json(os, synthetic_yield_report(wafer));
  expect_matches_golden("yield_report.json", os.str());
}

TEST(GoldenWriters, CampaignJsonMatchesGolden) {
  const WaferModel wafer(golden_wafer_config());
  std::ostringstream os;
  write_campaign_json(os, synthetic_campaign_report(wafer));
  expect_matches_golden("campaign_report.json", os.str());
}

TEST(GoldenWriters, CampaignNdjsonStreamMatchesGolden) {
  const WaferModel wafer(golden_wafer_config());
  const CampaignReport rep = synthetic_campaign_report(wafer);
  std::ostringstream os;
  os << serialize_campaign_header(0x5eed1234u, 2, rep.spec.seed) << '\n';
  for (std::uint64_t job = 0; job < 2; ++job) {
    ShardRecord rec;
    rec.job = job;
    rec.cell = job;
    rec.wafer = 0;
    rec.die_begin = 0;
    rec.die_end = wafer.num_dies();
    rec.agg = rep.cells[static_cast<std::size_t>(job)].agg;
    os << serialize_shard_record(rec) << '\n';

    // Round-trip: the parser must restore the reducer state exactly
    // (ExactMoments compares bitwise).
    ShardRecord back;
    ASSERT_TRUE(parse_shard_record(serialize_shard_record(rec), back));
    EXPECT_EQ(back.job, rec.job);
    EXPECT_EQ(back.agg.dies, rec.agg.dies);
    EXPECT_EQ(back.agg.triage_macro, rec.agg.triage_macro);
    EXPECT_EQ(back.agg.triage_mc_fallback, rec.agg.triage_mc_fallback);
    EXPECT_TRUE(back.agg.wns_final_ns == rec.agg.wns_final_ns);
    EXPECT_TRUE(back.agg.fmax_ghz == rec.agg.fmax_ghz);
  }
  os << serialize_campaign_trailer(2) << '\n';
  expect_matches_golden("campaign_stream.ndjson", os.str());
}

// User-supplied names (policy mix, variant, policy) reach the reports
// as given: each JSON writer escapes them as the NDJSON stream does, and
// the CSV quotes its policy_mix field, so a quote, backslash or comma in
// a name neither breaks the JSON nor splits a CSV column.
TEST(GoldenWriters, UserSuppliedNamesAreEscaped) {
  const std::string name = R"(q"uo\te,comma)";
  const std::string in_json = R"("q\"uo\\te,comma")";
  const WaferModel wafer(golden_wafer_config());

  YieldReport yr = synthetic_yield_report(wafer);
  yr.portfolio.mix = name;
  std::ostringstream yield_json;
  write_yield_json(yield_json, yr);
  EXPECT_NE(yield_json.str().find(R"("mix": )" + in_json), std::string::npos)
      << yield_json.str();

  std::ostringstream csv;
  write_yield_csv(csv, wafer, yr);
  std::istringstream rows(csv.str());
  std::string row;
  std::getline(rows, row);  // header
  std::size_t data_rows = 0;
  while (std::getline(rows, row)) {
    ++data_rows;
    const std::string quoted = R"(,"q""uo\te,comma")";
    ASSERT_GE(row.size(), quoted.size());
    EXPECT_EQ(row.substr(row.size() - quoted.size()), quoted) << row;
  }
  EXPECT_EQ(data_rows, wafer.num_dies());

  CampaignReport cr = synthetic_campaign_report(wafer);
  cr.variant_names = {name};
  cr.spec.policies[1].name = name;
  cr.cells[1].portfolio.mix = name;
  std::ostringstream campaign_json;
  write_campaign_json(campaign_json, cr);
  const std::string out = campaign_json.str();
  for (const std::string key :
       {R"("variants": [)", R"("name": )", R"("variant": )", R"("policy": )",
        R"("mix": )"}) {
    EXPECT_NE(out.find(key + in_json), std::string::npos) << key;
  }
  EXPECT_EQ(out.find(name), std::string::npos) << "unescaped name in\n" << out;
}

}  // namespace
}  // namespace vipvt
