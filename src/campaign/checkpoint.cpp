#include "campaign/checkpoint.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <string>

#include "io/ndjson.hpp"
#include "util/stats.hpp"

namespace vipvt {

namespace {

/// The eleven ExactMoments groups of a YieldAggregate, each serialized
/// under a short prefix: fixed order, fixed per-group fields (n, sum
/// hi/lo, sumsq hi/lo, min/max bit patterns).
constexpr std::array<std::string_view, 11> kMomentPrefixes = {
    "fmax", "wnsa", "wnsf", "pw0", "pw1", "pw2", "pw3",
    "lk0",  "lk1",  "lk2",  "lk3"};

std::array<const ExactMoments*, 11> moment_fields(const YieldAggregate& a) {
  return {&a.fmax_ghz,    &a.wns_all_low_ns, &a.wns_final_ns, &a.power_mw[0],
          &a.power_mw[1], &a.power_mw[2],    &a.power_mw[3],  &a.leakage_mw[0],
          &a.leakage_mw[1], &a.leakage_mw[2], &a.leakage_mw[3]};
}

std::array<ExactMoments*, 11> moment_fields(YieldAggregate& a) {
  return {&a.fmax_ghz,    &a.wns_all_low_ns, &a.wns_final_ns, &a.power_mw[0],
          &a.power_mw[1], &a.power_mw[2],    &a.power_mw[3],  &a.leakage_mw[0],
          &a.leakage_mw[1], &a.leakage_mw[2], &a.leakage_mw[3]};
}

double bits_to_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::uint64_t double_to_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

void put_moments(JsonBuilder& b, std::string_view prefix,
                 const ExactMoments& m) {
  const ExactMoments::State s = m.state();
  const auto key = [prefix](std::string_view suffix) {
    std::string k(prefix);
    k += '_';
    k += suffix;
    return k;
  };
  b.u64(key("n"), s.n)
      .i64(key("sh"), s.sum_hi)
      .u64(key("sl"), s.sum_lo)
      .i64(key("qh"), s.sumsq_hi)
      .u64(key("ql"), s.sumsq_lo)
      .bits(key("mn"), bits_to_double(s.min_bits))
      .bits(key("mx"), bits_to_double(s.max_bits));
}

bool get_moments(std::string_view line, std::string_view prefix,
                 ExactMoments& out) {
  const auto key = [prefix](std::string_view suffix) {
    std::string k(prefix);
    k += '_';
    k += suffix;
    return k;
  };
  ExactMoments::State s;
  double mn = 0.0, mx = 0.0;
  if (!ndjson_find_u64(line, key("n"), s.n)) return false;
  if (!ndjson_find_i64(line, key("sh"), s.sum_hi)) return false;
  if (!ndjson_find_u64(line, key("sl"), s.sum_lo)) return false;
  if (!ndjson_find_i64(line, key("qh"), s.sumsq_hi)) return false;
  if (!ndjson_find_u64(line, key("ql"), s.sumsq_lo)) return false;
  if (!ndjson_find_bits(line, key("mn"), mn)) return false;
  if (!ndjson_find_bits(line, key("mx"), mx)) return false;
  s.min_bits = double_to_bits(mn);
  s.max_bits = double_to_bits(mx);
  out = ExactMoments::from_state(s);
  return true;
}

/// Sums `counts` into `sum`, failing as soon as the running sum would
/// pass `cap`: no wrap-around can fake an equality.
template <class Counts>
bool sum_within(const Counts& counts, std::uint64_t cap, std::uint64_t& sum) {
  sum = 0;
  for (const std::uint64_t c : counts) {
    if (c > cap - sum) return false;
    sum += c;
  }
  return true;
}

/// The exact invariants YieldAggregate::add keeps over a die range.  A
/// record breaking one was not written by the reducer, so the loader
/// treats it like a torn line and resume recomputes it.
bool consistent(const ShardRecord& r) {
  const YieldAggregate& a = r.agg;
  if (r.die_end < r.die_begin || a.dies != r.die_end - r.die_begin) {
    return false;
  }
  std::uint64_t total = 0;
  if (!sum_within(a.policy_count, a.dies, total) || total != a.dies) {
    return false;
  }
  const auto policy = [&a](TuningPolicy p) {
    return a.policy_count[static_cast<std::size_t>(p)];
  };
  const std::uint64_t island_dies =
      policy(TuningPolicy::AllLow) + policy(TuningPolicy::NestedIslands);
  if (!sum_within(a.island_activation, island_dies, total) ||
      total != island_dies) {
    return false;
  }
  if (a.wns_all_low_ns.count() != a.dies || a.wns_final_ns.count() != a.dies) {
    return false;
  }
  for (std::size_t p = 0; p < a.policy_count.size(); ++p) {
    if (a.power_mw[p].count() != a.policy_count[p] ||
        a.leakage_mw[p].count() != a.policy_count[p]) {
      return false;
    }
  }
  if (a.fmax_ghz.count() > a.shipped_dies()) return false;
  for (const std::uint64_t tally : {a.timing_met, a.escalated,
                                    a.missed_violation, a.mc_converged_dies}) {
    if (tally > a.dies) return false;
  }
  const std::array<std::uint64_t, 3> tiers = {
      a.triage_analytical, a.triage_mc_fallback, a.triage_macro};
  return sum_within(tiers, a.dies, total) &&
         a.mc_samples_drawn <= a.mc_samples_budget;
}

}  // namespace

std::string serialize_campaign_header(std::uint64_t spec_digest,
                                      std::uint64_t jobs_total,
                                      std::uint64_t seed) {
  JsonBuilder b;
  b.str("t", "h")
      .str("schema", kCampaignStreamSchema)
      .u64("version", kCampaignStreamVersion)
      .u64("digest", spec_digest)
      .u64("jobs", jobs_total)
      .u64("seed", seed);
  return b.build();
}

std::string serialize_shard_record(const ShardRecord& r) {
  JsonBuilder b;
  b.str("t", "s")
      .u64("job", r.job)
      .u64("cell", r.cell)
      .u64("wafer", r.wafer)
      .u64("db", r.die_begin)
      .u64("de", r.die_end)
      .u64("dies", r.agg.dies);
  {
    std::array<std::uint64_t, kNumTuningPolicies> pc{};
    for (std::size_t i = 0; i < pc.size(); ++i) pc[i] = r.agg.policy_count[i];
    b.u64_array("policy", pc);
  }
  b.u64_array("islands", r.agg.island_activation)
      .u64("met", r.agg.timing_met)
      .u64("esc", r.agg.escalated)
      .u64("miss", r.agg.missed_violation)
      .u64("sev", r.agg.mc_severity_sum)
      .u64("drawn", r.agg.mc_samples_drawn)
      .u64("budget", r.agg.mc_samples_budget)
      .u64("conv", r.agg.mc_converged_dies)
      .u64("tga", r.agg.triage_analytical)
      .u64("tgm", r.agg.triage_mc_fallback)
      .u64("mac", r.agg.triage_macro);
  const auto moments = moment_fields(r.agg);
  for (std::size_t i = 0; i < kMomentPrefixes.size(); ++i) {
    put_moments(b, kMomentPrefixes[i], *moments[i]);
  }
  return b.build();
}

std::string serialize_campaign_trailer(std::uint64_t jobs_total) {
  JsonBuilder b;
  b.str("t", "e").u64("jobs", jobs_total);
  return b.build();
}

bool parse_shard_record(std::string_view line, ShardRecord& out) {
  std::string kind;
  if (!ndjson_find_str(line, "t", kind) || kind != "s") return false;
  ShardRecord r;
  if (!ndjson_find_u64(line, "job", r.job)) return false;
  if (!ndjson_find_u64(line, "cell", r.cell)) return false;
  if (!ndjson_find_u64(line, "wafer", r.wafer)) return false;
  if (!ndjson_find_u64(line, "db", r.die_begin)) return false;
  if (!ndjson_find_u64(line, "de", r.die_end)) return false;
  if (!ndjson_find_u64(line, "dies", r.agg.dies)) return false;
  std::vector<std::uint64_t> policy;
  if (!ndjson_find_u64_array(line, "policy", policy) ||
      policy.size() != static_cast<std::size_t>(kNumTuningPolicies)) {
    return false;
  }
  for (std::size_t i = 0; i < policy.size(); ++i) r.agg.policy_count[i] = policy[i];
  if (!ndjson_find_u64_array(line, "islands", r.agg.island_activation)) {
    return false;
  }
  if (!ndjson_find_u64(line, "met", r.agg.timing_met)) return false;
  if (!ndjson_find_u64(line, "esc", r.agg.escalated)) return false;
  if (!ndjson_find_u64(line, "miss", r.agg.missed_violation)) return false;
  if (!ndjson_find_u64(line, "sev", r.agg.mc_severity_sum)) return false;
  if (!ndjson_find_u64(line, "drawn", r.agg.mc_samples_drawn)) return false;
  if (!ndjson_find_u64(line, "budget", r.agg.mc_samples_budget)) return false;
  if (!ndjson_find_u64(line, "conv", r.agg.mc_converged_dies)) return false;
  if (!ndjson_find_u64(line, "tga", r.agg.triage_analytical)) return false;
  if (!ndjson_find_u64(line, "tgm", r.agg.triage_mc_fallback)) return false;
  if (!ndjson_find_u64(line, "mac", r.agg.triage_macro)) return false;
  const auto moments = moment_fields(r.agg);
  for (std::size_t i = 0; i < kMomentPrefixes.size(); ++i) {
    if (!get_moments(line, kMomentPrefixes[i], *moments[i])) return false;
  }
  if (!consistent(r)) return false;
  out = std::move(r);
  return true;
}

LoadedCampaignStream load_campaign_stream(const std::string& path) {
  LoadedCampaignStream out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;

  std::string line;
  std::uint64_t offset = 0;
  while (std::getline(in, line)) {
    // getline strips '\n' but also returns the final unterminated
    // fragment of a killed write; only count the line if the newline was
    // actually consumed (stream not at a newline-less EOF).
    const bool terminated = !in.eof();
    if (!terminated) break;
    const std::uint64_t line_bytes = line.size() + 1;

    std::string kind;
    if (!ndjson_find_str(line, "t", kind)) break;
    if (kind == "h") {
      std::string schema;
      std::uint64_t version = 0;
      if (out.header_seen || !ndjson_find_str(line, "schema", schema) ||
          schema != kCampaignStreamSchema ||
          !ndjson_find_u64(line, "version", version) ||
          version != kCampaignStreamVersion ||
          !ndjson_find_u64(line, "digest", out.spec_digest) ||
          !ndjson_find_u64(line, "jobs", out.jobs_total) ||
          !ndjson_find_u64(line, "seed", out.seed)) {
        break;
      }
      out.header_seen = true;
    } else if (kind == "s") {
      ShardRecord r;
      if (!out.header_seen || !parse_shard_record(line, r) ||
          r.job != out.records.size()) {
        break;  // out-of-order or damaged record: prefix ends here
      }
      out.records.push_back(std::move(r));
    } else if (kind == "e") {
      std::uint64_t jobs = 0;
      if (!out.header_seen || !ndjson_find_u64(line, "jobs", jobs) ||
          jobs != out.jobs_total || out.records.size() != out.jobs_total) {
        break;
      }
      out.trailer_seen = true;
    } else {
      break;
    }
    offset += line_bytes;
    if (out.trailer_seen) break;  // nothing valid may follow the trailer
  }
  out.valid_bytes = offset;
  return out;
}

}  // namespace vipvt
