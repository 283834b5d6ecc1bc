#pragma once
// Campaign stream/checkpoint records (schema "vipvt.campaign.ndjson",
// version 1).  One NDJSON line per record; the `t` key tags the kind:
//
//   t=h  header: schema/version, spec digest, total job count, seed —
//        written once at stream birth; resume validates it so a
//        checkpoint can never silently continue a different campaign.
//   t=s  shard: job/cell/wafer/die-range identity plus the COMPLETE
//        YieldAggregate reducer state.  Exact fields (integer tallies,
//        ExactMoments 128-bit sums, min/max doubles) travel as integers
//        and IEEE-754 bit patterns, so parse(serialize(r)) reproduces the
//        aggregate bit-for-bit — the stream IS the checkpoint.
//   t=e  end trailer: written after the last shard; its presence marks a
//        complete campaign (a live tail knows the stream won't grow).
//
// Serialization is deterministic (fixed key order and formats), so two
// campaigns that compute identical aggregates produce byte-identical
// streams — the property the resume gate byte-compares (DESIGN.md §15).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "yield/yield.hpp"

namespace vipvt {

inline constexpr std::string_view kCampaignStreamSchema =
    "vipvt.campaign.ndjson";
/// Version 2 added the triage tier tallies (tga/tgm, DESIGN.md §16) to
/// shard records; version-1 streams are not resumable (the digest embeds
/// the version, so resume refuses them loudly rather than silently
/// zeroing the new fields).  Version 3 covers the compensation-policy
/// portfolio (DESIGN.md §18): the record format is unchanged, but the
/// spec digest now hashes each policy's sizing/buffering knobs — which
/// decide the netlist a cell's dies fabricate on — so version-2 streams
/// are not resumable either.  Version 4 added the stage-macromodel tier
/// (DESIGN.md §19): shard records gain the macro-decided tally (mac)
/// and the digest hashes the tier selector plus the macromodel knobs.
inline constexpr std::uint64_t kCampaignStreamVersion = 4;

/// One completed wafer shard: job identity + full reducer state.
struct ShardRecord {
  std::uint64_t job = 0;   ///< dense job index (emission is in job order)
  std::uint64_t cell = 0;  ///< CampaignCell::index
  std::uint64_t wafer = 0;
  std::uint64_t die_begin = 0;
  std::uint64_t die_end = 0;
  YieldAggregate agg;
};

std::string serialize_campaign_header(std::uint64_t spec_digest,
                                      std::uint64_t jobs_total,
                                      std::uint64_t seed);
std::string serialize_shard_record(const ShardRecord& r);
std::string serialize_campaign_trailer(std::uint64_t jobs_total);

/// Parse one t=s line.  Returns false on any malformed or non-shard line,
/// and on a well-formed one whose values break an invariant that
/// YieldAggregate::add keeps: de >= db and dies == de - db; the policy
/// counts sum to dies; the island histogram sums to the AllLow plus
/// NestedIslands count; wnsa_n == wnsf_n == dies; pw{p}_n == lk{p}_n ==
/// policy[p]; fmax_n <= dies - policy[Discard]; met, esc, miss and conv
/// each <= dies; tga + tgm + mac <= dies; drawn <= budget.  The loader
/// treats either as the end of the resumable prefix.
bool parse_shard_record(std::string_view line, ShardRecord& out);

/// What load_campaign_stream recovered from a (possibly truncated)
/// stream file.
struct LoadedCampaignStream {
  bool header_seen = false;
  std::uint64_t spec_digest = 0;
  std::uint64_t jobs_total = 0;
  std::uint64_t seed = 0;
  /// Shard records of the complete-record prefix, in file (= job) order.
  std::vector<ShardRecord> records;
  bool trailer_seen = false;
  /// Byte length of the resumable prefix (ends after the last complete,
  /// parseable record); resume truncates the file here before appending.
  std::uint64_t valid_bytes = 0;
};

/// Read a stream file back, tolerating a kill mid-write: only lines
/// terminated by '\n' AND parsing cleanly count, and the first bad line
/// ends the prefix.  Missing file -> default (header_seen == false).
LoadedCampaignStream load_campaign_stream(const std::string& path);

}  // namespace vipvt
