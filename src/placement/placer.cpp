#include "placement/placer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace vipvt {

PlacementDb::PlacementDb(const Floorplan& fp)
    : fp_(&fp),
      occ_(static_cast<std::size_t>(fp.num_rows()),
           std::vector<InstId>(static_cast<std::size_t>(fp.sites_per_row()),
                               kInvalidInst)) {}

bool PlacementDb::is_free(int row, int site, int span) const {
  if (row < 0 || row >= fp_->num_rows() || site < 0 ||
      site + span > fp_->sites_per_row()) {
    return false;
  }
  const auto& r = occ_[static_cast<std::size_t>(row)];
  for (int s = site; s < site + span; ++s) {
    if (r[static_cast<std::size_t>(s)] != kInvalidInst) return false;
  }
  return true;
}

void PlacementDb::occupy_inst(int row, int site, int span, InstId inst) {
  auto& r = occ_.at(static_cast<std::size_t>(row));
  for (int s = site; s < site + span; ++s) {
    if (r.at(static_cast<std::size_t>(s)) != kInvalidInst) {
      throw std::logic_error("PlacementDb: double occupancy");
    }
    r[static_cast<std::size_t>(s)] = inst;
  }
  occupied_ += static_cast<std::size_t>(span);
}

void PlacementDb::release(int row, int site, int span) {
  auto& r = occ_.at(static_cast<std::size_t>(row));
  for (int s = site; s < site + span; ++s) {
    if (r.at(static_cast<std::size_t>(s)) == kInvalidInst) {
      throw std::logic_error("PlacementDb: releasing free site");
    }
    r[static_cast<std::size_t>(s)] = kInvalidInst;
  }
  occupied_ -= static_cast<std::size_t>(span);
}

std::optional<Point> PlacementDb::allocate_near(Point target, int span,
                                                InstId inst) {
  const int trow = fp_->row_at(target.y);
  const int tsite = fp_->site_at(target.x);
  const int max_row_radius = fp_->num_rows();
  for (int rr = 0; rr < max_row_radius; ++rr) {
    for (int dir = 0; dir < 2; ++dir) {
      const int row = dir == 0 ? trow + rr : trow - rr;
      if (rr == 0 && dir == 1) continue;
      if (row < 0 || row >= fp_->num_rows()) continue;
      // Scan start positions outward from the target site.
      const int max_site_radius = fp_->sites_per_row();
      for (int sr = 0; sr < max_site_radius; ++sr) {
        for (int sdir = 0; sdir < 2; ++sdir) {
          const int site = sdir == 0 ? tsite + sr : tsite - sr;
          if (sr == 0 && sdir == 1) continue;
          if (is_free(row, site, span)) {
            occupy_inst(row, site, span, inst);
            return Point{fp_->site_x(site), fp_->row_y(row)};
          }
        }
        // Bound the in-row scan when far from the target row; a full-row
        // scan per row keeps worst case O(rows*sites) which is fine at
        // our sizes, but trimming keeps the common case fast.
        if (rr > 2 && sr > fp_->sites_per_row() / 4) break;
      }
    }
  }
  return std::nullopt;
}

std::optional<int> PlacementDb::try_open_gap(Design& design, int row,
                                             int site, int span) {
  const int row_end = fp_->sites_per_row();
  if (row < 0 || row >= fp_->num_rows()) return std::nullopt;
  site = std::clamp(site, 0, row_end - span);
  auto& r = occ_[static_cast<std::size_t>(row)];

  // Free sites reachable rightward from each start (stopping at movable
  // blockers), in one O(row) pass.  If the target start lacks room, the
  // window slides left to the nearest start that has enough — i.e. the
  // compaction also recruits free space left of the target.
  std::vector<int> suffix_free(static_cast<std::size_t>(row_end) + 1, 0);
  for (int s = row_end - 1; s >= 0; --s) {
    const InstId occ = r[static_cast<std::size_t>(s)];
    suffix_free[static_cast<std::size_t>(s)] =
        occ == kBlocked
            ? 0
            : suffix_free[static_cast<std::size_t>(s) + 1] +
                  (occ == kInvalidInst ? 1 : 0);
  }
  while (site > 0 && suffix_free[static_cast<std::size_t>(site)] < span) {
    --site;
  }
  if (suffix_free[static_cast<std::size_t>(site)] < span) return std::nullopt;

  // Collect the movable segments in [site, row_end) up to the first
  // blocker, in left-to-right order.
  struct Segment {
    InstId inst;
    int site;
    int span;
  };
  std::vector<Segment> segments;
  int scan_start = site;
  // A cell straddling `site` must move as a whole: rewind to its start.
  if (r[static_cast<std::size_t>(scan_start)] != kInvalidInst &&
      r[static_cast<std::size_t>(scan_start)] != kBlocked) {
    while (scan_start > 0 &&
           r[static_cast<std::size_t>(scan_start - 1)] ==
               r[static_cast<std::size_t>(scan_start)]) {
      --scan_start;
    }
  }
  for (int s = scan_start; s < row_end;) {
    const InstId occ = r[static_cast<std::size_t>(s)];
    if (occ == kBlocked) break;
    if (occ == kInvalidInst) {
      ++s;
      continue;
    }
    int e = s;
    while (e < row_end && r[static_cast<std::size_t>(e)] == occ) ++e;
    segments.push_back({occ, s, e - s});
    s = e;
  }

  // Re-pack: clear, then place each segment at max(cursor, original),
  // falling back to pure compaction if the tail would overflow.
  for (const auto& seg : segments) release(row, seg.site, seg.span);
  auto place_all = [&](bool keep_gaps) {
    int cursor = site + span;
    std::vector<int> new_sites(segments.size());
    for (std::size_t k = 0; k < segments.size(); ++k) {
      const int at = keep_gaps ? std::max(cursor, segments[k].site) : cursor;
      new_sites[k] = at;
      cursor = at + segments[k].span;
    }
    if (cursor > row_end) return false;
    for (std::size_t k = 0; k < segments.size(); ++k) {
      occupy_inst(row, new_sites[k], segments[k].span, segments[k].inst);
      Instance& inst = design.instance(segments[k].inst);
      inst.pos = {fp_->site_x(new_sites[k]), fp_->row_y(row)};
    }
    return true;
  };
  if (!place_all(true) && !place_all(false)) {
    // Should not happen given the free-count check; restore and fail.
    for (const auto& seg : segments) {
      occupy_inst(row, seg.site, seg.span, seg.inst);
    }
    return std::nullopt;
  }
  return site;
}

std::optional<Point> PlacementDb::allocate_with_shove(Design& design,
                                                      Point target, int span,
                                                      InstId inst) {
  if (auto spot = allocate_near(target, span, inst)) return spot;
  const int trow = fp_->row_at(target.y);
  const int tsite = fp_->site_at(target.x);
  for (int rr = 0; rr < fp_->num_rows(); ++rr) {
    for (int dir = 0; dir < 2; ++dir) {
      const int row = dir == 0 ? trow + rr : trow - rr;
      if (rr == 0 && dir == 1) continue;
      if (row < 0 || row >= fp_->num_rows()) continue;
      if (const auto gap = try_open_gap(design, row, tsite, span)) {
        occupy_inst(row, *gap, span, inst);
        return Point{fp_->site_x(*gap), fp_->row_y(row)};
      }
    }
  }
  return std::nullopt;
}

double PlacementDb::utilization() const {
  const double total = static_cast<double>(fp_->num_rows()) *
                       static_cast<double>(fp_->sites_per_row());
  return total > 0 ? static_cast<double>(occupied_) / total : 0.0;
}

namespace {

/// Deterministic boundary position for a primary port: inputs on the left
/// edge, outputs on the right, spread by port ordinal.
Point port_position(const Design& design, const Floorplan& fp, NetId net_id) {
  const Net& net = design.net(net_id);
  const Rect& die = fp.die();
  const auto& list =
      net.is_primary_input ? design.primary_inputs() : design.primary_outputs();
  std::size_t ordinal = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i] == net_id) {
      ordinal = i;
      break;
    }
  }
  const double frac =
      list.empty() ? 0.5
                   : (static_cast<double>(ordinal) + 0.5) /
                         static_cast<double>(list.size());
  const double x = net.is_primary_input ? die.lo.x : die.hi.x;
  return {x, die.lo.y + frac * die.height()};
}

Point instance_center(const Design& design, InstId id) {
  const Instance& inst = design.instance(id);
  const Cell& cell = design.lib().cell(inst.cell);
  const auto& site = design.lib().site();
  return {inst.pos.x + 0.5 * cell.sites * site.site_width_um,
          inst.pos.y + 0.5 * site.row_height_um};
}

Rect net_bbox(const Design& design, const Floorplan* fp, NetId net_id) {
  const Net& net = design.net(net_id);
  Rect box = Rect::empty();
  if (net.has_cell_driver()) {
    box.expand(instance_center(design, net.driver.inst));
  } else if (fp && (net.is_primary_input || net.is_primary_output)) {
    box.expand(port_position(design, *fp, net_id));
  }
  for (const auto& sink : net.sinks) {
    box.expand(instance_center(design, sink.inst));
  }
  if (fp && net.is_primary_output) box.expand(port_position(design, *fp, net_id));
  return box;
}

}  // namespace

double net_hpwl(const Design& design, NetId net) {
  const Rect box = net_bbox(design, nullptr, net);
  if (box.is_empty()) return 0.0;
  return box.width() + box.height();
}

double total_hpwl(const Design& design) {
  double sum = 0.0;
  for (NetId n = 0; n < design.num_nets(); ++n) {
    const Net& net = design.net(n);
    if (net.is_clock) continue;
    const std::size_t pins = net.sinks.size() + (net.has_cell_driver() ? 1 : 0);
    if (pins < 2) continue;
    sum += net_hpwl(design, n);
  }
  return sum;
}

std::vector<double> density_map(const Design& design, const Floorplan& fp,
                                int n) {
  std::vector<double> map(static_cast<std::size_t>(n) * n, 0.0);
  const Rect& die = fp.die();
  for (InstId i = 0; i < design.num_instances(); ++i) {
    const Instance& inst = design.instance(i);
    if (!inst.placed) continue;
    const Point c = instance_center(design, i);
    int bx = static_cast<int>((c.x - die.lo.x) / die.width() * n);
    int by = static_cast<int>((c.y - die.lo.y) / die.height() * n);
    bx = std::clamp(bx, 0, n - 1);
    by = std::clamp(by, 0, n - 1);
    map[static_cast<std::size_t>(by) * n + bx] +=
        design.lib().cell(inst.cell).area_um2;
  }
  return map;
}

PlaceResult place_design(Design& design, const Floorplan& fp,
                         const PlacerConfig& cfg, PlacementDb& db) {
  const std::size_t n = design.num_instances();
  const Rect& die = fp.die();
  Rng rng(cfg.seed);

  // --- initial placement: Hilbert curve by construction order ----------------
  // Builder-generated netlists create logically related gates with
  // adjacent ids (an adder's bits, a mux tree's levels, a unit's cells),
  // so mapping the id order onto a space-filling Hilbert curve seeds the
  // solver with 2-D-compact blobs: locality is isotropic, which keeps
  // nets short against BOTH slicing directions of the voltage-island
  // generator.  Area-weighted so big cells take proportional curve span.
  std::vector<Point> pos(n);
  if (cfg.random_init) {
    for (std::size_t i = 0; i < n; ++i) {
      pos[i] = {rng.uniform(die.lo.x, die.hi.x),
                rng.uniform(die.lo.y, die.hi.y)};
    }
  } else {
    constexpr int kOrder = 128;  // 128x128 curve grid
    auto hilbert_d2xy = [](std::uint64_t d, int& hx, int& hy) {
      hx = hy = 0;
      for (int s = 1; s < kOrder; s <<= 1) {
        const int rx = 1 & static_cast<int>(d / 2);
        const int ry = 1 & static_cast<int>(d ^ static_cast<std::uint64_t>(rx));
        if (ry == 0) {
          if (rx == 1) {
            hx = s - 1 - hx;
            hy = s - 1 - hy;
          }
          std::swap(hx, hy);
        }
        hx += s * rx;
        hy += s * ry;
        d /= 4;
      }
    };
    const double total_area = design.total_area();
    constexpr std::uint64_t kCurveLen =
        static_cast<std::uint64_t>(kOrder) * kOrder;
    double cum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double a =
          design.lib().cell(design.instance(i).cell).area_um2;
      const double t = (cum + 0.5 * a) / total_area;  // midpoint of span
      cum += a;
      const auto d = std::min<std::uint64_t>(
          kCurveLen - 1, static_cast<std::uint64_t>(t * kCurveLen));
      int hx = 0, hy = 0;
      hilbert_d2xy(d, hx, hy);
      pos[i] = {die.lo.x + (hx + 0.5) / kOrder * die.width() +
                    rng.uniform(-0.005, 0.005) * die.width(),
                die.lo.y + (hy + 0.5) / kOrder * die.height() +
                    rng.uniform(-0.005, 0.005) * die.height()};
      pos[i].x = std::clamp(pos[i].x, die.lo.x, die.hi.x);
      pos[i].y = std::clamp(pos[i].y, die.lo.y, die.hi.y);
    }
  }

  // QoR checkpointing: keep the best intermediate state.  The score is
  // estimated wirelength inflated by density overflow — a collapsed
  // state has artificially short nets but legalization will blow it
  // apart, so overflow must count against it.
  const int est_bins = std::max(4, cfg.density_bins);
  auto estimate_score = [&]() {
    double sum = 0.0;
    for (NetId net_id = 0; net_id < design.num_nets(); ++net_id) {
      const Net& net = design.net(net_id);
      if (net.is_clock) continue;
      Rect box = Rect::empty();
      if (net.has_cell_driver()) box.expand(pos[net.driver.inst]);
      for (const auto& sink : net.sinks) box.expand(pos[sink.inst]);
      if (!box.is_empty()) sum += box.width() + box.height();
    }
    // Density overflow fraction over the estimate grid.
    std::vector<double> area(static_cast<std::size_t>(est_bins) * est_bins,
                             0.0);
    const double bw = die.width() / est_bins;
    const double bh = die.height() / est_bins;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const int bx = std::clamp(
          static_cast<int>((pos[i].x - die.lo.x) / bw), 0, est_bins - 1);
      const int by = std::clamp(
          static_cast<int>((pos[i].y - die.lo.y) / bh), 0, est_bins - 1);
      const double a = design.lib().cell(design.instance(i).cell).area_um2;
      area[static_cast<std::size_t>(by) * est_bins + bx] += a;
      total += a;
    }
    const double cap = total / (est_bins * est_bins) / 0.65;
    double overflow = 0.0;
    for (double a : area) overflow += std::max(0.0, a - cap);
    return sum * (1.0 + 4.0 * overflow / total);
  };
  std::vector<Point> best_pos = pos;
  double best_hpwl = estimate_score();

  // Net pin lists (skip clock: a global net must not pull everything to
  // one point; skip huge fanout nets beyond a threshold for the pull pass
  // as placers do with "don't touch" global nets).
  const NetId clock = design.clock_net();

  // --- centroid iterations with density spreading ---------------------------
  const int bins = std::max(4, cfg.density_bins);
  const double bin_w = die.width() / bins;
  const double bin_h = die.height() / bins;
  const double total_area = design.total_area();
  const double cap_per_bin = total_area / (bins * bins) /
                             0.65;  // allow ~1/0.65 of average before pushing

  std::vector<double> bin_area(static_cast<std::size_t>(bins) * bins);
  for (int iter = 0; iter < cfg.iterations; ++iter) {
    // Pull: move every instance toward the centroid of its connected pins.
    for (std::size_t i = 0; i < n; ++i) {
      const Instance& inst = design.instance(i);
      double sx = 0.0, sy = 0.0;
      int cnt = 0;
      for (std::size_t p = 0; p < inst.conns.size(); ++p) {
        const NetId net_id = inst.conns[p];
        if (net_id == clock) continue;
        const Net& net = design.net(net_id);
        if (net.sinks.size() > 64) continue;  // global-ish net
        // Centroid of the other pins on this net.
        double ox = 0.0, oy = 0.0;
        int ocnt = 0;
        if (net.has_cell_driver() && net.driver.inst != i) {
          ox += pos[net.driver.inst].x;
          oy += pos[net.driver.inst].y;
          ++ocnt;
        }
        if (net.is_primary_input || net.is_primary_output) {
          const Point pp = port_position(design, fp, net_id);
          ox += pp.x;
          oy += pp.y;
          ++ocnt;
        }
        for (const auto& sink : net.sinks) {
          if (sink.inst == i) continue;
          ox += pos[sink.inst].x;
          oy += pos[sink.inst].y;
          ++ocnt;
        }
        if (ocnt > 0) {
          sx += ox / ocnt;
          sy += oy / ocnt;
          ++cnt;
        }
      }
      if (cnt > 0) {
        const double d = cfg.damping;
        pos[i] = {pos[i].x * (1.0 - d) + (sx / cnt) * d,
                  pos[i].y * (1.0 - d) + (sy / cnt) * d};
      }
    }

    // Spread: push cells out of overfull bins toward the die mean.
    // Spreading every iteration fights the pull before it converges, so
    // it only runs every spread_every-th round (always on the last).
    const bool spread_now =
        (iter % std::max(1, cfg.spread_every)) == 0 ||
        iter + 1 == cfg.iterations;
    if (!spread_now) continue;
    std::fill(bin_area.begin(), bin_area.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      int bx = std::clamp(static_cast<int>((pos[i].x - die.lo.x) / bin_w), 0,
                          bins - 1);
      int by = std::clamp(static_cast<int>((pos[i].y - die.lo.y) / bin_h), 0,
                          bins - 1);
      bin_area[static_cast<std::size_t>(by) * bins + bx] +=
          design.lib().cell(design.instance(i).cell).area_um2;
    }
    for (std::size_t i = 0; i < n; ++i) {
      int bx = std::clamp(static_cast<int>((pos[i].x - die.lo.x) / bin_w), 0,
                          bins - 1);
      int by = std::clamp(static_cast<int>((pos[i].y - die.lo.y) / bin_h), 0,
                          bins - 1);
      const double fill =
          bin_area[static_cast<std::size_t>(by) * bins + bx] / cap_per_bin;
      if (fill <= 1.0) continue;
      // Displace away from the bin center, magnitude grows with overflow,
      // with a deterministic pseudo-random direction component to break
      // symmetric pile-ups.
      const Point bc{die.lo.x + (bx + 0.5) * bin_w,
                     die.lo.y + (by + 0.5) * bin_h};
      double dx = pos[i].x - bc.x;
      double dy = pos[i].y - bc.y;
      const double len = std::hypot(dx, dy);
      if (len < 1e-9) {
        std::uint64_t h = i * 0x9e3779b97f4a7c15ULL + iter;
        dx = (static_cast<double>(splitmix64(h) & 0xffff) / 65535.0) - 0.5;
        dy = (static_cast<double>(splitmix64(h) & 0xffff) / 65535.0) - 0.5;
      } else {
        dx /= len;
        dy /= len;
      }
      const double mag =
          cfg.spread_strength * std::min(fill - 1.0, 3.0) * std::max(bin_w, bin_h);
      pos[i].x = std::clamp(pos[i].x + dx * mag, die.lo.x, die.hi.x);
      pos[i].y = std::clamp(pos[i].y + dy * mag, die.lo.y, die.hi.y);
    }

    const double cur = estimate_score();
    if (cur < best_hpwl) {
      best_hpwl = cur;
      best_pos = pos;
    }
  }
  pos = std::move(best_pos);

  // --- two-phase legalization -------------------------------------------------
  // Phase 1: assign cells to rows near their global y, respecting row
  // capacity.  Phase 2: within each row, keep the x order and place each
  // cell as close to its global x as fits, reserving room for the cells
  // still to come so the row never overflows.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t bdx) {
    return pos[a].x < pos[bdx].x;
  });

  const auto rows = static_cast<std::size_t>(fp.num_rows());
  std::vector<int> row_fill(rows, 0);  // committed spans per row
  std::vector<std::vector<std::size_t>> row_cells(rows);
  for (std::size_t oi = 0; oi < n; ++oi) {
    const std::size_t i = order[oi];
    const int span = design.lib().cell(design.instance(static_cast<InstId>(i))
                                           .cell).sites;
    const int want_row = fp.row_at(pos[i].y);
    int best_row = -1;
    for (int rr = 0; rr < fp.num_rows(); ++rr) {
      for (int dir = 0; dir < 2; ++dir) {
        const int row = dir == 0 ? want_row + rr : want_row - rr;
        if (rr == 0 && dir == 1) continue;
        if (row < 0 || row >= fp.num_rows()) continue;
        if (row_fill[static_cast<std::size_t>(row)] + span <=
            fp.sites_per_row()) {
          best_row = row;
          break;
        }
      }
      if (best_row >= 0) break;
    }
    if (best_row < 0) throw std::runtime_error("legalization: die is full");
    row_fill[static_cast<std::size_t>(best_row)] += span;
    row_cells[static_cast<std::size_t>(best_row)].push_back(i);
  }

  double max_disp = 0.0;
  for (std::size_t row = 0; row < rows; ++row) {
    auto& cells = row_cells[row];
    // Already in ascending x order (phase 1 consumed a sorted sequence).
    // Suffix spans: room that must stay free to the right of each cell.
    int suffix = 0;
    std::vector<int> suffix_after(cells.size(), 0);
    for (std::size_t k = cells.size(); k-- > 0;) {
      suffix_after[k] = suffix;
      suffix += design.lib()
                    .cell(design.instance(static_cast<InstId>(cells[k])).cell)
                    .sites;
    }
    int cursor = 0;
    const int chunk = std::max(1, cfg.eco_gap_sites);
    for (std::size_t k = 0; k < cells.size(); ++k) {
      const std::size_t i = cells[k];
      Instance& inst = design.instance(static_cast<InstId>(i));
      const int span = design.lib().cell(inst.cell).sites;
      const int limit = fp.sites_per_row() - suffix_after[k] - span;
      int site = std::clamp(fp.site_at(pos[i].x), cursor, limit);
      // Quantize whitespace: squeeze sub-chunk gaps so free sites cluster
      // into ECO holes wide enough for later level-shifter insertion.
      if (site - cursor < chunk) site = cursor;
      cursor = site + span;
      inst.pos = {fp.site_x(site), fp.row_y(static_cast<int>(row))};
      inst.placed = true;
      db.occupy_inst(static_cast<int>(row), site, span,
                     static_cast<InstId>(i));
      max_disp = std::max(max_disp, manhattan(inst.pos, pos[i]));
    }
  }

  PlaceResult res;
  res.hpwl_um = total_hpwl(design);
  res.max_displacement = max_disp;
  return res;
}

}  // namespace vipvt
