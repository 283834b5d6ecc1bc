#include "yield/wafer.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace vipvt {

WaferModel::WaferModel(const WaferConfig& cfg) : cfg_(cfg) {
  if (!std::isfinite(cfg_.wafer_diameter_mm) ||
      !std::isfinite(cfg_.edge_exclusion_mm) ||
      !std::isfinite(cfg_.field_mm) || !std::isfinite(cfg_.die_mm)) {
    throw std::invalid_argument("WaferModel: geometry must be finite");
  }
  if (cfg_.die_mm <= 0.0 || cfg_.field_mm < cfg_.die_mm) {
    throw std::invalid_argument("WaferModel: need 0 < die_mm <= field_mm");
  }
  if (cfg_.wafer_diameter_mm <= 2.0 * cfg_.edge_exclusion_mm) {
    throw std::invalid_argument("WaferModel: edge exclusion swallows wafer");
  }
  dies_per_side_ = static_cast<int>(cfg_.field_mm / cfg_.die_mm);
  const double radius = 0.5 * cfg_.wafer_diameter_mm - cfg_.edge_exclusion_mm;

  // Reticle grid centred on the wafer: `steps_` exposures per axis, the
  // whole array symmetric about the wafer center so the map is the
  // familiar circular mosaic.
  steps_ = static_cast<int>(std::ceil(2.0 * radius / cfg_.field_mm));
  const double span = steps_ * cfg_.field_mm;
  const double origin = -0.5 * span;  // lower-left corner of exposure (0,0)

  const auto keep = [&](double x0, double y0) {
    // All four die corners inside the usable radius.
    for (int c = 0; c < 4; ++c) {
      const double x = x0 + (c & 1 ? cfg_.die_mm : 0.0);
      const double y = y0 + (c & 2 ? cfg_.die_mm : 0.0);
      if (x * x + y * y > radius * radius) return false;
    }
    return true;
  };

  // Row-major over the GLOBAL die grid (bottom row first) so die ids are
  // independent of how reticles/dies nest — the deterministic scan order.
  const int cols = steps_ * dies_per_side_;
  for (int gy = 0; gy < cols; ++gy) {
    for (int gx = 0; gx < cols; ++gx) {
      const int rix = gx / dies_per_side_, dix = gx % dies_per_side_;
      const int riy = gy / dies_per_side_, diy = gy % dies_per_side_;
      const double x0 = origin + rix * cfg_.field_mm + dix * cfg_.die_mm;
      const double y0 = origin + riy * cfg_.field_mm + diy * cfg_.die_mm;
      if (!keep(x0, y0)) continue;
      WaferDie d;
      d.id = static_cast<int>(dies_.size());
      d.reticle_ix = rix;
      d.reticle_iy = riy;
      d.die_ix = dix;
      d.die_iy = diy;
      d.center_mm = {x0 + 0.5 * cfg_.die_mm, y0 + 0.5 * cfg_.die_mm};
      // Position within the (shared) exposure field decides the die's
      // systematic corner; the core sits at the die's lower-left, as in
      // the paper's point-A..D convention.
      d.location.chip_origin_mm = {dix * cfg_.die_mm, diy * cfg_.die_mm};
      d.location.core_origin_mm = {0.0, 0.0};
      dies_.push_back(d);
    }
  }
}

int WaferModel::grid_col(const WaferDie& d) const {
  return d.reticle_ix * dies_per_side_ + d.die_ix;
}

int WaferModel::grid_row(const WaferDie& d) const {
  return d.reticle_iy * dies_per_side_ + d.die_iy;
}

std::string WaferModel::ascii_map(const std::string& glyph_per_die) const {
  const int cols = steps_ * dies_per_side_;
  std::vector<std::string> rows(static_cast<std::size_t>(cols),
                                std::string(static_cast<std::size_t>(cols), '.'));
  for (const WaferDie& d : dies_) {
    const char g = static_cast<std::size_t>(d.id) < glyph_per_die.size()
                       ? glyph_per_die[static_cast<std::size_t>(d.id)]
                       : '#';
    rows[static_cast<std::size_t>(grid_row(d))]
        [static_cast<std::size_t>(grid_col(d))] = g;
  }
  std::ostringstream out;
  // Top row printed first: wafer map convention (y up).
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) out << *it << '\n';
  return out.str();
}

}  // namespace vipvt
