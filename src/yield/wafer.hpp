#pragma once
// Wafer geometry: stamp a full wafer of dies from the single exposure
// field the paper analyzes.  Three nested coordinate systems:
//
//   * WAFER coordinates [mm], origin at the wafer center.  The stepper
//     exposes the same reticle image at every step of a regular grid
//     centred on the wafer.
//   * FIELD (reticle) coordinates [mm], origin at the exposure field's
//     lower-left corner.  The systematic Lgate polynomial (ExposureField,
//     Fig. 2) lives here and is IDENTICAL for every exposure — that is
//     what makes across-field variation "systematic".
//   * DIE / core coordinates: each field carries a grid of identical
//     dies; a die's position within the field decides its systematic
//     process corner (a lower-left die is a paper point-A die, an
//     upper-right die a point-D die).  DieLocation (variation/field.hpp)
//     maps core-local placement um to field mm.
//
// A die is kept only if its full footprint lies inside the usable wafer
// radius (diameter/2 - edge exclusion); partial edge dies are never
// fabricated.  Die ids are dense and assigned in row-major wafer-scan
// order (bottom row first, left to right), which fixes the iteration
// order every downstream aggregation relies on for determinism.

#include <cstddef>
#include <string>
#include <vector>

#include "util/geometry.hpp"
#include "variation/field.hpp"

namespace vipvt {

struct WaferConfig {
  double wafer_diameter_mm = 300.0;  ///< standard 12-inch wafer
  double edge_exclusion_mm = 3.0;    ///< unusable rim
  /// Exposure-field (reticle) edge length; must match the ExposureField
  /// the variation model was built with (28 mm in the paper).
  double field_mm = 28.0;
  /// Die (chip) edge length; floor(field/die) dies per field side (the
  /// paper's 14 mm chip gives a 2x2 die grid per exposure).
  double die_mm = 14.0;
};

/// One candidate die on the wafer.
struct WaferDie {
  int id = 0;            ///< dense row-major index over kept dies
  int reticle_ix = 0;    ///< exposure step indices (0 at the wafer's
  int reticle_iy = 0;    ///< lower-left exposure)
  int die_ix = 0;        ///< die column within its reticle
  int die_iy = 0;        ///< die row within its reticle
  Point center_mm{};     ///< die center in wafer coordinates
  DieLocation location;  ///< die position within the exposure field
};

class WaferModel {
 public:
  /// Throws std::invalid_argument unless every WaferConfig field is
  /// finite, 0 < die_mm <= field_mm and the edge exclusion leaves a
  /// usable radius.
  explicit WaferModel(const WaferConfig& cfg);

  const WaferConfig& config() const { return cfg_; }
  const std::vector<WaferDie>& dies() const { return dies_; }
  std::size_t num_dies() const { return dies_.size(); }
  int dies_per_field_side() const { return dies_per_side_; }

  /// Global die-grid column/row of a die (reticle step * grid + in-field
  /// index), used to place dies on a rectangular wafer map.
  int grid_col(const WaferDie& d) const;
  int grid_row(const WaferDie& d) const;

  /// ASCII wafer map: one glyph per die, indexed by die id ('.' off
  /// wafer).  Pass e.g. a per-die policy glyph for the classic colored
  /// wafer-map plot; an empty span renders every die as '#'.
  std::string ascii_map(const std::string& glyph_per_die = {}) const;

 private:
  WaferConfig cfg_;
  int dies_per_side_ = 0;
  int steps_ = 0;  ///< reticle steps per axis
  std::vector<WaferDie> dies_;
};

}  // namespace vipvt
