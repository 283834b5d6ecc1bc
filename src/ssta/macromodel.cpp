#include "ssta/macromodel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "ssta/clark.hpp"
#include "variation/tables.hpp"

namespace vipvt {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Clark-merge one canonical form into an accumulator — the same merge
/// the flat canonical pass uses (ssta/canonical.cpp, DESIGN.md §16).
void merge_canon(double& tm, double& tvi, double* ts, double m, double vi,
                 const double* s, std::size_t num_globals) {
  if (tm == kNegInf) {
    tm = m;
    tvi = vi;
    if (num_globals != 0) std::copy(s, s + num_globals, ts);
    return;
  }
  double va = tvi;
  double vb = vi;
  double cov = 0.0;
  for (std::size_t g = 0; g < num_globals; ++g) {
    va += ts[g] * ts[g];
    vb += s[g] * s[g];
    cov += ts[g] * s[g];
  }
  const ClarkMax cm = clark_max(tm, va, m, vb, cov);
  tm = cm.mean;
  double blended2 = 0.0;
  for (std::size_t g = 0; g < num_globals; ++g) {
    ts[g] = cm.p * ts[g] + (1.0 - cm.p) * s[g];
    blended2 += ts[g] * ts[g];
  }
  tvi = std::max(cm.var - blended2, 0.0);
}

double form_sigma(double var_ind, std::span<const double> sens) {
  double v = var_ind;
  for (double s : sens) v += s * s;
  return std::sqrt(v);
}

}  // namespace

StageMacroLibrary::StageMacroLibrary(const Design& design, const StaEngine& sta,
                                     const VariationModel& model,
                                     const MacroConfig& cfg)
    : design_(&design), model_(&model), cfg_(cfg) {
  if (cfg_.knots < 2) {
    throw std::invalid_argument("StageMacroLibrary: knots must be >= 2");
  }
  if (!(cfg_.grad_step > 0.0) || !std::isfinite(cfg_.grad_step)) {
    throw std::invalid_argument(
        "StageMacroLibrary: grad_step must be finite and > 0");
  }
  clock_ns_ = sta.options().clock_period_ns;

  // Dense-remapped correlated-field globals, exactly as CanonicalSsta.
  stencils_ = model.field_stencils(design);
  if (!stencils_.empty()) {
    std::unordered_map<std::uint32_t, std::uint32_t> dense;
    for (auto& s : stencils_) {
      for (int k = 0; k < 4; ++k) {
        auto [it, inserted] =
            dense.emplace(s.idx[k], static_cast<std::uint32_t>(dense.size()));
        s.idx[k] = it->second;
        s.w[k] /= s.norm;
      }
      s.norm = 1.0;
    }
    num_globals_ = dense.size();
  }

  // Die-basis loadings: core-local positions [mm] and the shift-invariant
  // curvature residual q_i from the rescaled field polynomial.
  const ExposureField& field = model.field();
  const PolyCoeffs& pc = field.coeffs();
  const std::size_t num_inst = design.num_instances();
  pos_x_mm_.resize(num_inst);
  pos_y_mm_.resize(num_inst);
  curv_q_.resize(num_inst);
  for (std::size_t i = 0; i < num_inst; ++i) {
    const Instance& inst = design.instance(static_cast<InstId>(i));
    if (!inst.placed) {
      throw std::logic_error("StageMacroLibrary: unplaced instance " +
                             inst.name);
    }
    const double px = inst.pos.x * 1e-3;
    const double py = inst.pos.y * 1e-3;
    pos_x_mm_[i] = px;
    pos_y_mm_[i] = py;
    curv_q_[i] = pc.a * px * px + pc.b * py * py + pc.e * px * py;
  }

  // Precompute the 3x3 least-squares solve for the per-die basis fit.
  {
    double M[3][3] = {};
    for (std::size_t i = 0; i < num_inst; ++i) {
      const double L[3] = {1.0, pos_x_mm_[i], pos_y_mm_[i]};
      for (int r = 0; r < 3; ++r) {
        for (int c = 0; c < 3; ++c) M[r][c] += L[r] * L[c];
      }
    }
    const double det = M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1]) -
                       M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0]) +
                       M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]);
    const double scale = std::max({std::abs(M[0][0] * M[1][1] * M[2][2]),
                                   std::abs(M[0][0]), 1e-300});
    if (std::abs(det) > 1e-12 * scale) {
      const double inv = 1.0 / det;
      fit_inv_[0][0] = (M[1][1] * M[2][2] - M[1][2] * M[2][1]) * inv;
      fit_inv_[0][1] = (M[0][2] * M[2][1] - M[0][1] * M[2][2]) * inv;
      fit_inv_[0][2] = (M[0][1] * M[1][2] - M[0][2] * M[1][1]) * inv;
      fit_inv_[1][0] = (M[1][2] * M[2][0] - M[1][0] * M[2][2]) * inv;
      fit_inv_[1][1] = (M[0][0] * M[2][2] - M[0][2] * M[2][0]) * inv;
      fit_inv_[1][2] = (M[0][2] * M[1][0] - M[0][0] * M[1][2]) * inv;
      fit_inv_[2][0] = (M[1][0] * M[2][1] - M[1][1] * M[2][0]) * inv;
      fit_inv_[2][1] = (M[0][1] * M[2][0] - M[0][0] * M[2][1]) * inv;
      fit_inv_[2][2] = (M[0][0] * M[1][1] - M[0][1] * M[1][0]) * inv;
      fit_has_gradient_ = true;
    } else if (num_inst != 0) {
      // Degenerate placement (e.g. every instance at one point): fit the
      // offset only, drop the gradient terms.
      fit_inv_[0][0] = 1.0 / static_cast<double>(num_inst);
    }
  }

  // B0 knots spanning the field's full deviation range.
  const double dev = field.max_dev_frac();
  knot_b0_.resize(static_cast<std::size_t>(cfg_.knots));
  for (int k = 0; k < cfg_.knots; ++k) {
    knot_b0_[static_cast<std::size_t>(k)] =
        -dev + 2.0 * dev * static_cast<double>(k) /
                   static_cast<double>(cfg_.knots - 1);
  }

  forms_.assign(static_cast<std::size_t>(kVariants) * knot_b0_.size() * kAccs,
                Form{});
  for (Form& f : forms_) f.sens.assign(num_globals_, 0.0);

  read_engine_state(sta);
  build_cones();
  for (int v = 0; v < kVariants; ++v) {
    for (int k = 0; k < cfg_.knots; ++k) run_pass(v, k);
  }
  derive_min_period();
}

void StageMacroLibrary::read_engine_state(const StaEngine& sta) {
  num_nodes_ = sta.num_nodes();
  sta.for_each_graph_edge(
      [&](std::uint32_t from, std::uint32_t to, InstId inst, double base) {
        edges_.push_back({from, to, inst, base, 0});
      });

  const auto ln = sta.launch_nodes();
  const auto lb = sta.launch_bases();
  const auto li = sta.launch_insts();
  launch_nodes_.assign(ln.begin(), ln.end());
  launch_insts_.assign(li.begin(), li.end());
  launch_bases_.resize(lb.size());
  for (std::size_t l = 0; l < lb.size(); ++l) {
    launch_bases_[l] = static_cast<double>(lb[l]);
  }

  const auto& eps = sta.endpoints();
  const auto setups = sta.endpoint_setups();
  endpoints_.resize(eps.size());
  for (std::size_t k = 0; k < eps.size(); ++k) {
    endpoints_[k].node = eps[k].node;
    endpoints_[k].stage = static_cast<std::uint8_t>(eps[k].stage);
    endpoints_[k].setup = static_cast<double>(setups[k]);
  }

  // Per-instance table row at the engine's current corner state.
  const DelayFactorTables& tables = model_->delay_factor_tables();
  const std::size_t num_inst = design_->num_instances();
  inst_row_.resize(num_inst);
  for (std::size_t i = 0; i < num_inst; ++i) {
    inst_row_[i] =
        tables.row(sta.inst_corner(static_cast<InstId>(i)),
                   design_->cell_of(static_cast<InstId>(i)).vth);
  }
}

void StageMacroLibrary::build_cones() {
  std::vector<std::uint8_t> node_mask(num_nodes_, 0);
  for (const End& ep : endpoints_) {
    if (ep.stage < kNumPipeStages) {
      node_mask[ep.node] |= static_cast<std::uint8_t>(1u << ep.stage);
    }
  }
  // Edges are in topological relaxation order, so one reverse sweep
  // closes every stage's cone under predecessors.
  for (auto it = edges_.rbegin(); it != edges_.rend(); ++it) {
    node_mask[it->from] |= node_mask[it->to];
    it->mask = node_mask[it->to];
  }
  launch_mask_.resize(launch_nodes_.size());
  for (std::size_t l = 0; l < launch_nodes_.size(); ++l) {
    launch_mask_[l] = node_mask[launch_nodes_[l]];
  }

}

std::vector<double> StageMacroLibrary::variant_map(int variant,
                                                   int knot) const {
  const double lgate_nom = model_->field().lgate_nom();
  const double u = knot_b0_[static_cast<std::size_t>(knot)];
  const double h = cfg_.grad_step;
  const std::size_t num_inst = design_->num_instances();
  std::vector<double> map(num_inst);
  for (std::size_t i = 0; i < num_inst; ++i) {
    double dev = u + curv_q_[i];
    switch (variant) {
      case 1: dev += h * pos_x_mm_[i]; break;
      case 2: dev -= h * pos_x_mm_[i]; break;
      case 3: dev += h * pos_y_mm_[i]; break;
      case 4: dev -= h * pos_y_mm_[i]; break;
      default: break;
    }
    map[i] = lgate_nom * (1.0 + dev);
  }
  return map;
}

void StageMacroLibrary::run_pass(int variant, int knot) {
  ++passes_;
  const std::size_t num_inst = design_->num_instances();
  const std::size_t G = num_globals_;
  const double sigma_corr = model_->sigma_correlated_nm();
  const double sigma_ind = model_->sigma_independent_nm();
  const DelayFactorTables& tables = model_->delay_factor_tables();
  const std::vector<double> map = variant_map(variant, knot);

  inst_value_.resize(num_inst);
  inst_slope_.resize(num_inst);
  for (std::size_t i = 0; i < num_inst; ++i) {
    inst_value_[i] = tables.eval_row_slope(tables.row_data(inst_row_[i]),
                                           map[i], &inst_slope_[i]);
  }

  mean_.assign(num_nodes_, kNegInf);
  var_ind_.assign(num_nodes_, 0.0);
  sens_.assign(num_nodes_ * G, 0.0);
  cand_sens_.assign(G, 0.0);

  const auto add_arc = [&](InstId inst, double base, double& m, double& vi) {
    const std::size_t i = static_cast<std::size_t>(inst);
    m += base * inst_value_[i];
    const double bs = base * inst_slope_[i];
    const double bi = bs * sigma_ind;
    vi += bi * bi;
    if (G != 0) {
      const CorrelatedField::Stencil& st = stencils_[i];
      const double bc = bs * sigma_corr;
      for (int k = 0; k < 4; ++k) {
        cand_sens_[st.idx[k]] += bc * st.w[k];
      }
    }
  };

  for (std::size_t l = 0; l < launch_nodes_.size(); ++l) {
    if (launch_mask_[l] == 0) continue;
    std::fill(cand_sens_.begin(), cand_sens_.end(), 0.0);
    double m = 0.0;
    double vi = 0.0;
    const InstId inst = launch_insts_[l];
    if (inst == kInvalidInst) {
      m = launch_bases_[l];
    } else {
      add_arc(inst, launch_bases_[l], m, vi);
    }
    const std::uint32_t node = launch_nodes_[l];
    merge_canon(mean_[node], var_ind_[node], G ? &sens_[node * G] : nullptr, m,
                vi, cand_sens_.data(), G);
  }

  for (const Edge& e : edges_) {
    if (e.mask == 0) continue;
    if (mean_[e.from] == kNegInf) continue;
    double m = mean_[e.from];
    double vi = var_ind_[e.from];
    if (G != 0) {
      std::copy_n(&sens_[e.from * G], G, cand_sens_.begin());
    }
    if (e.inst == kInvalidInst) {
      m += e.base;
    } else {
      add_arc(e.inst, e.base, m, vi);
    }
    merge_canon(mean_[e.to], var_ind_[e.to], G ? &sens_[e.to * G] : nullptr, m,
                vi, cand_sens_.data(), G);
  }

  std::array<double, kNumPipeStages> acc_mean;
  std::array<double, kNumPipeStages> acc_var_ind;
  acc_mean.fill(kNegInf);
  acc_var_ind.fill(0.0);
  std::vector<double> acc_sens(kNumPipeStages * G, 0.0);
  for (const End& ep : endpoints_) {
    if (ep.stage >= kNumPipeStages) continue;
    if (mean_[ep.node] == kNegInf) continue;
    const double m = mean_[ep.node] + ep.setup;
    const double vi = var_ind_[ep.node];
    const double* s = G ? &sens_[ep.node * G] : nullptr;
    const std::size_t stage = ep.stage;
    merge_canon(acc_mean[stage], acc_var_ind[stage],
                G ? &acc_sens[stage * G] : nullptr, m, vi, s, G);
  }

  for (std::size_t s = 0; s < kNumPipeStages; ++s) {
    Form& f = forms_[form_index(variant, knot, s)];
    f.present = acc_mean[s] != kNegInf;
    f.mean = f.present ? acc_mean[s] : 0.0;
    f.var_ind = f.present ? acc_var_ind[s] : 0.0;
    if (G != 0) {
      if (f.present) {
        std::copy_n(&acc_sens[s * G], G, f.sens.begin());
      } else {
        std::fill(f.sens.begin(), f.sens.end(), 0.0);
      }
    }
  }
}

void StageMacroLibrary::derive_min_period() {
  // min_period is a pure function of the stage rows: Clark-merge them in
  // stage order.  This merge order defines the stored min_period bits.
  const std::size_t G = num_globals_;
  std::vector<double> ts(G);
  for (int v = 0; v < kVariants; ++v) {
    for (std::size_t k = 0; k < knot_b0_.size(); ++k) {
      double tm = kNegInf;
      double tvi = 0.0;
      std::fill(ts.begin(), ts.end(), 0.0);
      for (std::size_t s = 0; s < kNumPipeStages; ++s) {
        const Form& f = forms_[form_index(v, static_cast<int>(k), s)];
        if (!f.present) continue;
        merge_canon(tm, tvi, G ? ts.data() : nullptr, f.mean, f.var_ind,
                    G ? f.sens.data() : nullptr, G);
      }
      Form& mp = forms_[form_index(v, static_cast<int>(k), kNumPipeStages)];
      mp.present = tm != kNegInf;
      mp.mean = mp.present ? tm : 0.0;
      mp.var_ind = mp.present ? tvi : 0.0;
      if (G != 0) std::copy(ts.begin(), ts.end(), mp.sens.begin());
    }
  }
}

CanonicalResult StageMacroLibrary::evaluate(
    std::span<const double> systematic_lgate_nm) const {
  const std::size_t num_inst = design_->num_instances();
  if (systematic_lgate_nm.size() < num_inst) {
    throw std::invalid_argument(
        "StageMacroLibrary::evaluate: systematic map shorter than instance "
        "count");
  }
  const double lgate_nom = model_->field().lgate_nom();

  // Recover the die basis (B0, B1, B2) from the map by the precomputed
  // exact least-squares fit.
  double rhs[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < num_inst; ++i) {
    const double r = systematic_lgate_nm[i] / lgate_nom - 1.0 - curv_q_[i];
    rhs[0] += r;
    rhs[1] += r * pos_x_mm_[i];
    rhs[2] += r * pos_y_mm_[i];
  }
  double beta[3] = {0.0, 0.0, 0.0};
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) beta[r] += fit_inv_[r][c] * rhs[c];
  }
  if (!fit_has_gradient_) beta[1] = beta[2] = 0.0;

  // Locate the B0 segment (clamped to the characterized range).
  const std::size_t K = knot_b0_.size();
  std::size_t k0 = 0;
  while (k0 + 2 < K && beta[0] > knot_b0_[k0 + 1]) ++k0;
  const double span_b0 = knot_b0_[k0 + 1] - knot_b0_[k0];
  double t = span_b0 > 0.0 ? (beta[0] - knot_b0_[k0]) / span_b0 : 0.0;
  t = std::clamp(t, 0.0, 1.0);
  const double inv2h = 1.0 / (2.0 * cfg_.grad_step);

  // Interpolated mean/sigma of accumulator `a`, with the B1/B2 gradient
  // corrections applied to both moments.
  const auto eval_acc = [&](std::size_t a, double& mean, double& sigma,
                            bool& present) {
    const Form& c0 = forms_[form_index(0, static_cast<int>(k0), a)];
    const Form& c1 = forms_[form_index(0, static_cast<int>(k0 + 1), a)];
    present = c0.present || c1.present;
    if (!present) {
      mean = 0.0;
      sigma = 0.0;
      return;
    }
    const auto lerp_vs = [&](int variant, double& m, double& s) {
      const Form& f0 = forms_[form_index(variant, static_cast<int>(k0), a)];
      const Form& f1 =
          forms_[form_index(variant, static_cast<int>(k0 + 1), a)];
      m = f0.mean + t * (f1.mean - f0.mean);
      const double s0 = form_sigma(f0.var_ind, f0.sens);
      const double s1 = form_sigma(f1.var_ind, f1.sens);
      s = s0 + t * (s1 - s0);
    };
    double mc, sc, mxp, sxp, mxm, sxm, myp, syp, mym, sym;
    lerp_vs(0, mc, sc);
    lerp_vs(1, mxp, sxp);
    lerp_vs(2, mxm, sxm);
    lerp_vs(3, myp, syp);
    lerp_vs(4, mym, sym);
    mean = mc + beta[1] * (mxp - mxm) * inv2h + beta[2] * (myp - mym) * inv2h;
    sigma = sc + beta[1] * (sxp - sxm) * inv2h + beta[2] * (syp - sym) * inv2h;
    sigma = std::max(sigma, 0.0);
  };

  CanonicalResult res;
  for (std::size_t s = 0; s < kNumPipeStages; ++s) {
    StageGauss& sg = res.stages[s];
    sg.stage = static_cast<PipeStage>(s);
    double mean, sigma;
    bool present;
    eval_acc(s, mean, sigma, present);
    if (!present) continue;
    sg.present = true;
    sg.mean_slack_ns = clock_ns_ - mean;
    sg.sigma_ns = sigma;
  }
  {
    double mean, sigma;
    bool present;
    eval_acc(kNumPipeStages, mean, sigma, present);
    if (present) {
      res.min_period_mean_ns = mean;
      res.min_period_sigma_ns = sigma;
    }
  }
  return res;
}

std::string StageMacroLibrary::fingerprint() const {
  std::string out;
  out.reserve(forms_.size() * 32);
  char buf[64];
  const auto put = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%a;", v);
    out += buf;
  };
  put(cfg_.grad_step);
  put(clock_ns_);
  for (double u : knot_b0_) put(u);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) put(fit_inv_[r][c]);
  }
  for (const Form& f : forms_) {
    out += f.present ? '1' : '0';
    put(f.mean);
    put(f.var_ind);
    for (double s : f.sens) put(s);
  }
  return out;
}

}  // namespace vipvt
