#include "process/tsv_stress.hpp"
#include "thermal/leakage.hpp"
#include "thermal/network.hpp"
#include "thermal/stack_config.hpp"
#include "thermal/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

namespace tsvpt::thermal {
namespace {

StackConfig small_stack(std::size_t dies = 2, std::size_t grid = 4) {
  StackConfig cfg;
  DieGeometry die;
  die.width = Meter{5e-3};
  die.height = Meter{5e-3};
  die.thickness = Meter{100e-6};
  die.nx = grid;
  die.ny = grid;
  cfg.dies.assign(dies, die);
  cfg.bonds.assign(dies - 1, BondLayer{});
  cfg.tsv.centers = process::TsvStressField::grid_layout(
      die.width, die.height, 3, 3);
  return cfg;
}

TEST(StackConfig, ValidateCatchesInconsistencies) {
  StackConfig cfg = small_stack();
  cfg.bonds.clear();
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = small_stack();
  cfg.dies[0].nx = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = small_stack();
  cfg.sink_resistance = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  EXPECT_NO_THROW(StackConfig::four_die_stack().validate());
}

TEST(ThermalNetwork, NoPowerSettlesAtAmbient) {
  ThermalNetwork net{small_stack()};
  const auto field = net.steady_state();
  for (double t : field) {
    EXPECT_NEAR(t, net.config().ambient.value(), 1e-6);
  }
}

TEST(ThermalNetwork, SteadyStateEnergyBalance) {
  // In equilibrium the injected power must equal the heat leaving through
  // the boundaries; equivalently mean rise ~ P * R_effective.
  ThermalNetwork net{small_stack()};
  net.set_uniform_power(0, Watt{1.0});
  const auto field = net.steady_state();
  // Residual check: reapply the conductance operator.
  // (steady_state solved G T = P + Gb Tamb, so the per-node residual of
  // that equation should be tiny.)
  double max_t = 0.0;
  for (double t : field) max_t = std::max(max_t, t);
  const double ambient = net.config().ambient.value();
  // 1 W through ~2 K/W sink: average die-0 rise close to 2 K.
  EXPECT_GT(max_t, ambient + 1.0);
  EXPECT_LT(max_t, ambient + 10.0);
}

TEST(ThermalNetwork, MorePowerIsHotter) {
  ThermalNetwork net{small_stack()};
  net.set_uniform_power(0, Watt{0.5});
  const auto low = net.steady_state();
  net.set_uniform_power(0, Watt{2.0});
  const auto high = net.steady_state();
  for (std::size_t i = 0; i < low.size(); ++i) {
    EXPECT_GT(high[i], low[i]);
  }
}

TEST(ThermalNetwork, HeatSourceDieIsHottest) {
  ThermalNetwork net{small_stack(3)};
  net.set_uniform_power(2, Watt{1.0});  // top die heated
  const auto field = net.steady_state();
  net.set_temperatures(field);
  EXPECT_GT(net.max_temperature(2).value(), net.max_temperature(0).value());
}

TEST(ThermalNetwork, HotspotIsLocalized) {
  StackConfig cfg = small_stack(1, 8);
  ThermalNetwork net{cfg};
  net.add_hotspot(0, {1e-3, 1e-3}, Meter{0.4e-3}, Watt{1.0});
  EXPECT_NEAR(net.total_power().value(), 1.0, 1e-9);
  const auto field = net.steady_state();
  net.set_temperatures(field);
  const double near_spot = net.temperature_at(0, {1e-3, 1e-3}).value();
  const double far_corner = net.temperature_at(0, {4.7e-3, 4.7e-3}).value();
  EXPECT_GT(near_spot, far_corner + 0.5);
}

TEST(ThermalNetwork, TransientApproachesSteadyState) {
  ThermalNetwork net{small_stack()};
  net.set_uniform_power(0, Watt{1.5});
  const auto steady = net.steady_state();
  net.set_uniform_temperature(net.config().ambient);
  // Step well past the dominant time constant.
  for (int i = 0; i < 200; ++i) net.step(Second{2e-3});
  const auto& state = net.temperatures();
  for (std::size_t i = 0; i < steady.size(); ++i) {
    EXPECT_NEAR(state[i], steady[i], 0.05);
  }
}

TEST(ThermalNetwork, TransientFromSteadyStateStays) {
  ThermalNetwork net{small_stack()};
  net.set_uniform_power(0, Watt{1.0});
  net.set_temperatures(net.steady_state());
  const auto before = net.temperatures();
  net.step(Second{5e-3});
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(net.temperatures()[i], before[i], 1e-3);
  }
}

TEST(ThermalNetwork, CoolingIsMonotone) {
  ThermalNetwork net{small_stack()};
  net.set_uniform_temperature(Kelvin{350.0});
  double prev = 350.0;
  for (int i = 0; i < 10; ++i) {
    net.step(Second{1e-3});
    const double now = net.max_temperature(0).value();
    EXPECT_LE(now, prev + 1e-9);
    prev = now;
  }
  EXPECT_GT(prev, net.config().ambient.value() - 1e-9);
}

TEST(ThermalNetwork, TsvsImproveVerticalCoupling) {
  // Heat the top die: with a dense TSV field the bottom-to-top gradient
  // must shrink versus a via-free bond.
  StackConfig with_tsv = small_stack(2);
  with_tsv.tsv.centers = process::TsvStressField::grid_layout(
      Meter{5e-3}, Meter{5e-3}, 16, 16);
  StackConfig without_tsv = small_stack(2);
  without_tsv.tsv.centers.clear();

  auto gradient = [](StackConfig cfg) {
    ThermalNetwork net{std::move(cfg)};
    net.set_uniform_power(1, Watt{1.0});
    const auto field = net.steady_state();
    net.set_temperatures(field);
    return net.max_temperature(1).value() - net.max_temperature(0).value();
  };
  EXPECT_LT(gradient(with_tsv), gradient(without_tsv));
}

TEST(ThermalNetwork, ScalePower) {
  ThermalNetwork net{small_stack()};
  net.set_uniform_power(0, Watt{2.0});
  net.scale_power(0.25);
  EXPECT_NEAR(net.total_power().value(), 0.5, 1e-12);
  EXPECT_THROW(net.scale_power(-1.0), std::invalid_argument);
}

TEST(ThermalNetwork, InterpolationMatchesCellCenters) {
  StackConfig cfg = small_stack(1, 4);
  ThermalNetwork net{cfg};
  net.add_hotspot(0, {2.5e-3, 2.5e-3}, Meter{1e-3}, Watt{1.0});
  net.set_temperatures(net.steady_state());
  const double cell_w = 5e-3 / 4.0;
  for (std::size_t ix = 0; ix < 4; ++ix) {
    for (std::size_t iy = 0; iy < 4; ++iy) {
      const process::Point center{(static_cast<double>(ix) + 0.5) * cell_w,
                                  (static_cast<double>(iy) + 0.5) * cell_w};
      EXPECT_NEAR(net.temperature_at(0, center).value(),
                  net.temperature_at(0, ix, iy).value(), 1e-9);
    }
  }
}

TEST(ThermalNetwork, IndexingAndBounds) {
  ThermalNetwork net{small_stack(2, 4)};
  EXPECT_EQ(net.node_count(), 32u);
  EXPECT_EQ(net.node_index(0, 0, 0), 0u);
  EXPECT_EQ(net.node_index(1, 0, 0), 16u);
  EXPECT_THROW((void)net.node_index(2, 0, 0), std::out_of_range);
  EXPECT_THROW((void)net.node_index(0, 4, 0), std::out_of_range);
}

TEST(ThermalNetwork, StableSubstepPositive) {
  ThermalNetwork net{small_stack()};
  EXPECT_GT(net.stable_substep().value(), 0.0);
  EXPECT_LT(net.stable_substep().value(), 1.0);
}

TEST(ThermalNetwork, StepRejectsNonPositiveDt) {
  ThermalNetwork net{small_stack()};
  EXPECT_THROW(net.step(Second{0.0}), std::invalid_argument);
}

TEST(ThermalNetwork, SetTemperaturesValidatesSize) {
  ThermalNetwork net{small_stack()};
  EXPECT_THROW(net.set_temperatures(std::vector<double>(5, 300.0)),
               std::invalid_argument);
}

TEST(ThermalNetwork, SetUniformPowerRejectsAMissingDie) {
  ThermalNetwork net{StackConfig::four_die_stack()};
  EXPECT_THROW(net.set_uniform_power(4, Watt{2.0}), std::out_of_range);
  EXPECT_THROW(net.set_uniform_power(7, Watt{2.0}), std::out_of_range);
  EXPECT_EQ(net.total_power().value(), 0.0);
}

TEST(ThermalNetwork, PowerMapRoundTrips) {
  ThermalNetwork net{small_stack()};
  net.add_hotspot(0, {1e-3, 2e-3}, Meter{0.8e-3}, Watt{1.5});
  const std::vector<double> saved = net.power_map();
  net.clear_power();
  net.set_power_map(saved);
  EXPECT_EQ(net.power_map(), saved);
  EXPECT_THROW(net.set_power_map(std::vector<double>(5, 1.0)),
               std::invalid_argument);
  EXPECT_EQ(net.power_map(), saved);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ThermalNetwork, ThrowingLeakageLeavesStateUnchanged) {
  ThermalNetwork net{small_stack()};
  net.set_uniform_power(0, Watt{1.0});
  net.step(Second{1e-3});  // a state that is not uniform
  const std::vector<double> before = net.temperatures();

  net.set_leakage_power(1, [](double) -> double {
    throw std::runtime_error{"leakage model failed"};
  });
  EXPECT_THROW(net.step(Second{1e-4}), std::runtime_error);
  EXPECT_TRUE(same_bits(net.temperatures(), before));

  net.set_leakage_power(1, [](double) { return -1.0; });  // not a power
  EXPECT_THROW(net.step(Second{1e-4}), std::runtime_error);
  EXPECT_TRUE(same_bits(net.temperatures(), before));

  net.clear_leakage_power();
  EXPECT_EQ(net.leakage_power().value(), 0.0);
  net.step(Second{1e-4});
  EXPECT_FALSE(same_bits(net.temperatures(), before));
}

// -- The nested-list reference ------------------------------------------
//
// The network as it was assembled and integrated before its edges were
// packed flat: per-node edge vectors filled in build order, fresh vectors on
// every call, a leakage call per node on every substep, and hotspot weights
// in a vector of their own.  The network must match it bit for bit.
class ReferenceNetwork {
 public:
  explicit ReferenceNetwork(StackConfig cfg) : cfg_(std::move(cfg)) {
    build();
  }

  void set_leakage(std::size_t die, TemperaturePowerFn fn) {
    leakage_[die] = std::move(fn);
  }

  /// Workload::apply for time t.
  void program(const Workload& workload, Second t) {
    std::fill(power.begin(), power.end(), 0.0);
    for (const PowerDirective& d :
         workload.phases()[workload.phase_at(t)].directives) {
      const DieGeometry& geom = cfg_.dies[d.die];
      if (d.kind == PowerDirective::Kind::kUniform) {
        const double per_cell =
            d.total.value() / static_cast<double>(geom.nx * geom.ny);
        for (std::size_t iy = 0; iy < geom.ny; ++iy) {
          for (std::size_t ix = 0; ix < geom.nx; ++ix) {
            power[node(d.die, ix, iy)] = per_cell;
          }
        }
        continue;
      }
      const double cell_w = geom.width.value() / static_cast<double>(geom.nx);
      const double cell_h =
          geom.height.value() / static_cast<double>(geom.ny);
      std::vector<double> weights(geom.nx * geom.ny, 0.0);
      double weight_sum = 0.0;
      for (std::size_t iy = 0; iy < geom.ny; ++iy) {
        for (std::size_t ix = 0; ix < geom.nx; ++ix) {
          const process::Point cell_center{
              (static_cast<double>(ix) + 0.5) * cell_w,
              (static_cast<double>(iy) + 0.5) * cell_h};
          const double r =
              cell_center.distance_to(d.center) / d.radius.value();
          const double w = std::exp(-0.5 * r * r);
          weights[iy * geom.nx + ix] = w;
          weight_sum += w;
        }
      }
      for (std::size_t iy = 0; iy < geom.ny; ++iy) {
        for (std::size_t ix = 0; ix < geom.nx; ++ix) {
          power[node(d.die, ix, iy)] +=
              d.total.value() * weights[iy * geom.nx + ix] / weight_sum;
        }
      }
    }
  }

  void step(double dt) {
    double remaining = dt;
    std::vector<double> deriv(state.size());
    while (remaining > 0.0) {
      const double h = std::min(remaining, stable_dt_);
      const std::vector<double> flow = apply_conductance(state);
      for (std::size_t n = 0; n < state.size(); ++n) {
        deriv[n] = (power[n] + leakage(n, state[n]) +
                    boundary_[n] * cfg_.ambient.value() - flow[n]) /
                   capacitance_[n];
      }
      for (std::size_t n = 0; n < state.size(); ++n) state[n] += h * deriv[n];
      remaining -= h;
    }
  }

  [[nodiscard]] std::vector<double> steady_state() const {
    bool any_leakage = false;
    for (const TemperaturePowerFn& fn : leakage_) {
      if (fn) any_leakage = true;
    }
    if (!any_leakage) return solve_linear(power);
    std::vector<double> field(state.size(), cfg_.ambient.value());
    std::vector<double> total(state.size());
    for (int it = 0; it < 200; ++it) {
      for (std::size_t n = 0; n < state.size(); ++n) {
        total[n] = power[n] + leakage(n, field[n]);
      }
      const std::vector<double> next = solve_linear(total);
      double delta = 0.0;
      for (std::size_t n = 0; n < state.size(); ++n) {
        const double blended = field[n] + 0.7 * (next[n] - field[n]);
        delta = std::max(delta, std::abs(blended - field[n]));
        field[n] = blended;
      }
      if (delta < 1e-6) return field;
    }
    ADD_FAILURE() << "reference fixed point stalled";
    return field;
  }

  [[nodiscard]] double max_temperature(std::size_t die) const {
    double best = -1e30;
    for (std::size_t n = 0; n < state.size(); ++n) {
      if (node_die_[n] == die) best = std::max(best, state[n]);
    }
    return best;
  }

  std::vector<double> power;  // W per node
  std::vector<double> state;  // K per node

 private:
  struct Edge {
    std::size_t neighbor;
    double conductance;
  };

  [[nodiscard]] std::size_t node(std::size_t die, std::size_t ix,
                                 std::size_t iy) const {
    return offset_[die] + iy * cfg_.dies[die].nx + ix;
  }

  void add_edge(std::size_t a, std::size_t b, double g) {
    adjacency_[a].push_back({b, g});
    adjacency_[b].push_back({a, g});
  }

  void build() {
    const std::size_t dies = cfg_.dies.size();
    std::size_t total = 0;
    for (const DieGeometry& geom : cfg_.dies) {
      offset_.push_back(total);
      for (std::size_t c = 0; c < geom.nx * geom.ny; ++c) {
        node_die_.push_back(offset_.size() - 1);
      }
      total += geom.nx * geom.ny;
    }
    adjacency_.assign(total, {});
    boundary_.assign(total, 0.0);
    capacitance_.assign(total, 0.0);
    power.assign(total, 0.0);
    state.assign(total, cfg_.ambient.value());
    leakage_.assign(dies, nullptr);
    const MaterialProps si = silicon();
    for (std::size_t d = 0; d < dies; ++d) {
      const DieGeometry& geom = cfg_.dies[d];
      const double cell_w = geom.width.value() / static_cast<double>(geom.nx);
      const double cell_h =
          geom.height.value() / static_cast<double>(geom.ny);
      const double thick = geom.thickness.value();
      const double g_x = si.conductivity * (cell_h * thick) / cell_w;
      const double g_y = si.conductivity * (cell_w * thick) / cell_h;
      for (std::size_t iy = 0; iy < geom.ny; ++iy) {
        for (std::size_t ix = 0; ix < geom.nx; ++ix) {
          const std::size_t n = node(d, ix, iy);
          capacitance_[n] =
              si.density * si.specific_heat * (cell_w * cell_h * thick);
          if (ix + 1 < geom.nx) add_edge(n, node(d, ix + 1, iy), g_x);
          if (iy + 1 < geom.ny) add_edge(n, node(d, ix, iy + 1), g_y);
        }
      }
      const auto cells = static_cast<double>(geom.nx * geom.ny);
      if (d == 0) {
        const double g_cell = 1.0 / (cfg_.sink_resistance * cells);
        for (std::size_t c = 0; c < geom.nx * geom.ny; ++c) {
          boundary_[offset_[d] + c] += g_cell;
        }
      }
      if (d + 1 == dies) {
        const double g_cell = 1.0 / (cfg_.top_resistance * cells);
        for (std::size_t c = 0; c < geom.nx * geom.ny; ++c) {
          boundary_[offset_[d] + c] += g_cell;
        }
      }
    }
    for (std::size_t d = 0; d + 1 < dies; ++d) {
      const DieGeometry& lower = cfg_.dies[d];
      const DieGeometry& upper = cfg_.dies[d + 1];
      const BondLayer& bond = cfg_.bonds[d];
      const double cell_w =
          lower.width.value() / static_cast<double>(lower.nx);
      const double cell_h =
          lower.height.value() / static_cast<double>(lower.ny);
      const double g_bond = bond.material.conductivity * (cell_w * cell_h) /
                            bond.thickness.value();
      const double via_area = std::numbers::pi * cfg_.tsv.radius.value() *
                              cfg_.tsv.radius.value();
      const double via_length =
          bond.thickness.value() + upper.thickness.value();
      const double g_tsv =
          cfg_.tsv.material.conductivity * via_area / via_length;
      for (std::size_t iy = 0; iy < lower.ny; ++iy) {
        for (std::size_t ix = 0; ix < lower.nx; ++ix) {
          const double cx = (static_cast<double>(ix) + 0.5) * cell_w;
          const double cy = (static_cast<double>(iy) + 0.5) * cell_h;
          double g_via = 0.0;
          for (const process::Point& c : cfg_.tsv.centers) {
            if (c.x >= cx - 0.5 * cell_w && c.x < cx + 0.5 * cell_w &&
                c.y >= cy - 0.5 * cell_h && c.y < cy + 0.5 * cell_h) {
              g_via += g_tsv;
            }
          }
          const auto ux = std::min(
              static_cast<std::size_t>(cx / (upper.width.value() /
                                             static_cast<double>(upper.nx))),
              upper.nx - 1);
          const auto uy = std::min(
              static_cast<std::size_t>(cy / (upper.height.value() /
                                             static_cast<double>(upper.ny))),
              upper.ny - 1);
          add_edge(node(d, ix, iy), node(d + 1, ux, uy), g_bond + g_via);
        }
      }
    }
    double min_tau = 1e30;
    for (std::size_t n = 0; n < total; ++n) {
      double g_sum = boundary_[n];
      for (const Edge& e : adjacency_[n]) g_sum += e.conductance;
      if (g_sum > 0.0) min_tau = std::min(min_tau, capacitance_[n] / g_sum);
    }
    stable_dt_ = 0.5 * min_tau;
  }

  [[nodiscard]] std::vector<double> apply_conductance(
      const std::vector<double>& t) const {
    std::vector<double> y(t.size(), 0.0);
    for (std::size_t n = 0; n < t.size(); ++n) {
      double acc = boundary_[n] * t[n];
      for (const Edge& e : adjacency_[n]) {
        acc += e.conductance * (t[n] - t[e.neighbor]);
      }
      y[n] = acc;
    }
    return y;
  }

  [[nodiscard]] double leakage(std::size_t n, double t) const {
    const TemperaturePowerFn& fn = leakage_[node_die_[n]];
    return fn ? fn(t) : 0.0;
  }

  [[nodiscard]] std::vector<double> solve_linear(
      const std::vector<double>& p) const {
    const std::size_t n = state.size();
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = p[i] + boundary_[i] * cfg_.ambient.value();
    }
    std::vector<double> diag(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      diag[i] = boundary_[i];
      for (const Edge& e : adjacency_[i]) diag[i] += e.conductance;
    }
    std::vector<double> x(n, cfg_.ambient.value());
    std::vector<double> r = b;
    {
      const std::vector<double> ax = apply_conductance(x);
      for (std::size_t i = 0; i < n; ++i) r[i] -= ax[i];
    }
    std::vector<double> z(n);
    for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / diag[i];
    std::vector<double> dir = z;
    double rz = 0.0;
    for (std::size_t i = 0; i < n; ++i) rz += r[i] * z[i];
    double b_norm = 0.0;
    for (double v : b) b_norm += v * v;
    b_norm = std::sqrt(b_norm);
    if (b_norm == 0.0) b_norm = 1.0;
    for (int it = 0; it < 5000; ++it) {
      double r_norm = 0.0;
      for (double v : r) r_norm += v * v;
      if (std::sqrt(r_norm) / b_norm < 1e-10) break;
      const std::vector<double> ap = apply_conductance(dir);
      double pap = 0.0;
      for (std::size_t i = 0; i < n; ++i) pap += dir[i] * ap[i];
      if (pap <= 0.0) break;
      const double alpha = rz / pap;
      for (std::size_t i = 0; i < n; ++i) {
        x[i] += alpha * dir[i];
        r[i] -= alpha * ap[i];
      }
      for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / diag[i];
      double rz_new = 0.0;
      for (std::size_t i = 0; i < n; ++i) rz_new += r[i] * z[i];
      const double beta = rz_new / rz;
      rz = rz_new;
      for (std::size_t i = 0; i < n; ++i) dir[i] = z[i] + beta * dir[i];
    }
    return x;
  }

  StackConfig cfg_;
  std::vector<std::size_t> offset_;
  std::vector<std::size_t> node_die_;
  std::vector<std::vector<Edge>> adjacency_;
  std::vector<double> boundary_;
  std::vector<double> capacitance_;
  std::vector<TemperaturePowerFn> leakage_;
  double stable_dt_ = 0.0;
};

/// Play `workload` on both networks, `steps` steps of `dt` from t = 0, and
/// compare every programmed map, the final state and each die's maximum bit
/// for bit.  Returns the number of explicit substeps taken.
std::size_t expect_identical_transient(ThermalNetwork& net,
                                       ReferenceNetwork& ref,
                                       const Workload& workload, Second dt,
                                       std::size_t steps) {
  std::size_t map_mismatches = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    const Second t{dt.value() * static_cast<double>(i)};
    workload.apply(net, t);
    ref.program(workload, t);
    if (!same_bits(net.power_map(), ref.power)) ++map_mismatches;
    net.step(dt);
    ref.step(dt.value());
  }
  EXPECT_EQ(map_mismatches, 0u);
  EXPECT_TRUE(same_bits(net.temperatures(), ref.state));
  double hottest = -1e30;
  for (std::size_t d = 0; d < net.config().die_count(); ++d) {
    EXPECT_EQ(net.max_temperature(d).value(), ref.max_temperature(d)) << d;
    hottest = std::max(hottest, ref.max_temperature(d));
  }
  EXPECT_EQ(net.max_temperature().value(), hottest);
  const auto per_step = static_cast<std::size_t>(
      std::ceil(dt.value() / net.stable_substep().value()));
  return steps * per_step;
}

// The fleet's shape: four_die_stack() under the default burst/idle load in
// 0.25 ms substeps, 40,000 of them (10 s, 200 burst/idle phases).
TEST(ThermalNetwork, StepMatchesTheNestedListReferenceUnderBurstIdle) {
  const StackConfig cfg = StackConfig::four_die_stack();
  const Workload workload =
      Workload::burst_idle(cfg, Watt{5.0}, Watt{0.25}, Second{50e-3});
  ThermalNetwork net{cfg};
  ReferenceNetwork ref{cfg};
  EXPECT_GE(expect_identical_transient(net, ref, workload, Second{0.25e-3},
                                       40'000),
            40'000u);
}

// A6/A20: device-shaped leakage on the weak-sink stack, here on two of the
// four dies, so the leakage pass also sums the +0.0 of dies without one.
TEST(ThermalNetwork, StepMatchesTheReferenceWithLeakageOnTwoDies) {
  StackConfig cfg = StackConfig::four_die_stack();
  cfg.sink_resistance = 2.5;
  const Workload workload =
      Workload::burst_idle(cfg, Watt{5.0}, Watt{0.25}, Second{50e-3});
  ThermalNetwork net{cfg};
  ReferenceNetwork ref{cfg};
  const device::Technology tech = device::Technology::tsmc65_like();
  for (const std::size_t die : {1u, 3u}) {
    const TemperaturePowerFn fn = leakage_source(
        tech, Volt{1.0}, Watt{0.10 / 64.0}, Kelvin{318.15});
    net.set_leakage_power(die, fn);
    ref.set_leakage(die, fn);
  }
  EXPECT_GE(expect_identical_transient(net, ref, workload, Second{0.25e-3},
                                       40'000),
            40'000u);
  EXPECT_GT(net.leakage_power().value(), 0.0);
}

// Dies of different grids map each lower-die cell onto a differently sized
// upper-die cell; steps of 2.5 stable substeps run three substeps each.
TEST(ThermalNetwork, StepMatchesTheReferenceOnMixedDieGrids) {
  StackConfig cfg = StackConfig::four_die_stack();
  cfg.dies.resize(3);
  cfg.bonds.resize(2);
  cfg.dies[0].nx = 8;
  cfg.dies[0].ny = 8;
  cfg.dies[1].nx = 5;
  cfg.dies[1].ny = 7;
  cfg.dies[2].nx = 3;
  cfg.dies[2].ny = 4;
  Rng rng{23};
  const Workload workload =
      Workload::random(cfg, rng, 9, Watt{3.0}, Second{20e-3});
  ThermalNetwork net{cfg};
  ReferenceNetwork ref{cfg};
  const Second dt{2.5 * net.stable_substep().value()};
  EXPECT_GE(expect_identical_transient(net, ref, workload, dt, 13'334),
            40'000u);
}

TEST(ThermalNetwork, StepMatchesTheReferenceUnderRandomPhases) {
  const StackConfig cfg = StackConfig::four_die_stack();
  Rng rng{7};
  const Workload workload =
      Workload::random(cfg, rng, 16, Watt{6.0}, Second{10e-3});
  ThermalNetwork net{cfg};
  ReferenceNetwork ref{cfg};
  EXPECT_GE(expect_identical_transient(net, ref, workload, Second{0.25e-3},
                                       40'000),
            40'000u);
}

// The sliced layout groups the rows of four consecutive nodes: these stacks
// end in a partial chunk (1, 2, 3, 5 and 35 nodes), carry rows with no edge
// at all, and include single dies with no vertical edges.
TEST(ThermalNetwork, StepAndSteadyStateMatchTheReferenceAtChunkEdges) {
  struct Shape {
    const char* name;
    std::vector<std::pair<std::size_t, std::size_t>> dies;  // nx, ny
  };
  const Shape shapes[] = {
      {"1 node", {{1, 1}}},
      {"2 nodes, one vertical edge", {{1, 1}, {1, 1}}},
      {"3 nodes, one die", {{3, 1}}},
      {"5 nodes, four cells under one", {{2, 2}, {1, 1}}},
      {"35 nodes, one die", {{5, 7}}},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    StackConfig cfg = small_stack(shape.dies.size(), 1);
    for (std::size_t d = 0; d < shape.dies.size(); ++d) {
      cfg.dies[d].nx = shape.dies[d].first;
      cfg.dies[d].ny = shape.dies[d].second;
    }
    Rng rng{31};
    const Workload workload =
        Workload::random(cfg, rng, 5, Watt{1.0}, Second{5e-3});
    ThermalNetwork net{cfg};
    ReferenceNetwork ref{cfg};
    EXPECT_GE(expect_identical_transient(net, ref, workload, Second{0.25e-3},
                                         2'000),
              2'000u);
    EXPECT_TRUE(same_bits(net.steady_state(), ref.steady_state()));
  }
}

TEST(ThermalNetwork, SteadyStateMatchesTheReference) {
  const StackConfig cfg = StackConfig::four_die_stack();
  Rng rng{11};
  const Workload workload =
      Workload::random(cfg, rng, 1, Watt{2.0}, Second{1e-3});
  ThermalNetwork net{cfg};
  ReferenceNetwork ref{cfg};
  workload.apply(net, Second{0.0});
  ref.program(workload, Second{0.0});
  EXPECT_TRUE(same_bits(net.steady_state(), ref.steady_state()));

  const TemperaturePowerFn fn =
      leakage_source(device::Technology::tsmc65_like(), Volt{1.0},
                     Watt{0.10 / 64.0}, Kelvin{318.15});
  for (const std::size_t die : {0u, 2u}) {
    net.set_leakage_power(die, fn);
    ref.set_leakage(die, fn);
  }
  EXPECT_TRUE(same_bits(net.steady_state(), ref.steady_state()));
}

}  // namespace
}  // namespace tsvpt::thermal
