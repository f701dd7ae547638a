#include "thermal/network.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace tsvpt::thermal {

ThermalNetwork::ThermalNetwork(StackConfig config) : config_(std::move(config)) {
  config_.validate();
  build();
}

std::size_t ThermalNetwork::node_index(std::size_t die, std::size_t ix,
                                       std::size_t iy) const {
  if (die >= config_.dies.size()) throw std::out_of_range{"die index"};
  const DieGeometry& geom = config_.dies[die];
  if (ix >= geom.nx || iy >= geom.ny) throw std::out_of_range{"cell index"};
  return die_node_offset_[die] + iy * geom.nx + ix;
}

void ThermalNetwork::build() {
  const std::size_t die_count = config_.dies.size();
  die_node_offset_.resize(die_count);
  std::size_t total = 0;
  for (std::size_t d = 0; d < die_count; ++d) {
    die_node_offset_[d] = total;
    total += config_.dies[d].nx * config_.dies[d].ny;
  }
  // Each conductance is recorded once, in build order, and packed into
  // the sliced arrays at the end.
  struct Link {
    std::size_t a;
    std::size_t b;
    double conductance;
  };
  std::vector<Link> links;
  std::size_t link_count = 0;  // lateral links, then one per lower-die cell
  for (std::size_t d = 0; d < die_count; ++d) {
    const DieGeometry& geom = config_.dies[d];
    link_count += (geom.nx - 1) * geom.ny + geom.nx * (geom.ny - 1);
    if (d + 1 < die_count) link_count += geom.nx * geom.ny;
  }
  links.reserve(link_count);
  const auto add_edge = [&links](std::size_t a, std::size_t b, double g) {
    links.push_back({a, b, g});
  };
  boundary_conductance_.assign(total, 0.0);
  capacitance_.assign(total, 0.0);
  power_.assign(total, 0.0);
  state_.assign(total, config_.ambient.value());
  scratch_.assign(total, 0.0);
  die_leakage_.assign(die_count, nullptr);
  has_leakage_ = false;
  node_die_.resize(total);
  for (std::size_t d = 0; d < die_count; ++d) {
    const DieGeometry& geom = config_.dies[d];
    for (std::size_t c = 0; c < geom.nx * geom.ny; ++c) {
      node_die_[die_node_offset_[d] + c] = d;
    }
  }

  const MaterialProps si = silicon();

  for (std::size_t d = 0; d < die_count; ++d) {
    const DieGeometry& geom = config_.dies[d];
    const double cell_w = geom.width.value() / static_cast<double>(geom.nx);
    const double cell_h = geom.height.value() / static_cast<double>(geom.ny);
    const double thick = geom.thickness.value();
    const double cell_volume = cell_w * cell_h * thick;

    // Lateral conductances: G = k * A_cross / L between cell centers.
    const double g_x = si.conductivity * (cell_h * thick) / cell_w;
    const double g_y = si.conductivity * (cell_w * thick) / cell_h;
    for (std::size_t iy = 0; iy < geom.ny; ++iy) {
      for (std::size_t ix = 0; ix < geom.nx; ++ix) {
        const std::size_t n = node_index(d, ix, iy);
        capacitance_[n] = si.density * si.specific_heat * cell_volume;
        if (ix + 1 < geom.nx) add_edge(n, node_index(d, ix + 1, iy), g_x);
        if (iy + 1 < geom.ny) add_edge(n, node_index(d, ix, iy + 1), g_y);
      }
    }

    // Boundary: bottom die to heat sink, top die to ambient air, spread
    // uniformly over the die's cells.
    const auto cells = static_cast<double>(geom.nx * geom.ny);
    if (d == 0) {
      const double g_cell = 1.0 / (config_.sink_resistance * cells);
      for (std::size_t iy = 0; iy < geom.ny; ++iy) {
        for (std::size_t ix = 0; ix < geom.nx; ++ix) {
          boundary_conductance_[node_index(d, ix, iy)] += g_cell;
        }
      }
    }
    if (d + 1 == die_count) {
      const double g_cell = 1.0 / (config_.top_resistance * cells);
      for (std::size_t iy = 0; iy < geom.ny; ++iy) {
        for (std::size_t ix = 0; ix < geom.nx; ++ix) {
          boundary_conductance_[node_index(d, ix, iy)] += g_cell;
        }
      }
    }
  }

  // Vertical coupling: bond layer per overlapping cell pair, TSVs shorting
  // the bond where they land.  Dies are assumed aligned; the coupling uses
  // the lower die's grid and maps each cell center onto the upper die.
  for (std::size_t d = 0; d + 1 < die_count; ++d) {
    const DieGeometry& lower = config_.dies[d];
    const DieGeometry& upper = config_.dies[d + 1];
    const BondLayer& bond = config_.bonds[d];
    const double cell_w = lower.width.value() / static_cast<double>(lower.nx);
    const double cell_h = lower.height.value() / static_cast<double>(lower.ny);
    const double g_bond_cell =
        bond.material.conductivity * (cell_w * cell_h) /
        bond.thickness.value();
    const double via_area = std::numbers::pi *
                            config_.tsv.radius.value() *
                            config_.tsv.radius.value();
    // A TSV crosses the bond layer plus the thinned die above it.
    const double via_length =
        bond.thickness.value() + config_.dies[d + 1].thickness.value();
    const double g_tsv = config_.tsv.material.conductivity * via_area /
                         via_length;

    for (std::size_t iy = 0; iy < lower.ny; ++iy) {
      for (std::size_t ix = 0; ix < lower.nx; ++ix) {
        const double cx = (static_cast<double>(ix) + 0.5) * cell_w;
        const double cy = (static_cast<double>(iy) + 0.5) * cell_h;
        // Count TSVs whose center lands in this cell.
        double g_via_total = 0.0;
        for (const process::Point& c : config_.tsv.centers) {
          if (c.x >= cx - 0.5 * cell_w && c.x < cx + 0.5 * cell_w &&
              c.y >= cy - 0.5 * cell_h && c.y < cy + 0.5 * cell_h) {
            g_via_total += g_tsv;
          }
        }
        // Map to the upper die's cell containing (cx, cy).
        const auto ux = std::min(
            static_cast<std::size_t>(cx / (upper.width.value() /
                                           static_cast<double>(upper.nx))),
            upper.nx - 1);
        const auto uy = std::min(
            static_cast<std::size_t>(cy / (upper.height.value() /
                                           static_cast<double>(upper.ny))),
            upper.ny - 1);
        add_edge(node_index(d, ix, iy), node_index(d + 1, ux, uy),
                 g_bond_cell + g_via_total);
      }
    }
  }

  // Pack in two passes.  The first counts each node's edges and gives each
  // chunk as many slots as its longest row has edges; the second places
  // both ends of every link in link order, so each row lists its node's
  // edges in the order they were added, and pads the rest of the row.
  // Lanes past the last node (a partial last chunk) are never read.
  const std::size_t chunks = (total + kLanes - 1) / kLanes;
  std::vector<std::size_t> row_length(total, 0);
  for (const Link& l : links) {
    ++row_length[l.a];
    ++row_length[l.b];
  }
  chunk_slot_.assign(chunks + 1, 0);
  for (std::size_t c = 0; c < chunks; ++c) {
    std::size_t longest = 0;
    for (std::size_t n = c * kLanes; n < std::min(total, (c + 1) * kLanes);
         ++n) {
      longest = std::max(longest, row_length[n]);
    }
    chunk_slot_[c + 1] = chunk_slot_[c] + longest;
  }
  slot_conductance_.assign(chunk_slot_[chunks] * kLanes, -0.0);
  slot_neighbor_.assign(chunk_slot_[chunks] * kLanes, 0);
  std::vector<std::size_t>& placed = row_length;  // now: edges placed per row
  std::fill(placed.begin(), placed.end(), 0);
  const auto place = [&](std::size_t n, std::size_t neighbor, double g) {
    const std::size_t k =
        (chunk_slot_[n / kLanes] + placed[n]++) * kLanes + n % kLanes;
    slot_conductance_[k] = g;
    slot_neighbor_[k] = neighbor;
  };
  for (const Link& l : links) {
    place(l.a, l.b, l.conductance);
    place(l.b, l.a, l.conductance);
  }
  for (std::size_t n = 0; n < total; ++n) {
    // Pads: x + (-0.0 * (t_n - t_n)) == x for every finite state.
    const std::size_t end = chunk_slot_[n / kLanes + 1];
    for (std::size_t s = chunk_slot_[n / kLanes] + placed[n]; s < end; ++s) {
      slot_neighbor_[s * kLanes + n % kLanes] = n;
    }
  }

  // Explicit stability: dt < min_n C_n / sum(G_n).  Use a safety factor.
  double min_tau = 1e30;
  for (std::size_t n = 0; n < total; ++n) {
    const double g_sum = row_conductance(n);
    if (g_sum > 0.0) min_tau = std::min(min_tau, capacitance_[n] / g_sum);
  }
  stable_dt_ = Second{0.5 * min_tau};
}

void ThermalNetwork::clear_power() {
  std::fill(power_.begin(), power_.end(), 0.0);
}

void ThermalNetwork::set_cell_power(std::size_t die, std::size_t ix,
                                    std::size_t iy, Watt p) {
  power_[node_index(die, ix, iy)] = p.value();
}

void ThermalNetwork::set_uniform_power(std::size_t die, Watt total) {
  const DieGeometry& geom = config_.dies.at(die);
  const double per_cell =
      total.value() / static_cast<double>(geom.nx * geom.ny);
  const std::size_t begin = die_node_offset_[die];
  const std::size_t end = begin + geom.nx * geom.ny;
  for (std::size_t n = begin; n < end; ++n) power_[n] = per_cell;
}

void ThermalNetwork::add_hotspot(std::size_t die, process::Point center,
                                 Meter radius, Watt total) {
  if (radius.value() <= 0.0) throw std::invalid_argument{"hotspot radius"};
  const DieGeometry& geom = config_.dies.at(die);
  const double cell_w = geom.width.value() / static_cast<double>(geom.nx);
  const double cell_h = geom.height.value() / static_cast<double>(geom.ny);
  // The die's weights go to its slice of the scratch buffer.
  const std::size_t begin = die_node_offset_[die];
  const std::size_t end = begin + geom.nx * geom.ny;
  double weight_sum = 0.0;
  for (std::size_t iy = 0; iy < geom.ny; ++iy) {
    for (std::size_t ix = 0; ix < geom.nx; ++ix) {
      const process::Point cell_center{
          (static_cast<double>(ix) + 0.5) * cell_w,
          (static_cast<double>(iy) + 0.5) * cell_h};
      const double d = cell_center.distance_to(center) / radius.value();
      const double w = std::exp(-0.5 * d * d);
      scratch_[begin + iy * geom.nx + ix] = w;
      weight_sum += w;
    }
  }
  for (std::size_t n = begin; n < end; ++n) {
    power_[n] += total.value() * scratch_[n] / weight_sum;
  }
}

void ThermalNetwork::scale_power(double factor) {
  if (factor < 0.0) throw std::invalid_argument{"scale_power: negative"};
  for (double& p : power_) p *= factor;
}

void ThermalNetwork::scale_die_power(std::size_t die, double factor) {
  if (factor < 0.0) {
    throw std::invalid_argument{"scale_die_power: negative"};
  }
  const DieGeometry& geom = config_.dies.at(die);
  const std::size_t begin = die_node_offset_[die];
  const std::size_t end = begin + geom.nx * geom.ny;
  for (std::size_t n = begin; n < end; ++n) power_[n] *= factor;
}

void ThermalNetwork::add_uniform_power(std::size_t die, Watt total) {
  const DieGeometry& geom = config_.dies.at(die);
  const double per_cell =
      total.value() / static_cast<double>(geom.nx * geom.ny);
  const std::size_t begin = die_node_offset_[die];
  const std::size_t end = begin + geom.nx * geom.ny;
  for (std::size_t n = begin; n < end; ++n) power_[n] += per_cell;
}

Watt ThermalNetwork::die_power(std::size_t die) const {
  const DieGeometry& geom = config_.dies.at(die);
  const std::size_t begin = die_node_offset_[die];
  const std::size_t end = begin + geom.nx * geom.ny;
  double sum = 0.0;
  for (std::size_t n = begin; n < end; ++n) sum += power_[n];
  return Watt{sum};
}

void ThermalNetwork::set_power_map(const std::vector<double>& power) {
  if (power.size() != node_count()) {
    throw std::invalid_argument{"set_power_map: wrong size"};
  }
  std::copy(power.begin(), power.end(), power_.begin());
}

Watt ThermalNetwork::total_power() const {
  double sum = 0.0;
  for (double p : power_) sum += p;
  return Watt{sum};
}

Watt ThermalNetwork::cell_power(std::size_t die, std::size_t ix,
                                std::size_t iy) const {
  return Watt{power_[node_index(die, ix, iy)]};
}

double ThermalNetwork::row_conductance(std::size_t n) const {
  const std::size_t c = n / kLanes;
  double sum = boundary_conductance_[n];
  for (std::size_t s = chunk_slot_[c]; s < chunk_slot_[c + 1]; ++s) {
    sum += slot_conductance_[s * kLanes + n % kLanes];  // a pad adds -0.0
  }
  return sum;
}

void ThermalNetwork::apply_conductance(const std::vector<double>& t,
                                       std::vector<double>& y) const {
  static_assert(kLanes == 4, "the sweep below keeps four sums");
  const std::size_t nodes = node_count();
  const std::size_t full = nodes / kLanes;
  const double* b = boundary_conductance_.data();
  const double* g = slot_conductance_.data();
  const std::size_t* nb = slot_neighbor_.data();
  // A chunk's four sums side by side: each starts with its boundary term
  // and adds its row's slots in order, as a one-row loop would.
  for (std::size_t c = 0; c < full; ++c) {
    const std::size_t n = c * kLanes;
    const double t0 = t[n];
    const double t1 = t[n + 1];
    const double t2 = t[n + 2];
    const double t3 = t[n + 3];
    double y0 = b[n] * t0;
    double y1 = b[n + 1] * t1;
    double y2 = b[n + 2] * t2;
    double y3 = b[n + 3] * t3;
    const auto add_slot = [&](std::size_t s) {
      const double* gs = g + s * kLanes;
      const std::size_t* ns = nb + s * kLanes;
      y0 += gs[0] * (t0 - t[ns[0]]);
      y1 += gs[1] * (t1 - t[ns[1]]);
      y2 += gs[2] * (t2 - t[ns[2]]);
      y3 += gs[3] * (t3 - t[ns[3]]);
    };
    // Two slots per iteration: with one, GCC's -O3 loop vectorizer packs
    // consecutive slots instead of the four rows, and keeping each sum in
    // order then costs a shuffle per slot (measured ~20 % slower).
    std::size_t s = chunk_slot_[c];
    for (; s + 1 < chunk_slot_[c + 1]; s += 2) {
      add_slot(s);
      add_slot(s + 1);
    }
    if (s < chunk_slot_[c + 1]) add_slot(s);
    y[n] = y0;
    y[n + 1] = y1;
    y[n + 2] = y2;
    y[n + 3] = y3;
  }
  // The rows of a partial last chunk, one at a time over the same slots.
  for (std::size_t n = full * kLanes; n < nodes; ++n) {
    const std::size_t l = n % kLanes;
    const double tn = t[n];
    double acc = b[n] * tn;
    for (std::size_t s = chunk_slot_[full]; s < chunk_slot_[full + 1]; ++s) {
      acc += g[s * kLanes + l] * (tn - t[nb[s * kLanes + l]]);
    }
    y[n] = acc;
  }
}

void ThermalNetwork::set_leakage_power(std::size_t die,
                                       TemperaturePowerFn per_cell) {
  if (die >= config_.dies.size()) throw std::out_of_range{"die index"};
  die_leakage_[die] = std::move(per_cell);
  heat_.resize(node_count());
  has_leakage_ = std::any_of(
      die_leakage_.begin(), die_leakage_.end(),
      [](const TemperaturePowerFn& fn) { return static_cast<bool>(fn); });
}

void ThermalNetwork::clear_leakage_power() {
  std::fill(die_leakage_.begin(), die_leakage_.end(), nullptr);
  has_leakage_ = false;
}

double ThermalNetwork::node_leakage(std::size_t n, double t) const {
  const TemperaturePowerFn& fn = die_leakage_[node_die_[n]];
  if (!fn) return 0.0;
  const double p = fn(t);
  if (!(p >= 0.0) || !std::isfinite(p)) {
    throw std::runtime_error{"leakage power must be finite and >= 0"};
  }
  return p;
}

Watt ThermalNetwork::leakage_power() const {
  if (!has_leakage_) return Watt{0.0};
  double sum = 0.0;
  for (std::size_t n = 0; n < node_count(); ++n) {
    sum += node_leakage(n, state_[n]);
  }
  return Watt{sum};
}

std::vector<double> ThermalNetwork::steady_state(double tolerance,
                                                 int max_iterations) const {
  if (!has_leakage_) return solve_linear(power_, tolerance, max_iterations);

  // Coupled fixed point: solve the linear network with leakage evaluated at
  // the previous iterate, damped to tame the exponential feedback.
  std::vector<double> field(node_count(), config_.ambient.value());
  constexpr double kDamping = 0.7;
  std::vector<double> total_power(node_count());
  for (int it = 0; it < 200; ++it) {
    for (std::size_t n = 0; n < node_count(); ++n) {
      total_power[n] = power_[n] + node_leakage(n, field[n]);
    }
    const std::vector<double> next =
        solve_linear(total_power, tolerance, max_iterations);
    double delta = 0.0;
    for (std::size_t n = 0; n < node_count(); ++n) {
      const double blended =
          field[n] + kDamping * (next[n] - field[n]);
      delta = std::max(delta, std::abs(blended - field[n]));
      field[n] = blended;
      if (field[n] > runaway_limit_.value()) {
        throw std::runtime_error{
            "thermal runaway: leakage feedback diverged"};
      }
    }
    if (delta < 1e-6) return field;
  }
  throw std::runtime_error{"steady_state: leakage fixed point stalled"};
}

std::vector<double> ThermalNetwork::solve_linear(
    const std::vector<double>& power, double tolerance,
    int max_iterations) const {
  const std::size_t n = node_count();
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = power[i] + boundary_conductance_[i] * config_.ambient.value();
  }
  // Conjugate gradient with Jacobi preconditioning.
  std::vector<double> diag(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = row_conductance(i);
    if (diag[i] <= 0.0) {
      throw std::runtime_error{"steady_state: floating node (no path out)"};
    }
  }
  std::vector<double> x(n, config_.ambient.value());
  std::vector<double> r = b;
  std::vector<double> ap(n);  // G x first, then G p every iteration
  apply_conductance(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] -= ap[i];
  std::vector<double> z(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / diag[i];
  std::vector<double> p = z;
  double rz = 0.0;
  for (std::size_t i = 0; i < n; ++i) rz += r[i] * z[i];
  double b_norm = 0.0;
  for (double v : b) b_norm += v * v;
  b_norm = std::sqrt(b_norm);
  if (b_norm == 0.0) b_norm = 1.0;

  for (int it = 0; it < max_iterations; ++it) {
    double r_norm = 0.0;
    for (double v : r) r_norm += v * v;
    if (std::sqrt(r_norm) / b_norm < tolerance) break;

    apply_conductance(p, ap);
    double pap = 0.0;
    for (std::size_t i = 0; i < n; ++i) pap += p[i] * ap[i];
    if (pap <= 0.0) break;  // numerical breakdown; x is the best we have
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / diag[i];
    double rz_new = 0.0;
    for (std::size_t i = 0; i < n; ++i) rz_new += r[i] * z[i];
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return x;
}

void ThermalNetwork::set_uniform_temperature(Kelvin t) {
  std::fill(state_.begin(), state_.end(), t.value());
}

void ThermalNetwork::set_temperatures(std::vector<double> state) {
  if (state.size() != node_count()) {
    throw std::invalid_argument{"set_temperatures: wrong size"};
  }
  state_ = std::move(state);
}

// hot(alloc): every substep of every simulated stack integrates here.
void ThermalNetwork::step(Second dt) {
  if (dt.value() <= 0.0) throw std::invalid_argument{"step: dt <= 0"};
  double remaining = dt.value();
  const double h_max = stable_dt_.value();
  const double ambient = config_.ambient.value();
  std::vector<double>& flow = scratch_;
  while (remaining > 0.0) {
    const double h = std::min(remaining, h_max);
    // Every leakage term before any update, so a source that throws leaves
    // the state untouched.  Without a source the term would be +0.0, and
    // adding it changes no bit of the sum.
    if (has_leakage_) {
      for (std::size_t n = 0; n < node_count(); ++n) {
        heat_[n] = power_[n] + node_leakage(n, state_[n]);
      }
    }
    const std::vector<double>& heat = has_leakage_ ? heat_ : power_;
    apply_conductance(state_, flow);
    for (std::size_t n = 0; n < node_count(); ++n) {
      state_[n] += h * ((heat[n] + boundary_conductance_[n] * ambient -
                         flow[n]) /
                        capacitance_[n]);
    }
    remaining -= h;
  }
}

Kelvin ThermalNetwork::temperature_at(std::size_t die, std::size_t ix,
                                      std::size_t iy) const {
  return Kelvin{state_[node_index(die, ix, iy)]};
}

Kelvin ThermalNetwork::field_at(const std::vector<double>& field,
                                std::size_t die,
                                process::Point location) const {
  if (field.size() != node_count()) {
    throw std::invalid_argument{"field_at: wrong field size"};
  }
  const DieGeometry& geom = config_.dies.at(die);
  const double cell_w = geom.width.value() / static_cast<double>(geom.nx);
  const double cell_h = geom.height.value() / static_cast<double>(geom.ny);
  // Continuous cell-center coordinates.
  const double gx = std::clamp(location.x / cell_w - 0.5, 0.0,
                               static_cast<double>(geom.nx - 1));
  const double gy = std::clamp(location.y / cell_h - 0.5, 0.0,
                               static_cast<double>(geom.ny - 1));
  const std::size_t ix =
      geom.nx == 1 ? 0 : std::min(static_cast<std::size_t>(gx), geom.nx - 2);
  const std::size_t iy =
      geom.ny == 1 ? 0 : std::min(static_cast<std::size_t>(gy), geom.ny - 2);
  const std::size_t ix1 = std::min(ix + 1, geom.nx - 1);
  const std::size_t iy1 = std::min(iy + 1, geom.ny - 1);
  const double fx = gx - static_cast<double>(ix);
  const double fy = gy - static_cast<double>(iy);
  const double t00 = field[node_index(die, ix, iy)];
  const double t10 = field[node_index(die, ix1, iy)];
  const double t01 = field[node_index(die, ix, iy1)];
  const double t11 = field[node_index(die, ix1, iy1)];
  return Kelvin{t00 * (1 - fx) * (1 - fy) + t10 * fx * (1 - fy) +
                t01 * (1 - fx) * fy + t11 * fx * fy};
}

Kelvin ThermalNetwork::temperature_at(std::size_t die,
                                      process::Point location) const {
  return field_at(state_, die, location);
}

Kelvin ThermalNetwork::max_temperature(std::size_t die) const {
  const DieGeometry& geom = config_.dies.at(die);
  const std::size_t begin = die_node_offset_[die];
  const std::size_t end = begin + geom.nx * geom.ny;
  double best = -1e30;
  for (std::size_t n = begin; n < end; ++n) best = std::max(best, state_[n]);
  return Kelvin{best};
}

Kelvin ThermalNetwork::max_temperature() const {
  // One pass with four independent running maxima: max is exact, so the
  // order the nodes are visited in changes nothing.
  double best[4] = {-1e30, -1e30, -1e30, -1e30};
  std::size_t n = 0;
  for (; n + 4 <= state_.size(); n += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      best[l] = std::max(best[l], state_[n + l]);
    }
  }
  for (; n < state_.size(); ++n) best[0] = std::max(best[0], state_[n]);
  return Kelvin{
      std::max(std::max(best[0], best[1]), std::max(best[2], best[3]))};
}

}  // namespace tsvpt::thermal
