// RC thermal-network assembly and solvers for a TSV 3D stack.
//
// Nodes: one per grid cell per die.  Edges: lateral conduction within a die,
// vertical conduction between stacked dies (bond layer in parallel with the
// copper TSVs that fall inside the cell), plus boundary conductances to the
// heat sink (bottom die) and ambient (top die).
//
// Solvers:
//   * steady_state(): conjugate gradient on the SPD conductance system
//     G T = P + G_b T_amb;
//   * step(): explicit transient integration with automatic substepping at
//     the stability limit (the grids used here are small enough that
//     explicit integration is both simple and fast).
//
// The edges are packed once, at build time, into a sliced layout: the rows
// of four consecutive nodes form a chunk, and slot j of a chunk holds the
// j-th edge of each of its four rows, each row's edges in the order build()
// added them (the order every conductance sum runs in).  A row shorter than
// its chunk's longest is padded with conductance -0.0 pointing at its own
// node, which adds -0.0 to the sum and so changes no bit.  The sweep keeps
// a chunk's four sums side by side, which the compiler packs into SIMD
// lanes without changing any lane's order of operations.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "process/geometry.hpp"
#include "ptsim/units.hpp"
#include "thermal/stack_config.hpp"

namespace tsvpt::thermal {

/// Per-cell power as a function of the cell's absolute temperature (used
/// for leakage feedback).  Must be finite and non-negative.
using TemperaturePowerFn = std::function<double(double t_kelvin)>;

class ThermalNetwork {
 public:
  explicit ThermalNetwork(StackConfig config);

  [[nodiscard]] const StackConfig& config() const { return config_; }
  [[nodiscard]] std::size_t node_count() const { return capacitance_.size(); }
  [[nodiscard]] std::size_t node_index(std::size_t die, std::size_t ix,
                                       std::size_t iy) const;

  // -- Power injection ------------------------------------------------------
  void clear_power();
  void set_cell_power(std::size_t die, std::size_t ix, std::size_t iy, Watt p);
  /// Spread `total` uniformly over one die.
  void set_uniform_power(std::size_t die, Watt total);
  /// Gaussian hotspot centered at `center` with the given radius, carrying
  /// `total` watts (normalized over the die).
  void add_hotspot(std::size_t die, process::Point center, Meter radius,
                   Watt total);
  /// Scale every cell's power (used by throttling policies).  Does not
  /// affect temperature-dependent (leakage) sources.
  void scale_power(double factor);
  /// Scale only one die's cells (per-die DVFS / gating actuation).  Like
  /// scale_power, leakage sources are untouched.
  void scale_die_power(std::size_t die, double factor);
  /// Add `total` watts spread uniformly over one die on top of whatever is
  /// already programmed (task-migration landing zone).
  void add_uniform_power(std::size_t die, Watt total);
  [[nodiscard]] Watt total_power() const;
  /// Power currently programmed on one die's map (excluding leakage).
  [[nodiscard]] Watt die_power(std::size_t die) const;
  /// The whole programmed map (W per node, node-indexed; no leakage).
  [[nodiscard]] const std::vector<double>& power_map() const {
    return power_;
  }
  /// Program a whole map saved from power_map(); copies, never allocates.
  /// Throws std::invalid_argument on a size mismatch.
  void set_power_map(const std::vector<double>& power);

  /// Attach a temperature-dependent per-cell power source to one die
  /// (leakage feedback).  Replaces any previous source on that die.
  void set_leakage_power(std::size_t die, TemperaturePowerFn per_cell);
  void clear_leakage_power();
  /// Leakage power currently dissipated by the *transient* state (0 when
  /// no die has a source).
  [[nodiscard]] Watt leakage_power() const;
  [[nodiscard]] Watt cell_power(std::size_t die, std::size_t ix,
                                std::size_t iy) const;

  // -- Steady state ---------------------------------------------------------
  /// Solve for the equilibrium temperature field (kelvin, node-indexed).
  /// With leakage feedback attached, iterates the coupled fixed point
  /// (damped Picard); throws std::runtime_error on thermal runaway (the
  /// iteration diverges past `runaway_limit`).
  [[nodiscard]] std::vector<double> steady_state(double tolerance = 1e-10,
                                                 int max_iterations = 5000)
      const;
  /// Runaway detection threshold for the feedback fixed point.
  void set_runaway_limit(Kelvin limit) { runaway_limit_ = limit; }

  // -- Transient ------------------------------------------------------------
  [[nodiscard]] const std::vector<double>& temperatures() const {
    return state_;
  }
  /// Reset the whole stack to a uniform temperature.
  void set_uniform_temperature(Kelvin t);
  /// Load an explicit state (e.g. a steady-state solution).
  void set_temperatures(std::vector<double> state);
  /// Advance the transient solution by dt (internally substepped).  Never
  /// allocates.  A leakage source that throws leaves the state of the
  /// substep it threw in untouched.
  void step(Second dt);
  /// Largest stable explicit substep.
  [[nodiscard]] Second stable_substep() const { return stable_dt_; }

  // -- Queries ----------------------------------------------------------
  [[nodiscard]] Kelvin temperature_at(std::size_t die, std::size_t ix,
                                      std::size_t iy) const;
  /// Bilinear interpolation of the current state at a die location.
  [[nodiscard]] Kelvin temperature_at(std::size_t die,
                                      process::Point location) const;
  /// Same interpolation applied to an arbitrary node-indexed field.
  [[nodiscard]] Kelvin field_at(const std::vector<double>& field,
                                std::size_t die,
                                process::Point location) const;
  [[nodiscard]] Kelvin max_temperature(std::size_t die) const;
  /// Hottest node of the whole stack (the largest of every die's maximum).
  [[nodiscard]] Kelvin max_temperature() const;

 private:
  /// Rows per chunk of the sliced edge layout.
  static constexpr std::size_t kLanes = 4;

  void build();
  /// y = G t (conductance matrix including boundary terms) into a
  /// caller-owned buffer of node_count() entries.
  void apply_conductance(const std::vector<double>& t,
                         std::vector<double>& y) const;
  /// Node n's boundary conductance plus each of its edges', in row order
  /// (the Jacobi diagonal, and the stability bound's denominator).
  [[nodiscard]] double row_conductance(std::size_t n) const;
  /// Linear steady-state solve for an explicit per-node power vector.
  [[nodiscard]] std::vector<double> solve_linear(
      const std::vector<double>& power, double tolerance,
      int max_iterations) const;
  /// Leakage power of node `n` at temperature `t` (0 without a source).
  [[nodiscard]] double node_leakage(std::size_t n, double t) const;

  StackConfig config_;
  std::vector<TemperaturePowerFn> die_leakage_;  // one slot per die
  bool has_leakage_ = false;                     // any slot set
  std::vector<std::size_t> node_die_;            // die index per node
  Kelvin runaway_limit_{1000.0};
  std::vector<std::size_t> die_node_offset_;
  // Sliced adjacency: chunk c (nodes kLanes*c up to kLanes*c + kLanes)
  // owns slots chunk_slot_[c] up to chunk_slot_[c + 1], and entry
  // kLanes*s + l of the slot arrays is slot s's edge of the chunk's row l.
  std::vector<std::size_t> chunk_slot_;
  std::vector<double> slot_conductance_;
  std::vector<std::size_t> slot_neighbor_;
  std::vector<double> boundary_conductance_;  // to ambient, per node
  std::vector<double> capacitance_;           // J/K per node
  std::vector<double> power_;                 // W per node
  std::vector<double> state_;                 // K per node (transient)
  // Per-node scratch: conductance flows in step(), hotspot weights in
  // add_hotspot().  Meaningless between calls.
  std::vector<double> scratch_;
  // Programmed power plus leakage per node, filled by step() while a
  // source is attached (sized by the first set_leakage_power()).
  std::vector<double> heat_;
  Second stable_dt_{1e-5};
};

}  // namespace tsvpt::thermal
