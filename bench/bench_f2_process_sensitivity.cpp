// F2 [R]: Process sensitivity of the oscillator bank — frequency vs dVtn and
// vs dVtp per oscillator, plus the log-sensitivity (decoupling) matrix and
// its conditioning.  This is the figure that justifies the paper's claim
// that "process information and temperature can be decoupled": the three
// sensitivity vectors must be linearly independent.
// GCC 12 reports a spurious -Wmaybe-uninitialized from the inlined
// vector<variant> reallocation path when a Table row grows (GCC PR 105562);
// the rows below are plainly initialized before use.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <iostream>

#include "bench_util.hpp"
#include "calib/linalg.hpp"
#include "circuit/ring_oscillator.hpp"
#include "device/tech.hpp"

using namespace tsvpt;

namespace {

circuit::OperatingPoint op_at(double t_celsius, Volt dvtn, Volt dvtp) {
  circuit::OperatingPoint op;
  op.vdd = Volt{1.0};
  op.temperature = to_kelvin(Celsius{t_celsius});
  op.vt_delta = {dvtn, dvtp};
  return op;
}

}  // namespace

int main() {
  bench::banner("F2", "process sensitivity: f(dVt) per RO + decoupling matrix");
  const device::Technology tech = device::Technology::tsmc65_like();
  const std::vector<circuit::RoTopology> topologies{
      circuit::RoTopology::kNmosSensitive, circuit::RoTopology::kPmosSensitive,
      circuit::RoTopology::kThermal, circuit::RoTopology::kStandard};
  std::vector<circuit::RingOscillator> bank;
  for (circuit::RoTopology topo : topologies) {
    bank.push_back(circuit::RingOscillator::make(tech, topo));
  }

  for (const bool sweep_nmos : {true, false}) {
    Table table{std::string{"F2 frequency (MHz) vs "} +
                (sweep_nmos ? "dVtn" : "dVtp") + " @ 25 degC"};
    table.add_column(sweep_nmos ? "dVtn_mV" : "dVtp_mV", 1);
    for (circuit::RoTopology topo : topologies) {
      table.add_column(circuit::to_string(topo), 3);
    }
    for (double mv = -60.0; mv <= 60.0 + 1e-9; mv += 10.0) {
      std::vector<Cell> row{mv};
      const Volt dn = sweep_nmos ? millivolts(mv) : Volt{0.0};
      const Volt dp = sweep_nmos ? Volt{0.0} : millivolts(mv);
      for (const auto& ro : bank) {
        row.push_back(ro.frequency(op_at(25.0, dn, dp)).value() / 1e6);
      }
      table.add_row(std::move(row));
    }
    bench::emit(table, sweep_nmos ? "f2_dvtn" : "f2_dvtp");
  }

  // The decoupling matrix: rows = oscillators, columns = d ln f / d(state).
  for (double t : {25.0, 75.0}) {
    Table table{"F2 log-sensitivity matrix @ " + std::to_string(int(t)) +
                " degC"};
    table.add_column("RO");
    table.add_column("dlnf/dVtn (1/V)", 3);
    table.add_column("dlnf/dVtp (1/V)", 3);
    table.add_column("dlnf/dT (%/K)", 4);
    calib::Matrix s{3, 3};
    for (std::size_t i = 0; i < 3; ++i) {
      const circuit::RoSensitivity sens =
          bank[i].sensitivity(op_at(t, Volt{0.0}, Volt{0.0}));
      table.add_row({std::string{circuit::to_string(topologies[i])},
                     sens.dlnf_dvtn, sens.dlnf_dvtp, 100.0 * sens.dlnf_dt});
      // Scale columns comparably (V, V, 100 K) for a fair condition number.
      s(i, 0) = sens.dlnf_dvtn * 0.01;   // per 10 mV
      s(i, 1) = sens.dlnf_dvtp * 0.01;   // per 10 mV
      s(i, 2) = sens.dlnf_dt * 10.0;     // per 10 K
    }
    bench::emit(table, "f2_matrix_" + std::to_string(int(t)));
    std::cout << "  scaled decoupling-matrix condition estimate: "
              << calib::condition_estimate(s) << "\n\n";
  }

  std::cout << "Shape check: PSRO-N column is dVtn-dominated, PSRO-P "
               "dVtp-dominated,\nTDRO row carries the temperature weight; "
               "conditioning is modest (solvable).\n";
  return 0;
}
