// Shared helpers for the experiment-reproduction binaries.
//
// Every bench regenerates one table/figure from DESIGN.md's evaluation
// index: it prints an aligned ASCII table to stdout and, when TSVPT_CSV_DIR
// is set, writes the same rows as CSV for plotting.  The machine-readable
// performance record is perfbench's JSON result line, not these tables.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/die_environment.hpp"
#include "ptsim/table.hpp"
#include "ptsim/units.hpp"

namespace tsvpt::bench {

/// Print a table and optionally persist it as CSV.
inline void emit(const Table& table, const std::string& csv_name) {
  table.print(std::cout);
  std::cout << '\n';
  if (const char* dir = std::getenv("TSVPT_CSV_DIR")) {
    table.write_csv(std::string{dir} + "/" + csv_name + ".csv");
  }
}

/// A clean environment at the given temperature with the given deviation.
inline core::DieEnvironment env_at(double t_celsius, Volt dvtn = Volt{0.0},
                                   Volt dvtp = Volt{0.0}) {
  core::DieEnvironment env;
  env.temperature = to_kelvin(Celsius{t_celsius});
  env.vt_delta = {dvtn, dvtp};
  return env;
}

inline void banner(const std::string& id, const std::string& title) {
  std::cout << "#\n# " << id << ": " << title << "\n#\n";
}

}  // namespace tsvpt::bench
