// The electrical/thermal condition a circuit block is evaluated at.
#pragma once

#include "device/mosfet.hpp"
#include "ptsim/units.hpp"

namespace tsvpt::circuit {

struct OperatingPoint {
  Volt vdd{1.0};
  Kelvin temperature{300.0};
  /// Local threshold deviation (D2D + WID + stress) at the block's location.
  device::VtDelta vt_delta;

  [[nodiscard]] OperatingPoint with_temperature(Kelvin t) const {
    OperatingPoint op = *this;
    op.temperature = t;
    return op;
  }
  [[nodiscard]] OperatingPoint with_vdd(Volt v) const {
    OperatingPoint op = *this;
    op.vdd = v;
    return op;
  }
};

}  // namespace tsvpt::circuit
