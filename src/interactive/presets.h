// Presets for the paper's three transactional benchmarks (§IV):
// RUBiS (online auction), TPC-W (3-tier book store), Olio (Web 2.0 social).
// Parameter mixes reflect their published profiles: RUBiS is CPU-lean,
// TPC-W adds database I/O, Olio is the most I/O-heavy.
#pragma once

#include "interactive/app.h"

namespace hybridmr::interactive {

inline AppParams rubis_params() {
  AppParams p;
  p.name = "rubis";
  p.cpu_s_per_req = 0.0035;
  p.io_mb_per_req = 0.010;
  p.memory_mb = sim::MegaBytes{560};
  return p;
}

inline AppParams tpcw_params() {
  AppParams p;
  p.name = "tpcw";
  p.cpu_s_per_req = 0.0042;
  p.io_mb_per_req = 0.030;
  p.memory_mb = sim::MegaBytes{640};
  return p;
}

inline AppParams olio_params() {
  AppParams p;
  p.name = "olio";
  p.cpu_s_per_req = 0.0030;
  p.io_mb_per_req = 0.050;
  p.memory_mb = sim::MegaBytes{600};
  return p;
}

}  // namespace hybridmr::interactive
