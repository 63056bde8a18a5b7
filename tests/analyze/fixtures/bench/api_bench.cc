// Fixture: a bench/ consumer of src/stats/api_bad.h and bench/helpers.h.
// Its calls keep Gauge::update and bench::vm_count alive.
#include "helpers.h"
#include "stats/api_bad.h"

int main() {
  stats::Gauge g;
  g.update(1.0);
  return bench::vm_count(1) > 0 ? 0 : 1;
}
