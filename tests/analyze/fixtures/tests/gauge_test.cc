// Fixture: a test of src/stats/api_bad.h. Tests are not consumers, so
// these calls keep nothing alive.
#include "stats/api_bad.h"

void gauge_test() {
  stats::Gauge g;
  (void)g.peak();
  (void)g.samples();
  (void)g.stale();
  (void)stats::ratio(1, 2);
}
