// Fixture: a bench/ consumer of src/stats/api_bad.h. Its call keeps
// Gauge::update alive.
#include "stats/api_bad.h"

int main() {
  stats::Gauge g;
  g.update(1.0);
  return 0;
}
