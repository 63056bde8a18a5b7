// Fixture: unused-api definitions. A definition is not a use of its own
// name; the calls in update() are (same-file calls count).
#include "stats/api_bad.h"

namespace stats {

double Gauge::peak() const { return level_; }
void Gauge::update(double v) { level_ = clamp(v) + level(); }
double Gauge::level() const { return level_; }
int Gauge::samples() const { return samples_; }
int Gauge::stale() const { return 0; }
double Gauge::clamp(double v) const { return v < 0 ? 0 : v; }
double ratio(double a, double b) { return a / b; }

}  // namespace stats
