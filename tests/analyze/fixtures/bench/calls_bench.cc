// Fixture: a bench/ consumer of src/stats/calls_bad.h. Each `width` below
// is a field, a parameter, a local or a direct-initialised variable, so
// none of them keeps Window::width alive.
#include <memory>

#include "stats/calls_bad.h"

#define VOLUME_OF(w) (w).volume()

struct Frame {
  double width = 0;
};

double scale(double width) { return width * 2; }

double twice(const Frame& f) {
  const double width(f.width);
  return 2 * width;
}

int main() {
  stats::Window w;
  const stats::Window* p = &w;
  double width = w.height() + p->depth();
  double (stats::Window::*get)() const = &stats::Window::area;
  Frame frame;
  frame.width = scale(width) + stats::Window::span() + (w.*get)() +
                VOLUME_OF(w) + twice(frame);
  auto probe = std::make_unique<stats::Probe>();
  return probe != nullptr && frame.width > 0 ? 0 : 1;
}
