#include "cluster/resources.h"

namespace hybridmr::cluster {

const char* to_string(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCpu:
      return "cpu";
    case ResourceKind::kMemory:
      return "memory";
    case ResourceKind::kDisk:
      return "disk";
    case ResourceKind::kNet:
      return "net";
  }
  return "?";
}

}  // namespace hybridmr::cluster
