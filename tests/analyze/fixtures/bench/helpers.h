// Fixture: unused-api over bench/ headers, which the rule declares on
// every run. bench/api_bench.cc is the consumer. Keep line numbers stable
// or update the driver.
#pragma once

namespace bench {

inline int vm_count(int hosts) { return 2 * hosts; }  // clean: called

inline int pinned_hosts() { return 8; }  // line 10: nothing calls it

}  // namespace bench
