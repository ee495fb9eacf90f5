#include "common/affinity.hpp"

#include <sched.h>
#include <unistd.h>

namespace mcsmr {

int hardware_cores() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n < 1 ? 1 : static_cast<int>(n);
}

bool pin_process_to_cores(int k) {
  if (k < 1) k = 1;
  const int max = hardware_cores();
  if (k > max) k = max;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int core = 0; core < k; ++core) CPU_SET(core, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

bool unpin_process() { return pin_process_to_cores(hardware_cores()); }

}  // namespace mcsmr
