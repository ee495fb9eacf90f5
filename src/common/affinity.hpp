// CPU affinity control.
//
// The paper restricts the number of cores available to the replica process
// with `taskset` (§VI) and co-locates cores on one socket. We expose the
// same knob programmatically so benches can sweep #cores: pin_process_to_cores(k)
// confines the whole process (all current and future threads) to cores
// 0..k-1.
#pragma once

namespace mcsmr {

/// Number of online cores on this host.
int hardware_cores();

/// Restrict the calling process to cores [0, k). Returns false if the
/// platform call failed (the sweep then reports host cores only).
bool pin_process_to_cores(int k);

/// Remove any affinity restriction (all online cores).
bool unpin_process();

}  // namespace mcsmr
