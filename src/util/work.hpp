// Synthetic CPU work.
//
// Real-time mode needs "computation" whose duration is controllable in
// microseconds without depending on sleep granularity: spin_work() runs a
// side-effect-resistant FLOP loop, and spin_for_us() repeats short batches
// of it until steady_clock reaches the deadline, so its duration does not
// depend on how fast the loop ran when the process started.
#pragma once

#include <cstdint>

namespace ccf::util {

/// Runs `iters` iterations of a dependent floating-point chain and returns a
/// value that must be consumed (prevents the optimizer deleting the loop).
double spin_work(std::uint64_t iters);

/// Busy-spins until at least `us` microseconds of steady_clock time pass.
void spin_for_us(double us);

}  // namespace ccf::util
