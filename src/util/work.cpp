#include "util/work.hpp"

#include <atomic>
#include <chrono>

namespace ccf::util {

namespace {
std::atomic<double> g_sink{0.0};
}

double spin_work(std::uint64_t iters) {
  double x = 1.000000001;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 1.0000001 + 1e-12;
    if (x > 2.0) x -= 1.0;
  }
  // Publish so the compiler cannot prove the loop dead.
  g_sink.store(x, std::memory_order_relaxed);
  return x;
}

void spin_for_us(double us) {
  if (us <= 0) return;
  using clock = std::chrono::steady_clock;
  const auto span = std::chrono::duration<double, std::micro>(us);
  const auto deadline = clock::now() + std::chrono::ceil<clock::duration>(span);
  while (clock::now() < deadline) spin_work(64);
}

}  // namespace ccf::util
