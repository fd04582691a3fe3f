// Deterministic random number generation.
//
// Standard-library distributions are implementation defined, so a simulation
// seeded the same way could diverge across standard libraries. Everything
// here is implemented from scratch (xoshiro256** core, hand-rolled
// distributions) so a given seed produces the same event sequence everywhere.

#ifndef REPRO_SRC_SIM_RNG_H_
#define REPRO_SRC_SIM_RNG_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace sim {

// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm),
// seeded through splitmix64 so that low-entropy seeds still produce good
// state.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform over all 64-bit values.
  uint64_t NextU64();

  // Uniform in [0, bound). bound must be > 0. Uses rejection sampling to
  // avoid modulo bias.
  uint64_t NextBelow(uint64_t bound);

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Uniform in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0, 1]).
  bool NextBool(double p);

  // Standard normal via Box-Muller (deterministic; caches the spare value).
  double NextGaussian();

  // Uniform duration in [lo, hi].
  Duration NextDuration(Duration lo, Duration hi);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBelow(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Derives an independent child generator; used to give each process its own
  // stream so adding a process does not perturb others' draws.
  Rng Fork();

 private:
  uint64_t state_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace sim

#endif  // REPRO_SRC_SIM_RNG_H_
