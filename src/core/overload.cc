#include "core/overload.h"

#include <cmath>

namespace substream {
namespace {

/// Ring occupancy (fraction of capacity) at or above which one observation
/// counts as pressure and halves the rate.
constexpr double kEngageOccupancy = 0.5;
/// Ring occupancy at or below which an observation counts toward the calm
/// streak.
/// The gap to kEngageOccupancy is the hysteresis.
constexpr double kDisengageOccupancy = 0.25;
static_assert(kDisengageOccupancy < kEngageOccupancy,
              "the watermarks must leave a hysteresis gap");

}  // namespace

SampleController::SampleController(const SampleControllerOptions& options,
                                   std::uint64_t seed)
    : options_(options), rng_(seed) {
  SUBSTREAM_CHECK_MSG(options_.min_rate > 0.0 && options_.min_rate <= 1.0,
                      "SampleController min_rate must be in (0, 1]");
  SUBSTREAM_CHECK_MSG(options_.calm_observations > 0,
                      "SampleController calm_observations must be >= 1");
  // Clamp the floor to the nearest power-of-two level so the correction
  // weight stays an exact integer. min_rate = 1/64 -> max_level = 6.
  max_level_ = static_cast<std::uint32_t>(
      std::lround(std::log2(1.0 / options_.min_rate)));
  SUBSTREAM_CHECK_MSG(max_level_ < 63, "SampleController min_rate underflow");
}

bool SampleController::Observe(double occupancy, std::uint64_t stall_delta) {
  const bool pressured =
      occupancy >= kEngageOccupancy || stall_delta > 0;
  if (pressured) {
    calm_streak_ = 0;
    if (level_ < max_level_) {
      SetLevel(level_ + 1);
      return true;
    }
    return false;
  }
  if (occupancy > kDisengageOccupancy) {
    // Hysteresis band: neither pressure nor calm. The streak restarts so a
    // hovering ring cannot ratchet the rate back up.
    calm_streak_ = 0;
    return false;
  }
  if (level_ == 0) return false;
  if (++calm_streak_ < options_.calm_observations) return false;
  calm_streak_ = 0;
  SetLevel(level_ - 1);
  return true;
}

void SampleController::SetLevel(std::uint32_t level) {
  level_ = level;
  rate_ = std::exp2(-static_cast<double>(level_));
  // The pending skip was drawn at the old rate; redraw lazily at the new one
  // so admission stays exactly Bernoulli(rate) from the next element on.
  skip_ = level_ == 0 ? 0 : rng_.NextGeometric(rate_);
}

void SampleController::Reset() {
  level_ = 0;
  rate_ = 1.0;
  skip_ = 0;
  calm_streak_ = 0;
  admitted_ = 0;
  skipped_ = 0;
}

}  // namespace substream
