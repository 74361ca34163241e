#ifndef SUBSTREAM_CORE_SUBSTREAM_H_
#define SUBSTREAM_CORE_SUBSTREAM_H_

/// \file substream.h
/// Umbrella header for the substream library: everything needed to estimate
/// statistics of an original stream P by observing only a Bernoulli(p)
/// sampled stream L, per McGregor, Pavan, Tirthapura, Woodruff,
/// "Space-Efficient Estimation of Statistics over Sub-Sampled Streams".

#include "core/baselines.h"          // IWYU pragma: export
#include "core/collision.h"          // IWYU pragma: export
#include "core/entropy_estimator.h"  // IWYU pragma: export
#include "core/f0_estimator.h"       // IWYU pragma: export
#include "core/fk_estimator.h"       // IWYU pragma: export
#include "core/heavy_hitters.h"      // IWYU pragma: export
#include "core/monitor.h"            // IWYU pragma: export
#include "core/sharded_monitor.h"    // IWYU pragma: export
#include "core/windowed_monitor.h"   // IWYU pragma: export
#include "sketch/ams_f2.h"           // IWYU pragma: export
#include "sketch/sketch.h"           // IWYU pragma: export
#include "sketch/countmin.h"         // IWYU pragma: export
#include "sketch/countsketch.h"      // IWYU pragma: export
#include "sketch/entropy_sketch.h"   // IWYU pragma: export
#include "sketch/hyperloglog.h"      // IWYU pragma: export
#include "sketch/kmv.h"              // IWYU pragma: export
#include "sketch/level_sets.h"       // IWYU pragma: export
#include "sketch/space_saving.h"     // IWYU pragma: export
#include "stream/exact_stats.h"      // IWYU pragma: export
#include "stream/generators.h"       // IWYU pragma: export
#include "stream/sample_and_hold.h"  // IWYU pragma: export
#include "stream/samplers.h"         // IWYU pragma: export
#include "stream/stream.h"           // IWYU pragma: export
#include "util/hash.h"               // IWYU pragma: export
#include "util/math.h"               // IWYU pragma: export
#include "util/random.h"             // IWYU pragma: export
#include "util/stats.h"              // IWYU pragma: export

#endif  // SUBSTREAM_CORE_SUBSTREAM_H_
