/**
 * @file
 * The metric catalog (every end-to-end and per-layer metric with its
 * unit and direction) and the reductions that turn the block timings
 * and workload counts the library already returns in FrameTelemetry
 * into per-layer metrics.
 */
#pragma once

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "runtime/telemetry.hpp"

namespace locbench {

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better; //!< "lower" or "higher"
};

/** End-to-end metrics, reported with --trace 0 on every workload. */
const std::vector<MetricDef> &endToEndCatalog();

/**
 * Per-layer metrics, reported with --trace 1 on every workload. A
 * layer a workload never enters reads 0 there (e.g. BA on drone-vio).
 */
const std::vector<MetricDef> &perLayerCatalog();

/** One localized frame's telemetry and the mode it ran under. */
struct TelemetrySample
{
    edx::FrameTelemetry t;
    edx::BackendMode mode = edx::BackendMode::Slam;
};

/**
 * Adds the frontend / backend (mapping, MSCKF, fusion, tracking)
 * per-layer metrics: per-frame medians over @p frames, each taken over
 * the frames whose mode runs that block. With @p core_from_telemetry
 * the core.* node times come from the same telemetry (used where the
 * benchmark cannot wrap the sub-stage calls itself, i.e. in the pool).
 */
void addTelemetryLayers(Result &r, const std::vector<TelemetrySample> &frames,
                        bool core_from_telemetry);

} // namespace locbench
