/**
 * @file
 * The benchmark's workloads. Each one builds its inputs from the seed
 * during set-up, drives the library only through its public serving
 * APIs (Localizer, FramePipeline, LocalizerPool, MapService), checks
 * its outputs and fills a Result.
 */
#pragma once

#include <cstdint>
#include <string>

#include "bench_util.hpp"

namespace locbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0; //!< timed-phase budget
    bool trace = false;
};

/** Number of times set-up is repeated; setup_s is their median. */
constexpr int kSetupRepeats = 3;

/** car-slam-dense and drone-vio. */
Result runSingleSession(const RunOptions &opt, Trace &trace);

/** fleet-shared-map. */
Result runFleet(const RunOptions &opt, Trace &trace);

} // namespace locbench
