#include "layers.hpp"

#include <functional>

#include "runtime/placement.hpp"

namespace locbench {

const std::vector<MetricDef> &
endToEndCatalog()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s", "lower"},
        {"frame_latency_p50_ms", "ms", "lower"},
        {"frame_latency_tail_ms", "ms", "lower"},
        {"pipelined_fps", "frames/s", "higher"},
        {"safety_latency_tail_ms", "ms", "lower"},
        {"peak_rss_mb", "MB", "lower"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerCatalog()
{
    static const std::vector<MetricDef> defs = {
        // sim: set-up
        {"setup.render_s", "s", "lower"},
        {"setup.vocabulary_s", "s", "lower"},
        {"setup.prior_map_s", "s", "lower"},
        // core: the five sub-stage nodes of a frame
        {"core.fe_ms", "ms", "lower"},
        {"core.sm_ms", "ms", "lower"},
        {"core.tm_ms", "ms", "lower"},
        {"core.solve_ms", "ms", "lower"},
        {"core.finish_ms", "ms", "lower"},
        // frontend blocks and workload
        {"frontend.fd_ms", "ms", "lower"},
        {"frontend.if_ms", "ms", "lower"},
        {"frontend.fc_ms", "ms", "lower"},
        {"frontend.mo_ms", "ms", "lower"},
        {"frontend.dr_ms", "ms", "lower"},
        {"frontend.tm_ms", "ms", "lower"},
        {"frontend.features", "count", "lower"},
        {"frontend.stereo_candidates", "count", "lower"},
        {"frontend.stereo_matches", "count", "higher"},
        {"frontend.temporal_tracks", "count", "higher"},
        {"frontend.stereo_match_yield", "ratio", "higher"},
        // backend: SLAM mapping
        {"backend.mapping.solver_ms", "ms", "lower"},
        {"backend.mapping.marginalization_ms", "ms", "lower"},
        {"backend.mapping.loop_ms", "ms", "lower"},
        {"backend.mapping.others_ms", "ms", "lower"},
        {"backend.mapping.residuals", "count", "lower"},
        {"backend.mapping.window_keyframes", "count", "lower"},
        {"backend.mapping.window_landmarks", "count", "lower"},
        // backend: MSCKF and GPS fusion
        {"backend.msckf.total_ms", "ms", "lower"},
        {"backend.msckf.qr_ms", "ms", "lower"},
        {"backend.msckf.kalman_gain_ms", "ms", "lower"},
        {"backend.msckf.stacked_rows", "count", "lower"},
        {"backend.fusion_ms", "ms", "lower"},
        // backend: tracking (SLAM and registration)
        {"backend.tracking.total_ms", "ms", "lower"},
        {"backend.tracking.projection_ms", "ms", "lower"},
        {"backend.tracking.pose_opt_ms", "ms", "lower"},
        {"backend.tracking.map_points_projected", "count", "lower"},
        {"backend.tracking.inlier_ratio", "ratio", "higher"},
        // runtime: pipeline and placement
        {"runtime.pipeline.stages", "count", "lower"},
        {"runtime.pipeline.bottleneck_busy_ms", "ms", "lower"},
        {"runtime.pipeline.bottleneck_util", "ratio", "higher"},
        {"runtime.pipeline.input_high_water", "count", "lower"},
        {"runtime.placement.predicted_period_ms", "ms", "lower"},
        {"runtime.placement.period_error", "ratio", "lower"},
        // runtime: pool serving
        {"runtime.pool.submit_p50_ms", "ms", "lower"},
        {"runtime.pool.submit_max_ms", "ms", "lower"},
        {"runtime.pool.queue_wait_p50_ms", "ms", "lower"},
        {"runtime.pool.queue_wait_tail_ms", "ms", "lower"},
        {"runtime.pool.service_ms", "ms", "lower"},
        {"runtime.pool.dropped", "count", "lower"},
        {"runtime.pool.workers", "count", "lower"},
        {"generator.lag_ms", "ms", "lower"},
        // map: the shared-map service
        {"map.contributions", "count", "higher"},
        {"map.keyframes_ingested", "count", "higher"},
        {"map.merges", "count", "higher"},
        {"map.merge_max_ms", "ms", "lower"},
        {"map.publish_max_ms", "ms", "lower"},
        {"map.epochs_published", "count", "higher"},
        {"map.cross_session_loops", "count", "higher"},
        {"map.epoch_acquire_max_ms", "ms", "lower"},
        // cost of the trace itself
        {"trace.overhead_pct", "%", "lower"},
    };
    return defs;
}

namespace {

using edx::BackendMode;
using edx::FrameTelemetry;

/** Median of @p f over the frames selected by @p use. */
void
addMedian(Result &r, const char *name, const char *unit,
          const std::vector<TelemetrySample> &frames,
          const std::function<bool(const TelemetrySample &)> &use,
          const std::function<double(const FrameTelemetry &)> &f)
{
    std::vector<double> v;
    for (const TelemetrySample &s : frames)
        if (use(s))
            v.push_back(f(s.t));
    r.layer(name, median(v), unit, static_cast<long>(v.size()), 50.0);
}

} // namespace

void
addTelemetryLayers(Result &r, const std::vector<TelemetrySample> &frames,
                   bool core_from_telemetry)
{
    auto all = [](const TelemetrySample &) { return true; };
    // Sessions that keyframe sparsely run BA on few frames; the mapping
    // medians are taken over the frames whose local BA ran.
    auto ba = [](const TelemetrySample &s) {
        return s.mode == BackendMode::Slam && s.t.mapping.solver_ms > 0.0;
    };
    auto vio = [](const TelemetrySample &s) {
        return s.mode == BackendMode::Vio;
    };
    auto tracking = [](const TelemetrySample &s) {
        return s.mode != BackendMode::Vio;
    };

    if (core_from_telemetry) {
        static const char *names[edx::kPipelineNodes] = {
            "core.fe_ms", "core.sm_ms", "core.tm_ms", "core.solve_ms",
            "core.finish_ms"};
        for (int n = 0; n < edx::kPipelineNodes; ++n) {
            std::vector<double> v;
            for (const TelemetrySample &s : frames)
                v.push_back(edx::pipeNodeMs(s.t, s.mode, n));
            r.layer(names[n], median(v), "ms",
                    static_cast<long>(v.size()), 50.0);
        }
    }

    addMedian(r, "frontend.fd_ms", "ms", frames, all,
              [](const FrameTelemetry &t) { return t.frontend.fd_ms; });
    addMedian(r, "frontend.if_ms", "ms", frames, all,
              [](const FrameTelemetry &t) { return t.frontend.if_ms; });
    addMedian(r, "frontend.fc_ms", "ms", frames, all,
              [](const FrameTelemetry &t) { return t.frontend.fc_ms; });
    addMedian(r, "frontend.mo_ms", "ms", frames, all,
              [](const FrameTelemetry &t) { return t.frontend.mo_ms; });
    addMedian(r, "frontend.dr_ms", "ms", frames, all,
              [](const FrameTelemetry &t) { return t.frontend.dr_ms; });
    addMedian(r, "frontend.tm_ms", "ms", frames, all,
              [](const FrameTelemetry &t) { return t.frontend.tm_ms; });
    addMedian(r, "frontend.features", "count", frames, all,
              [](const FrameTelemetry &t) {
                  return double(t.frontend_workload.left_features +
                                t.frontend_workload.right_features);
              });
    addMedian(r, "frontend.stereo_candidates", "count", frames, all,
              [](const FrameTelemetry &t) {
                  return double(t.frontend_workload.stereo_candidates);
              });
    addMedian(r, "frontend.stereo_matches", "count", frames, all,
              [](const FrameTelemetry &t) {
                  return double(t.frontend_workload.stereo_matches);
              });
    addMedian(r, "frontend.temporal_tracks", "count", frames, all,
              [](const FrameTelemetry &t) {
                  return double(t.frontend_workload.temporal_tracks);
              });
    addMedian(r, "frontend.stereo_match_yield", "ratio", frames, all,
              [](const FrameTelemetry &t) {
                  const int c = t.frontend_workload.stereo_candidates;
                  return c > 0 ? double(t.frontend_workload.stereo_matches) /
                                     c
                               : 0.0;
              });

    addMedian(r, "backend.mapping.solver_ms", "ms", frames, ba,
              [](const FrameTelemetry &t) { return t.mapping.solver_ms; });
    addMedian(r, "backend.mapping.marginalization_ms", "ms", frames, ba,
              [](const FrameTelemetry &t) {
                  return t.mapping.marginalization_ms;
              });
    addMedian(r, "backend.mapping.loop_ms", "ms", frames, ba,
              [](const FrameTelemetry &t) { return t.mapping.loop_ms; });
    addMedian(r, "backend.mapping.others_ms", "ms", frames, ba,
              [](const FrameTelemetry &t) { return t.mapping.others_ms; });
    addMedian(r, "backend.mapping.residuals", "count", frames, ba,
              [](const FrameTelemetry &t) {
                  return double(t.mapping_workload.residual_count);
              });
    addMedian(r, "backend.mapping.window_keyframes", "count", frames, ba,
              [](const FrameTelemetry &t) {
                  return double(t.mapping_workload.window_keyframes);
              });
    addMedian(r, "backend.mapping.window_landmarks", "count", frames, ba,
              [](const FrameTelemetry &t) {
                  return double(t.mapping_workload.window_landmarks);
              });

    addMedian(r, "backend.msckf.total_ms", "ms", frames, vio,
              [](const FrameTelemetry &t) { return t.msckf.total(); });
    addMedian(r, "backend.msckf.qr_ms", "ms", frames, vio,
              [](const FrameTelemetry &t) { return t.msckf.qr_ms; });
    addMedian(r, "backend.msckf.kalman_gain_ms", "ms", frames, vio,
              [](const FrameTelemetry &t) { return t.msckf.kalman_gain_ms; });
    addMedian(r, "backend.msckf.stacked_rows", "count", frames, vio,
              [](const FrameTelemetry &t) {
                  return double(t.msckf_workload.stacked_rows);
              });
    addMedian(r, "backend.fusion_ms", "ms", frames, vio,
              [](const FrameTelemetry &t) { return t.fusion_ms; });

    addMedian(r, "backend.tracking.total_ms", "ms", frames, tracking,
              [](const FrameTelemetry &t) { return t.tracking.total(); });
    addMedian(r, "backend.tracking.projection_ms", "ms", frames, tracking,
              [](const FrameTelemetry &t) {
                  return t.tracking.projection_ms;
              });
    addMedian(r, "backend.tracking.pose_opt_ms", "ms", frames, tracking,
              [](const FrameTelemetry &t) { return t.tracking.pose_opt_ms; });
    addMedian(r, "backend.tracking.map_points_projected", "count", frames,
              tracking, [](const FrameTelemetry &t) {
                  return double(t.tracking_workload.map_points_projected);
              });
    addMedian(r, "backend.tracking.inlier_ratio", "ratio", frames, tracking,
              [](const FrameTelemetry &t) {
                  const int n = t.tracking_workload.pose_opt_points;
                  return n > 0 && t.tracking_inliers >= 0
                             ? double(t.tracking_inliers) / n
                             : 0.0;
              });
}

} // namespace locbench
