/**
 * @file
 * fleet-shared-map: one LocalizerPool serving four drone sessions over
 * one live MapService seeded with the prior map.
 *
 *  - two registration readers, one SAFETY_CRITICAL (one reserved
 *    worker) and one STANDARD, track against published map epochs;
 *  - two STANDARD SLAM surveyors contribute retired keyframes.
 *
 * Every session starts at its own point of the loop. Frames arrive open
 * loop, for the whole timed phase, at a fixed per-session camera rate
 * (about a third of the pool's capacity on a 4-thread host), and
 * latency is timed from when each frame was due.
 */
#include <algorithm>
#include <thread>

#include "core/evaluation.hpp"
#include "layers.hpp"
#include "map/map_service.hpp"
#include "runtime/localizer_pool.hpp"
#include "scene.hpp"
#include "workloads.hpp"

namespace locbench {

namespace {

using namespace edx;

/** One lap of the indoor drone loop (the trajectory period at 10 fps):
 *  frame kLapFrames is the pose of frame 0, so sessions wrap around. */
constexpr int kLapFrames = 300;
constexpr double kDatasetFps = 10.0;

/** Open-loop camera rate of every session, frames/s. */
constexpr double kSessionFps = 5.0;

/** ATE ceiling of the safety-critical reader. */
constexpr double kAteCeilingM = 0.5;

/** How often the generator checks whether the readers adopted an epoch. */
constexpr double kSteadyPollMs = 100.0;

struct SessionPlan
{
    const char *role;
    BackendMode mode;
    QosClass qos;
    int offset; //!< start frame on the loop
};

const SessionPlan kSessions[] = {
    {"reader-safety", BackendMode::Registration, QosClass::SafetyCritical, 0},
    {"reader-standard", BackendMode::Registration, QosClass::Standard, 150},
    {"surveyor-a", BackendMode::Slam, QosClass::Standard, 75},
    {"surveyor-b", BackendMode::Slam, QosClass::Standard, 225},
};
constexpr int kSessionCount = 4;

struct FleetSetup
{
    Scene scene;
    std::unique_ptr<MapService> service;
    std::unique_ptr<LocalizerPool> pool; // borrows scene + service
    std::vector<int> sids;
    uint64_t seed_epoch = 0;
    double seconds = 0.0;
};

std::unique_ptr<FleetSetup>
setUp(uint64_t seed)
{
    const Clock::time_point t0 = Clock::now();
    auto s = std::make_unique<FleetSetup>();
    SceneSpec ss;
    ss.scene = SceneType::IndoorKnown;
    ss.platform = Platform::Drone;
    ss.frames = kLapFrames;
    ss.seed = seed;
    ss.vocabulary_stride = 20;
    ss.prior_map_stride = 8;
    s->scene = buildScene(ss);
    const Dataset &ds = *s->scene.dataset;

    s->service = std::make_unique<MapService>(s->scene.voc.get(), ds.rig());
    s->service->seed(*s->scene.prior_map);
    s->service->flush();
    s->seed_epoch = s->service->currentEpoch()->epoch;

    PoolConfig pcfg;
    const int hw =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    pcfg.workers = std::max(2, hw - 1);
    pcfg.reserved_workers = 1;
    pcfg.queue_capacity = 16;
    pcfg.map_service = s->service.get();
    s->pool = std::make_unique<LocalizerPool>(pcfg);

    for (const SessionPlan &p : kSessions) {
        LocalizerConfig lcfg = configForScenario(SceneType::IndoorKnown);
        lcfg.mode = p.mode;
        if (p.mode == BackendMode::Slam) {
            // Retire (= contribute) keyframes early and often.
            lcfg.mapping.keyframe_interval = 3;
            lcfg.mapping.window_size = 4;
        }
        SessionConfig sc;
        sc.qos = p.qos;
        const double t_start = p.offset / kDatasetFps;
        s->sids.push_back(s->pool->createSession(
            lcfg, ds.rig(), s->scene.voc.get(),
            p.mode == BackendMode::Registration ? s->scene.prior_map.get()
                                                : nullptr,
            ds.truthAt(p.offset), t_start,
            ds.trajectory().velocityAt(t_start), sc));
    }
    s->seconds = secondsSince(t0);
    return s;
}

/** Session @p s's frame @p k: loop frame (offset + k) on its own clock. */
FrameInput
sessionFrame(const Scene &scene, int s, long k)
{
    const long pos = kSessions[s].offset + k;
    FrameInput in = scene.frames[static_cast<size_t>(pos % kLapFrames)];
    in.frame_index = static_cast<int>(k);
    in.t = pos / kDatasetFps;
    return in;
}

/** When an open-loop frame was due, and its trace span. */
struct Arrival
{
    Clock::time_point due;
    int root_span = -1;
};

} // namespace

Result
runFleet(const RunOptions &opt, Trace &trace)
{
    Result r;
    std::vector<double> setup_s;
    std::unique_ptr<FleetSetup> su;
    for (int k = 0; k < kSetupRepeats; ++k) {
        su.reset();
        su = setUp(opt.seed);
        setup_s.push_back(su->seconds);
    }
    LocalizerPool &pool = *su->pool;
    const Scene &scene = su->scene;

    const long open_frames = static_cast<long>(opt.seconds * kSessionFps);

    std::vector<std::vector<Arrival>> arrivals(kSessionCount);
    std::vector<std::vector<PoolResult>> results(kSessionCount);
    std::vector<std::vector<Clock::time_point>> done(kSessionCount);
    for (int s = 0; s < kSessionCount; ++s) {
        arrivals[s].resize(static_cast<size_t>(open_frames));
        results[s].resize(static_cast<size_t>(open_frames));
        done[s].resize(static_cast<size_t>(open_frames));
    }
    std::vector<double> submit_ms, lag_ms;

    RssSampler rss;
    const CpuTicks ticks0 = cpuTicks();
    std::thread consumer([&] {
        PoolResult pr;
        while (pool.awaitResult(pr)) {
            const Clock::time_point t = Clock::now();
            int s = 0;
            while (su->sids[s] != pr.session_id)
                ++s;
            const size_t k = static_cast<size_t>(pr.result.frame_index);
            trace.close(arrivals[s][k].root_span, t);
            done[s][k] = t;
            results[s][k] = std::move(pr);
        }
    });

    // --- open loop: every session at kSessionFps, phases staggered ----
    const Clock::time_point t0 = Clock::now();
    Clock::time_point next_poll = t0;
    Clock::time_point steady_at = Clock::time_point::max();
    auto pollSteady = [&](Clock::time_point now) {
        if (steady_at != Clock::time_point::max() || now < next_poll)
            return;
        next_poll = now + std::chrono::microseconds(
                              static_cast<long>(kSteadyPollMs * 1000));
        const PoolStats st = pool.stats();
        bool adopted = true;
        for (int s = 0; s < kSessionCount; ++s)
            if (kSessions[s].mode == BackendMode::Registration &&
                st.sessions[static_cast<size_t>(su->sids[s])].map_epoch <=
                    su->seed_epoch)
                adopted = false;
        if (adopted)
            steady_at = now;
    };
    std::vector<long> submitted(kSessionCount, 0);
    for (long k = 0; k < open_frames; ++k) {
        for (int s = 0; s < kSessionCount; ++s) {
            const Clock::time_point due =
                t0 + std::chrono::microseconds(static_cast<long>(
                         1e6 * (k + s / double(kSessionCount)) /
                         kSessionFps));
            FrameInput in = sessionFrame(scene, s, k);
            Clock::time_point now = Clock::now();
            while (now < due) {
                pollSteady(now);
                const bool polling = steady_at == Clock::time_point::max();
                std::this_thread::sleep_until(polling ? std::min(due, next_poll)
                                                      : due);
                now = Clock::now();
            }
            Arrival &a = arrivals[s][static_cast<size_t>(k)];
            a.due = due;
            const long id = s * 1000000L + k;
            if (trace.enabled() && k % 2 == 0)
                a.root_span = trace.open("frame", id, -1, due, 10 + s);
            const Clock::time_point b = Clock::now();
            pool.submit(su->sids[s], std::move(in));
            const Clock::time_point c = Clock::now();
            trace.add("pool.submit", id, a.root_span, b, c, 10 + s);
            lag_ms.push_back(msBetween(due, b));
            submit_ms.push_back(msBetween(b, c));
            ++submitted[s];
        }
    }
    pollSteady(Clock::now());
    pool.drain();
    pool.shutdown();
    consumer.join();
    const double peak_rss_b = static_cast<double>(rss.stop());
    su->service->flush();
    r.addMeta("host_steal_pct", jsonNumber(stealPct(ticks0, cpuTicks())));
    const PoolStats st = pool.stats();

    // --- correctness ---------------------------------------------------
    long attempted = 0, failed = 0, not_ok = 0, missing = 0;
    for (int s = 0; s < kSessionCount; ++s) {
        const SessionPoolStats &ss =
            st.sessions[static_cast<size_t>(su->sids[s])];
        attempted += submitted[s];
        if (ss.submitted != submitted[s] ||
            ss.submitted != ss.completed + ss.dropped())
            r.violate(std::string(kSessions[s].role) + ": submitted " +
                      std::to_string(ss.submitted) + " != completed " +
                      std::to_string(ss.completed) + " + dropped " +
                      std::to_string(ss.dropped()));
        failed += ss.dropped();
        for (long k = 0; k < submitted[s]; ++k) {
            const PoolResult &pr = results[s][static_cast<size_t>(k)];
            if (pr.session_id < 0)
                ++missing;
            else if (!pr.result.ok)
                ++not_ok;
        }
    }
    failed += missing + not_ok;
    if (missing > 0)
        r.violate(std::to_string(missing) + " frames never returned");
    if (not_ok > 0)
        r.violate(std::to_string(not_ok) + " frames not localized");

    // ATE of the safety-critical reader over everything it localized.
    std::vector<Pose> estimate, truth;
    for (long k = 0; k < submitted[0]; ++k) {
        const PoolResult &pr = results[0][static_cast<size_t>(k)];
        if (pr.session_id < 0)
            continue;
        estimate.push_back(pr.result.pose);
        truth.push_back(
            scene.dataset->truthAt((kSessions[0].offset + k) % kLapFrames));
    }
    const TrajectoryError err = computeTrajectoryError(estimate, truth);
    if (!(err.rmse_m <= kAteCeilingM)) {
        r.violate("safety reader ATE " + std::to_string(err.rmse_m) +
                  " m above the " + std::to_string(kAteCeilingM) +
                  " m ceiling");
        failed += submitted[0];
    }
    r.attempted = attempted;
    r.failed = std::min(attempted, failed);

    // --- steady state: every reader adopted a contributed epoch -------
    long steady_frame = -1;
    if (steady_at == Clock::time_point::max()) {
        r.violate("readers never adopted a contributed map epoch");
    } else {
        for (long k = 0; k < open_frames && steady_frame < 0; ++k)
            if (arrivals[0][static_cast<size_t>(k)].due >= steady_at)
                steady_frame = k;
        if (steady_frame < 0)
            r.violate("steady state began after the open-loop phase");
    }

    // --- end-to-end ------------------------------------------------------
    std::vector<double> lat, safety, traced, untraced;
    std::vector<TelemetrySample> tel;
    std::vector<double> queue_wait, service;
    for (int s = 0; s < kSessionCount; ++s) {
        for (long k = std::max(steady_frame, 0L);
             steady_frame >= 0 && k < open_frames; ++k) {
            const size_t i = static_cast<size_t>(k);
            const PoolResult &pr = results[s][i];
            if (pr.session_id < 0)
                continue;
            const double ms = msBetween(arrivals[s][i].due, done[s][i]);
            const bool is_traced = arrivals[s][i].root_span >= 0;
            (is_traced ? traced : untraced).push_back(ms);
            if (trace.enabled() && is_traced)
                continue;
            lat.push_back(ms);
            if (kSessions[s].qos == QosClass::SafetyCritical)
                safety.push_back(ms);
            tel.push_back({pr.result.telemetry, pr.result.mode});
            queue_wait.push_back(pr.result.telemetry.queue_wait_ms);
            service.push_back(pr.result.telemetry.totalMs(pr.result.mode));
        }
    }
    const Summary latency = summarize(lat);
    const Summary safety_lat = summarize(safety);
    if (safety_lat.n < kMinTailSamples)
        r.violate("too few steady safety-critical frames for a tail");

    // Served rate: steady results per second, from the first to the last
    // steady completion. It holds the offered rate while the pool keeps
    // up and falls behind it when a backlog grows.
    std::vector<Clock::time_point> served;
    for (int s = 0; s < kSessionCount; ++s)
        for (long k = std::max(steady_frame, 0L);
             steady_frame >= 0 && k < open_frames; ++k)
            if (results[s][static_cast<size_t>(k)].session_id >= 0)
                served.push_back(done[s][static_cast<size_t>(k)]);
    double served_fps = 0.0;
    if (served.size() > 1) {
        const auto [lo, hi] = std::minmax_element(served.begin(), served.end());
        const double span_ms = msBetween(*lo, *hi);
        served_fps = span_ms > 0.0 ? 1000.0 * (served.size() - 1) / span_ms
                                   : 0.0;
    }

    const Summary setup = summarize(setup_s);
    const double input_mb =
        static_cast<double>(scene.input_bytes) / (1024.0 * 1024.0);
    r.e2e("setup_s", setup.p50, "s", setup.n, 50);
    r.e2e("frame_latency_p50_ms", latency.p50, "ms", latency.n, 50);
    r.e2e("frame_latency_tail_ms", latency.tail, "ms", latency.n,
          latency.tail_percentile);
    // The fleet has no FramePipeline: its throughput is the served rate.
    r.e2e("pipelined_fps", served_fps, "frames/s",
          static_cast<long>(served.size()));
    r.e2e("safety_latency_tail_ms", safety_lat.tail, "ms", safety_lat.n,
          safety_lat.tail_percentile);
    r.e2e("peak_rss_mb", peak_rss_b / (1024.0 * 1024.0) - input_mb, "MB");

    // --- per-layer -------------------------------------------------------
    r.layer("setup.render_s", scene.render_s, "s");
    r.layer("setup.vocabulary_s", scene.vocabulary_s, "s");
    r.layer("setup.prior_map_s", scene.prior_map_s, "s");
    addTelemetryLayers(r, tel, /*core_from_telemetry=*/true);
    const Summary submit = summarize(submit_ms);
    const Summary wait = summarize(queue_wait);
    double submit_max = 0.0, lag_max = 0.0;
    for (double v : submit_ms)
        submit_max = std::max(submit_max, v);
    for (double v : lag_ms)
        lag_max = std::max(lag_max, v);
    r.layer("runtime.pool.submit_p50_ms", submit.p50, "ms", submit.n, 50);
    r.layer("runtime.pool.submit_max_ms", submit_max, "ms", submit.n, 100);
    r.layer("runtime.pool.queue_wait_p50_ms", wait.p50, "ms", wait.n, 50);
    r.layer("runtime.pool.queue_wait_tail_ms", wait.tail, "ms", wait.n,
            wait.tail_percentile);
    r.layer("runtime.pool.service_ms", median(service), "ms",
            static_cast<long>(service.size()), 50);
    r.layer("runtime.pool.dropped", static_cast<double>(st.dropped), "count");
    r.layer("runtime.pool.workers", st.workers, "count");
    r.layer("generator.lag_ms", lag_max, "ms",
            static_cast<long>(lag_ms.size()), 100);

    const MapServiceStats &ms = st.map_service;
    double acquire_max = 0.0;
    for (const SessionPoolStats &ss : st.sessions)
        acquire_max = std::max(acquire_max, ss.epoch_acquire_max_ms);
    r.layer("map.contributions", static_cast<double>(ms.contributions),
            "count");
    r.layer("map.keyframes_ingested",
            static_cast<double>(ms.keyframes_ingested), "count");
    r.layer("map.merges", static_cast<double>(ms.merges), "count");
    r.layer("map.merge_max_ms", ms.max_merge_ms, "ms");
    r.layer("map.publish_max_ms", ms.max_publish_ms, "ms");
    r.layer("map.epochs_published", static_cast<double>(ms.epochs_published),
            "count");
    r.layer("map.cross_session_loops",
            static_cast<double>(ms.cross_session_loops), "count");
    r.layer("map.epoch_acquire_max_ms", acquire_max, "ms");
    if (trace.enabled()) {
        const double t = median(traced), u = median(untraced);
        r.layer("trace.overhead_pct", u > 0.0 ? 100.0 * (t / u - 1.0) : 0.0,
                "%", static_cast<long>(traced.size()), 50);
    }

    // --- metadata ------------------------------------------------------
    r.addMeta("session_fps", jsonNumber(kSessionFps));
    r.addMeta("open_loop_frames_per_session", std::to_string(open_frames));
    r.addMeta("steady_frame", std::to_string(steady_frame));
    r.addMeta("pool_workers", std::to_string(st.workers));
    r.addMeta("reserved_workers", "1");
    r.addMeta("ate_m", jsonNumber(err.rmse_m));
    r.addMeta("ate_frames", std::to_string(err.frames));
    r.addMeta("ate_ceiling_m", jsonNumber(kAteCeilingM));
    r.addMeta("input_mb", jsonNumber(input_mb));
    std::string sess = "[";
    for (int s = 0; s < kSessionCount; ++s)
        sess += std::string(s ? "," : "") + "{\"role\":" +
                jsonString(kSessions[s].role) + ",\"qos\":" +
                jsonString(qosClassName(kSessions[s].qos)) +
                ",\"offset\":" + std::to_string(kSessions[s].offset) +
                ",\"submitted\":" + std::to_string(submitted[s]) + "}";
    r.addMeta("sessions", sess + "]");
    return r;
}

} // namespace locbench
