/**
 * @file
 * Single-session workloads. Each of several passes runs a window of
 * frames closed loop, one frame outstanding, on a fresh localizer
 * (per-frame latency), then feeds the frames through a FramePipeline at
 * the placement planner's cuts on another, as fast as it admits them
 * (throughput).
 *
 *  - car-slam-dense: dense-keyframing SLAM on the 1280x720 car rig —
 *    backend-bound, local BA sets the pipeline period.
 *  - drone-vio: VIO + GPS on the 640x480 drone rig — frontend-bound,
 *    BA never runs.
 *
 * Every pass computes the same poses (the streams are deterministic and
 * the pipeline is bit-identical to the sequential path). Host contention
 * only ever adds time, so a unit of work — one frame closed loop, one
 * window of pipelined completions — is timed as the lowest over the
 * passes: it keeps what the work costs and drops a burst of contention
 * that hit only one pass.
 */
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <thread>

#include "core/evaluation.hpp"
#include "layers.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/placement.hpp"
#include "scene.hpp"
#include "workloads.hpp"

namespace locbench {

namespace {

using namespace edx;

struct SingleSpec
{
    SceneType scene;
    Platform platform;
    int frames;            //!< pre-rendered frames (bounds the window)
    bool dense_keyframes;  //!< keyframe_interval = 1
    double ate_ceiling_m;  //!< pipelined-stream ATE above this fails
    int passes;            //!< passes over the window
    /** Window frames per second of budget. Each pass runs the same
     *  window, sized from the budget rather than from how fast this
     *  host happens to run, so every run times the same frames. */
    double frames_per_s;
};

SingleSpec
specFor(const std::string &workload)
{
    // A car frame costs ~3x a drone frame, so the drone affords a third
    // pass. The ATE ceilings catch a
    // diverged track, not seed-to-seed drift: over seeds 501-510 the
    // full-stream ATE read 0.05-1.56 m (car) and 2.7-8.5 m (drone VIO,
    // about 3% of the 250 m lap at worst).
    if (workload == "car-slam-dense")
        return {SceneType::IndoorUnknown, Platform::Car, 130, true, 2.0, 2,
                3.0};
    return {SceneType::OutdoorUnknown, Platform::Drone, 480, false, 12.0, 3,
            5.5};
}

/** Steady-state frames the pipelined throughput is measured over. */
constexpr int kMinPipelinedFrames = 20;
/** Completions per throughput window; pipelined_fps is the median
 *  over the steady windows of their best rate across the passes. */
constexpr int kFpsWindow = 8;

/**
 * Steady state as a rule on the result stream, latched at the first
 * frame that satisfies it:
 *  - SLAM: the BA window is full and loop detection has engaged;
 *  - VIO: the clone window is full (the error state stopped growing).
 */
class SteadyRule
{
  public:
    explicit SteadyRule(const LocalizerConfig &cfg) : cfg_(cfg) {}

    bool
    observe(const LocalizationResult &r, int index)
    {
        if (first_ >= 0)
            return true;
        const FrameTelemetry &t = r.telemetry;
        bool steady = false;
        if (r.mode == BackendMode::Slam) {
            steady = t.mapping_workload.window_keyframes >=
                         cfg_.mapping.window_size &&
                     t.mapping.loop_ms > 0.0;
        } else if (r.mode == BackendMode::Vio) {
            const int dim = t.msckf_workload.state_dim;
            steady = dim > 0 && dim == prev_dim_;
            prev_dim_ = dim;
        }
        if (steady && r.ok)
            first_ = index;
        return first_ >= 0;
    }

    int first() const { return first_; }

  private:
    const LocalizerConfig &cfg_;
    int prev_dim_ = -1;
    int first_ = -1;
};

struct Setup
{
    Scene scene;
    LocalizerConfig lcfg;
    std::vector<std::unique_ptr<Localizer>> sequential; //!< one per pass
    std::vector<std::unique_ptr<Localizer>> pipelined;  //!< one per pass
    double seconds = 0.0;
};

std::unique_ptr<Setup>
setUp(const SingleSpec &spec, uint64_t seed)
{
    const Clock::time_point t0 = Clock::now();
    auto s = std::make_unique<Setup>();
    s->lcfg = configForScenario(spec.scene);
    if (spec.dense_keyframes)
        s->lcfg.mapping.keyframe_interval = 1;

    SceneSpec ss;
    ss.scene = spec.scene;
    ss.platform = spec.platform;
    ss.frames = spec.frames;
    ss.seed = seed;
    ss.vocabulary_stride = s->lcfg.mode != BackendMode::Vio ? 10 : 0;
    s->scene = buildScene(ss);

    const Dataset &ds = *s->scene.dataset;
    auto session = [&] {
        auto loc = std::make_unique<Localizer>(s->lcfg, ds.rig(),
                                               s->scene.voc.get(), nullptr);
        loc->initialize(ds.truthAt(0), 0.0,
                        ds.trajectory().velocityAt(0.0));
        return loc;
    };
    for (int p = 0; p < spec.passes; ++p)
        s->sequential.push_back(session());
    for (int p = 0; p < spec.passes; ++p)
        s->pipelined.push_back(session());
    s->seconds = secondsSince(t0);
    return s;
}

struct SeqFrame
{
    LocalizationResult res;
    double ms = 0.0;
    bool traced = false;
    std::array<double, kPipelineNodes> node_ms{};
};

/**
 * One frame through the five sub-stage calls, each wrapped in a span on
 * trace track @p track — the same calls, in the same order, that
 * processFrame() composes.
 */
LocalizationResult
tracedFrame(Localizer &loc, const FrameInput &in, Trace &trace, int track,
            FrontendStageContext &fctx, FrontendOutput &fe,
            std::array<double, kPipelineNodes> &node_ms)
{
    const long id = in.frame_index;
    const Clock::time_point f0 = Clock::now();
    const int root = trace.open("frame", id, -1, f0, track);
    Clock::time_point a = f0;
    auto span = [&](const char *name, int node) {
        const Clock::time_point b = Clock::now();
        trace.add(name, id, root, a, b, track);
        node_ms[node] = msBetween(a, b);
        a = b;
    };
    loc.runFrontendFe(in.left, in.right, fctx, fe);
    span("core.fe", 0);
    loc.runFrontendSm(in.left, in.right, fctx, fe);
    span("core.sm", 1);
    loc.runFrontendTm(in.left, fctx, fe);
    span("core.tm", 2);
    BackendStageContext bctx;
    loc.runBackendSolve(in, fe, bctx);
    span("core.solve", 3);
    LocalizationResult res = loc.runBackendFinish(in, fe, bctx);
    span("core.finish", 4);
    trace.close(root, a);
    return res;
}

bool
samePose(const Pose &a, const Pose &b)
{
    const double va[7] = {a.rotation.w(),    a.rotation.x(),
                          a.rotation.y(),    a.rotation.z(),
                          a.translation[0], a.translation[1],
                          a.translation[2]};
    const double vb[7] = {b.rotation.w(),    b.rotation.x(),
                          b.rotation.y(),    b.rotation.z(),
                          b.translation[0], b.translation[1],
                          b.translation[2]};
    return std::memcmp(va, vb, sizeof va) == 0;
}

std::string
cutsJson(const std::vector<int> &cuts)
{
    std::string s = "[";
    for (size_t i = 0; i < cuts.size(); ++i)
        s += (i ? "," : "") + std::to_string(cuts[i]);
    return s + "]";
}

/** One pipelined pass: every result, when it completed, the stats. */
struct PipePass
{
    std::vector<LocalizationResult> results;
    std::vector<Clock::time_point> done;
    PipelineStats stats;
};

/**
 * Feeds frames [0, @p window) to @p loc through a FramePipeline at
 * @p cfg, as fast as it admits them. Spans go to @p trace when given.
 */
PipePass
runPipelined(Localizer &loc, const PipelineConfig &cfg,
             const std::vector<FrameInput> &frames, int window, Trace *trace)
{
    PipePass p;
    p.results.reserve(static_cast<size_t>(window));
    p.done.reserve(static_cast<size_t>(window));
    std::vector<Clock::time_point> submitted(static_cast<size_t>(window));
    FramePipeline pipe(loc, cfg);
    std::thread consumer([&] {
        LocalizationResult res;
        while (pipe.awaitResult(res)) {
            const Clock::time_point t = Clock::now();
            if (trace)
                trace->add("pipeline.frame", res.frame_index, -1,
                           submitted[static_cast<size_t>(res.frame_index)],
                           t, 1);
            p.done.push_back(t);
            p.results.push_back(std::move(res));
        }
    });
    for (int i = 0; i < window; ++i) {
        FrameInput in = frames[static_cast<size_t>(i)];
        const Clock::time_point a = Clock::now();
        submitted[static_cast<size_t>(i)] = a;
        pipe.submit(std::move(in));
        if (trace)
            trace->add("pipeline.submit", i, -1, a, Clock::now(), 2);
    }
    pipe.close();
    consumer.join();
    p.stats = pipe.stats();
    return p;
}

} // namespace

Result
runSingleSession(const RunOptions &opt, Trace &trace)
{
    const SingleSpec spec = specFor(opt.workload);
    Result r;

    // --- set-up, repeated; the last one is kept -----------------------
    std::vector<double> setup_s;
    std::unique_ptr<Setup> su;
    for (int k = 0; k < kSetupRepeats; ++k) {
        su.reset();
        su = setUp(spec, opt.seed);
        setup_s.push_back(su->seconds);
    }
    const std::vector<FrameInput> &frames = su->scene.frames;
    const Dataset &ds = *su->scene.dataset;
    const BackendMode mode = su->lcfg.mode;

    RssSampler rss;
    const CpuTicks ticks0 = cpuTicks();

    const int window = std::min(
        static_cast<int>(frames.size()),
        static_cast<int>(std::lround(spec.frames_per_s * opt.seconds)));

    // --- passes: each runs the window closed loop (one frame
    // outstanding) on a sequential localizer, then feeds a pipelined
    // localizer through a FramePipeline at the planned cuts as fast as
    // it admits frames. Alternating keeps the passes' samples of the
    // same work apart in time; each localizer is released after its pass.
    std::vector<SeqFrame> seq;
    seq.reserve(static_cast<size_t>(window));
    SteadyRule seq_rule(su->lcfg);
    long replay_mismatch = 0;
    std::vector<std::vector<double>> pass_ms(
        static_cast<size_t>(spec.passes));
    FrontendStageContext fctx;
    FrontendOutput fe;
    auto sequentialPass = [&](int pass) {
        std::unique_ptr<Localizer> loc =
            std::move(su->sequential[static_cast<size_t>(pass)]);
        for (int i = 0; i < window; ++i) {
            SeqFrame f;
            f.traced = trace.enabled() && i % 2 == 0;
            const Clock::time_point a = Clock::now();
            if (f.traced)
                f.res = tracedFrame(*loc, frames[i], trace, 10 + pass, fctx,
                                    fe, f.node_ms);
            else
                f.res = loc->processFrame(frames[i]);
            f.ms = msBetween(a, Clock::now());
            pass_ms[static_cast<size_t>(pass)].push_back(f.ms);
            if (pass == 0) {
                seq_rule.observe(f.res, i);
                seq.push_back(std::move(f));
                continue;
            }
            SeqFrame &best = seq[static_cast<size_t>(i)];
            if (!samePose(best.res.pose, f.res.pose) ||
                best.res.ok != f.res.ok)
                ++replay_mismatch;
            if (f.ms < best.ms) {
                best.ms = f.ms;
                best.node_ms = f.node_ms;
            }
        }
        loc.reset();
        trimHeap();
    };

    StagePlan plan;
    PipelineConfig pcfg;
    std::vector<PipePass> pipe;
    for (int pass = 0; pass < spec.passes; ++pass) {
        sequentialPass(pass);
        if (pass == 0) {
            // Plan the cuts from this run's steady sequential telemetry.
            std::vector<FrameTelemetry> steady_tel;
            for (size_t i = std::max(seq_rule.first(), 0); i < seq.size();
                 ++i)
                steady_tel.push_back(seq[i].res.telemetry);
            plan = PlacementPlanner::plan(
                PlacementPlanner::profileFromTelemetry(steady_tel, mode));
            pcfg.cuts = plan.cuts;
        }
        // The first pipelined pass runs every rendered frame, so that
        // the ATE check covers the whole trajectory.
        std::unique_ptr<Localizer> loc =
            std::move(su->pipelined[static_cast<size_t>(pass)]);
        const int n = pass == 0 ? static_cast<int>(frames.size()) : window;
        pipe.push_back(runPipelined(*loc, pcfg, frames, n,
                                    pass == 0 ? &trace : nullptr));
        loc.reset();
        trimHeap();
    }
    if (replay_mismatch > 0)
        r.violate(std::to_string(replay_mismatch) +
                  " replayed sequential poses differ from the first pass");
    const int seq_first = seq_rule.first();
    if (seq_first < 0)
        r.violate("sequential stream never reached steady state");
    const double peak_rss_b = static_cast<double>(rss.stop());
    r.addMeta("host_steal_pct", jsonNumber(stealPct(ticks0, cpuTicks())));

    // --- correctness ---------------------------------------------------
    // Every pipelined pass must localize every frame, return the
    // sequential stream bit for bit over the window, and reach steady
    // state at the same frame.
    const long n_seq = static_cast<long>(seq.size());
    long not_ok = 0, mismatched = 0, failed = 0;
    for (const SeqFrame &f : seq) {
        not_ok += f.res.ok ? 0 : 1;
        failed += f.res.ok ? 0 : 1;
    }
    r.attempted = n_seq * spec.passes;
    int pipe_first = -1;
    std::vector<Pose> estimate, truth;
    for (int pass = 0; pass < spec.passes; ++pass) {
        const std::vector<LocalizationResult> &res = pipe[pass].results;
        const long n = pass == 0 ? static_cast<long>(frames.size()) : window;
        SteadyRule rule(su->lcfg);
        r.attempted += n;
        for (long i = 0; i < n; ++i) {
            if (i >= static_cast<long>(res.size())) {
                ++not_ok;
                ++failed;
                continue;
            }
            const LocalizationResult &p = res[static_cast<size_t>(i)];
            const bool lost = !p.ok || p.frame_index != i;
            bool differs = false;
            if (i < n_seq) {
                const LocalizationResult &s = seq[static_cast<size_t>(i)].res;
                differs = !samePose(s.pose, p.pose) || s.ok != p.ok;
            }
            not_ok += lost ? 1 : 0;
            mismatched += differs ? 1 : 0;
            failed += lost || differs ? 1 : 0;
            rule.observe(p, static_cast<int>(i));
            if (pass == 0) {
                estimate.push_back(p.pose);
                truth.push_back(ds.truthAt(p.frame_index));
            }
        }
        if (rule.first() < 0 || (pass > 0 && rule.first() != pipe_first))
            pipe_first = -1;
        else if (pass == 0)
            pipe_first = rule.first();
    }
    failed += replay_mismatch;
    if (mismatched > 0)
        r.violate(std::to_string(mismatched) +
                  " pipelined poses differ from the sequential stream");
    if (not_ok > 0)
        r.violate(std::to_string(not_ok) + " frames not localized");
    const TrajectoryError err = computeTrajectoryError(estimate, truth);
    if (!(err.rmse_m <= spec.ate_ceiling_m)) {
        r.violate("ATE " + std::to_string(err.rmse_m) + " m above the " +
                  std::to_string(spec.ate_ceiling_m) + " m ceiling");
        failed += static_cast<long>(pipe.front().results.size());
    }
    r.failed = std::min(r.attempted, failed);

    // --- end-to-end ------------------------------------------------------
    std::vector<double> lat, lat_traced, lat_untraced;
    for (long i = std::max(seq_first, 0); i < n_seq; ++i) {
        const SeqFrame &f = seq[static_cast<size_t>(i)];
        (f.traced ? lat_traced : lat_untraced).push_back(f.ms);
        lat.push_back(f.ms);
    }
    const Summary latency = summarize(trace.enabled() ? lat_untraced : lat);
    if (latency.n < kMinTailSamples)
        r.violate("too few steady sequential frames for a tail");

    double fps = 0.0;
    long fps_n = 0;
    std::vector<double> first_pass_rates; // for the stage utilization
    if (pipe_first < 0) {
        r.violate("pipelined streams never reached steady state together");
    } else {
        long complete = window;
        for (const PipePass &p : pipe)
            complete = std::min(complete, static_cast<long>(p.done.size()));
        std::vector<double> rates;
        for (long k = pipe_first; k + kFpsWindow < complete;
             k += kFpsWindow) {
            double best = 0.0;
            for (const PipePass &p : pipe) {
                const double ms =
                    msBetween(p.done[static_cast<size_t>(k)],
                              p.done[static_cast<size_t>(k + kFpsWindow)]);
                const double rate = ms > 0.0 ? 1000.0 * kFpsWindow / ms : 0.0;
                if (&p == &pipe.front())
                    first_pass_rates.push_back(rate);
                best = std::max(best, rate);
            }
            rates.push_back(best);
        }
        fps = median(rates);
        fps_n = static_cast<long>(rates.size()) * kFpsWindow;
        if (window - 1 - pipe_first < kMinPipelinedFrames)
            r.violate("too few steady pipelined frames");
    }

    const Summary setup = summarize(setup_s);
    const double input_mb =
        static_cast<double>(su->scene.input_bytes) / (1024.0 * 1024.0);
    r.e2e("setup_s", setup.p50, "s", setup.n, 50);
    r.e2e("frame_latency_p50_ms", latency.p50, "ms", latency.n, 50);
    r.e2e("frame_latency_tail_ms", latency.tail, "ms", latency.n,
          latency.tail_percentile);
    r.e2e("pipelined_fps", fps, "frames/s", fps_n);
    // The only session is the workload's highest-priority session.
    r.e2e("safety_latency_tail_ms", latency.tail, "ms", latency.n,
          latency.tail_percentile);
    r.e2e("peak_rss_mb", peak_rss_b / (1024.0 * 1024.0) - input_mb, "MB");

    // --- per-layer -------------------------------------------------------
    r.layer("setup.render_s", su->scene.render_s, "s");
    r.layer("setup.vocabulary_s", su->scene.vocabulary_s, "s");
    r.layer("setup.prior_map_s", su->scene.prior_map_s, "s");
    static const char *core_names[kPipelineNodes] = {
        "core.fe_ms", "core.sm_ms", "core.tm_ms", "core.solve_ms",
        "core.finish_ms"};
    for (int n = 0; n < kPipelineNodes; ++n) {
        std::vector<double> v;
        for (long i = std::max(seq_first, 0); i < n_seq; ++i)
            if (seq[static_cast<size_t>(i)].traced)
                v.push_back(seq[static_cast<size_t>(i)].node_ms[n]);
        r.layer(core_names[n], median(v), "ms", static_cast<long>(v.size()),
                50);
    }
    std::vector<TelemetrySample> tel;
    for (long i = std::max(seq_first, 0); i < n_seq; ++i)
        tel.push_back({seq[static_cast<size_t>(i)].res.telemetry, mode});
    addTelemetryLayers(r, tel, /*core_from_telemetry=*/false);

    // Stage spans of the first pass's steady pipelined frames in the
    // window, the frames its throughput windows cover.
    const PipePass &p0 = pipe.front();
    std::array<std::vector<double>, kPipelineNodes> stage_ms;
    for (long i = std::max(pipe_first, 0);
         i < std::min(static_cast<long>(p0.results.size()),
                      static_cast<long>(window));
         ++i) {
        const FrameTelemetry &t = p0.results[static_cast<size_t>(i)].telemetry;
        for (int s = 0; s < t.pipeline_stages; ++s)
            stage_ms[static_cast<size_t>(s)].push_back(t.stage_span_ms[s]);
    }
    double bottleneck = 0.0;
    for (const std::vector<double> &v : stage_ms)
        bottleneck = std::max(bottleneck, median(v));
    const double period = fps > 0.0 ? 1000.0 / fps : 0.0;
    r.layer("runtime.pipeline.stages", p0.stats.stages, "count");
    r.layer("runtime.pipeline.bottleneck_busy_ms", bottleneck, "ms", fps_n,
            50);
    // Busy time and period of the same (first) pass.
    const double first_fps = median(first_pass_rates);
    r.layer("runtime.pipeline.bottleneck_util",
            first_fps > 0.0 ? bottleneck * first_fps / 1000.0 : 0.0, "ratio",
            fps_n);
    r.layer("runtime.pipeline.input_high_water",
            static_cast<double>(p0.stats.input_high_water), "count");
    r.layer("runtime.placement.predicted_period_ms", plan.period_ms, "ms");
    r.layer("runtime.placement.period_error",
            plan.period_ms > 0.0 && period > 0.0
                ? period / plan.period_ms - 1.0
                : 0.0,
            "ratio");
    if (trace.enabled()) {
        const double t = median(lat_traced), u = median(lat_untraced);
        r.layer("trace.overhead_pct", u > 0.0 ? 100.0 * (t / u - 1.0) : 0.0,
                "%", static_cast<long>(lat_traced.size()), 50);
    }

    // --- metadata ------------------------------------------------------
    r.addMeta("mode", jsonString(modeName(mode)));
    r.addMeta("frames_rendered", std::to_string(frames.size()));
    r.addMeta("planned_cuts", cutsJson(plan.cuts));
    r.addMeta("planned_topology", jsonString(plan.describe()));
    r.addMeta("window_frames", std::to_string(window));
    r.addMeta("passes", std::to_string(spec.passes));
    // Per-pass medians of the steady closed-loop frames: how far host
    // speed drifted between the passes of this run.
    std::string pass_p50 = "[";
    for (int p = 0; p < spec.passes; ++p) {
        const std::vector<double> &v = pass_ms[static_cast<size_t>(p)];
        const size_t from = std::min(v.size(),
                                     static_cast<size_t>(std::max(seq_first, 0)));
        pass_p50 += (p ? "," : "") +
                    jsonNumber(median(std::vector<double>(v.begin() + from,
                                                          v.end())));
    }
    r.addMeta("pass_latency_p50_ms", pass_p50 + "]");
    r.addMeta("sequential_steady_frame", std::to_string(seq_first));
    r.addMeta("pipelined_steady_frame", std::to_string(pipe_first));
    r.addMeta("ate_m", jsonNumber(err.rmse_m));
    r.addMeta("ate_frames", std::to_string(err.frames));
    r.addMeta("ate_ceiling_m", jsonNumber(spec.ate_ceiling_m));
    r.addMeta("input_mb", jsonNumber(input_mb));
    return r;
}

} // namespace locbench
