#include "scene.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench_util.hpp"
#include "core/evaluation.hpp"

namespace locbench {

namespace {

edx::DatasetConfig
datasetConfig(const SceneSpec &spec)
{
    edx::DatasetConfig d;
    d.scene = spec.scene;
    d.platform = spec.platform;
    d.frame_count = spec.frames;
    d.seed = spec.seed;
    return d;
}

/**
 * Renders every frame on up to four threads. Each thread owns its own
 * Dataset: rendering an outdoor frame updates the renderer's lighting,
 * so one Dataset must not render on two threads at once. A Dataset is
 * a pure function of its config, so every copy renders the same frames.
 */
std::vector<edx::FrameInput>
renderFrames(const SceneSpec &spec)
{
    std::vector<edx::FrameInput> frames(static_cast<size_t>(spec.frames));
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const int threads = static_cast<int>(std::min(4u, hw));
    std::atomic<int> next{0};
    auto work = [&] {
        edx::Dataset ds(datasetConfig(spec));
        for (int i = next++; i < spec.frames; i = next++) {
            edx::DatasetFrame f = ds.frame(i);
            edx::FrameInput &in = frames[static_cast<size_t>(i)];
            in.frame_index = i;
            in.t = f.t;
            in.left = std::move(f.stereo.left);
            in.right = std::move(f.stereo.right);
            in.imu = ds.imuBetweenFrames(i);
            in.gps = ds.gpsAtFrame(i);
        }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t)
        pool.emplace_back(work);
    work();
    for (std::thread &t : pool)
        t.join();
    return frames;
}

} // namespace

Scene
buildScene(const SceneSpec &spec)
{
    Scene s;
    s.dataset = std::make_unique<edx::Dataset>(datasetConfig(spec));

    Clock::time_point t0 = Clock::now();
    s.frames = renderFrames(spec);
    s.render_s = secondsSince(t0);
    for (const edx::FrameInput &f : s.frames)
        s.input_bytes += static_cast<size_t>(f.left.width()) *
                             f.left.height() +
                         static_cast<size_t>(f.right.width()) *
                             f.right.height();

    if (spec.vocabulary_stride > 0) {
        t0 = Clock::now();
        s.voc = std::make_unique<edx::Vocabulary>(
            edx::buildVocabulary(*s.dataset, spec.vocabulary_stride));
        s.vocabulary_s = secondsSince(t0);
    }
    if (spec.prior_map_stride > 0) {
        t0 = Clock::now();
        edx::MapBuildConfig mcfg;
        mcfg.seed = spec.seed + 1;
        mcfg.frame_stride = spec.prior_map_stride;
        s.prior_map = std::make_unique<edx::Map>(
            edx::buildPriorMap(*s.dataset, *s.voc, mcfg));
        s.prior_map_s = secondsSince(t0);
    }
    return s;
}

} // namespace locbench
