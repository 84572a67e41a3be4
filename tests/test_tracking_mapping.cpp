/**
 * @file
 * Unit tests for the tracking and mapping blocks at the module level:
 * the Tracker against prior maps (registration) and the Mapper's
 * keyframe/BA/marginalization machinery (SLAM), below the full
 * Localizer integration level.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "backend/mapping.hpp"
#include "backend/tracking.hpp"
#include "core/evaluation.hpp"
#include "frontend/frontend.hpp"
#include "math/cpu_features.hpp"
#include "sim/dataset.hpp"

namespace edx {
namespace {

DatasetConfig
scene(SceneType type, int frames, uint64_t seed = 31)
{
    DatasetConfig cfg;
    cfg.scene = type;
    cfg.platform = Platform::Drone;
    cfg.frame_count = frames;
    cfg.fps = 10.0;
    cfg.seed = seed;
    return cfg;
}

/** Shared fixture: dataset + vocabulary + prior map, built once. */
class TrackerFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        dataset_ = new Dataset(scene(SceneType::IndoorKnown, 24));
        voc_ = new Vocabulary(buildVocabulary(*dataset_, 6));
        map_ = new Map(buildPriorMap(*dataset_, *voc_));
    }

    static void
    TearDownTestSuite()
    {
        delete map_;
        delete voc_;
        delete dataset_;
        map_ = nullptr;
        voc_ = nullptr;
        dataset_ = nullptr;
    }

    FrontendOutput
    frontendFor(int frame)
    {
        VisionFrontend fe;
        DatasetFrame f = dataset_->frame(frame);
        return fe.processFrame(f.stereo.left, f.stereo.right);
    }

    static Dataset *dataset_;
    static Vocabulary *voc_;
    static Map *map_;
};

Dataset *TrackerFixture::dataset_ = nullptr;
Vocabulary *TrackerFixture::voc_ = nullptr;
Map *TrackerFixture::map_ = nullptr;

TEST_F(TrackerFixture, TracksWithPosePrediction)
{
    Tracker tracker(map_, voc_, dataset_->rig().cam,
                    dataset_->rig().body_from_camera);
    FrontendOutput fe = frontendFor(5);
    TrackingResult r = tracker.track(fe, dataset_->truthAt(5));
    ASSERT_TRUE(r.ok);
    EXPECT_GT(r.inliers, 20);
    EXPECT_FALSE(r.relocalized);
    EXPECT_LT(r.pose.distanceTo(dataset_->truthAt(5)).translational,
              0.3);
}

TEST_F(TrackerFixture, RelocalizesWithoutPrediction)
{
    Tracker tracker(map_, voc_, dataset_->rig().cam,
                    dataset_->rig().body_from_camera);
    FrontendOutput fe = frontendFor(6);
    TrackingResult r = tracker.track(fe, std::nullopt);
    ASSERT_TRUE(r.ok) << "BoW relocalization failed";
    EXPECT_TRUE(r.relocalized);
    EXPECT_LT(r.pose.distanceTo(dataset_->truthAt(6)).translational,
              1.0);
}

TEST_F(TrackerFixture, BadPredictionFailsGracefully)
{
    Tracker tracker(map_, voc_, dataset_->rig().cam,
                    dataset_->rig().body_from_camera);
    FrontendOutput fe = frontendFor(5);
    // A prediction far outside the room: projection finds nothing.
    Pose far_away(Quat::identity(), Vec3{500.0, 500.0, 0.0});
    TrackingResult r = tracker.track(fe, far_away);
    EXPECT_FALSE(r.ok);
}

TEST_F(TrackerFixture, WorkloadRecordsProjectionSize)
{
    Tracker tracker(map_, voc_, dataset_->rig().cam,
                    dataset_->rig().body_from_camera);
    FrontendOutput fe = frontendFor(5);
    TrackingResult r = tracker.track(fe, dataset_->truthAt(5));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.workload.map_points_projected, map_->pointCount());
    EXPECT_GT(r.workload.pose_opt_points, 0);
    EXPECT_GT(r.timing.projection_ms, 0.0);
}

TEST_F(TrackerFixture, EmptyMapNeverLocalizes)
{
    Map empty;
    Tracker tracker(&empty, voc_, dataset_->rig().cam,
                    dataset_->rig().body_from_camera);
    FrontendOutput fe = frontendFor(3);
    TrackingResult r = tracker.track(fe, dataset_->truthAt(3));
    EXPECT_FALSE(r.ok);
}

// --- Mapper ---------------------------------------------------------------

TEST(Mapper, InsertsKeyframesOnCadenceAndGrowsMap)
{
    Dataset d(scene(SceneType::IndoorUnknown, 16));
    Vocabulary voc = buildVocabulary(d, 5);
    MappingConfig mcfg;
    mcfg.keyframe_interval = 4;
    Mapper mapper(d.rig(), &voc, mcfg);

    VisionFrontend fe;
    int keyframes = 0;
    for (int i = 0; i < d.frameCount(); ++i) {
        DatasetFrame f = d.frame(i);
        FrontendOutput out =
            fe.processFrame(f.stereo.left, f.stereo.right);
        MappingResult r = mapper.processFrame(out, d.truthAt(i));
        keyframes += r.keyframe_added ? 1 : 0;
    }
    EXPECT_EQ(keyframes, mapper.keyframesInserted());
    EXPECT_NEAR(keyframes, d.frameCount() / mcfg.keyframe_interval, 1);
    EXPECT_GT(mapper.map().pointCount(), 100);
    EXPECT_EQ(mapper.map().keyframeCount(), keyframes);
}

TEST(Mapper, BundleAdjustmentKeepsTruthInitializedPosesAccurate)
{
    Dataset d(scene(SceneType::IndoorUnknown, 20));
    Vocabulary voc = buildVocabulary(d, 5);
    MappingConfig mcfg;
    mcfg.keyframe_interval = 2;
    mcfg.window_size = 6;
    Mapper mapper(d.rig(), &voc, mcfg);

    VisionFrontend fe;
    for (int i = 0; i < d.frameCount(); ++i) {
        DatasetFrame f = d.frame(i);
        FrontendOutput out =
            fe.processFrame(f.stereo.left, f.stereo.right);
        mapper.processFrame(out, d.truthAt(i));
    }
    // BA over truth-initialized poses must not push keyframes away from
    // the truth (it refines landmarks against consistent observations).
    double worst = 0.0;
    for (const Keyframe &kf : mapper.map().keyframes()) {
        double err = kf.pose
                         .distanceTo(d.trajectory().poseAt(
                             kf.id * mcfg.keyframe_interval /
                             d.config().fps))
                         .translational;
        worst = std::max(worst, err);
    }
    EXPECT_LT(worst, 0.5) << "BA corrupted keyframe poses";
}

TEST(Mapper, MarginalizationStartsWhenWindowFills)
{
    Dataset d(scene(SceneType::IndoorUnknown, 24));
    Vocabulary voc = buildVocabulary(d, 6);
    MappingConfig mcfg;
    mcfg.keyframe_interval = 2;
    mcfg.window_size = 4;
    Mapper mapper(d.rig(), &voc, mcfg);

    VisionFrontend fe;
    bool any_marginalization = false;
    int frames_until_first = -1;
    for (int i = 0; i < d.frameCount(); ++i) {
        DatasetFrame f = d.frame(i);
        FrontendOutput out =
            fe.processFrame(f.stereo.left, f.stereo.right);
        MappingResult r = mapper.processFrame(out, d.truthAt(i));
        if (r.workload.marginalized_landmarks > 0) {
            any_marginalization = true;
            if (frames_until_first < 0)
                frames_until_first = i;
            EXPECT_GT(r.timing.marginalization_ms, 0.0);
        }
    }
    ASSERT_TRUE(any_marginalization);
    // Window of 4 keyframes at interval 2: first marginalization once
    // the 5th keyframe arrives (frame ~8), certainly not before the
    // window can fill.
    EXPECT_GE(frames_until_first, 2 * (mcfg.window_size - 1));
}

TEST(Mapper, TimingSplitsSolverAndMarginalization)
{
    Dataset d(scene(SceneType::IndoorUnknown, 20));
    Vocabulary voc = buildVocabulary(d, 6);
    MappingConfig mcfg;
    mcfg.keyframe_interval = 2;
    mcfg.window_size = 4;
    Mapper mapper(d.rig(), &voc, mcfg);

    VisionFrontend fe;
    double solver = 0.0, marg = 0.0;
    for (int i = 0; i < d.frameCount(); ++i) {
        DatasetFrame f = d.frame(i);
        FrontendOutput out =
            fe.processFrame(f.stereo.left, f.stereo.right);
        MappingResult r = mapper.processFrame(out, d.truthAt(i));
        solver += r.timing.solver_ms;
        marg += r.timing.marginalization_ms;
        EXPECT_GE(r.timing.total(), 0.0);
    }
    EXPECT_GT(solver, 0.0);
    EXPECT_GT(marg, 0.0);
}

// --- Local-BA contracts over a dense-keyframe run -------------------------
//
// keyframe_interval 1 with a 12-keyframe window: the window fills at
// frame 12, marginalization priors feed every later BA, and the last
// frames run at steady state.

/** Frontend outputs and pose estimates of the run, built once. */
struct DenseKeyframeRun
{
    Dataset dataset{scene(SceneType::IndoorUnknown, 32)};
    Vocabulary voc = buildVocabulary(dataset, 6);
    std::vector<FrontendOutput> frames;
    std::vector<Pose> estimates;

    DenseKeyframeRun()
    {
        VisionFrontend fe;
        for (int i = 0; i < dataset.frameCount(); ++i) {
            DatasetFrame f = dataset.frame(i);
            frames.push_back(fe.processFrame(f.stereo.left, f.stereo.right));
            // Perturbed truth, so BA has pose error to remove.
            Pose p = dataset.truthAt(i);
            p.translation = p.translation + Vec3{0.03 * std::sin(0.7 * i),
                                                 0.02 * std::cos(1.3 * i),
                                                 0.0};
            estimates.push_back(p);
        }
    }
};

const DenseKeyframeRun &
denseRun()
{
    static const DenseKeyframeRun run;
    return run;
}

MappingConfig
denseConfig(bool use_reference)
{
    MappingConfig mcfg;
    mcfg.keyframe_interval = 1;
    mcfg.window_size = 12;
    mcfg.use_reference = use_reference;
    return mcfg;
}

/** FNV-1a over the bytes of every keyframe pose and map point. */
uint64_t
mapDigest(const Map &map)
{
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](double v) {
        unsigned char bytes[sizeof v];
        std::memcpy(bytes, &v, sizeof v);
        for (unsigned char b : bytes) {
            h ^= b;
            h *= 1099511628211ull;
        }
    };
    for (const Keyframe &kf : map.keyframes()) {
        mix(kf.pose.rotation.w());
        mix(kf.pose.rotation.x());
        mix(kf.pose.rotation.y());
        mix(kf.pose.rotation.z());
        for (int k = 0; k < 3; ++k)
            mix(kf.pose.translation[k]);
    }
    for (const MapPoint &mp : map.points())
        for (int k = 0; k < 3; ++k)
            mix(mp.position[k]);
    return h;
}

uint64_t
denseRunDigest(bool use_reference)
{
    const DenseKeyframeRun &run = denseRun();
    Mapper mapper(run.dataset.rig(), &run.voc, denseConfig(use_reference));
    for (size_t i = 0; i < run.frames.size(); ++i)
        mapper.processFrame(run.frames[i], run.estimates[i]);
    return mapDigest(mapper.map());
}

TEST(Mapper, LocalBaBitIdenticalToParent)
{
    // Recorded from the local BA that re-linearized every observation
    // on every LM iteration and cost evaluation. Caching the normal
    // equations across rejected steps and hoisting rotations must not
    // change a single bit of the map, on either Schur path. The step
    // solve's Cholesky reduces in a tier-specific lane order
    // (detail::dotRows), so each SIMD tier has its own pair of digests.
    const bool avx2 = activeSimdTier() == SimdTier::kAvx2;
    EXPECT_EQ(denseRunDigest(false),
              avx2 ? 0xf6c3391e6d3484eaull : 0x672a5e05607cd144ull);
    EXPECT_EQ(denseRunDigest(true),
              avx2 ? 0x7889ef1683e49089ull : 0xa09ce8d273bd6e47ull);
}

TEST(Mapper, LocalBaRebuildsNormalEquationsOnlyAfterAcceptedSteps)
{
    const DenseKeyframeRun &run = denseRun();
    const MappingConfig mcfg = denseConfig(false);
    Mapper mapper(run.dataset.rig(), &run.voc, mcfg);
    int builds_total = 0, iterations_total = 0, full_windows = 0;
    for (size_t i = 0; i < run.frames.size(); ++i) {
        const MappingWorkload w =
            mapper.processFrame(run.frames[i], run.estimates[i]).workload;
        if (w.residual_count == 0) {
            EXPECT_EQ(w.ba_linearizations, 0);
            continue;
        }
        ASSERT_EQ(w.ba_linearizations % w.residual_count, 0);
        const int builds = w.ba_linearizations / w.residual_count;
        // One build, plus one per accepted step that is not on the last
        // iteration (that step's system is never solved).
        EXPECT_TRUE(builds == w.ba_accepted_steps + 1 ||
                    (builds == w.ba_accepted_steps && builds > 0))
            << "frame " << i << ": " << builds << " builds, "
            << w.ba_accepted_steps << " accepted steps";
        EXPECT_LE(w.ba_accepted_steps, w.ba_iterations);
        EXPECT_LE(w.ba_iterations, mcfg.lm_iterations);
        builds_total += builds;
        iterations_total += w.ba_iterations;
        if (w.window_keyframes == mcfg.window_size + 1)
            ++full_windows;
    }
    EXPECT_GT(full_windows, 0);
    // Rejected steps re-solve the cached system instead of rebuilding.
    EXPECT_LT(builds_total, iterations_total);
}

TEST(Mapper, SteadyStateLocalBaWorkspaceStopsGrowing)
{
    const DenseKeyframeRun &run = denseRun();
    Mapper mapper(run.dataset.rig(), &run.voc, denseConfig(false));
    const size_t warm_frames = 20;
    long warm_events = -1;
    for (size_t i = 0; i < run.frames.size(); ++i) {
        mapper.processFrame(run.frames[i], run.estimates[i]);
        if (i + 1 == warm_frames)
            warm_events = mapper.baAllocationEvents();
    }
    EXPECT_GT(warm_events, 0);
    EXPECT_EQ(mapper.baAllocationEvents(), warm_events)
        << "local-BA workspace grew after warm-up";
    EXPECT_GT(mapper.workspaceCapacityBytes(), 0u);
}

} // namespace
} // namespace edx
