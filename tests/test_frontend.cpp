/**
 * @file
 * Unit tests for the unified vision frontend: the FE / SM / TM block
 * products, their timing/workload instrumentation, and the
 * correspondence payload the backend consumes (Sec. IV-A / V).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#include "frontend/frontend.hpp"
#include "math/cpu_features.hpp"
#include "sim/dataset.hpp"

// --- global allocation counter ------------------------------------------
// The zero-alloc acceptance test counts *every* heap allocation made
// while a steady-state frame is processed, not just workspace growth.
namespace {
std::atomic<long> g_alloc_count{0};
}

void *
operator new(std::size_t n)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace edx {
namespace {

DatasetConfig
droneScene(int frames = 4)
{
    DatasetConfig cfg;
    cfg.scene = SceneType::IndoorUnknown;
    cfg.platform = Platform::Drone;
    cfg.frame_count = frames;
    cfg.fps = 10.0;
    cfg.seed = 21;
    return cfg;
}

TEST(Frontend, KeypointsAndDescriptorsAreAligned)
{
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f = d.frame(0);
    FrontendOutput out = fe.processFrame(f.stereo.left, f.stereo.right);
    ASSERT_GT(out.keypoints.size(), 20u);
    EXPECT_EQ(out.keypoints.size(), out.descriptors.size());
    for (const KeyPoint &kp : out.keypoints) {
        EXPECT_GE(kp.x, 0.0f);
        EXPECT_LT(kp.x, static_cast<float>(f.stereo.left.width()));
        EXPECT_GE(kp.y, 0.0f);
        EXPECT_LT(kp.y, static_cast<float>(f.stereo.left.height()));
    }
}

TEST(Frontend, SplitStageCallsMatchMonolithicBitExact)
{
    // The staged runtime runs FE / SM / TM as separate sub-stage calls
    // with a job-owned handoff context; the products must be
    // bit-identical to the monolithic processFrame, frame after frame
    // (the temporal state advances identically).
    Dataset d(droneScene(4));
    VisionFrontend mono, split;
    for (int i = 0; i < d.frameCount(); ++i) {
        DatasetFrame f = d.frame(i);
        FrontendOutput a =
            mono.processFrame(f.stereo.left, f.stereo.right);

        FrontendOutput b;
        FrontendStageContext ctx;
        split.runFeStage(f.stereo.left, f.stereo.right, ctx, b);
        split.runSmStage(f.stereo.left, f.stereo.right, ctx, b);
        split.runTmStage(f.stereo.left, ctx, b);

        ASSERT_EQ(a.keypoints.size(), b.keypoints.size()) << i;
        for (size_t k = 0; k < a.keypoints.size(); ++k) {
            EXPECT_EQ(a.keypoints[k].x, b.keypoints[k].x);
            EXPECT_EQ(a.keypoints[k].y, b.keypoints[k].y);
        }
        ASSERT_EQ(a.descriptors.size(), b.descriptors.size());
        for (size_t k = 0; k < a.descriptors.size(); ++k)
            EXPECT_EQ(0, std::memcmp(&a.descriptors[k],
                                     &b.descriptors[k],
                                     sizeof(Descriptor)));
        ASSERT_EQ(a.stereo.size(), b.stereo.size());
        for (size_t k = 0; k < a.stereo.size(); ++k) {
            EXPECT_EQ(a.stereo[k].left_index, b.stereo[k].left_index);
            EXPECT_EQ(a.stereo[k].disparity, b.stereo[k].disparity);
        }
        ASSERT_EQ(a.temporal.size(), b.temporal.size()) << i;
        for (size_t k = 0; k < a.temporal.size(); ++k) {
            EXPECT_EQ(a.temporal[k].prev_index, b.temporal[k].prev_index);
            EXPECT_EQ(a.temporal[k].x, b.temporal[k].x);
            EXPECT_EQ(a.temporal[k].y, b.temporal[k].y);
        }
        EXPECT_EQ(a.workload.stereo_matches, b.workload.stereo_matches);
        EXPECT_EQ(a.workload.temporal_tracks,
                  b.workload.temporal_tracks);
    }
}

TEST(Frontend, FirstFrameHasNoTemporalMatches)
{
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f = d.frame(0);
    FrontendOutput out = fe.processFrame(f.stereo.left, f.stereo.right);
    EXPECT_TRUE(out.temporal.empty());
    EXPECT_EQ(out.workload.temporal_tracks, 0);
}

TEST(Frontend, SecondFrameTracksTemporally)
{
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f0 = d.frame(0);
    DatasetFrame f1 = d.frame(1);
    fe.processFrame(f0.stereo.left, f0.stereo.right);
    FrontendOutput out = fe.processFrame(f1.stereo.left, f1.stereo.right);
    EXPECT_GT(out.temporal.size(), 10u)
        << "optical flow lost nearly everything between frames";
    for (const TemporalMatch &m : out.temporal) {
        EXPECT_GE(m.prev_index, 0);
        EXPECT_GE(m.x, 0.0f);
        EXPECT_GE(m.y, 0.0f);
    }
}

TEST(Frontend, StereoMatchesHavePositiveBoundedDisparity)
{
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f = d.frame(0);
    FrontendOutput out = fe.processFrame(f.stereo.left, f.stereo.right);
    ASSERT_GT(out.stereo.size(), 10u);
    const StereoRig &rig = d.rig();
    for (const StereoMatch &m : out.stereo) {
        EXPECT_GE(m.left_index, 0);
        EXPECT_LT(m.left_index, static_cast<int>(out.keypoints.size()));
        EXPECT_GT(m.disparity, 0.0f);
        // Disparity must correspond to a physically sensible depth.
        auto depth = rig.depthFromDisparity(m.disparity);
        ASSERT_TRUE(depth.has_value());
        EXPECT_GT(*depth, 0.2);
        EXPECT_LT(*depth, 200.0);
    }
}

TEST(Frontend, StereoDepthsMatchSceneGeometry)
{
    // The indoor room has a known extent; most stereo depths must land
    // inside it (far outliers indicate disparity mismatches).
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f = d.frame(0);
    FrontendOutput out = fe.processFrame(f.stereo.left, f.stereo.right);
    int plausible = 0;
    for (const StereoMatch &m : out.stereo) {
        auto depth = d.rig().depthFromDisparity(m.disparity);
        if (depth && *depth < 40.0)
            ++plausible;
    }
    EXPECT_GT(plausible, static_cast<int>(out.stereo.size()) * 7 / 10);
}

TEST(Frontend, TimingCoversEveryTask)
{
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f0 = d.frame(0);
    DatasetFrame f1 = d.frame(1);
    fe.processFrame(f0.stereo.left, f0.stereo.right);
    FrontendOutput out = fe.processFrame(f1.stereo.left, f1.stereo.right);
    EXPECT_GT(out.timing.fd_ms, 0.0);
    EXPECT_GT(out.timing.if_ms, 0.0);
    EXPECT_GT(out.timing.fc_ms, 0.0);
    EXPECT_GT(out.timing.mo_ms, 0.0);
    EXPECT_GT(out.timing.dr_ms, 0.0);
    EXPECT_GT(out.timing.tm_ms, 0.0);
    EXPECT_NEAR(out.timing.total(),
                out.timing.feBlock() + out.timing.smBlock() +
                    out.timing.tmBlock(),
                1e-9);
}

TEST(Frontend, WorkloadCountsAreConsistent)
{
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f0 = d.frame(0);
    DatasetFrame f1 = d.frame(1);
    fe.processFrame(f0.stereo.left, f0.stereo.right);
    FrontendOutput out = fe.processFrame(f1.stereo.left, f1.stereo.right);
    EXPECT_EQ(out.workload.left_features,
              static_cast<int>(out.keypoints.size()));
    EXPECT_GT(out.workload.right_features, 0);
    EXPECT_EQ(out.workload.stereo_matches,
              static_cast<int>(out.stereo.size()));
    EXPECT_EQ(out.workload.temporal_tracks,
              static_cast<int>(out.temporal.size()));
    EXPECT_EQ(out.workload.image_pixels,
              static_cast<long>(f1.stereo.left.width()) *
                  f1.stereo.left.height());
    EXPECT_GE(out.workload.stereo_candidates,
              out.workload.stereo_matches);
}

TEST(Frontend, ResetDropsTemporalState)
{
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f0 = d.frame(0);
    DatasetFrame f1 = d.frame(1);
    fe.processFrame(f0.stereo.left, f0.stereo.right);
    fe.reset();
    FrontendOutput out = fe.processFrame(f1.stereo.left, f1.stereo.right);
    EXPECT_TRUE(out.temporal.empty());
}

TEST(Frontend, CorrespondencePayloadIsKilobyteClass)
{
    // Sec. V-A: the temporal + spatial correspondences shipped to the
    // backend are about 2-3 KB per frame.
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f0 = d.frame(0);
    DatasetFrame f1 = d.frame(1);
    fe.processFrame(f0.stereo.left, f0.stereo.right);
    FrontendOutput out = fe.processFrame(f1.stereo.left, f1.stereo.right);
    size_t bytes = correspondencePayloadBytes(out.stereo, out.temporal);
    EXPECT_GT(bytes, 500u);
    EXPECT_LT(bytes, 32768u);
}

TEST(Frontend, StaticSceneTracksStayPut)
{
    // Rendering the same pose twice: optical flow displacement must be
    // sub-pixel on average (sensor noise only).
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f = d.frame(0);
    FrontendOutput a = fe.processFrame(f.stereo.left, f.stereo.right);
    FrontendOutput b = fe.processFrame(f.stereo.left, f.stereo.right);
    ASSERT_GT(b.temporal.size(), 10u);
    double disp = 0.0;
    for (const TemporalMatch &m : b.temporal) {
        const KeyPoint &kp = a.keypoints[m.prev_index];
        disp += std::hypot(m.x - kp.x, m.y - kp.y);
    }
    disp /= static_cast<double>(b.temporal.size());
    EXPECT_LT(disp, 0.75) << "static scene drifted " << disp << " px";
}

TEST(Frontend, MovingCameraProducesCoherentFlow)
{
    // Between consecutive frames of a smooth trajectory, most temporal
    // matches move by less than a generous per-frame bound.
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f0 = d.frame(0);
    DatasetFrame f1 = d.frame(1);
    FrontendOutput a = fe.processFrame(f0.stereo.left, f0.stereo.right);
    FrontendOutput b = fe.processFrame(f1.stereo.left, f1.stereo.right);
    ASSERT_GT(b.temporal.size(), 10u);
    int coherent = 0;
    for (const TemporalMatch &m : b.temporal) {
        const KeyPoint &kp = a.keypoints[m.prev_index];
        if (std::hypot(m.x - kp.x, m.y - kp.y) < 40.0)
            ++coherent;
    }
    EXPECT_GT(coherent, static_cast<int>(b.temporal.size()) * 8 / 10);
}

// --- workspace / lanes / reference-path equivalence ---------------------

void
expectOutputsIdentical(const FrontendOutput &a, const FrontendOutput &b)
{
    ASSERT_EQ(a.keypoints.size(), b.keypoints.size());
    for (size_t i = 0; i < a.keypoints.size(); ++i) {
        EXPECT_EQ(a.keypoints[i].x, b.keypoints[i].x);
        EXPECT_EQ(a.keypoints[i].y, b.keypoints[i].y);
        EXPECT_EQ(a.keypoints[i].score, b.keypoints[i].score);
        EXPECT_EQ(a.keypoints[i].angle, b.keypoints[i].angle);
    }
    ASSERT_EQ(a.descriptors.size(), b.descriptors.size());
    for (size_t i = 0; i < a.descriptors.size(); ++i)
        EXPECT_EQ(a.descriptors[i], b.descriptors[i]);
    ASSERT_EQ(a.stereo.size(), b.stereo.size());
    for (size_t i = 0; i < a.stereo.size(); ++i) {
        EXPECT_EQ(a.stereo[i].left_index, b.stereo[i].left_index);
        EXPECT_EQ(a.stereo[i].disparity, b.stereo[i].disparity);
        EXPECT_EQ(a.stereo[i].hamming, b.stereo[i].hamming);
    }
    ASSERT_EQ(a.temporal.size(), b.temporal.size());
    for (size_t i = 0; i < a.temporal.size(); ++i) {
        EXPECT_EQ(a.temporal[i].prev_index, b.temporal[i].prev_index);
        EXPECT_EQ(a.temporal[i].x, b.temporal[i].x);
        EXPECT_EQ(a.temporal[i].y, b.temporal[i].y);
        EXPECT_EQ(a.temporal[i].residual, b.temporal[i].residual);
    }
}

TEST(Frontend, OptimizedPathMatchesReferencePath)
{
    // The whole optimized frontend (workspace kernels, banded stereo,
    // cached gradients) against the retained scalar reference path:
    // bit-exact products over a multi-frame sequence.
    Dataset d(droneScene());
    FrontendConfig ref_cfg;
    ref_cfg.use_reference = true;
    VisionFrontend opt, ref(ref_cfg);
    for (int i = 0; i < 3; ++i) {
        DatasetFrame f = d.frame(i);
        FrontendOutput a = opt.processFrame(f.stereo.left, f.stereo.right);
        FrontendOutput b = ref.processFrame(f.stereo.left, f.stereo.right);
        expectOutputsIdentical(a, b);
        EXPECT_EQ(a.workload.stereo_candidates_allpairs,
                  b.workload.stereo_candidates_allpairs);
        // The banded matcher must evaluate a strict subset of the
        // all-pairs sweep.
        EXPECT_LE(a.workload.stereo_candidates,
                  a.workload.stereo_candidates_allpairs);
    }
}

TEST(Frontend, AvxAndSse2FrontendOutputsBitIdentical)
{
    // Every frontend kernel is bit-identical across SIMD tiers, so one
    // multi-frame drone sequence must give the same key points, angles,
    // descriptors, stereo and temporal matches under each tier. The
    // AVX2 leg runs whenever the host and build support it, even under
    // an EDX_SIMD_LEVEL=sse2 override.
    const SimdTier top = detectedSimdTier();
    if (top == SimdTier::kSse2)
        GTEST_SKIP() << "no AVX2 tier on this host or build";
    const SimdTier startup = activeSimdTier();
    Dataset d(droneScene(5));
    std::vector<DatasetFrame> frames;
    for (int i = 0; i < d.frameCount(); ++i)
        frames.push_back(d.frame(i));

    auto run = [&](SimdTier tier) {
        setSimdTier(tier);
        VisionFrontend fe;
        std::vector<FrontendOutput> outs;
        for (const DatasetFrame &f : frames)
            outs.push_back(fe.processFrame(f.stereo.left, f.stereo.right));
        return outs;
    };
    const std::vector<FrontendOutput> sse2 = run(SimdTier::kSse2);
    const std::vector<FrontendOutput> avx2 = run(top);
    setSimdTier(startup);

    ASSERT_EQ(sse2.size(), avx2.size());
    for (size_t i = 0; i < sse2.size(); ++i) {
        SCOPED_TRACE("frame " + std::to_string(i));
        EXPECT_GT(sse2[i].descriptors.size(), 20u);
        if (i > 0)
            EXPECT_GT(sse2[i].temporal.size(), 0u);
        expectOutputsIdentical(sse2[i], avx2[i]);
    }
}

TEST(Frontend, LanesTwoIsBitExactWithLanesOne)
{
    Dataset d(droneScene());
    FrontendConfig two;
    two.lanes = 2;
    VisionFrontend seq, par(two);
    for (int i = 0; i < 3; ++i) {
        DatasetFrame f = d.frame(i);
        FrontendOutput a = seq.processFrame(f.stereo.left, f.stereo.right);
        FrontendOutput b = par.processFrame(f.stereo.left, f.stereo.right);
        expectOutputsIdentical(a, b);
        EXPECT_EQ(a.workload.stereo_candidates,
                  b.workload.stereo_candidates);
    }
}

TEST(Frontend, SteadyStateFramesAllocateNothing)
{
    // Warm the workspace over the sequence once, reset (which keeps
    // the buffers), then run the same frames again: not a single heap
    // allocation may occur anywhere in the frontend.
    Dataset d(droneScene());
    std::vector<DatasetFrame> frames;
    for (int i = 0; i < 4; ++i)
        frames.push_back(d.frame(i));

    VisionFrontend fe;
    FrontendOutput out;
    for (const DatasetFrame &f : frames)
        fe.processFrameInto(f.stereo.left, f.stereo.right, out);
    const size_t warm_events = fe.workspaceAllocationEvents();
    EXPECT_GT(fe.workspaceCapacityBytes(), 0u);

    fe.reset();
    for (const DatasetFrame &f : frames) {
        const long before = g_alloc_count.load();
        fe.processFrameInto(f.stereo.left, f.stereo.right, out);
        EXPECT_EQ(g_alloc_count.load() - before, 0)
            << "steady-state frame allocated";
    }
    EXPECT_EQ(fe.workspaceAllocationEvents(), warm_events);
}

TEST(Frontend, LanesTwoWorkspaceStaysAllocationFree)
{
    // The strict global-counter assert only holds for lanes == 1 (the
    // lane handshake itself is allocation-free but runs concurrently
    // with gtest bookkeeping); for lanes == 2 the workspace event
    // counter must still go quiet once warm.
    Dataset d(droneScene());
    std::vector<DatasetFrame> frames;
    for (int i = 0; i < 4; ++i)
        frames.push_back(d.frame(i));

    FrontendConfig cfg;
    cfg.lanes = 2;
    VisionFrontend fe(cfg);
    FrontendOutput out;
    for (const DatasetFrame &f : frames)
        fe.processFrameInto(f.stereo.left, f.stereo.right, out);
    const size_t warm_events = fe.workspaceAllocationEvents();
    fe.reset();
    for (const DatasetFrame &f : frames)
        fe.processFrameInto(f.stereo.left, f.stereo.right, out);
    EXPECT_EQ(fe.workspaceAllocationEvents(), warm_events);
}

} // namespace
} // namespace edx
