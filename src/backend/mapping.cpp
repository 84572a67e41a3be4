#include "backend/mapping.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "features/matcher.hpp"
#include "math/decomp.hpp"
#include "runtime/solve_hub.hpp"
#include "runtime/telemetry.hpp"

namespace edx {

namespace {

/** Reprojection residual and Jacobians of one observation. */
struct ObsLinearization
{
    Vec2 r;
    Mat26 j_pose;
    Mat23 j_lm;
    double weight = 1.0;
    bool valid = false;
};

/** Body-frame point, camera-frame point and residual of one observation. */
struct ObsProjection
{
    Vec3 u;
    Vec3 p_c;
    Vec2 r;
    bool valid = false;
};

/** Hoists the rotations of @p world_from_body out of per-observation work. */
BaPoseFrame
poseFrame(const Pose &world_from_body, const Mat3 &r_cb)
{
    BaPoseFrame f;
    f.r_bw = world_from_body.rotation.inverse().toRotationMatrix();
    f.r_cw = r_cb * f.r_bw;
    f.neg_r_cw = f.r_cw * (-1.0);
    f.t_wb = world_from_body.translation;
    return f;
}

ObsProjection
projectObs(const BaPoseFrame &f, const Mat3 &r_cb, const Vec3 &x_world,
           const Vec2 &z, const StereoRig &rig)
{
    ObsProjection out;
    out.u = f.r_bw * (x_world - f.t_wb);
    out.p_c = r_cb * (out.u - rig.body_from_camera.translation);
    auto px = rig.cam.project(out.p_c);
    if (!px)
        return out;
    out.r = Vec2{(*px)[0] - z[0], (*px)[1] - z[1]};
    out.valid = true;
    return out;
}

/** Huber cost of one observation; an unprojectable one pays huber^2. */
double
huberCost(const ObsProjection &p, double huber)
{
    if (!p.valid)
        return huber * huber;
    double rn = p.r.norm();
    return (rn <= huber) ? 0.5 * rn * rn : huber * (rn - 0.5 * huber);
}

ObsLinearization
linearizeObs(const BaPoseFrame &f, const Mat3 &r_cb, const Vec3 &x_world,
             const Vec2 &z, const StereoRig &rig, double huber)
{
    ObsLinearization out;
    const ObsProjection p = projectObs(f, r_cb, x_world, z, rig);
    if (!p.valid)
        return out;
    out.r = p.r;
    double rn = out.r.norm();
    out.weight = (rn <= huber) ? 1.0 : huber / rn;

    Mat23 jp = rig.cam.projectJacobian(p.p_c);
    Mat23 j_theta = jp * (r_cb * skew(p.u));
    Mat23 j_t = jp * f.neg_r_cw;
    for (int i = 0; i < 2; ++i)
        for (int k = 0; k < 3; ++k) {
            out.j_pose(i, k) = j_theta(i, k);
            out.j_pose(i, k + 3) = j_t(i, k);
        }
    out.j_lm = jp * f.r_cw;
    out.valid = true;
    return out;
}

/** Applies a body-frame right perturbation (dtheta, dt world). */
Pose
applyPoseDelta(const Pose &pose, const Vec3 &dtheta, const Vec3 &dt)
{
    return Pose((pose.rotation * Quat::exp(dtheta)).normalized(),
                pose.translation + pose.rotation.rotate(dt));
}

// Workspace sizing: capacity grows to twice the demand, so a BA problem
// that fluctuates around its steady-state size stops reallocating.

template <class T>
void
fitVector(std::vector<T> &v, size_t n)
{
    if (n > v.capacity())
        v.reserve(2 * n);
    v.resize(n);
}

/** Resizes to @p n and zero-fills. */
void
fitZero(VecX &v, int n)
{
    if (static_cast<size_t>(n) * sizeof(double) > v.capacityBytes())
        v.reserve(2 * n);
    v.resize(n);
}

/** Resizes to @p r x @p c and zero-fills. */
void
fitZero(MatX &m, int r, int c)
{
    if (static_cast<size_t>(r) * c * sizeof(double) > m.capacityBytes())
        m.reserve(r, 2 * c);
    m.resize(r, c);
}

} // namespace

Mapper::Mapper(const StereoRig &rig, const Vocabulary *vocabulary,
               const MappingConfig &cfg)
    : rig_(rig),
      r_cb_(rig.body_from_camera.rotation.inverse().toRotationMatrix()),
      voc_(vocabulary), cfg_(cfg)
{
}

int
Mapper::insertKeyframe(const FrontendOutput &frame, const Pose &pose)
{
    Keyframe kf;
    kf.pose = pose;
    kf.keypoints = frame.keypoints;
    kf.descriptors = frame.descriptors;
    kf.map_point_ids.assign(frame.keypoints.size(), -1);
    if (voc_ && voc_->trained())
        kf.bow = voc_->transform(frame.descriptors);

    // Associate current key points to window landmarks by projection.
    Pose camera_from_world = (pose * rig_.body_from_camera).inverse();
    std::vector<int> candidate_ids;
    std::vector<KeyPoint> candidate_kps;
    std::vector<Descriptor> candidate_descs;
    std::unordered_set<int> window_landmarks;
    for (int kf_id : window_)
        for (int lm :
             map_.keyframes()[kf_id].map_point_ids)
            if (lm >= 0)
                window_landmarks.insert(lm);
    for (int lm : window_landmarks) {
        const MapPoint &mp = map_.points()[lm];
        Vec3 p_c = camera_from_world.apply(mp.position);
        auto px = rig_.cam.project(p_c);
        if (!px || !rig_.cam.inImage(*px, 4.0))
            continue;
        candidate_ids.push_back(lm);
        KeyPoint kp;
        kp.x = static_cast<float>((*px)[0]);
        kp.y = static_cast<float>((*px)[1]);
        candidate_kps.push_back(kp);
        candidate_descs.push_back(mp.descriptor);
    }
    MatchConfig mc;
    mc.cross_check = false;
    std::vector<Match> matches = matchDescriptorsWindowed(
        candidate_descs, candidate_kps, frame.descriptors,
        frame.keypoints, cfg_.match_radius_px, mc);
    for (const Match &m : matches) {
        if (kf.map_point_ids[m.train_index] >= 0)
            continue;
        kf.map_point_ids[m.train_index] = candidate_ids[m.query_index];
    }

    // Triangulate new landmarks from unmatched stereo key points.
    Pose world_from_camera = pose * rig_.body_from_camera;
    for (const StereoMatch &s : frame.stereo) {
        int k = s.left_index;
        if (k < 0 || kf.map_point_ids[k] >= 0)
            continue;
        auto p_cam = rig_.triangulate(
            Vec2{frame.keypoints[k].x, frame.keypoints[k].y},
            s.disparity);
        if (!p_cam)
            continue;
        MapPoint mp;
        mp.position = world_from_camera.apply(*p_cam);
        mp.descriptor = frame.descriptors[k];
        mp.observations = 0;
        kf.map_point_ids[k] = map_.addPoint(mp);
    }

    int kf_id = map_.addKeyframe(std::move(kf));
    window_.push_back(kf_id);
    ++frames_as_keyframes_;

    // Record observations.
    const Keyframe &stored = map_.keyframes()[kf_id];
    for (int k = 0; k < static_cast<int>(stored.map_point_ids.size());
         ++k) {
        int lm = stored.map_point_ids[k];
        if (lm < 0)
            continue;
        observations_[lm].push_back({kf_id, k});
        ++map_.points()[lm].observations;
    }
    return kf_id;
}

int
Mapper::windowSlot(int kf_id) const
{
    for (size_t i = 0; i < window_.size(); ++i)
        if (window_[i] == kf_id)
            return static_cast<int>(i);
    return -1;
}

void
Mapper::localBundleAdjustment(MappingTiming &timing,
                              MappingWorkload &workload)
{
    StageTimer solver_timer(timing.solver_ms);
    if (window_.size() < 2)
        return;
    LocalBaWorkspace &ws = ba_ws_;
    const size_t capacity_before = ws.capacityBytes();

    // Parameter bookkeeping: window poses (slot 0 fixed as gauge) and
    // landmarks with enough window observations, each followed by its
    // window observations (so obs are grouped by landmark slot).
    ws.seen.clear();
    ws.lms.clear();
    ws.lm_obs_begin.clear();
    ws.obs.clear();
    for (int kf_id : window_) {
        for (int lm : map_.keyframes()[kf_id].map_point_ids) {
            if (lm < 0 || !ws.seen.insert(lm).second)
                continue;
            const std::vector<LandmarkObs> &lm_obs = observations_[lm];
            int in_window = 0;
            for (const LandmarkObs &o : lm_obs)
                if (windowSlot(o.keyframe_id) >= 0)
                    ++in_window;
            if (in_window < cfg_.min_obs_for_ba)
                continue;
            const int l = static_cast<int>(ws.lms.size());
            ws.lms.push_back(lm);
            ws.lm_obs_begin.push_back(static_cast<int>(ws.obs.size()));
            for (const LandmarkObs &o : lm_obs) {
                const int slot = windowSlot(o.keyframe_id);
                if (slot < 0)
                    continue;
                const KeyPoint &kp = map_.keyframes()[o.keyframe_id]
                                         .keypoints[o.keypoint_index];
                ws.obs.push_back({l, slot, Vec2{kp.x, kp.y}});
            }
        }
    }
    ws.lm_obs_begin.push_back(static_cast<int>(ws.obs.size()));
    workload.window_keyframes = static_cast<int>(window_.size());
    workload.window_landmarks = static_cast<int>(ws.lms.size());
    workload.residual_count = static_cast<int>(ws.obs.size());
    if (!ws.lms.empty())
        levenbergMarquardt(workload);
    if (ws.capacityBytes() > capacity_before)
        ++ba_alloc_events_;
}

void
Mapper::levenbergMarquardt(MappingWorkload &workload)
{
    LocalBaWorkspace &ws = ba_ws_;
    const int nw = static_cast<int>(window_.size());
    const int nl = static_cast<int>(ws.lms.size());

    // Working copies of parameters, plus the candidate-state buffers.
    fitVector(ws.poses, nw);
    fitVector(ws.frames, nw);
    fitVector(ws.cand_poses, nw);
    fitVector(ws.cand_frames, nw);
    for (int i = 0; i < nw; ++i) {
        ws.poses[i] = map_.keyframes()[window_[i]].pose;
        ws.frames[i] = poseFrame(ws.poses[i], r_cb_);
    }
    fitVector(ws.points, nl);
    fitVector(ws.cand_points, nl);
    for (int l = 0; l < nl; ++l)
        ws.points[l] = map_.points()[ws.lms[l]].position;
    fitVector(ws.hll_inv, nl);
    fitVector(ws.dl, nl);
    fitVector(ws.tbuf, nw - 1); // at most one W block per pose

    auto cost = [&](const std::vector<BaPoseFrame> &frames,
                    const std::vector<Vec3> &points) {
        double c = 0.0;
        for (const LocalBaWorkspace::Obs &o : ws.obs)
            c += huberCost(projectObs(frames[o.window_slot], r_cb_,
                                      points[o.lm_slot], o.z, rig_),
                           cfg_.huber_px);
        return c;
    };

    double lambda = 1e-3;
    double current_cost = cost(ws.frames, ws.points);
    bool system_stale = true;
    for (int it = 0; it < cfg_.lm_iterations; ++it) {
        ++workload.ba_iterations;
        // A rejected step leaves the state, and so the undamped normal
        // equations, unchanged: only an accepted step forces a rebuild.
        if (system_stale) {
            buildBaSystem();
            workload.ba_linearizations += workload.residual_count;
            system_stale = false;
        }
        const BaStep step = solveBaStep(lambda);
        if (step == BaStep::SingularLandmark)
            break;
        if (step == BaStep::Unsolvable) {
            lambda *= 10.0;
            continue;
        }

        // Candidate state.
        ws.cand_poses[0] = ws.poses[0];
        ws.cand_frames[0] = ws.frames[0];
        for (int i = 1; i < nw; ++i) {
            const int pc = 6 * (i - 1);
            Vec3 dtheta{ws.dp[pc], ws.dp[pc + 1], ws.dp[pc + 2]};
            Vec3 dt{ws.dp[pc + 3], ws.dp[pc + 4], ws.dp[pc + 5]};
            ws.cand_poses[i] = applyPoseDelta(ws.poses[i], dtheta, dt);
            ws.cand_frames[i] = poseFrame(ws.cand_poses[i], r_cb_);
        }
        for (int l = 0; l < nl; ++l)
            ws.cand_points[l] = ws.points[l] + ws.dl[l];

        double new_cost = cost(ws.cand_frames, ws.cand_points);
        if (new_cost < current_cost) {
            current_cost = new_cost;
            lambda = std::max(1e-9, lambda * 0.3);
            std::swap(ws.poses, ws.cand_poses);
            std::swap(ws.frames, ws.cand_frames);
            std::swap(ws.points, ws.cand_points);
            ++workload.ba_accepted_steps;
            system_stale = true;
        } else {
            lambda *= 10.0;
        }
    }

    // Write back.
    for (int i = 0; i < nw; ++i)
        map_.keyframes()[window_[i]].pose = ws.poses[i];
    for (int l = 0; l < nl; ++l)
        map_.points()[ws.lms[l]].position = ws.points[l];
}

void
Mapper::buildBaSystem()
{
    LocalBaWorkspace &ws = ba_ws_;
    const int np = static_cast<int>(window_.size()) - 1;
    const int nl = static_cast<int>(ws.lms.size());
    fitZero(ws.hpp, 6 * np, 6 * np);
    fitZero(ws.bp, 6 * np);
    fitZero(ws.bl, 3 * nl);
    fitVector(ws.hll, nl);
    std::fill(ws.hll.begin(), ws.hll.end(), Mat3::zero());
    if (cfg_.use_reference) {
        fitZero(ws.hpl, 6 * np, 3 * nl);
    } else {
        // Landmark l's blocks live at lm_obs_begin[l]: a landmark has
        // at most one block per observation.
        fitVector(ws.w, ws.obs.size());
        fitVector(ws.w_count, nl);
        std::fill(ws.w_count.begin(), ws.w_count.end(), 0);
    }

    for (const LocalBaWorkspace::Obs &o : ws.obs) {
        ObsLinearization lin =
            linearizeObs(ws.frames[o.window_slot], r_cb_,
                         ws.points[o.lm_slot], o.z, rig_, cfg_.huber_px);
        if (!lin.valid)
            continue;
        const double w = lin.weight;
        // Landmark block.
        Mat3 &hll = ws.hll[o.lm_slot];
        for (int a = 0; a < 3; ++a) {
            for (int b = 0; b < 3; ++b)
                hll(a, b) += w * (lin.j_lm(0, a) * lin.j_lm(0, b) +
                                  lin.j_lm(1, a) * lin.j_lm(1, b));
            ws.bl[3 * o.lm_slot + a] += w * (lin.j_lm(0, a) * lin.r[0] +
                                             lin.j_lm(1, a) * lin.r[1]);
        }
        if (o.window_slot == 0)
            continue; // the gauge pose is fixed

        const int pose_slot = o.window_slot - 1;
        const int pc = 6 * pose_slot;
        for (int a = 0; a < 6; ++a) {
            for (int b = 0; b < 6; ++b)
                ws.hpp(pc + a, pc + b) +=
                    w * (lin.j_pose(0, a) * lin.j_pose(0, b) +
                         lin.j_pose(1, a) * lin.j_pose(1, b));
            ws.bp[pc + a] += w * (lin.j_pose(0, a) * lin.r[0] +
                                  lin.j_pose(1, a) * lin.r[1]);
        }
        Mat<3, 6> wt;
        for (int a = 0; a < 6; ++a)
            for (int b = 0; b < 3; ++b)
                wt(b, a) = w * (lin.j_pose(0, a) * lin.j_lm(0, b) +
                                lin.j_pose(1, a) * lin.j_lm(1, b));
        if (cfg_.use_reference) {
            for (int a = 0; a < 6; ++a)
                for (int b = 0; b < 3; ++b)
                    ws.hpl(pc + a, 3 * o.lm_slot + b) += wt(b, a);
        } else {
            LocalBaWorkspace::WBlock *blocks =
                ws.w.data() + ws.lm_obs_begin[o.lm_slot];
            int &count = ws.w_count[o.lm_slot];
            int e = 0;
            while (e < count && blocks[e].pose_slot != pose_slot)
                ++e;
            if (e < count)
                blocks[e].wt += wt;
            else
                blocks[count++] = {pose_slot, wt};
        }
    }

    // Marginalization prior on its keyframe (if still in window).
    const int prior_slot = prior_kf_ ? windowSlot(*prior_kf_) : -1;
    if (prior_slot > 0) {
        const int pc = 6 * (prior_slot - 1);
        for (int a = 0; a < 6; ++a) {
            for (int b = 0; b < 6; ++b)
                ws.hpp(pc + a, pc + b) += prior_h_(a, b);
            ws.bp[pc + a] += prior_b_[a];
        }
    }
}

Mapper::BaStep
Mapper::solveBaStep(double lambda)
{
    LocalBaWorkspace &ws = ba_ws_;
    const int np = static_cast<int>(window_.size()) - 1;
    const int nl = static_cast<int>(ws.lms.size());

    // LM damping, applied to copies of the cached undamped system.
    ws.s = ws.hpp;
    for (int i = 0; i < 6 * np; ++i)
        ws.s(i, i) *= (1.0 + lambda);
    for (int l = 0; l < nl; ++l) {
        Mat3 m = ws.hll[l];
        for (int a = 0; a < 3; ++a)
            m(a, a) *= (1.0 + lambda);
        for (int a = 0; a < 3; ++a)
            m(a, a) += 1e-9;
        if (std::abs(det(m)) < 1e-24)
            return BaStep::SingularLandmark;
        ws.hll_inv[l] = inverse(m);
    }

    // Schur complement over landmarks:
    // S = Hpp - W Hll^-1 W^T ; rhs = bp - W Hll^-1 bl.
    MatX &s = ws.s;
    VecX &rhs = ws.rhs;
    rhs = ws.bp;
    if (cfg_.use_reference) {
        // Dense path (pre-overhaul): walk every row of Hpl per
        // landmark, relying on zero-skips.
        const MatX &hpl = ws.hpl;
        for (int l = 0; l < nl; ++l) {
            const Mat3 &inv = ws.hll_inv[l];
            for (int i = 0; i < 6 * np; ++i) {
                double w0 = hpl(i, 3 * l);
                double w1 = hpl(i, 3 * l + 1);
                double w2 = hpl(i, 3 * l + 2);
                if (w0 == 0.0 && w1 == 0.0 && w2 == 0.0)
                    continue;
                double t0c = w0 * inv(0, 0) + w1 * inv(1, 0) +
                             w2 * inv(2, 0);
                double t1c = w0 * inv(0, 1) + w1 * inv(1, 1) +
                             w2 * inv(2, 1);
                double t2c = w0 * inv(0, 2) + w1 * inv(1, 2) +
                             w2 * inv(2, 2);
                rhs[i] -= t0c * ws.bl[3 * l] + t1c * ws.bl[3 * l + 1] +
                          t2c * ws.bl[3 * l + 2];
                for (int j = 0; j < 6 * np; ++j) {
                    double v = t0c * hpl(j, 3 * l) +
                               t1c * hpl(j, 3 * l + 1) +
                               t2c * hpl(j, 3 * l + 2);
                    if (v != 0.0)
                        s(i, j) -= v;
                }
            }
        }
        s.makeSymmetric();
    } else {
        // Block-sparse path: per landmark, only the observing pose
        // pairs contribute — 6x6 dense blocks into the lower triangle,
        // mirrored once at the end (the J·P·Jᵀ-style triangle-only
        // contract of the backend overhaul).
        for (int l = 0; l < nl; ++l) {
            const int nb = ws.w_count[l];
            const LocalBaWorkspace::WBlock *blocks =
                ws.w.data() + ws.lm_obs_begin[l];
            const Mat3 &inv = ws.hll_inv[l];
            const Vec3 bl_l{ws.bl[3 * l], ws.bl[3 * l + 1],
                            ws.bl[3 * l + 2]};
            for (int e = 0; e < nb; ++e) {
                const Mat<3, 6> &wt = blocks[e].wt;
                Mat<6, 3> &t = ws.tbuf[e];
                for (int x = 0; x < 6; ++x)
                    for (int k = 0; k < 3; ++k)
                        t(x, k) = wt(0, x) * inv(0, k) +
                                  wt(1, x) * inv(1, k) +
                                  wt(2, x) * inv(2, k);
            }
            for (int a = 0; a < nb; ++a) {
                const int pa = blocks[a].pose_slot;
                const Mat<6, 3> &ta = ws.tbuf[a];
                const Vec<6> rv = ta * bl_l;
                for (int k = 0; k < 6; ++k)
                    rhs[6 * pa + k] -= rv[k];
                for (int b = 0; b < nb; ++b) {
                    const int pb = blocks[b].pose_slot;
                    if (pa < pb)
                        continue; // lower triangle only
                    const Mat<3, 6> &wb = blocks[b].wt;
                    for (int x = 0; x < 6; ++x) {
                        double *row = &s(6 * pa + x, 6 * pb);
                        const double t0 = ta(x, 0), t1 = ta(x, 1),
                                     t2 = ta(x, 2);
                        for (int y = 0; y < 6; ++y)
                            row[y] -= t0 * wb(0, y) + t1 * wb(1, y) +
                                      t2 * wb(2, y);
                    }
                }
            }
        }
        s.mirrorLowerToUpper();
    }

    // Solve S dp = -rhs (Cholesky, LU fallback).
    for (int i = 0; i < rhs.size(); ++i)
        rhs[i] *= -1.0;
    if (ws.chol.compute(s)) {
        ws.dp = rhs;
        ws.chol.solveInPlace(ws.dp);
    } else if (ws.lu.compute(s)) {
        ws.lu.solveInto(rhs, ws.dp);
    } else {
        return BaStep::Unsolvable;
    }

    // Back-substitute landmarks: dl = Hll^-1 (-bl - W^T dp).
    for (int l = 0; l < nl; ++l) {
        Vec3 acc{-ws.bl[3 * l], -ws.bl[3 * l + 1], -ws.bl[3 * l + 2]};
        if (cfg_.use_reference) {
            for (int i = 0; i < 6 * np; ++i) {
                double d = ws.dp[i];
                if (d == 0.0)
                    continue;
                acc[0] -= ws.hpl(i, 3 * l) * d;
                acc[1] -= ws.hpl(i, 3 * l + 1) * d;
                acc[2] -= ws.hpl(i, 3 * l + 2) * d;
            }
        } else {
            const LocalBaWorkspace::WBlock *blocks =
                ws.w.data() + ws.lm_obs_begin[l];
            for (int e = 0; e < ws.w_count[l]; ++e)
                acc -= blocks[e].wt *
                       ws.dp.fixedSegment<6>(6 * blocks[e].pose_slot);
        }
        ws.dl[l] = ws.hll_inv[l] * acc;
    }
    return BaStep::Solved;
}

void
Mapper::computeMarginalization(MappingTiming &timing,
                               MappingWorkload &workload)
{
    StageTimer timer(timing.marginalization_ms);
    const int old_kf = window_.front();
    const int next_kf = window_[1];

    // States to marginalize: landmarks observed by the old keyframe
    // (diagonal A block, 3x3 each) plus the old pose itself (the 6x6 D
    // block) - exactly the Amm structure of Sec. VI-A. The remaining
    // state the prior lands on is the next-oldest pose.
    std::vector<int> marg_lms;
    for (int lm : map_.keyframes()[old_kf].map_point_ids)
        if (lm >= 0)
            marg_lms.push_back(lm);
    std::unordered_map<int, int> lm_slot;
    for (size_t i = 0; i < marg_lms.size(); ++i)
        lm_slot[marg_lms[i]] = static_cast<int>(i);
    const int nm = static_cast<int>(marg_lms.size());
    workload.marginalized_landmarks = nm;

    if (nm > 0 && !cfg_.use_reference) {
        // Structure-exploiting elimination (the specialized inversion
        // hardware of Sec. VI-A: "diagonal reciprocals" for the
        // landmark block plus a dense 6x6 core). The system over
        // {landmarks l, old pose m, next pose r} is accumulated in
        // compact blocks — no (3nm+12)^2 dense matrix — and reduced in
        // two stages:
        //   1. per-landmark 3x3 eliminations (linear in nm),
        //   2. a single dense 6x6 solve for the old pose, batched
        //      across sessions through the hub when one is attached.
        std::vector<Mat3> hll(nm, Mat3::zero());
        std::vector<Vec3> bl(nm, Vec3::zero());
        std::vector<Mat36> blm(nm, Mat36::zero()); // l x old pose
        std::vector<Mat36> blr(nm, Mat36::zero()); // l x next pose
        Mat<6, 6> dmm = Mat<6, 6>::zero();         // old pose block
        Mat<6, 6> arr = Mat<6, 6>::zero();         // next pose block
        Vec<6> bm6 = Vec<6>::zero(), br6 = Vec<6>::zero();

        auto accumulate = [&](int kf_id, bool old_pose) {
            const Keyframe &kf = map_.keyframes()[kf_id];
            const BaPoseFrame frame = poseFrame(kf.pose, r_cb_);
            for (int lm : marg_lms) {
                for (const LandmarkObs &o : observations_[lm]) {
                    if (o.keyframe_id != kf_id)
                        continue;
                    const KeyPoint &kp = kf.keypoints[o.keypoint_index];
                    ObsLinearization lin = linearizeObs(
                        frame, r_cb_, map_.points()[lm].position,
                        Vec2{kp.x, kp.y}, rig_, cfg_.huber_px);
                    if (!lin.valid)
                        continue;
                    const double w =
                        lin.weight /
                        (cfg_.pixel_sigma * cfg_.pixel_sigma);
                    const int l = lm_slot[lm];
                    for (int x = 0; x < 3; ++x) {
                        for (int y = 0; y < 3; ++y)
                            hll[l](x, y) +=
                                w * (lin.j_lm(0, x) * lin.j_lm(0, y) +
                                     lin.j_lm(1, x) * lin.j_lm(1, y));
                        bl[l][x] += w * (lin.j_lm(0, x) * lin.r[0] +
                                         lin.j_lm(1, x) * lin.r[1]);
                        for (int y = 0; y < 6; ++y) {
                            double v =
                                w * (lin.j_lm(0, x) * lin.j_pose(0, y) +
                                     lin.j_lm(1, x) * lin.j_pose(1, y));
                            (old_pose ? blm : blr)[l](x, y) += v;
                        }
                    }
                    Mat<6, 6> &pp = old_pose ? dmm : arr;
                    Vec<6> &pb = old_pose ? bm6 : br6;
                    for (int x = 0; x < 6; ++x) {
                        for (int y = 0; y < 6; ++y)
                            pp(x, y) +=
                                w * (lin.j_pose(0, x) * lin.j_pose(0, y) +
                                     lin.j_pose(1, x) * lin.j_pose(1, y));
                        pb[x] += w * (lin.j_pose(0, x) * lin.r[0] +
                                      lin.j_pose(1, x) * lin.r[1]);
                    }
                }
            }
        };
        accumulate(old_kf, true);
        accumulate(next_kf, false);

        // Stage 1: eliminate the landmark block (Tikhonov-guarded,
        // matching the dense path's diagonal guard).
        Mat<6, 6> dmr = Mat<6, 6>::zero(); // old-next coupling (fill-in)
        for (int l = 0; l < nm; ++l) {
            Mat3 g = hll[l];
            for (int x = 0; x < 3; ++x)
                g(x, x) += 1e-6;
            if (std::abs(det(g)) < 1e-24)
                continue; // zero-information landmark: nothing to add
            const Mat3 ginv = inverse(g);
            const Mat36 t_m = ginv * blm[l]; // 3x6
            const Mat36 t_r = ginv * blr[l];
            dmm += blm[l].transpose() * t_m * -1.0;
            dmr += blm[l].transpose() * t_r * -1.0;
            arr += blr[l].transpose() * t_r * -1.0;
            const Vec3 gb = ginv * bl[l];
            bm6 += blm[l].transpose() * gb * -1.0;
            br6 += blr[l].transpose() * gb * -1.0;
        }
        for (int x = 0; x < 6; ++x)
            dmm(x, x) += 1e-6;

        // Stage 2: eliminate the old pose through the dense 6x6 core.
        // Combined RHS [D_mr | b_m]; routed through the hub so
        // concurrent sessions' marginalizations execute as one batch.
        MatX mm(6, 6), rhs(6, 7);
        for (int x = 0; x < 6; ++x) {
            for (int y = 0; y < 6; ++y) {
                mm(x, y) = dmm(x, y);
                rhs(x, y) = dmr(x, y);
            }
            rhs(x, 6) = bm6[x];
        }
        MatX sol;
        bool solved = false;
        if (hub_) {
            solved = hub_->luSolve(mm, rhs, sol);
        } else {
            PartialPivLU lu(mm);
            if (lu.ok()) {
                lu.solveInto(rhs, sol);
                solved = true;
            }
        }
        if (solved) {
            // prior = A_rr' - D_mr^T D_mm'^-1 [D_mr | b_m].
            MatX h_new(6, 6);
            VecX b_new(6);
            for (int x = 0; x < 6; ++x) {
                for (int y = 0; y < 6; ++y) {
                    double acc = arr(x, y);
                    for (int k = 0; k < 6; ++k)
                        acc -= dmr(k, x) * sol(k, y);
                    h_new(x, y) = acc;
                }
                double acc = br6[x];
                for (int k = 0; k < 6; ++k)
                    acc -= dmr(k, x) * sol(k, 6);
                b_new[x] = acc;
            }
            pending_.marg_solved = true;
            pending_.prior_kf = next_kf;
            pending_.prior_h = h_new;
            pending_.prior_b = b_new;
        }
    } else if (nm > 0) {
        // Reference path (pre-overhaul): dense Amm assembly + LU.
        const int m_dim = 3 * nm + 6; // landmarks + old pose
        const int r_dim = 6;          // next-oldest pose
        MatX a(m_dim + r_dim, m_dim + r_dim);
        VecX b(m_dim + r_dim);

        auto accumulate = [&](int kf_id, int pose_col) {
            const Keyframe &kf = map_.keyframes()[kf_id];
            const BaPoseFrame frame = poseFrame(kf.pose, r_cb_);
            for (int lm : marg_lms) {
                for (const LandmarkObs &o : observations_[lm]) {
                    if (o.keyframe_id != kf_id)
                        continue;
                    const KeyPoint &kp = kf.keypoints[o.keypoint_index];
                    ObsLinearization lin = linearizeObs(
                        frame, r_cb_, map_.points()[lm].position,
                        Vec2{kp.x, kp.y}, rig_, cfg_.huber_px);
                    if (!lin.valid)
                        continue;
                    const double w =
                        lin.weight /
                        (cfg_.pixel_sigma * cfg_.pixel_sigma);
                    const int lc = 3 * lm_slot[lm];
                    for (int x = 0; x < 3; ++x) {
                        for (int y = 0; y < 3; ++y)
                            a(lc + x, lc + y) +=
                                w * (lin.j_lm(0, x) * lin.j_lm(0, y) +
                                     lin.j_lm(1, x) * lin.j_lm(1, y));
                        b[lc + x] += w * (lin.j_lm(0, x) * lin.r[0] +
                                          lin.j_lm(1, x) * lin.r[1]);
                        for (int y = 0; y < 6; ++y) {
                            double v =
                                w * (lin.j_lm(0, x) * lin.j_pose(0, y) +
                                     lin.j_lm(1, x) * lin.j_pose(1, y));
                            a(lc + x, pose_col + y) += v;
                            a(pose_col + y, lc + x) += v;
                        }
                    }
                    for (int x = 0; x < 6; ++x) {
                        for (int y = 0; y < 6; ++y)
                            a(pose_col + x, pose_col + y) +=
                                w * (lin.j_pose(0, x) * lin.j_pose(0, y) +
                                     lin.j_pose(1, x) * lin.j_pose(1, y));
                        b[pose_col + x] +=
                            w * (lin.j_pose(0, x) * lin.r[0] +
                                 lin.j_pose(1, x) * lin.r[1]);
                    }
                }
            }
        };
        accumulate(old_kf, 3 * nm);      // old pose: inside Amm
        accumulate(next_kf, 3 * nm + 6); // next pose: remaining state

        MatX amm = a.block(0, 0, m_dim, m_dim);
        MatX amr = a.block(0, m_dim, m_dim, r_dim);
        MatX arr = a.block(m_dim, m_dim, r_dim, r_dim);
        VecX bm(m_dim), br(r_dim);
        for (int i = 0; i < m_dim; ++i)
            bm[i] = b[i];
        for (int i = 0; i < r_dim; ++i)
            br[i] = b[m_dim + i];

        for (int i = 0; i < m_dim; ++i)
            amm(i, i) += 1e-6; // Tikhonov guard for unconstrained states

        PartialPivLU lu(amm);
        if (lu.ok()) {
            MatX amm_inv_amr = lu.solve(amr);
            VecX amm_inv_bm = lu.solve(bm);
            MatX h_new = arr - amr.transpose() * amm_inv_amr;
            VecX b_new = br - amr.transpose() * amm_inv_bm;
            pending_.marg_solved = true;
            pending_.prior_kf = next_kf;
            pending_.prior_h = h_new;
            pending_.prior_b = b_new;
        }
    }

    // The structural effects — dropping the old keyframe from the
    // window and its observations, installing the prior — are deferred
    // to the next frame's applyPendingFinish(): this function must stay
    // read-only so it may overlap the next frame's tracking.
    pending_.marg = true;
    pending_.old_kf = old_kf;
}

bool
Mapper::detectLoopClosure(int new_kf_id, MappingTiming &timing)
{
    StageTimer timer(timing.loop_ms);
    bool detected = false;
    const Keyframe &cur = map_.keyframes()[new_kf_id];
    if (voc_ && voc_->trained() &&
        new_kf_id > cfg_.loop_min_gap) {
        auto place =
            map_.queryPlace(cur.bow, new_kf_id - cfg_.loop_min_gap);
        if (place && place->score >= cfg_.loop_min_score) {
            const Keyframe &old = map_.keyframes()[place->keyframe_id];
            // 2D-2D descriptor match, lifted to 3D by the old keyframe's
            // landmark associations.
            std::vector<Match> matches =
                matchDescriptors(old.descriptors, cur.descriptors);
            std::vector<PoseObservation> obs;
            for (const Match &m : matches) {
                int lm = old.map_point_ids[m.query_index];
                if (lm < 0)
                    continue;
                const KeyPoint &kp = cur.keypoints[m.train_index];
                obs.push_back({map_.points()[lm].position,
                               Vec2{kp.x, kp.y}});
            }
            if (static_cast<int>(obs.size()) >= cfg_.loop_min_matches) {
                PoseOptResult opt = optimizePose(
                    cur.pose, obs, rig_.cam, rig_.body_from_camera);
                if (opt.converged &&
                    opt.inliers >= cfg_.loop_min_matches / 2) {
                    // Correction transform mapping the drifted estimate
                    // onto the loop-consistent one. The rigid window
                    // correction is deferred to applyPendingFinish()
                    // (this function is read-only so it may overlap the
                    // next frame's tracking).
                    pending_.loop = true;
                    pending_.correction = opt.pose * cur.pose.inverse();
                    detected = true;
                }
            }
        }
    }
    return detected;
}

std::optional<Pose>
Mapper::applyPendingFinish(MappingTiming &timing)
{
    if (!pending_.marg && !pending_.loop)
        return std::nullopt;
    StageTimer timer(timing.others_ms);

    if (pending_.marg) {
        // Drop the marginalized keyframe from the window and its
        // observations; install the computed prior.
        const int old_kf = pending_.old_kf;
        assert(!window_.empty() && window_.front() == old_kf);
        for (int lm : map_.keyframes()[old_kf].map_point_ids) {
            if (lm < 0)
                continue;
            auto &obs = observations_[lm];
            obs.erase(std::remove_if(obs.begin(), obs.end(),
                                     [old_kf](const LandmarkObs &o) {
                                         return o.keyframe_id == old_kf;
                                     }),
                      obs.end());
        }
        window_.erase(window_.begin());
        if (retire_log_)
            retired_.push_back(old_kf);
        if (pending_.marg_solved) {
            prior_kf_ = pending_.prior_kf;
            prior_h_ = pending_.prior_h;
            prior_b_ = pending_.prior_b;
        }
    }

    std::optional<Pose> correction;
    if (pending_.loop) {
        // Rigid loop correction over the (post-pop) window: poses plus
        // the landmarks they observe, exactly the set the pre-split
        // algorithm transformed.
        const Pose &corr = pending_.correction;
        std::unordered_set<int> win_lms;
        for (int kf_id : window_) {
            Keyframe &kf = map_.keyframes()[kf_id];
            kf.pose = corr * kf.pose;
            for (int lm : kf.map_point_ids)
                if (lm >= 0)
                    win_lms.insert(lm);
        }
        for (int lm : win_lms)
            map_.points()[lm].position =
                corr.apply(map_.points()[lm].position);
        // The prior linearization moved with the window.
        prior_b_ = VecX(6);
        ++loop_closures_;
        correction = corr;
    }

    pending_ = PendingFinish{};
    return correction;
}

MappingResult
Mapper::processFrameSolve(const FrontendOutput &frame,
                          const Pose &pose_estimate)
{
    MappingResult res;
    res.pose = pose_estimate;
    ++frame_counter_;
    finish_kf_ = -1;

    const bool make_keyframe =
        window_.empty() || (frame_counter_ % cfg_.keyframe_interval) == 0;
    if (!make_keyframe)
        return res;

    int kf_id = -1;
    {
        StageTimer timer(res.timing.others_ms);
        kf_id = insertKeyframe(frame, pose_estimate);
        res.keyframe_added = true;
    }

    localBundleAdjustment(res.timing, res.workload);

    finish_kf_ = kf_id;
    res.pose = map_.keyframes()[kf_id].pose;
    return res;
}

void
Mapper::computeFinish(MappingResult &res)
{
    if (finish_kf_ < 0)
        return; // no keyframe this frame: nothing to finish
    pending_ = PendingFinish{};

    if (static_cast<int>(window_.size()) > cfg_.window_size)
        computeMarginalization(res.timing, res.workload);

    res.loop_closed = detectLoopClosure(finish_kf_, res.timing);
    finish_kf_ = -1;
}

MappingResult
Mapper::processFrame(const FrontendOutput &frame, const Pose &pose_estimate)
{
    MappingTiming apply_timing;
    std::optional<Pose> corr = applyPendingFinish(apply_timing);
    const Pose estimate =
        corr ? *corr * pose_estimate : pose_estimate;

    MappingResult res = processFrameSolve(frame, estimate);
    res.timing.others_ms += apply_timing.others_ms;
    computeFinish(res);
    return res;
}

} // namespace edx
