/**
 * @file
 * The per-session backend workspace: every buffer the MSCKF touches on
 * its hot path — covariance propagation, clone augmentation, the
 * stacked-Jacobian build, QR measurement compression, the Kalman-gain
 * solve, and the covariance downdate — owned in one place and reused
 * frame to frame, so steady-state backend frames perform zero heap
 * allocations (the backend twin of frontend/workspace.hpp).
 *
 * Ownership model:
 *  - Msckf owns one BackendWorkspace for the lifetime of the session;
 *    propagate()/update() only ever write into it.
 *  - Buffers are sized lazily: they grow until the clone window and
 *    track load reach steady state, then stop. Msckf snapshots
 *    capacityBytes() around each update and counts frames that grew
 *    anything (allocationEvents()); the zero-alloc tests assert the
 *    counter stops moving once warm.
 *  - The decomposition objects (Cholesky / LU / QR) follow the same
 *    contract through their compute() storage reuse.
 *
 * LocalBaWorkspace is the SLAM mapper's counterpart for the local
 * bundle adjustment, under the same ownership and accounting rules
 * (Mapper::baAllocationEvents()).
 */
#pragma once

#include <unordered_set>
#include <vector>

#include "math/aligned_alloc.hpp"
#include "math/decomp.hpp"
#include "math/matx.hpp"
#include "math/se3.hpp"

namespace edx {

struct FeatureTrack;

/** All reusable buffers of one MSCKF session. */
struct BackendWorkspace
{
    // --- covariance propagation (per IMU sample) ---------------------
    MatX a_imu{15, 15}; //!< error-state transition block
    MatX p_ii{15, 15};  //!< IMU-block copy of the covariance
    MatX ap{15, 15};    //!< A * P_II (sandwich intermediate)
    MatX s_ii{15, 15};  //!< A * P_II * A^T (exact-symmetric)
    MatX p_ic;          //!< 15 x (d-15) cross strip
    MatX ap_ic;         //!< A * P_IC

    // --- per-track residual block ------------------------------------
    std::vector<int> slots;  //!< clone slots of the track observations
    MatX hx;                 //!< 2m x d pose Jacobian
    MatX hf;                 //!< 2m x 3 feature Jacobian
    VecX r_track;            //!< 2m residual
    HouseholderQR qr_track;  //!< nullspace projector (QR of hf)

    // --- stacked system ----------------------------------------------
    std::vector<const FeatureTrack *> usable;
    std::vector<Vec3> points;
    MatX h; //!< stacked nullspace-projected Jacobian
    VecX r; //!< stacked residual

    // --- QR measurement compression ----------------------------------
    HouseholderQR qr_compress;
    MatX h_compressed; //!< top d x d triangle of the compressed stack

    // --- Kalman gain + covariance update -----------------------------
    MatX hp;  //!< H * P (sandwich intermediate == solve RHS)
    MatX s;   //!< innovation covariance H P H^T + R
    Cholesky chol;
    PartialPivLU lu; //!< fallback when S is not numerically SPD
    MatX k_t;        //!< rows x d, K = k_t^T
    VecX dx;         //!< state correction

    // --- float32 covariance-update path (math/blas_f32.hpp) ----------
    AlignedVector<float> h_f;  //!< packed compressed Jacobian
    AlignedVector<float> p_f;  //!< packed covariance
    AlignedVector<float> hp_f; //!< H * P
    AlignedVector<float> s_f;  //!< innovation covariance / its factor
    AlignedVector<float> kt_f; //!< gain transpose
    AlignedVector<float> t_f;  //!< downdate term (H P)^T K^T

    size_t
    capacityBytes() const
    {
        return a_imu.capacityBytes() + p_ii.capacityBytes() +
               ap.capacityBytes() + s_ii.capacityBytes() +
               p_ic.capacityBytes() + ap_ic.capacityBytes() +
               slots.capacity() * sizeof(int) + hx.capacityBytes() +
               hf.capacityBytes() + r_track.capacityBytes() +
               qr_track.capacityBytes() +
               usable.capacity() * sizeof(const FeatureTrack *) +
               points.capacity() * sizeof(Vec3) + h.capacityBytes() +
               r.capacityBytes() + qr_compress.capacityBytes() +
               h_compressed.capacityBytes() + hp.capacityBytes() +
               s.capacityBytes() + chol.capacityBytes() +
               lu.capacityBytes() + k_t.capacityBytes() +
               dx.capacityBytes() +
               (h_f.capacity() + p_f.capacity() + hp_f.capacity() +
                s_f.capacity() + kt_f.capacity() + t_f.capacity()) *
                   sizeof(float);
    }
};

/**
 * Rotations of one window pose in one BA state, computed once per pose
 * instead of once per observation.
 */
struct BaPoseFrame
{
    Mat3 r_bw;     //!< body <- world
    Mat3 r_cw;     //!< camera <- world (R_cb * R_bw)
    Mat3 neg_r_cw; //!< -R_cw, the translation-Jacobian factor
    Vec3 t_wb;     //!< body origin in the world frame
};

/**
 * All reusable buffers of one Mapper's local bundle adjustment.
 *
 * The undamped normal equations (Hpp with the marginalization prior,
 * Hll, the W coupling blocks, b) are a cache: they describe the
 * current LM state and are rebuilt only after an accepted step, so a
 * rejected step re-solves the same system under a larger damping.
 * Problem-size buffers grow with headroom, so the window's frame to
 * frame fluctuation stops reallocating once warm.
 */
struct LocalBaWorkspace
{
    /** One window observation of an optimized landmark. */
    struct Obs
    {
        int lm_slot;
        int window_slot; //!< index into the window; 0 is the gauge pose
        Vec2 z;
    };

    /** Coupling block W^T (3x6) of one (landmark, window pose) pair. */
    struct WBlock
    {
        int pose_slot;
        Mat<3, 6> wt;
    };

    // --- problem bookkeeping -----------------------------------------
    std::unordered_set<int> seen;  //!< landmark dedupe (not accounted)
    std::vector<int> lms;          //!< map point id per landmark slot
    std::vector<int> lm_obs_begin; //!< obs range per landmark, nl + 1
    std::vector<Obs> obs;          //!< grouped by landmark slot

    // --- LM state and candidate --------------------------------------
    std::vector<Pose> poses, cand_poses;
    std::vector<BaPoseFrame> frames, cand_frames;
    std::vector<Vec3> points, cand_points;

    // --- undamped normal equations (valid until an accepted step) ----
    MatX hpp;
    VecX bp, bl;
    std::vector<Mat3> hll;
    std::vector<WBlock> w;    //!< landmark l's blocks start at lm_obs_begin[l]
    std::vector<int> w_count; //!< blocks per landmark
    MatX hpl;                 //!< dense coupling (reference path only)

    // --- damped Schur solve ------------------------------------------
    std::vector<Mat3> hll_inv;
    std::vector<Mat<6, 3>> tbuf; //!< W Hll^-1 of one landmark
    MatX s;
    VecX rhs, dp;
    Cholesky chol;
    PartialPivLU lu;
    std::vector<Vec3> dl;

    size_t
    capacityBytes() const
    {
        return lms.capacity() * sizeof(int) +
               lm_obs_begin.capacity() * sizeof(int) +
               obs.capacity() * sizeof(Obs) +
               (poses.capacity() + cand_poses.capacity()) * sizeof(Pose) +
               (frames.capacity() + cand_frames.capacity()) *
                   sizeof(BaPoseFrame) +
               (points.capacity() + cand_points.capacity() +
                dl.capacity()) *
                   sizeof(Vec3) +
               hpp.capacityBytes() + bp.capacityBytes() +
               bl.capacityBytes() +
               (hll.capacity() + hll_inv.capacity()) * sizeof(Mat3) +
               w.capacity() * sizeof(WBlock) +
               w_count.capacity() * sizeof(int) + hpl.capacityBytes() +
               tbuf.capacity() * sizeof(Mat<6, 3>) + s.capacityBytes() +
               rhs.capacityBytes() + dp.capacityBytes() +
               chol.capacityBytes() + lu.capacityBytes();
    }
};

} // namespace edx
