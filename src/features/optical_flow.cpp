#include "features/optical_flow.hpp"

#include <cmath>

#include "features/fast_avx2.hpp"
#include "math/cpu_features.hpp"
#include "math/mat.hpp"

namespace edx {

namespace {

/**
 * Tracks one point at one pyramid level against cached gradients of
 * the previous image. Returns false when the point leaves the image or
 * the system is ill-conditioned.
 *
 * This one routine is the solver for both the workspace path and the
 * reference path. With @p simd set, the two window loops run in the
 * AVX2 twins (features/fast_avx2), which keep the per-sample operation
 * order and the serial g / b / res sums of the scalar loops below, so
 * the tracks are bit-identical on every tier. The reference path
 * always passes false: it is the scalar oracle the tier is tested
 * against.
 */
bool
trackAtLevel(const ImageU8 &prev, const Gradients &grad,
             const ImageU8 &next, double px, double py, double &nx,
             double &ny, const FlowConfig &cfg, FlowScratch &s,
             double &residual_out, bool simd)
{
    const int r = cfg.window_radius;
    if (!prev.containsWithBorder(px, py, r + 2))
        return false;

    // DC task: sample the template window and its cached Scharr
    // gradients with one shared set of bilinear weights (every sample
    // in the window has the same sub-pixel fraction).
    const int n = (2 * r + 1) * (2 * r + 1);
    const int x0 = static_cast<int>(std::floor(px)) - r;
    const int y0 = static_cast<int>(std::floor(py)) - r;
    const double fx = px - std::floor(px);
    const double fy = py - std::floor(py);
    const double w00 = (1 - fx) * (1 - fy), w10 = fx * (1 - fy);
    const double w01 = (1 - fx) * fy, w11 = fx * fy;

    s.iv.resize(n + FlowScratch::kPad);
    s.ix.resize(n + FlowScratch::kPad);
    s.iy.resize(n + FlowScratch::kPad);
    double *iv = s.iv.data(), *ix = s.ix.data(), *iy = s.iy.data();

    Mat2 g;
    if (simd) {
#if defined(EDX_HAVE_AVX2)
        const double w[4] = {w00, w10, w01, w11};
        double sums[3];
        avx2::lkTemplate(prev.data(), grad.gx.data(), grad.gy.data(),
                         prev.width(), x0, y0, 2 * r + 1, w, iv, ix, iy,
                         sums);
        g(0, 0) = sums[0];
        g(0, 1) = sums[1];
        g(1, 1) = sums[2];
#endif
    } else {
        int idx = 0;
        for (int dy = 0; dy <= 2 * r; ++dy) {
            const uint8_t *p0 = prev.rowPtr(y0 + dy) + x0;
            const uint8_t *p1 = prev.rowPtr(y0 + dy + 1) + x0;
            const float *gx0 = grad.gx.rowPtr(y0 + dy) + x0;
            const float *gx1 = grad.gx.rowPtr(y0 + dy + 1) + x0;
            const float *gy0 = grad.gy.rowPtr(y0 + dy) + x0;
            const float *gy1 = grad.gy.rowPtr(y0 + dy + 1) + x0;
            for (int dx = 0; dx <= 2 * r; ++dx, ++idx) {
                iv[idx] = w00 * p0[dx] + w10 * p0[dx + 1] +
                          w01 * p1[dx] + w11 * p1[dx + 1];
                const double gx = w00 * gx0[dx] + w10 * gx0[dx + 1] +
                                  w01 * gx1[dx] + w11 * gx1[dx + 1];
                const double gy = w00 * gy0[dx] + w10 * gy0[dx + 1] +
                                  w01 * gy1[dx] + w11 * gy1[dx + 1];
                ix[idx] = gx;
                iy[idx] = gy;
                g(0, 0) += gx * gx;
                g(0, 1) += gx * gy;
                g(1, 1) += gy * gy;
            }
        }
    }
    g(1, 0) = g(0, 1);

    // Conditioning gate: minimum eigenvalue of G normalized by window
    // area (rejects textureless or edge-only regions).
    double tr = g(0, 0) + g(1, 1);
    double dt = det(g);
    double disc = std::sqrt(std::max(0.0, tr * tr / 4.0 - dt));
    double lambda_min = (tr / 2.0 - disc) / n;
    if (lambda_min < cfg.min_eigenvalue)
        return false;

    Mat2 ginv = inverse(g);

    // LSS task: iterate v <- v + G^{-1} b until the update is small.
    // As in DC, every window sample shares the current sub-pixel
    // fraction of (nx, ny), so the bilinear weights are hoisted out of
    // the window loop.
    for (int it = 0; it < cfg.max_iterations; ++it) {
        if (!next.containsWithBorder(nx, ny, r + 2))
            return false;
        const int nx0 = static_cast<int>(std::floor(nx));
        const int ny0 = static_cast<int>(std::floor(ny));
        const double nfx = nx - nx0, nfy = ny - ny0;
        const double q00 = (1 - nfx) * (1 - nfy), q10 = nfx * (1 - nfy);
        const double q01 = (1 - nfx) * nfy, q11 = nfx * nfy;

        Vec2 b;
        double res = 0.0;
        if (simd) {
#if defined(EDX_HAVE_AVX2)
            const double q[4] = {q00, q10, q01, q11};
            double bs[2];
            avx2::lkResidual(next.data(), next.width(), nx0 - r, ny0 - r,
                             2 * r + 1, q, iv, ix, iy, bs, &res);
            b[0] = bs[0];
            b[1] = bs[1];
#endif
        } else {
            int idx = 0;
            for (int dy = -r; dy <= r; ++dy) {
                const uint8_t *r0 = next.rowPtr(ny0 + dy) + nx0 - r;
                const uint8_t *r1 = next.rowPtr(ny0 + dy + 1) + nx0 - r;
                for (int dx = 0; dx <= 2 * r; ++dx, ++idx) {
                    double sample = q00 * r0[dx] + q10 * r0[dx + 1] +
                                    q01 * r1[dx] + q11 * r1[dx + 1];
                    double dI = sample - iv[idx];
                    b[0] += dI * ix[idx];
                    b[1] += dI * iy[idx];
                    res += std::abs(dI);
                }
            }
        }
        residual_out = res / n;
        Vec2 v = ginv * b;
        nx -= v[0];
        ny -= v[1];
        if (v.norm() < cfg.epsilon)
            break;
    }
    return next.containsWithBorder(nx, ny, r + 2);
}

/**
 * Tracks every point coarse to fine. @p allow_simd = false pins the
 * scalar window loops (the reference oracle); otherwise the active
 * SIMD tier picks them.
 */
void
trackAll(const Pyramid &prev, const std::vector<Gradients> &prev_grads,
         const Pyramid &next, const std::vector<KeyPoint> &prev_pts,
         const FlowConfig &cfg, FlowScratch &scratch,
         std::vector<TemporalMatch> &out, bool allow_simd)
{
    const bool simd = allow_simd && simdTierIsAvx2();
    out.clear();
    const int levels =
        std::min({cfg.pyramid_levels, prev.levels(), next.levels(),
                  static_cast<int>(prev_grads.size())});
    if (levels <= 0)
        return;

    for (int i = 0; i < static_cast<int>(prev_pts.size()); ++i) {
        const KeyPoint &kp = prev_pts[i];
        // Start at the coarsest level with the identity guess.
        double scale = std::pow(2.0, levels - 1);
        double nx = kp.x / scale, ny = kp.y / scale;
        bool ok = true;
        double residual = 0.0;
        for (int l = levels - 1; l >= 0; --l) {
            double s = std::pow(2.0, l);
            double px = kp.x / s, py = kp.y / s;
            double cx = nx, cy = ny;
            ok = trackAtLevel(prev.level(l), prev_grads[l],
                              next.level(l), px, py, cx, cy, cfg,
                              scratch, residual, simd);
            if (ok) {
                nx = cx;
                ny = cy;
            } else if (l > 0) {
                // Coarse levels may lack texture (patches shrink to a few
                // pixels); keep the current guess and let finer levels
                // recover. Only the finest level must succeed.
                ok = true;
            } else {
                break;
            }
            if (l > 0) {
                nx *= 2.0;
                ny *= 2.0;
            }
        }
        if (!ok || residual > cfg.max_residual)
            continue;
        out.push_back({i, static_cast<float>(nx), static_cast<float>(ny),
                       static_cast<float>(residual)});
    }
}

} // namespace

void
trackLucasKanadeInto(const Pyramid &prev,
                     const std::vector<Gradients> &prev_grads,
                     const Pyramid &next,
                     const std::vector<KeyPoint> &prev_pts,
                     const FlowConfig &cfg, FlowScratch &scratch,
                     std::vector<TemporalMatch> &out)
{
    trackAll(prev, prev_grads, next, prev_pts, cfg, scratch, out, true);
}

std::vector<TemporalMatch>
trackLucasKanade(const Pyramid &prev, const Pyramid &next,
                 const std::vector<KeyPoint> &prev_pts,
                 const FlowConfig &cfg)
{
    const int levels = std::min({cfg.pyramid_levels, prev.levels(),
                                 next.levels()});
    std::vector<Gradients> grads;
    for (int l = 0; l < levels; ++l)
        grads.push_back(cfg.scharr_gradients
                            ? scharrGradients(prev.level(l))
                            : centralDiffGradients(prev.level(l)));
    FlowScratch scratch;
    std::vector<TemporalMatch> out;
    trackAll(prev, grads, next, prev_pts, cfg, scratch, out, true);
    return out;
}

std::vector<TemporalMatch>
trackLucasKanadeReference(const Pyramid &prev, const Pyramid &next,
                          const std::vector<KeyPoint> &prev_pts,
                          const FlowConfig &cfg)
{
    const int levels = std::min({cfg.pyramid_levels, prev.levels(),
                                 next.levels()});
    std::vector<Gradients> grads;
    for (int l = 0; l < levels; ++l)
        grads.push_back(
            cfg.scharr_gradients
                ? scharrGradientsReference(prev.level(l))
                : centralDiffGradientsReference(prev.level(l)));
    FlowScratch scratch;
    std::vector<TemporalMatch> out;
    trackAll(prev, grads, next, prev_pts, cfg, scratch, out, false);
    return out;
}

} // namespace edx
