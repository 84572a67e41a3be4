/**
 * @file
 * Declarations of the AVX2 feature-kernel tier (features/fast_avx2.cpp,
 * compiled with -mavx2 -mfma): FAST-9 detection, the ORB BRIEF
 * sampler and the Lucas-Kanade window loops. Every kernel here is
 * bit-identical to its scalar twin on every tier, so the frontend's
 * products (key points, angles, descriptors, stereo and temporal
 * matches) do not depend on the tier.
 *
 *  - FAST: the dense stages are exact saturating-u8 integer arithmetic
 *    at 32 pixels per step (the SSE2 interior does 16), so the
 *    candidate flags and corner/polarity masks are bit-identical to
 *    the SSE2 tier; the per-corner scorer evaluates all 16 arc starts
 *    at once and reproduces the scalar sweep bit-exactly. Emission
 *    stays in fast.cpp, which preserves the output order.
 *  - ORB and LK keep the scalar code's per-element operation order
 *    (no FMA, no reassociation); the LK window sums stay serial in
 *    the scalar index order, only the per-sample work is 4 lanes wide.
 *
 * This file pair is the home of every feature-level AVX2 kernel: the
 * benchmark build (locbench/CMakeLists.txt) compiles exactly the three
 * EDX_AVX2_SOURCES of the root CMakeLists.txt with the AVX2 flags, and
 * the root build refuses any other src *_avx2.cpp.
 * Raw-pointer interfaces only (see simd_avx2.hpp for why).
 */
#pragma once

#if defined(EDX_HAVE_AVX2)

namespace edx {
namespace avx2 {

/**
 * Dense branchless compass prefilter: writes the candidate flag bytes
 * for pixels [x, x + 32*t) <= xe in 32-pixel steps and returns the
 * first unprocessed x.
 */
int fastPrefilter(const unsigned char *row, const unsigned char *row_n,
                  const unsigned char *row_s, int t, unsigned char *flags,
                  int x, int xe);

/**
 * Dense segment test for the 32-pixel block at @p row + @p x: returns
 * the corner mask and the bright-polarity mask (bit i = pixel x + i).
 * Returns 0 masks without ring work when the block has no prefilter
 * survivors in @p flags.
 */
void fastSegment32(const unsigned char *row, int x, const int *ring_off,
                   int t, const unsigned char *flags,
                   unsigned *corner_bits, unsigned *bright_bits);

/**
 * Vectorized per-corner scorer: all 16 arc starts at once via byte
 * rotations (run-doubling min/AND), bit-identical to the scalar sweep
 * in fast.cpp. This is the FAST hot spot — the dense stages reject
 * most pixels cheaply, so the detector's time concentrates in scoring
 * the thousands of raw corners per frame.
 */
int scoreCorner16(const unsigned char *p, const int *ring_off, int hi,
                  int lo, int c, bool bright);

/**
 * BRIEF bits of one interior ORB key point at (@p kx, @p ky) with
 * orientation (@p ca, @p sa) = (cos, sin): rotates 8 pattern pairs per
 * step in f32, samples the bilinear taps 4 per step in f64 (byte pairs
 * gathered from @p img with row stride @p stride) and writes the 256
 * comparison bits as 32 little-endian bytes to @p bits (bit b of the
 * descriptor = bit b & 7 of byte b >> 3). @p pax .. @p pby are the 256
 * pattern pairs in SoA form. Every tap must lie in the interior the
 * scalar fast path assumes (no clamping). The gathers read 2 bytes
 * past the right tap; that stays inside the image because a tap within
 * 3 pixels of the right edge is never on the last row (the pattern
 * radius is 14 * sqrt(2) < 20).
 */
void orbBriefBits(const unsigned char *img, int stride, float kx,
                  float ky, float ca, float sa, const float *pax,
                  const float *pay, const float *pbx, const float *pby,
                  unsigned char *bits);

/**
 * LK template window (DC task) of width @p win = 2r + 1 at top-left
 * (@p x0, @p y0): bilinear samples of the image and of both gradient
 * images with the shared weights @p w = {w00, w10, w01, w11}, stored
 * row-major with stride @p win into @p iv / @p ix / @p iy, and the
 * normal-matrix sums @p g = {sum gx^2, sum gx*gy, sum gy^2} accumulated
 * serially in window order. The last row's 4-lane stores reach 3
 * entries past win * win, so the buffers need that padding. Loads
 * reach up to 3 pixels past the rightmost tap, on rows that are never
 * the image's last (the caller's r + 2 border).
 */
void lkTemplate(const unsigned char *img, const float *gx,
                const float *gy, int stride, int x0, int y0, int win,
                const double *w, double *iv, double *ix, double *iy,
                double *g);

/**
 * One LK iteration's window pass (LSS task) against the template from
 * lkTemplate: per-sample residual dI = sample - iv with the shared
 * bilinear weights @p q, and the serial sums @p b = {sum dI*ix,
 * sum dI*iy} and @p res = sum |dI| in window order. Same read and
 * padding reach as lkTemplate.
 */
void lkResidual(const unsigned char *img, int stride, int x0, int y0,
                int win, const double *q, const double *iv,
                const double *ix, const double *iy, double *b,
                double *res);

} // namespace avx2
} // namespace edx

#endif // EDX_HAVE_AVX2
