/**
 * @file
 * AVX2 tier of the feature kernels. FAST-9: the dense compass
 * prefilter and saturating run-length segment test at 32 pixels per
 * step, plus the vectorized per-corner scorer, in the same exact
 * integer arithmetic as the scalar/SSE2 code in fast.cpp (emission
 * stays there). ORB BRIEF sampling and the LK window loops: the
 * scalar code's per-element f32/f64 operation order lane by lane, with
 * every reduction kept serial in the scalar index order. All of it is
 * bit-identical to the scalar twins.
 *
 * Only <immintrin.h> here — see simd_avx2.cpp for the ODR rationale.
 */
#if defined(EDX_HAVE_AVX2)

#include <immintrin.h>

#include "features/fast_avx2.hpp"

namespace edx {
namespace avx2 {

namespace {

/** v > hi (unsigned bytes): subs(v, hi) != 0. */
inline __m256i
gtU8(__m256i v, __m256i hi)
{
    return _mm256_xor_si256(
        _mm256_cmpeq_epi8(_mm256_subs_epu8(v, hi),
                          _mm256_setzero_si256()),
        _mm256_set1_epi8(-1));
}

inline __m256i
load(const unsigned char *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

/** 4 consecutive bytes widened to doubles. */
inline __m256d
bytes4(const unsigned char *p)
{
    return _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_loadu_si32(p)));
}

/** 4 consecutive floats widened to doubles. */
inline __m256d
floats4(const float *p)
{
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

/**
 * The scalar bilinear expression ((w00*a + w10*b) + w01*c) + w11*d,
 * 4 lanes at once in the same operation order.
 */
inline __m256d
bilinear(__m256d w00, __m256d w10, __m256d w01, __m256d w11, __m256d a,
         __m256d b, __m256d c, __m256d d)
{
    return _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(w00, a),
                                    _mm256_mul_pd(w10, b)),
                      _mm256_mul_pd(w01, c)),
        _mm256_mul_pd(w11, d));
}

/**
 * 4 bilinear taps at f32 coordinates (@p x, @p y), with the scalar
 * sampleBilinearFast arithmetic: truncated integer corner, f64
 * fractions, v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy +
 * v11*fx*fy summed left to right.
 */
inline __m256d
tap4(const unsigned char *img, int stride, __m128 xf, __m128 yf)
{
    const __m256d x = _mm256_cvtps_pd(xf);
    const __m256d y = _mm256_cvtps_pd(yf);
    const __m128i x0 = _mm256_cvttpd_epi32(x);
    const __m128i y0 = _mm256_cvttpd_epi32(y);
    const __m256d fx = _mm256_sub_pd(x, _mm256_cvtepi32_pd(x0));
    const __m256d fy = _mm256_sub_pd(y, _mm256_cvtepi32_pd(y0));
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d gx = _mm256_sub_pd(one, fx);
    const __m256d gy = _mm256_sub_pd(one, fy);

    // Each gather lane loads the 4 bytes at the tap's top-left pixel:
    // byte 0 is v(x0), byte 1 is v(x0 + 1).
    const __m128i idx = _mm_add_epi32(
        _mm_mullo_epi32(y0, _mm_set1_epi32(stride)), x0);
    const int *base = reinterpret_cast<const int *>(img);
    const __m128i top = _mm_i32gather_epi32(base, idx, 1);
    const __m128i bot = _mm_i32gather_epi32(
        base, _mm_add_epi32(idx, _mm_set1_epi32(stride)), 1);
    const __m128i lo = _mm_set1_epi32(0xFF);
    const __m256d v00 = _mm256_cvtepi32_pd(_mm_and_si128(top, lo));
    const __m256d v10 =
        _mm256_cvtepi32_pd(_mm_and_si128(_mm_srli_epi32(top, 8), lo));
    const __m256d v01 = _mm256_cvtepi32_pd(_mm_and_si128(bot, lo));
    const __m256d v11 =
        _mm256_cvtepi32_pd(_mm_and_si128(_mm_srli_epi32(bot, 8), lo));

    return _mm256_add_pd(
        _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(_mm256_mul_pd(v00, gx), gy),
                          _mm256_mul_pd(_mm256_mul_pd(v10, fx), gy)),
            _mm256_mul_pd(_mm256_mul_pd(v01, gx), fy)),
        _mm256_mul_pd(_mm256_mul_pd(v11, fx), fy));
}

} // namespace

int
fastPrefilter(const unsigned char *row, const unsigned char *row_n,
              const unsigned char *row_s, int t, unsigned char *flags,
              int x, int xe)
{
    const __m256i vt = _mm256_set1_epi8(static_cast<char>(t));
    for (; x + 32 <= xe; x += 32) {
        const __m256i c = load(row + x);
        const __m256i hi = _mm256_adds_epu8(c, vt);
        const __m256i lo = _mm256_subs_epu8(c, vt);
        const __m256i v0 = load(row_n + x);
        const __m256i v8 = load(row_s + x);
        const __m256i v4 = load(row + x + 3);
        const __m256i v12 = load(row + x - 3);
        const __m256i bright = _mm256_and_si256(
            _mm256_or_si256(gtU8(v0, hi), gtU8(v8, hi)),
            _mm256_or_si256(gtU8(v4, hi), gtU8(v12, hi)));
        const __m256i dark = _mm256_and_si256(
            _mm256_or_si256(gtU8(lo, v0), gtU8(lo, v8)),
            _mm256_or_si256(gtU8(lo, v4), gtU8(lo, v12)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(flags + x),
                            _mm256_or_si256(bright, dark));
    }
    return x;
}

void
fastSegment32(const unsigned char *row, int x, const int *ring_off,
              int t, const unsigned char *flags, unsigned *corner_bits,
              unsigned *bright_bits)
{
    *corner_bits = 0;
    *bright_bits = 0;
    const __m256i zero = _mm256_setzero_si256();
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi8(load(flags + x), zero)) ==
        -1)
        return; // no prefilter survivors in this block
    const __m256i vt = _mm256_set1_epi8(static_cast<char>(t));
    const __m256i eight = _mm256_set1_epi8(8);
    const __m256i c = load(row + x);
    const __m256i hi = _mm256_adds_epu8(c, vt);
    const __m256i lo = _mm256_subs_epu8(c, vt);
    __m256i count_b = zero, count_d = zero;
    __m256i max_b = zero, max_d = zero;
    for (int i = 0; i < 24; ++i) {
        const __m256i v = load(row + x + ring_off[i & 15]);
        const __m256i bm = gtU8(v, hi);
        const __m256i dm = gtU8(lo, v);
        // count = pass ? count + 1 : 0
        count_b = _mm256_and_si256(bm, _mm256_sub_epi8(count_b, bm));
        count_d = _mm256_and_si256(dm, _mm256_sub_epi8(count_d, dm));
        max_b = _mm256_max_epu8(max_b, count_b);
        max_d = _mm256_max_epu8(max_d, count_d);
    }
    const __m256i bright9 = gtU8(max_b, eight);
    const __m256i dark9 = gtU8(max_d, eight);
    *corner_bits = static_cast<unsigned>(
        _mm256_movemask_epi8(_mm256_or_si256(bright9, dark9)));
    *bright_bits =
        static_cast<unsigned>(_mm256_movemask_epi8(bright9));
}

int
scoreCorner16(const unsigned char *p, const int *ring_off, int hi, int lo,
              int c, bool bright)
{
    alignas(16) unsigned char ring[16];
    for (int i = 0; i < 16; ++i)
        ring[i] = p[ring_off[i]];
    const __m128i v =
        _mm_load_si128(reinterpret_cast<const __m128i *>(ring));
    const __m128i zero = _mm_setzero_si128();
    const __m128i ones = _mm_set1_epi8(-1);

    // Per-lane pass mask for the detected polarity. hi may exceed 255
    // and lo may be negative (int math in the caller); clamping to the
    // u8 range preserves the exact compare, as in the dense stages.
    __m128i pass;
    if (bright) {
        const __m128i vhi =
            _mm_set1_epi8(static_cast<char>(hi < 255 ? hi : 255));
        pass = _mm_xor_si128(
            _mm_cmpeq_epi8(_mm_subs_epu8(v, vhi), zero), ones);
    } else {
        const __m128i vlo =
            _mm_set1_epi8(static_cast<char>(lo > 0 ? lo : 0));
        pass = _mm_xor_si128(
            _mm_cmpeq_epi8(_mm_subs_epu8(vlo, v), zero), ones);
    }
    const __m128i vc = _mm_set1_epi8(static_cast<char>(c));
    const __m128i d =
        _mm_or_si128(_mm_subs_epu8(v, vc), _mm_subs_epu8(vc, v));

    // Run doubling over the circular ring (alignr(x, x, k) rotates so
    // lane s reads lane s + k): after the three doubling steps plus one
    // 8-rotate, lane s holds min / AND over ring[s .. s + 8] — the
    // 9-arc starting at s, all 16 starts at once.
    __m128i m = _mm_min_epu8(d, _mm_alignr_epi8(d, d, 1));
    __m128i a = _mm_and_si128(pass, _mm_alignr_epi8(pass, pass, 1));
    m = _mm_min_epu8(m, _mm_alignr_epi8(m, m, 2));
    a = _mm_and_si128(a, _mm_alignr_epi8(a, a, 2));
    m = _mm_min_epu8(m, _mm_alignr_epi8(m, m, 4));
    a = _mm_and_si128(a, _mm_alignr_epi8(a, a, 4));
    m = _mm_min_epu8(m, _mm_alignr_epi8(d, d, 8));
    a = _mm_and_si128(a, _mm_alignr_epi8(pass, pass, 8));

    // Arcs that fail drop to zero; a passing arc's min delta is always
    // >= 1 (every tap clears the threshold), so the horizontal max is
    // exactly the scalar sweep's best-of-passing-starts.
    const __m128i s = _mm_and_si128(m, a);
    __m128i r = _mm_max_epu8(s, _mm_srli_si128(s, 8));
    r = _mm_max_epu8(r, _mm_srli_si128(r, 4));
    r = _mm_max_epu8(r, _mm_srli_si128(r, 2));
    r = _mm_max_epu8(r, _mm_srli_si128(r, 1));
    return _mm_cvtsi128_si32(r) & 0xFF;
}

void
orbBriefBits(const unsigned char *img, int stride, float kx, float ky,
             float ca, float sa, const float *pax, const float *pay,
             const float *pbx, const float *pby, unsigned char *bits)
{
    const __m256 vca = _mm256_set1_ps(ca);
    const __m256 vsa = _mm256_set1_ps(sa);
    const __m256 vkx = _mm256_set1_ps(kx);
    const __m256 vky = _mm256_set1_ps(ky);
    for (int b = 0; b < 256; b += 8) {
        // Rotate 8 sampling pairs: (ca*px - sa*py) + kx and
        // (sa*px + ca*py) + ky, in f32 like the scalar loop.
        const __m256 ax8 = _mm256_loadu_ps(pax + b);
        const __m256 ay8 = _mm256_loadu_ps(pay + b);
        const __m256 bx8 = _mm256_loadu_ps(pbx + b);
        const __m256 by8 = _mm256_loadu_ps(pby + b);
        const __m256 ax = _mm256_add_ps(
            _mm256_sub_ps(_mm256_mul_ps(vca, ax8), _mm256_mul_ps(vsa, ay8)),
            vkx);
        const __m256 ay = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(vsa, ax8), _mm256_mul_ps(vca, ay8)),
            vky);
        const __m256 bx = _mm256_add_ps(
            _mm256_sub_ps(_mm256_mul_ps(vca, bx8), _mm256_mul_ps(vsa, by8)),
            vkx);
        const __m256 by = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(vsa, bx8), _mm256_mul_ps(vca, by8)),
            vky);

        unsigned byte = 0;
        for (int h = 0; h < 2; ++h) {
            const __m128 axh = h ? _mm256_extractf128_ps(ax, 1)
                                 : _mm256_castps256_ps128(ax);
            const __m128 ayh = h ? _mm256_extractf128_ps(ay, 1)
                                 : _mm256_castps256_ps128(ay);
            const __m128 bxh = h ? _mm256_extractf128_ps(bx, 1)
                                 : _mm256_castps256_ps128(bx);
            const __m128 byh = h ? _mm256_extractf128_ps(by, 1)
                                 : _mm256_castps256_ps128(by);
            const __m256d va = tap4(img, stride, axh, ayh);
            const __m256d vb = tap4(img, stride, bxh, byh);
            byte |= static_cast<unsigned>(_mm256_movemask_pd(
                        _mm256_cmp_pd(va, vb, _CMP_LT_OQ)))
                    << (4 * h);
        }
        bits[b >> 3] = static_cast<unsigned char>(byte);
    }
}

void
lkTemplate(const unsigned char *img, const float *gx, const float *gy,
           int stride, int x0, int y0, int win, const double *w,
           double *iv, double *ix, double *iy, double *g)
{
    const __m256d w00 = _mm256_set1_pd(w[0]), w10 = _mm256_set1_pd(w[1]);
    const __m256d w01 = _mm256_set1_pd(w[2]), w11 = _mm256_set1_pd(w[3]);
    double g00 = 0.0, g01 = 0.0, g11 = 0.0;
    alignas(32) double pxx[4], pxy[4], pyy[4];
    int idx = 0;
    for (int dy = 0; dy < win; ++dy, idx += win) {
        const long o0 = static_cast<long>(y0 + dy) * stride + x0;
        const long o1 = o0 + stride;
        // 4 samples from window column dx; the g sums take the first
        // @p lanes of them, serially in window order.
        auto step = [&](int dx, int lanes) {
            const __m256d v = bilinear(
                w00, w10, w01, w11, bytes4(img + o0 + dx),
                bytes4(img + o0 + dx + 1), bytes4(img + o1 + dx),
                bytes4(img + o1 + dx + 1));
            const __m256d vx = bilinear(
                w00, w10, w01, w11, floats4(gx + o0 + dx),
                floats4(gx + o0 + dx + 1), floats4(gx + o1 + dx),
                floats4(gx + o1 + dx + 1));
            const __m256d vy = bilinear(
                w00, w10, w01, w11, floats4(gy + o0 + dx),
                floats4(gy + o0 + dx + 1), floats4(gy + o1 + dx),
                floats4(gy + o1 + dx + 1));
            _mm256_storeu_pd(iv + idx + dx, v);
            _mm256_storeu_pd(ix + idx + dx, vx);
            _mm256_storeu_pd(iy + idx + dx, vy);
            _mm256_store_pd(pxx, _mm256_mul_pd(vx, vx));
            _mm256_store_pd(pxy, _mm256_mul_pd(vx, vy));
            _mm256_store_pd(pyy, _mm256_mul_pd(vy, vy));
            for (int l = 0; l < lanes; ++l) {
                g00 += pxx[l];
                g01 += pxy[l];
                g11 += pyy[l];
            }
        };
        int dx = 0;
        for (; dx + 4 <= win; dx += 4)
            step(dx, 4);
        if (dx < win)
            step(dx, win - dx);
    }
    g[0] = g00;
    g[1] = g01;
    g[2] = g11;
}

void
lkResidual(const unsigned char *img, int stride, int x0, int y0, int win,
           const double *q, const double *iv, const double *ix,
           const double *iy, double *b, double *res)
{
    const __m256d q00 = _mm256_set1_pd(q[0]), q10 = _mm256_set1_pd(q[1]);
    const __m256d q01 = _mm256_set1_pd(q[2]), q11 = _mm256_set1_pd(q[3]);
    const __m256d sign = _mm256_set1_pd(-0.0);
    double b0 = 0.0, b1 = 0.0, r = 0.0;
    alignas(32) double px[4], py[4], pa[4];
    int idx = 0;
    for (int dy = 0; dy < win; ++dy, idx += win) {
        const long o0 = static_cast<long>(y0 + dy) * stride + x0;
        const long o1 = o0 + stride;
        auto step = [&](int dx, int lanes) {
            const __m256d sample = bilinear(
                q00, q10, q01, q11, bytes4(img + o0 + dx),
                bytes4(img + o0 + dx + 1), bytes4(img + o1 + dx),
                bytes4(img + o1 + dx + 1));
            const __m256d di =
                _mm256_sub_pd(sample, _mm256_loadu_pd(iv + idx + dx));
            _mm256_store_pd(
                px, _mm256_mul_pd(di, _mm256_loadu_pd(ix + idx + dx)));
            _mm256_store_pd(
                py, _mm256_mul_pd(di, _mm256_loadu_pd(iy + idx + dx)));
            _mm256_store_pd(pa, _mm256_andnot_pd(sign, di)); // |dI|
            for (int l = 0; l < lanes; ++l) {
                b0 += px[l];
                b1 += py[l];
                r += pa[l];
            }
        };
        int dx = 0;
        for (; dx + 4 <= win; dx += 4)
            step(dx, 4);
        if (dx < win)
            step(dx, win - dx);
    }
    b[0] = b0;
    b[1] = b1;
    *res = r;
}

} // namespace avx2
} // namespace edx

#endif // EDX_HAVE_AVX2
