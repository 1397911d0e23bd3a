/* Whole noise tiles of schemes.advance, bit for bit its numpy body's: the
 * Philox-2x64-10 uniforms of streams.substream_uniforms, the noise drawn
 * from them and the Mann update, in one call of mann_tile.  The library's
 * other export, ndtri_many, runs the ndtri port below alone, through the
 * path Gaussian tiles take, so that it can be checked against scipy's
 * ufunc before the first Gaussian tile.
 *
 * Built without -ffast-math and with -ffp-contract=off, so every double
 * operation rounds as numpy's does.  With the scalar rounds unrolled, -O1
 * code runs as fast as -O2 code and compiles ~50 ms sooner.
 *
 * On x86-64 GCC, where the CPU has AVX-512F and DQ, the functions marked
 * WIDE run 8 lanes wide: the Philox rounds of each 32-replica block, or of
 * each 32 consecutive steps of one replica on the line, the central
 * branch of ndtri, which packs the tail lanes into lists with
 * vcompress, and the arithmetic of its tails after their first log and
 * sqrt (libm's log and sqrt stay scalar, in loops over those lists), and
 * the update of each 8-replica block for every map but scaled_cosine,
 * whose cos is libm's.  They do the same IEEE operations in the same order
 * (vdivpd rounds correctly, as / does), so the bits do not depend on the
 * path.  Each ends in vzeroupper, which GCC emits only from -O2 on:
 * without it, Gaussian tiles ran 5-7x slower, as libm's SSE code after
 * them paid for the dirty upper registers.  <immintrin.h> would add
 * ~0.45 s to each build, so the vector code uses GCC's vector extensions
 * and its builtins. */
#include <stddef.h>
#include <stdint.h>
/* libm's functions, declared here: <math.h> adds ~20 ms to each build */
double cos(double);
double log(double);
double sqrt(double);

/* Philox-2x64's round multiplier and Weyl key increment */
#define PHILOX_M 0xD2B74407B1CE6E93u
#define PHILOX_W 0x9E3779B97F4A7C15u

/* the largest uniform: the top 2**11 words would give 1.0, as (2**53 - 1)
 * + 0.5 rounds half to even to 2**53, and ndtri(1.0) is +inf.  The
 * smallest, from the word 0, is 2**-54, so no uniform is 0.0 or 1.0. */
#define U_MAX (1.0 - 0x1p-53)

/* Uniform j of replica r at step start + k: block b of Philox-2x64-10 under
 * key key[r] at the counter (b, start + k) gives the words x0, x1, which
 * become the uniforms j = 2b and 2b + 1, ((x >> 11) + 0.5) * 2**-53 clamped
 * to U_MAX, stored at out[j*plane + k*R + r], for the replicas r0 <= r < R.
 * When count is odd the last x1 is unused. */
static inline double uniform(uint64_t x)
{
    const double u = ((double)(x >> 11) + 0.5) * 0x1p-53;
    return u < U_MAX ? u : U_MAX;
}

static void uniform_grid(const uint64_t *key, uint64_t start, ptrdiff_t T,
                         ptrdiff_t R, ptrdiff_t r0, ptrdiff_t count,
                         ptrdiff_t plane, double *out)
{
    for (ptrdiff_t j = 0; j < count; j += 2) {
        double *even = out + j * plane, *odd = even + plane;
        for (ptrdiff_t k = 0; k < T; k++) {
            for (ptrdiff_t r = r0; r < R; r++) {
                uint64_t key_r = key[r];
                uint64_t x0 = (uint64_t)(j / 2), x1 = start + (uint64_t)k;
#pragma GCC unroll 10
                for (int round = 0; round < 10; round++) {
                    unsigned __int128 p = (unsigned __int128)x0 * PHILOX_M;
                    x0 = (uint64_t)(p >> 64) ^ key_r ^ x1;
                    x1 = (uint64_t)p;
                    key_r += PHILOX_W;
                }
                even[k * R + r] = uniform(x0);
                if (j + 1 < count)
                    odd[k * R + r] = uniform(x1);
            }
        }
    }
}

/* Cephes' ndtri as scipy 1.17 computes it (xsf::cephes::ndtri): the same
 * coefficients, Horner order and branches, with libm's log and sqrt, so the
 * bits are scipy's ndtri ufunc's on its domain here, the uniforms a tile
 * draws, [2**-54, U_MAX]: it has no case for 0.0 or 1.0.  The central
 * branch is exp(-2) < y <= 1 - exp(-2); past exp(-32) = 1.27e-14 from
 * either end the tail uses P2/Q2 instead of P1/Q1. */
#define EXP_M2 0.13533528323661269189
#define S2PI 2.50662827463100050242E0
static const double P0[5] = {
    -5.99633501014107895267E1, 9.80010754185999661536E1,
    -5.66762857469070293439E1, 1.39312609387279679503E1,
    -1.23916583867381258016E0};
static const double Q0[8] = {
    1.95448858338141759834E0, 4.67627912898881538453E0,
    8.63602421390890590575E1, -2.25462687854119370527E2,
    2.00260212380060660359E2, -8.20372256168333339912E1,
    1.59056225126211695515E1, -1.18331621121330003142E0};
static const double P1[9] = {
    4.05544892305962419923E0, 3.15251094599893866154E1,
    5.71628192246421288162E1, 4.40805073893200834700E1,
    1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2,
    -8.57456785154685413611E-4};
static const double Q1[8] = {
    1.57799883256466749731E1, 4.53907635128879210584E1,
    4.13172038254672030440E1, 1.50425385692907503408E1,
    2.50464946208309415979E0, -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4};
static const double P2[9] = {
    3.23774891776946035970E0, 6.91522889068984211695E0,
    3.93881025292474443415E0, 1.33303460815807542389E0,
    2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6,
    6.23974539184983293730E-9};
static const double Q2[8] = {
    6.02427039364742014255E0, 3.67983563856160859403E0,
    1.37702099489081330271E0, 2.16236993594496635890E-1,
    1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 6.79019408009981274425E-9};

/* c[0] x^n + ... + c[n], and the same with a leading 1 and n + 1 terms */
static inline double polevl(double x, const double *c, int n)
{
    double s = c[0];
    for (int i = 1; i <= n; i++)
        s = s * x + c[i];
    return s;
}

static inline double p1evl(double x, const double *c, int n)
{
    double s = x + c[0];
    for (int i = 1; i < n; i++)
        s = s * x + c[i];
    return s;
}

static double ndtri(double y0)
{
    double y = y0, x;
    const int upper = y > 1.0 - EXP_M2;
    if (upper)
        y = 1.0 - y;
    if (y > EXP_M2) {
        y = y - 0.5;
        const double y2 = y * y;
        x = y + y * (y2 * polevl(y2, P0, 4) / p1evl(y2, Q0, 8));
        return x * S2PI;
    }
    x = sqrt(-2.0 * log(y));
    const double x0 = x - log(x) / x, z = 1.0 / x;
    const double x1 = x < 8.0 ? z * polevl(z, P1, 8) / p1evl(z, Q1, 8)
                              : z * polevl(z, P2, 8) / p1evl(z, Q2, 8);
    x = x0 - x1;
    return upper ? x : -x;
}

/* elements of a noise plane per pass of the wide ndtri: its tail list and
 * tail buffers are stack arrays of this many elements */
enum { NDTRI_CHUNK = 512 };

enum { ZERO, GAUSSIAN, BOUNDED_UNIFORM };   /* noise families */
enum { INVERSE_QUADRATIC, AFFINE, SCALED_COSINE };  /* maps */

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define WIDE __attribute__((target("avx512f,avx512dq"), noinline))
#define LANES __attribute__((target("avx512f,avx512dq"), always_inline)) \
    static inline
typedef uint64_t u64x8 __attribute__((vector_size(64)));
typedef long long i64x8 __attribute__((vector_size(64)));
typedef int32_t i32x16 __attribute__((vector_size(64)));
typedef double f64x8 __attribute__((vector_size(64)));
/* the same, for loads and stores at any 8-byte boundary */
typedef uint64_t u64x8_u __attribute__((vector_size(64), aligned(8)));
typedef double f64x8_u __attribute__((vector_size(64), aligned(8)));

/* 1 where the CPU has AVX-512F and DQ, set once as the library loads */
static int wide;

__attribute__((constructor)) static void detect_wide(void)
{
    __builtin_cpu_init();
    wide = __builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512dq");
}

/* the low 32 bits of each lane of a times those of b, as 64-bit products
 * (vpmuludq: GCC makes the slower vpmullq of (a & m) * (b & m)) */
LANES u64x8 mul32(u64x8 a, u64x8 b)
{
    return (u64x8)__builtin_ia32_pmuludq512_mask((i32x16)a, (i32x16)b,
                                                 (i64x8){0}, 0xFF);
}

/* uniform(x) in each lane (vminpd returns its second operand only where
 * the first is NaN or not below it) */
LANES f64x8 uniform_wide(u64x8 x)
{
    const f64x8 u = (__builtin_convertvector((i64x8)(x >> 11), f64x8) + 0.5)
        * 0x1p-53;
    return __builtin_ia32_minpd512_mask(u, (f64x8){0} + U_MAX, u, 0xFF, 4);
}

/* the ten Philox-2x64 rounds on four interleaved 8-lane vectors of
 * counters (x0, x1) under the keys key_r, in place: uniform_grid's rounds
 * for 32 lanes at once, each 64x64-bit product assembled from four
 * 32x32-bit ones */
LANES void rounds_wide(u64x8 *x0, u64x8 *x1, u64x8 *key_r)
{
    const u64x8 lo32 = (u64x8){0} + 0xFFFFFFFFu;
    const u64x8 m_lo = (u64x8){0} + PHILOX_M, m_hi = m_lo >> 32;
    /* a loop: unrolled, it built ~50 ms slower, ran no faster */
    for (int round = 0; round < 10; round++) {
#pragma GCC unroll 4
        for (int v = 0; v < 4; v++) {
            const u64x8 a_hi = x0[v] >> 32;
            const u64x8 ll = mul32(x0[v], m_lo);
            const u64x8 lh = mul32(x0[v], m_hi);
            const u64x8 hl = mul32(a_hi, m_lo);
            const u64x8 hh = mul32(a_hi, m_hi);
            const u64x8 mid = (ll >> 32) + (lh & lo32) + (hl & lo32);
            const u64x8 hi = hh + (lh >> 32) + (hl >> 32) + (mid >> 32);
            const u64x8 lo = (mid << 32) | (ll & lo32);
            x0[v] = hi ^ key_r[v] ^ x1[v];
            x1[v] = lo;
            key_r[v] += PHILOX_W;
        }
    }
}

/* uniform_grid for the replicas r < R - R % 32, each 32-replica block of
 * a row as four interleaved 8-lane vectors: one key per lane */
WIDE static void uniform_grid_wide(const uint64_t *key, uint64_t start,
                                   ptrdiff_t T, ptrdiff_t R, ptrdiff_t count,
                                   ptrdiff_t plane, double *out)
{
    for (ptrdiff_t j = 0; j < count; j += 2) {
        double *even = out + j * plane, *odd = even + plane;
        for (ptrdiff_t k = 0; k < T; k++) {
            for (ptrdiff_t r = 0; r + 32 <= R; r += 32) {
                u64x8 x0[4], x1[4], key_r[4];
#pragma GCC unroll 4
                for (int v = 0; v < 4; v++) {
                    key_r[v] = *(const u64x8_u *)(key + r + 8 * v);
                    x0[v] = (u64x8){0} + (uint64_t)(j / 2);
                    x1[v] = (u64x8){0} + (start + (uint64_t)k);
                }
                rounds_wide(x0, x1, key_r);
#pragma GCC unroll 4
                for (int v = 0; v < 4; v++) {
                    const ptrdiff_t at = k * R + r + 8 * v;
                    *(f64x8_u *)(even + at) = uniform_wide(x0[v]);
                    if (j + 1 < count)
                        *(f64x8_u *)(odd + at) = uniform_wide(x1[v]);
                }
            }
        }
    }
    __builtin_ia32_vzeroupper();
}

/* uniform_grid for one replica on the line (R = d = 1) and the steps
 * k < T, T a multiple of 32: each 32 consecutive steps as four
 * interleaved 8-lane vectors, under the one key and the counters
 * (0, start + k + lane) */
WIDE static void uniform_line_wide(uint64_t key, uint64_t start, ptrdiff_t T,
                                   double *out)
{
    const u64x8 lane = {0, 1, 2, 3, 4, 5, 6, 7};
    for (ptrdiff_t k = 0; k < T; k += 32) {
        u64x8 x0[4], x1[4], key_k[4];
#pragma GCC unroll 4
        for (int v = 0; v < 4; v++) {
            key_k[v] = (u64x8){0} + key;
            x0[v] = (u64x8){0};
            x1[v] = lane + (start + (uint64_t)(k + 8 * v));
        }
        rounds_wide(x0, x1, key_k);
#pragma GCC unroll 4
        for (int v = 0; v < 4; v++)
            *(f64x8_u *)(out + k + 8 * v) = uniform_wide(x0[v]);
    }
    __builtin_ia32_vzeroupper();
}

/* the lanes of v where mask is set, in order, then zeros, stored 8 lanes
 * wide at to: vpcompressq in a register and an unmasked store, as the
 * compress to memory is very slow on AMD's Zen 4 */
LANES void pack(void *to, i64x8 v, unsigned mask)
{
    const i64x8 packed = __builtin_ia32_compressdi512_mask(v, (i64x8){0},
                                                           mask);
    __builtin_memcpy(to, &packed, sizeof packed);
}

/* u[e] = ndtri(u[e]) * param for the e < n in ndtri's central branch, 8 at
 * a time, n a multiple of 8.  The other lanes of each block, the tails,
 * are packed in order: their positions into tail, their u into y and the
 * argument of their first log, u or 1 - u past the upper edge, into x.
 * Returns the number of tails.  A list grows from its length so far, at
 * most e, so each 8-lane store ends within n elements. */
WIDE static ptrdiff_t central_wide(double *u, ptrdiff_t n, double param,
                                   int64_t *tail, double *y, double *x)
{
    const i64x8 lane = {0, 1, 2, 3, 4, 5, 6, 7};
    ptrdiff_t tails = 0;
    for (ptrdiff_t e = 0; e < n; e += 8) {
        const f64x8 u_e = *(f64x8_u *)(u + e);
        const i64x8 central = (i64x8)((u_e > EXP_M2) & (u_e <= 1.0 - EXP_M2));
        const f64x8 y_e = u_e - 0.5, y2 = y_e * y_e;
        f64x8 p = (f64x8){0} + P0[0], q = y2 + Q0[0];
#pragma GCC unroll 4
        for (int i = 1; i <= 4; i++)
            p = p * y2 + P0[i];
#pragma GCC unroll 7
        for (int i = 1; i < 8; i++)
            q = q * y2 + Q0[i];
        const f64x8 c = (y_e + y_e * (y2 * p / q)) * S2PI * param;
        *(f64x8_u *)(u + e) = (f64x8)(((i64x8)c & central)
                                      | ((i64x8)u_e & ~central));
        const i64x8 upper = (i64x8)(u_e > 1.0 - EXP_M2);
        const i64x8 l = ((i64x8)(1.0 - u_e) & upper) | ((i64x8)u_e & ~upper);
        const unsigned tail_e = (uint8_t)~__builtin_ia32_cvtq2mask512(central);
        pack(tail + tails, lane + e, tail_e);
        pack(y + tails, (i64x8)u_e, tail_e);
        pack(x + tails, l, tail_e);
        tails += __builtin_popcount(tail_e);
    }
    __builtin_ia32_vzeroupper();
    return tails;
}

/* z * polevl(z, p, 8) / p1evl(z, q, 8) in each lane */
LANES f64x8 tail_ratio(f64x8 z, const double *p, const double *q)
{
    f64x8 s = (f64x8){0} + p[0], t = z + q[0];
#pragma GCC unroll 8
    for (int i = 1; i <= 8; i++)
        s = s * z + p[i];
#pragma GCC unroll 7
    for (int i = 1; i < 8; i++)
        t = t * z + q[i];
    return z * s / t;
}

/* y[t] = ndtri(y[t]) * param for t < n, n a multiple of 8, the y[t] in
 * ndtri's tails, from x[t] = sqrt(-2 log(y)) (1 - y past the upper edge)
 * and lx[t] = log(x[t]): the rest of the tail branch, 8 at a time, with
 * P2/Q2 blended in only where some lane has x >= 8 */
WIDE static void tail_wide(double *y, const double *x, const double *lx,
                           ptrdiff_t n, double param)
{
    for (ptrdiff_t t = 0; t < n; t += 8) {
        const f64x8 x_t = *(const f64x8_u *)(x + t);
        const f64x8 x0 = x_t - *(const f64x8_u *)(lx + t) / x_t, z = 1.0 / x_t;
        const i64x8 near = (i64x8)(x_t < 8.0);
        f64x8 x1 = tail_ratio(z, P1, Q1);
        if ((uint8_t)~__builtin_ia32_cvtq2mask512(near))
            x1 = (f64x8)(((i64x8)x1 & near)
                         | ((i64x8)tail_ratio(z, P2, Q2) & ~near));
        const f64x8 r = x0 - x1;
        const i64x8 upper = (i64x8)(*(f64x8_u *)(y + t) > 1.0 - EXP_M2);
        *(f64x8_u *)(y + t) = (f64x8)(((i64x8)r & upper)
                                      | ((i64x8)-r & ~upper)) * param;
    }
    __builtin_ia32_vzeroupper();
}

/* one step of mann_tile's update for the replicas r < R, R a multiple of
 * 8, 8 at a time, for the affine and inverse-quadratic maps: the same
 * operations in the same order as update's loop.  Returns whether every
 * new state is finite. */
WIDE static int update_wide(int map, ptrdiff_t R, ptrdiff_t d,
                            ptrdiff_t plane, const double *A, const double *b,
                            double keep, double a_n, double b_n,
                            const double *prev, ptrdiff_t stride,
                            double *state, const double *noise_k)
{
    i64x8 finite = (i64x8){0} - 1;
    for (ptrdiff_t r = 0; r < R; r += 8) {
        for (ptrdiff_t i = 0; i < d; i++) {
            const f64x8 v = *(const f64x8_u *)(prev + i * stride + r);
            f64x8 f;
            if (map == INVERSE_QUADRATIC) {
                f = 1.0 / (1.0 + v * v);
            } else {
                f = b[i] + A[i * d] * *(const f64x8_u *)(prev + r);
                for (ptrdiff_t j = 1; j < d; j++)
                    f += A[i * d + j] * *(const f64x8_u *)(prev + j * stride + r);
            }
            const f64x8 y = keep * v + a_n * f
                + b_n * *(const f64x8_u *)(noise_k + i * plane + r);
            *(f64x8_u *)(state + i * plane + r) = y;
            finite &= (i64x8)(y - y == 0.0);  /* inf - inf and NaN are NaN */
        }
    }
    const int all = (uint8_t)__builtin_ia32_cvtq2mask512(finite) == 0xFF;
    __builtin_ia32_vzeroupper();
    return all;
}
#endif

/* u[e] = ndtri(u[e]) * param for e < n.  On the wide path, per chunk: the
 * central branch of its 8-element blocks, which packs their tails into
 * contiguous lists, the scalar port on the last m % 8, and then the tails:
 * sqrt(-2 log) and log in scalar loops over the lists, the rest 8 lanes
 * wide, and a scatter back. */
static void normals(double *u, ptrdiff_t n, double param)
{
#ifdef WIDE
    if (wide) {
        int64_t tail[NDTRI_CHUNK];
        double y[NDTRI_CHUNK], x[NDTRI_CHUNK], lx[NDTRI_CHUNK];
        for (ptrdiff_t c = 0; c < n; c += NDTRI_CHUNK) {
            double *v = u + c;
            const ptrdiff_t m = n - c < NDTRI_CHUNK ? n - c : NDTRI_CHUNK;
            ptrdiff_t lanes;
            const ptrdiff_t tails = central_wide(v, m - m % 8, param, tail,
                                                 y, x);
            for (ptrdiff_t e = m - m % 8; e < m; e++)
                v[e] = ndtri(v[e]) * param;
            if (!tails)
                continue;
            for (ptrdiff_t t = 0; t < tails; t++)
                x[t] = sqrt(-2.0 * log(x[t]));
            for (lanes = tails; lanes % 8; lanes++) {  /* past the last */
                y[lanes] = 0.5;
                x[lanes] = 1.0;
                lx[lanes] = 0.0;
            }
            for (ptrdiff_t t = 0; t < tails; t++)
                lx[t] = log(x[t]);
            tail_wide(y, x, lx, lanes, param);
            for (ptrdiff_t t = 0; t < tails; t++)
                v[tail[t]] = y[t];
        }
        return;
    }
#endif
    for (ptrdiff_t e = 0; e < n; e++)
        u[e] = ndtri(u[e]) * param;
}

/* out[e] = ndtri(u[e]) for e < n, each u[e] in [2**-54, 1 - 2**-53], the
 * uniforms a tile draws, through the path that Gaussian tiles take: the
 * port, for the load-time comparison with scipy's ufunc */
void ndtri_many(const double *u, ptrdiff_t n, double *out)
{
    for (ptrdiff_t e = 0; e < n; e++)
        out[e] = u[e];
    normals(out, n, 1.0);
}

/* update for one replica on the line (R = d = 1): the same operations in
 * the same order, with the state in a register from step to step */
static inline __attribute__((always_inline)) ptrdiff_t
line_update(int cosine, int map, const double *A, const double *b, double a,
            double *x, double *X, const double *xi, uint64_t start,
            ptrdiff_t T)
{
    double v = x[0];
    for (ptrdiff_t k = 0; k < T; k++) {
        const uint64_t n = start + (uint64_t)k;
        const double a_n = a / (double)n, b_n = a / ((double)n * (double)n);
        const double f = cosine ? b[0] * cos(v)
            : map == INVERSE_QUADRATIC ? 1.0 / (1.0 + v * v)
            : b[0] + A[0] * v;
        const double y = (1.0 - a_n) * v + a_n * f + b_n * xi[k];
        X[k] = y;
        if (!__builtin_isfinite(y))
            return k;
        v = y;
    }
    x[0] = v;
    return T;
}

/* mann_tile's update, after its noise pass; inlined there twice, so that
 * the copy with cosine 0 makes no libm call and keeps its doubles in
 * registers.  One replica on the line steps through line_update.  On the
 * wide path the copy with cosine 0 steps the replicas r < R - R % 8
 * through update_wide, and the rest here. */
static inline __attribute__((always_inline)) ptrdiff_t
update(int cosine, int map, ptrdiff_t R, ptrdiff_t d, ptrdiff_t plane,
       const double *A, const double *b, double a, double *x, double *X,
       double *xi, uint64_t start, ptrdiff_t T)
{
    if (R * d == 1)
        return line_update(cosine, map, A, b, a, x, X, xi, start, T);
    for (ptrdiff_t k = 0; k < T; k++) {
        const uint64_t n = start + (uint64_t)k;
        /* n*n in doubles: one rounding, as Python's a/(n*n) for n < 2**53 */
        const double a_n = a / (double)n, b_n = a / ((double)n * (double)n);
        const double keep = 1.0 - a_n;
        const double *prev = k ? X + (k - 1) * R : x;
        const ptrdiff_t stride = k ? plane : R;
        double *state = X + k * R, *noise_k = xi + k * R;
        int finite = 1;
        ptrdiff_t r0 = 0;
#ifdef WIDE
        if (!cosine && wide && R >= 8) {
            r0 = R - R % 8;
            finite = update_wide(map, r0, d, plane, A, b, keep, a_n, b_n,
                                 prev, stride, state, noise_k);
        }
#endif
        for (ptrdiff_t r = r0; r < R; r++) {
            for (ptrdiff_t i = 0; i < d; i++) {
                const double v = prev[i * stride + r];
                double f;
                if (cosine) {
                    f = b[0] * cos(v);
                } else if (map == INVERSE_QUADRATIC) {
                    f = 1.0 / (1.0 + v * v);
                } else {
                    f = b[i] + A[i * d] * prev[r];
                    for (ptrdiff_t j = 1; j < d; j++)
                        f += A[i * d + j] * prev[j * stride + r];
                }
                const double y = keep * v + a_n * f + b_n * noise_k[i * plane + r];
                state[i * plane + r] = y;
                finite &= __builtin_isfinite(y) != 0;
            }
        }
        if (!finite)
            return k;
    }
    for (ptrdiff_t i = 0; i < d; i++)
        for (ptrdiff_t r = 0; r < R; r++)
            x[i * R + r] = X[i * plane + (T - 1) * R + r];
    return T;
}

/* T steps n = start, ..., start + T - 1 of R replicas in dimension d:
 *     x' = (1 - a_n) x + a_n F(x) + b_n xi_n,  a_n = a/n,  b_n = a/n^2.
 * Coordinate i of replica r's state after step start + k is stored at
 * X[i*plane + k*R + r], and xi_n at xi[i*plane + k*R + r].  Coordinate i of
 * xi_n is 0 for ZERO noise; from uniform i of substream (key[r], n), it is
 * ndtri(u) * param for GAUSSIAN noise (the port of scipy's ndtri above) and
 * ((u * 2) - 1) * param for BOUNDED_UNIFORM.
 * F is 1/(1 + x^2) (d = 1), b_0 * cos(x) (d = 1, the gain lam passed as
 * b_0, libm's cos) or A x + b, A row-major (d, d), summed b_i + A_i0 x_0 +
 * A_i1 x_1 + ... in that order.  x holds the (d, R) state before step
 * start, and after step start + T - 1 on return.  Returns T, or the first
 * k whose state is not finite for some replica, once that step is done for
 * every replica.  One replica on the line (R = d = 1) steps with its state
 * in a register (line_update); on the wide path it draws each 32 steps in
 * vector lanes and the last T % 32 through the scalar uniform_grid.  On
 * the wide path, other tiles of fewer than 32 replicas, and the last
 * R % 32, draw through the scalar uniform_grid, and fewer than 8, the last
 * R % 8 and every scaled_cosine replica step through update's scalar
 * loop. */
ptrdiff_t mann_tile(const uint64_t *key, ptrdiff_t R, ptrdiff_t d,
                    ptrdiff_t plane, int noise, double param, int map,
                    const double *A, const double *b, double a, double *x,
                    double *X, double *xi, uint64_t start, ptrdiff_t T)
{
    if (noise != ZERO) {
        ptrdiff_t r0 = 0, k0 = 0;
#ifdef WIDE
        if (wide && R >= 32) {
            uniform_grid_wide(key, start, T, R, d, plane, xi);
            r0 = R - R % 32;
        } else if (wide && R * d == 1) {
            k0 = T - T % 32;
            uniform_line_wide(key[0], start, k0, xi);
        }
#endif
        uniform_grid(key, start + (uint64_t)k0, T - k0, R, r0, d, plane,
                     xi + k0);
    }
    for (ptrdiff_t i = 0; i < d; i++) {
        double *u = xi + i * plane;
        if (noise == GAUSSIAN)
            normals(u, T * R, param);
        else
            for (ptrdiff_t e = 0; e < T * R; e++)
                u[e] = noise == ZERO ? 0.0 : (u[e] * 2.0 - 1.0) * param;
    }
    if (map == SCALED_COSINE)
        return update(1, map, R, d, plane, A, b, a, x, X, xi, start, T);
    return update(0, map, R, d, plane, A, b, a, x, X, xi, start, T);
}
