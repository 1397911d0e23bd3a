/* Whole noise tiles of schemes.advance, bit for bit its numpy body's: the
 * Philox-2x64-10 uniforms of streams.substream_uniforms, the noise drawn
 * from them and the Mann update, in one call of mann_tile, the library's
 * only export.
 *
 * Built without -ffast-math and with -ffp-contract=off, so every double
 * operation rounds as numpy's does.  With the rounds unrolled, -O1 code
 * runs as fast as -O2 code and compiles ~50 ms sooner. */
#include <stddef.h>
#include <stdint.h>
/* libm's cos, declared here: <math.h> adds ~20 ms to each build */
double cos(double);

/* Uniform j of replica r at step start + k: block b of Philox-2x64-10 under
 * key key[r] at the counter (b, start + k) gives the words x0, x1, which
 * become the uniforms j = 2b and 2b + 1, ((x >> 11) + 0.5) * 2**-53, stored
 * at out[j*plane + k*R + r].  When count is odd the last x1 is unused. */
static void uniform_grid(const uint64_t *key, uint64_t start, ptrdiff_t T,
                         ptrdiff_t R, ptrdiff_t count, ptrdiff_t plane,
                         double *out)
{
    for (ptrdiff_t j = 0; j < count; j += 2) {
        double *even = out + j * plane, *odd = even + plane;
        for (ptrdiff_t k = 0; k < T; k++) {
            for (ptrdiff_t r = 0; r < R; r++) {
                uint64_t key_r = key[r];
                uint64_t x0 = (uint64_t)(j / 2), x1 = start + (uint64_t)k;
#pragma GCC unroll 10
                for (int round = 0; round < 10; round++) {
                    unsigned __int128 p =
                        (unsigned __int128)x0 * 0xD2B74407B1CE6E93u;
                    x0 = (uint64_t)(p >> 64) ^ key_r ^ x1;
                    x1 = (uint64_t)p;
                    key_r += 0x9E3779B97F4A7C15u;
                }
                even[k * R + r] = ((double)(x0 >> 11) + 0.5) * 0x1p-53;
                if (j + 1 < count)
                    odd[k * R + r] = ((double)(x1 >> 11) + 0.5) * 0x1p-53;
            }
        }
    }
}

enum { ZERO, GAUSSIAN, BOUNDED_UNIFORM };   /* noise families */
enum { INVERSE_QUADRATIC, AFFINE, SCALED_COSINE };  /* maps */

/* mann_tile's update, after its noise pass; inlined there twice, so that
 * the copy with cosine 0 makes no call and keeps its doubles in registers. */
static inline __attribute__((always_inline)) ptrdiff_t
update(int cosine, int map, ptrdiff_t R, ptrdiff_t d, ptrdiff_t plane,
       const double *A, const double *b, double a, double *x, double *X,
       double *xi, uint64_t start, ptrdiff_t T)
{
    for (ptrdiff_t k = 0; k < T; k++) {
        const uint64_t n = start + (uint64_t)k;
        /* n*n in doubles: one rounding, as Python's a/(n*n) for n < 2**53 */
        const double a_n = a / (double)n, b_n = a / ((double)n * (double)n);
        const double keep = 1.0 - a_n;
        const double *prev = k ? X + (k - 1) * R : x;
        const ptrdiff_t stride = k ? plane : R;
        double *state = X + k * R, *noise_k = xi + k * R;
        int finite = 1;
        for (ptrdiff_t r = 0; r < R; r++) {
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
 * ndtri(u, 0) * param for GAUSSIAN noise (ndtri is scipy's own, called
 * with its dispatch flag 0) and ((u * 2) - 1) * param for BOUNDED_UNIFORM.
 * F is 1/(1 + x^2) (d = 1), b_0 * cos(x) (d = 1, the gain lam passed as
 * b_0, libm's cos) or A x + b, A row-major (d, d), summed b_i + A_i0 x_0 +
 * A_i1 x_1 + ... in that order.  x holds the (d, R) state before step
 * start, and after step start + T - 1 on return.  Returns T, or the first
 * k whose state is not finite for some replica, once that step is done for
 * every replica. */
ptrdiff_t mann_tile(const uint64_t *key, ptrdiff_t R, ptrdiff_t d,
                    ptrdiff_t plane, int noise, double param,
                    double (*ndtri)(double, int), int map, const double *A,
                    const double *b, double a, double *x, double *X,
                    double *xi, uint64_t start, ptrdiff_t T)
{
    if (noise != ZERO)
        uniform_grid(key, start, T, R, d, plane, xi);
    for (ptrdiff_t i = 0; i < d; i++) {
        double *u = xi + i * plane;
        for (ptrdiff_t e = 0; e < T * R; e++)
            u[e] = noise == ZERO ? 0.0 : noise == GAUSSIAN
                   ? ndtri(u[e], 0) * param : (u[e] * 2.0 - 1.0) * param;
    }
    if (map == SCALED_COSINE)
        return update(1, map, R, d, plane, A, b, a, x, X, xi, start, T);
    return update(0, map, R, d, plane, A, b, a, x, X, xi, start, T);
}
