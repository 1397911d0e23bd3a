/* Philox-2x64-10 uniforms, bit for bit those of streams.substream_uniforms.
 *
 * Position (r, c) of a rows x cols grid has key key[r*key_row + c*key_col]
 * and index index[r*index_row + c*index_col] (strides in elements, 0 for a
 * broadcast axis).  Block b of that position is Philox-2x64-10 of the
 * counter (b, index) under the key; its words x0, x1 become the uniforms
 * j = 2b and 2b + 1, ((x >> 11) + 0.5) * 2**-53, stored at
 * out[j*rows*cols + r*cols + c].  When count is odd the last x1 is unused.
 * Built without -ffast-math and with -ffp-contract=off, so every double
 * operation rounds as numpy's does.  Unrolling the rounds makes -O2 code as
 * fast as -O3 code, which takes ~25 ms longer to compile. */
#include <stddef.h>
#include <stdint.h>

void philox_uniforms(const uint64_t *key, ptrdiff_t key_row, ptrdiff_t key_col,
                     const uint64_t *index, ptrdiff_t index_row,
                     ptrdiff_t index_col, ptrdiff_t rows, ptrdiff_t cols,
                     ptrdiff_t count, double *out)
{
    const ptrdiff_t plane = rows * cols;
    for (ptrdiff_t j = 0; j < count; j += 2) {
        double *even = out + j * plane, *odd = even + plane;
        for (ptrdiff_t r = 0; r < rows; r++) {
            for (ptrdiff_t c = 0; c < cols; c++) {
                uint64_t k = key[r * key_row + c * key_col];
                uint64_t x0 = (uint64_t)(j / 2);
                uint64_t x1 = index[r * index_row + c * index_col];
#pragma GCC unroll 10
                for (int round = 0; round < 10; round++) {
                    unsigned __int128 p =
                        (unsigned __int128)x0 * 0xD2B74407B1CE6E93u;
                    x0 = (uint64_t)(p >> 64) ^ k ^ x1;
                    x1 = (uint64_t)p;
                    k += 0x9E3779B97F4A7C15u;
                }
                even[r * cols + c] = ((double)(x0 >> 11) + 0.5) * 0x1p-53;
                if (j + 1 < count)
                    odd[r * cols + c] = ((double)(x1 >> 11) + 0.5) * 0x1p-53;
            }
        }
    }
}
