/* The two compiled kernels of lmmx, in one plain shared library.
 *
 * lmmx_shapley_block: one block of the Shapley event pass of
 * lmmx.explain.shapley_sampling.  The numpy pass this replaces is
 * ``_events`` followed by ``_event_credits``; see their docstrings and
 * ``shapley_sampling``'s for why the events alone decide every step of the
 * logit.  ``_blocks`` makes the block's event keys, k * P + position, once
 * for both passes, so the kernel only walks and credits.  Per permutation k
 * of the block:
 *
 *   1. read the marked positions of permutation k in ascending order from
 *      a bitset of every key, so the events come in walk order, each
 *      position once;
 *   2. run each kept neuron's biased gray terms as a suffix min backward
 *      over the events, then its image terms as a prefix min forward; after
 *      event i the neuron's activation is the min of the two, and the
 *      logit is the max over kept neurons;
 *   3. add the logit after event i minus the logit before it to the
 *      flipped pixel's credit, starting from ``gray_logit``.
 *
 * The terms need no mask (``shapley_sampling`` says why) and min and max
 * only select, so the logits are the numpy pass's decoded values, and the
 * credits take the same float64 subtractions and additions in the same
 * order, permutation by permutation: every map keeps its bits.
 *
 * lmmx_chebyshev_stripe: one row stripe of the uint8 Chebyshev distance
 * matrix of lmmx.medoids._chebyshev_matrix, as ``medoids._stripe``'s numpy
 * blocks fill it.  Distances are whole pixel levels, max |a - b| over the
 * pixels, so every cell is exact and the matrix is byte-equal on both paths.
 *
 * Built by ``lmmx._native`` as a plain shared library with the
 * interpreter's C compiler at -O3, with no fast-math and no -march flag,
 * and called through ctypes, which releases the GIL for the call.  No
 * Python API is used.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* entry ``i`` of an unsigned table of ``width`` bytes per entry */
static int64_t entry(const void *table, int64_t width, int64_t i)
{
    switch (width) {
    case 1: return ((const uint8_t *)table)[i];
    case 2: return ((const uint16_t *)table)[i];
    case 4: return ((const uint32_t *)table)[i];
    default: return (int64_t)((const uint64_t *)table)[i];
    }
}

static int lowest_bit(uint64_t bits)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(bits);
#else
    int b = 0;
    while (!(bits & 1)) {
        bits >>= 1;
        b++;
    }
    return b;
#endif
}

/* Adds the block's event credits to ``credits`` (P + 1 doubles).  Returns 0;
 * -1 when its scratch cannot be allocated, having added nothing; -2 when a
 * key is out of range, having added nothing, or a drawn pixel is, having
 * added an unspecified part of the credits.
 *
 * block        (n, P) pixel at each position of each permutation, unsigned
 *              of ``width`` bytes
 * keys         k * P + position of every event, k < n, in any order and
 *              with repeats
 * gray_terms   (P, kept) biased gray and image terms of the kept neurons,
 * image_terms  pixel-major
 */
int lmmx_shapley_block(int64_t n, int64_t n_pix, int64_t kept, const void *block,
                       int64_t width, const int64_t *keys, int64_t n_keys,
                       const double *gray_terms, const double *image_terms,
                       double gray_logit, double *credits)
{
    const int64_t cells = n * n_pix;
    /* bit k * P + position marks an event: the keys index it directly */
    uint64_t *marks = calloc((size_t)(cells / 64 + 1), sizeof *marks);
    int64_t *events = malloc((size_t)n_pix * sizeof *events);
    double *suffix = malloc((size_t)((n_pix + 1) * kept) * sizeof *suffix);
    double *prefix = malloc((size_t)kept * sizeof *prefix);
    if (!marks || !events || !suffix || !prefix) {
        free(marks);
        free(events);
        free(suffix);
        free(prefix);
        return -1;
    }
    int status = 0;
    for (int64_t r = 0; r < n_keys; r++) {
        if (keys[r] < 0 || keys[r] >= cells) {
            status = -2;
            break;
        }
        marks[keys[r] / 64] |= (uint64_t)1 << (keys[r] % 64);
    }
    for (int64_t k = 0; k < n && !status; k++) {
        const int64_t first = k * n_pix, end = first + n_pix;
        int64_t m = 0;
        for (int64_t w = first / 64; w <= (end - 1) / 64 && !status; w++) {
            uint64_t bits = marks[w];
            if (w == first / 64)
                bits &= ~(uint64_t)0 << (first % 64);
            if (w == (end - 1) / 64 && end % 64)
                bits &= ~(uint64_t)0 >> (64 - end % 64);
            for (; bits; bits &= bits - 1) {
                const int64_t pixel = entry(block, width, w * 64 + lowest_bit(bits));
                if (pixel < 0 || pixel >= n_pix) {
                    status = -2;
                    break;
                }
                events[m++] = pixel;
            }
        }
        if (status)
            break;

        double *after = suffix + m * kept;        /* gray terms of events i + 1 .. m - 1 */
        for (int64_t j = 0; j < kept; j++)
            after[j] = prefix[j] = INFINITY;
        for (int64_t i = m - 1; i >= 0; i--) {
            const double *gray = gray_terms + events[i] * kept;
            double *at = suffix + i * kept;
            for (int64_t j = 0; j < kept; j++)
                at[j] = gray[j] < at[j + kept] ? gray[j] : at[j + kept];
        }

        double before = gray_logit;
        for (int64_t i = 0; i < m; i++) {
            const double *image = image_terms + events[i] * kept;
            const double *later = suffix + (i + 1) * kept;
            double now = -INFINITY;
            for (int64_t j = 0; j < kept; j++) {
                const double flipped = image[j] < prefix[j] ? image[j] : prefix[j];
                const double activation = flipped < later[j] ? flipped : later[j];
                prefix[j] = flipped;
                now = activation > now ? activation : now;
            }
            credits[events[i]] += now - before;
            before = now;
        }
    }
    free(marks);
    free(events);
    free(suffix);
    free(prefix);
    return status;
}

/* Fills rows i0 .. i1 - 1 of the (n, n) uint8 Chebyshev matrix ``dist``
 * from the diagonal on, and each value's transpose, from the (n, P) uint8
 * pixel levels ``units``.  The caller checks 0 <= i0 < i1 <= n.  Cell
 * (x, y) is written only by the stripe that holds min(x, y), so stripes on
 * different threads write disjoint cells.  Four rows of the stripe go
 * against each later row at once, so each of its bytes is read once per
 * four distances.
 */
void lmmx_chebyshev_stripe(int64_t n, int64_t n_pix, const uint8_t *units, uint8_t *dist,
                           int64_t i0, int64_t i1)
{
    for (int64_t i = i0; i < i1; i += 4) {
        const int64_t rows = i1 - i < 4 ? i1 - i : 4;
        const uint8_t *a0 = units + i * n_pix;          /* past the stripe: row i again */
        const uint8_t *a1 = rows > 1 ? a0 + n_pix : a0;
        const uint8_t *a2 = rows > 2 ? a0 + 2 * n_pix : a0;
        const uint8_t *a3 = rows > 3 ? a0 + 3 * n_pix : a0;
        for (int64_t j = i; j < n; j++) {
            const uint8_t *b = units + j * n_pix;
            uint8_t m0 = 0, m1 = 0, m2 = 0, m3 = 0;
            for (int64_t p = 0; p < n_pix; p++) {
                const uint8_t v = b[p];
                const uint8_t d0 = a0[p] > v ? a0[p] - v : v - a0[p];
                const uint8_t d1 = a1[p] > v ? a1[p] - v : v - a1[p];
                const uint8_t d2 = a2[p] > v ? a2[p] - v : v - a2[p];
                const uint8_t d3 = a3[p] > v ? a3[p] - v : v - a3[p];
                m0 = d0 > m0 ? d0 : m0;
                m1 = d1 > m1 ? d1 : m1;
                m2 = d2 > m2 ? d2 : m2;
                m3 = d3 > m3 ? d3 : m3;
            }
            /* row i + r against j < i + r is its own stripe's cell: the same value */
            const uint8_t m[4] = {m0, m1, m2, m3};
            for (int64_t r = 0; r < rows; r++)
                dist[(i + r) * n + j] = dist[j * n + i + r] = m[r];
        }
    }
}
