/* The twisted horizontal steps of the lattice quotient, gathered without a
 * step table.
 *
 * A step along horizontal axis a in direction d maps the point (i, t) to
 * (i + d e_a, t + d K(i)) (mod m), K_s(i) = sum_b twist[s][b, a] i_b, so
 * the m^3 points of one vertical fibre (fixed i) read the rolled points of
 * one source fibre.  step_pair writes S_a^+ and S_a^- of every row of a
 * C-contiguous (rows, size) float64 array on the points [start, start+len)
 * into the C-contiguous (rows, len) arrays up and um.  It only copies
 * values, so its output has the bits of a gather through the step table.
 */
#include <stdint.h>

/* the source fibre and the roll (c0, c1, c2) of one step from fibre fib */
static int64_t source(int64_t fib, int64_t m, int64_t dim_h, int64_t a,
                      int64_t d, const int64_t *twist_col, int64_t c[3])
{
    int64_t K[3] = {0, 0, 0}, rest = fib, stride = 1, ia = 0;
    for (int64_t b = dim_h - 1; b >= 0; b--) {
        int64_t i = rest % m;
        rest /= m;
        for (int s = 0; s < 3; s++)
            K[s] += twist_col[s * dim_h + b] * i;
        if (b == a)
            ia = i;
        if (b > a)
            stride *= m;
    }
    for (int s = 0; s < 3; s++)
        c[s] = ((d * K[s]) % m + m) % m;
    return fib + (((ia + d) % m + m) % m - ia) * stride;
}

/* out[q - lo] for the fibre points q in [lo, hi) of the source fibre src
 * rolled by c */
static void roll(double *out, const double *src, int64_t lo, int64_t hi,
                 int64_t m, const int64_t c[3])
{
    int64_t m2 = m * m;
    if (lo == 0 && hi == m2 * m) {
        for (int64_t t0 = 0; t0 < m; t0++) {
            const double *plane = src + (t0 + c[0]) % m * m2;
            for (int64_t t1 = 0; t1 < m; t1++, out += m) {
                const double *line = plane + (t1 + c[1]) % m * m;
                for (int64_t t2 = 0; t2 < m - c[2]; t2++)
                    out[t2] = line[c[2] + t2];
                for (int64_t t2 = m - c[2]; t2 < m; t2++)
                    out[t2] = line[t2 - (m - c[2])];
            }
        }
        return;
    }
    /* a block edge cuts this fibre: point by point */
    for (int64_t q = lo; q < hi; q++) {
        int64_t t0 = q / m2, t1 = q / m % m, t2 = q % m;
        out[q - lo] = src[(t0 + c[0]) % m * m2 + (t1 + c[1]) % m * m
                          + (t2 + c[2]) % m];
    }
}

void step_pair(const double *src, double *up, double *um, int64_t rows,
               int64_t size, int64_t start, int64_t len, int64_t m,
               int64_t dim_h, int64_t a, const int64_t *twist_col)
{
    int64_t fibre = m * m * m, stop = start + len;
    for (int64_t fib = start / fibre; fib * fibre < stop; fib++) {
        int64_t base = fib * fibre;
        int64_t lo = start > base ? start - base : 0;
        int64_t hi = stop < base + fibre ? stop - base : fibre;
        int64_t cp[3], cm[3];
        int64_t sp = source(fib, m, dim_h, a, +1, twist_col, cp) * fibre;
        int64_t sm = source(fib, m, dim_h, a, -1, twist_col, cm) * fibre;
        int64_t at = base + lo - start;
        for (int64_t r = 0; r < rows; r++) {
            const double *row = src + r * size;
            roll(up + r * len + at, row + sp, lo, hi, m, cp);
            roll(um + r * len + at, row + sm, lo, hi, m, cm);
        }
    }
}
