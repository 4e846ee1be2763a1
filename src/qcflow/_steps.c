/* The twisted horizontal steps of the lattice quotient, read without a
 * step table: the centred differences they give, the difference jet of a
 * field and the Euler update that sums them.
 *
 * A step along horizontal axis a in direction d maps the point (i, t) to
 * (i + d e_a, t + d K(i)) (mod m), K_s(i) = sum_b twist[s][b, a] i_b, so
 * the m^3 points of one vertical fibre (fixed i) read the points of one
 * source fibre, rolled by d K(i).  A roll moves every plane (fixed t_0) of
 * the fibre in the same way, so one index array of m^2 entries per
 * direction serves the whole fibre, and a block edge that cuts a fibre
 * (odd m, and m = 6 with small blocks) cuts a run of that array.
 * fibre_steps sets up the steps of one fibre for all three functions.
 *
 * difference_gather writes D_a = (S_a^+ - S_a^-) / two_h of every row of a
 * C-contiguous (rows, size) float64 array on the points [start, start+len)
 * into the C-contiguous (rows, len) array out.
 *
 * difference_jet writes, on the same points of a flat field f, D_a f into
 * row a of the C-contiguous (dim_h, size) array first, for every a, and
 * the compact Laplacian -acc / h_sq, acc = sum_a ((S_a^+ f - f * 2) +
 * S_a^- f), into the flat array lap: acc starts at 0 and each axis adds to
 * it.
 *
 * euler_update writes u + acc * w, acc = sum_a ((S_a^+ u + S_a^- u) - u * 2),
 * on the same points of a flat field: the first axis writes acc, each later
 * one adds to it.
 *
 * Each function does the + - x / of the whole-field numpy formula in its
 * per-point order, each one rounded on its own, so its output has that
 * formula's bits as long as the compiler contracts no multiply and add
 * into an FMA: the library is built with -ffp-contract=off, and never with
 * -ffast-math.
 *
 * work is int64 space of 2 dim_h (m^2 + 3) entries: the index arrays of
 * all 2 dim_h steps and three numbers for each (difference_gather uses
 * those of its two steps).
 */
#include <stdint.h>

/* (t + c) mod m for t and c in [0, m), with no division */
static int64_t wrap(int64_t t, int64_t c, int64_t m)
{
    return t + c < m ? t + c : t + c - m;
}

/* the source fibres from[0] (d = +1) and from[1] (d = -1) of the steps
 * from fibre fib along axis a, and their rolls c[0] and c[1] */
static void sources(int64_t fib, int64_t m, int64_t dim_h, int64_t a,
                    const int64_t *twist_col, int64_t from[2], int64_t c[2][3])
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
    for (int s = 0; s < 3; s++) {
        int64_t k = K[s] % m;
        c[0][s] = k < 0 ? k + m : k;
        c[1][s] = c[0][s] ? m - c[0][s] : 0;
    }
    from[0] = fib + (wrap(ia, 1, m) - ia) * stride;
    from[1] = fib + (wrap(ia, m - 1, m) - ia) * stride;
}

/* idx[t1 m + t2]: where a plane rolled by c reads its source plane */
static void plane_roll(int64_t *idx, int64_t m, const int64_t c[3])
{
    for (int64_t t1 = 0; t1 < m; t1++)
        for (int64_t t2 = 0; t2 < m; t2++)
            idx[t1 * m + t2] = wrap(t1, c[1], m) * m + wrap(t2, c[2], m);
}

/* the steps from fibre fib along the axes [a0, a1): step k = 2 (a - a0) + d
 * (d = 0 for +, 1 for -) gets its index array idx + k m^2, the offset
 * from[k] of its source fibre and its roll c0[k] of t_0.  twist is the
 * (dim_h, 3, dim_h) array of the columns twist[s][:, a] */
static void fibre_steps(int64_t fib, int64_t m, int64_t dim_h, int64_t a0,
                        int64_t a1, const int64_t *twist, int64_t *idx,
                        int64_t *from, int64_t *c0)
{
    int64_t m2 = m * m, fibre = m2 * m;
    for (int64_t a = a0; a < a1; a++) {
        int64_t f[2], c[2][3];
        sources(fib, m, dim_h, a, twist + a * 3 * dim_h, f, c);
        for (int d = 0; d < 2; d++) {
            int64_t k = 2 * (a - a0) + d;
            plane_roll(idx + k * m2, m, c[d]);
            from[k] = f[d] * fibre;
            c0[k] = c[d][0];
        }
    }
}

/* the run [q0, q1) of plane t0 within the fibre points [lo, hi) */
static int plane_run(int64_t t0, int64_t m2, int64_t lo, int64_t hi,
                     int64_t *q0, int64_t *q1)
{
    *q0 = lo > t0 * m2 ? lo - t0 * m2 : 0;
    *q1 = hi < t0 * m2 + m2 ? hi - t0 * m2 : m2;
    return t0 * m2 < hi;
}

void difference_gather(const double *src, double *out, int64_t *work, int64_t rows,
                       int64_t size, int64_t start, int64_t len, int64_t m,
                       int64_t dim_h, int64_t a, const int64_t *twist, double two_h)
{
    int64_t m2 = m * m, fibre = m2 * m, stop = start + len, q0, q1;
    int64_t *idx = work, *from = idx + 2 * dim_h * m2, *c0 = from + 2 * dim_h;
    for (int64_t fib = start / fibre; fib * fibre < stop; fib++) {
        int64_t base = fib * fibre;
        int64_t lo = start > base ? start - base : 0;
        int64_t hi = stop < base + fibre ? stop - base : fibre;
        fibre_steps(fib, m, dim_h, a, a + 1, twist, idx, from, c0);
        for (int64_t r = 0; r < rows; r++)
            for (int64_t t0 = lo / m2; plane_run(t0, m2, lo, hi, &q0, &q1); t0++) {
                const double *up = src + r * size + from[0] + wrap(t0, c0[0], m) * m2;
                const double *um = src + r * size + from[1] + wrap(t0, c0[1], m) * m2;
                double *o = out + r * len + base + t0 * m2 - start;
                for (int64_t q = q0; q < q1; q++)
                    o[q] = (up[idx[q]] - um[idx[m2 + q]]) / two_h;
            }
    }
}

void difference_jet(const double *src, double *first, double *lap, int64_t *work,
                    int64_t size, int64_t start, int64_t len, int64_t m, int64_t dim_h,
                    const int64_t *twist, double two_h, double h_sq)
{
    int64_t m2 = m * m, fibre = m2 * m, stop = start + len, q0, q1;
    int64_t *idx = work, *from = idx + 2 * dim_h * m2;
    int64_t *c0 = from + 2 * dim_h, *at = c0 + 2 * dim_h;
    for (int64_t fib = start / fibre; fib * fibre < stop; fib++) {
        int64_t base = fib * fibre;
        int64_t lo = start > base ? start - base : 0;
        int64_t hi = stop < base + fibre ? stop - base : fibre;
        fibre_steps(fib, m, dim_h, 0, dim_h, twist, idx, from, c0);
        for (int64_t t0 = lo / m2; plane_run(t0, m2, lo, hi, &q0, &q1); t0++) {
            int64_t p0 = base + t0 * m2;
            const double *v = src + p0;
            for (int64_t k = 0; k < 2 * dim_h; k++)
                at[k] = from[k] + wrap(t0, c0[k], m) * m2;
            for (int64_t q = q0; q < q1; q++) {
                double two_f = v[q] * 2.0, acc = 0.0;
                for (int64_t a = 0; a < dim_h; a++) {
                    const int64_t *ia = idx + 2 * a * m2;
                    double up = src[at[2 * a] + ia[q]], um = src[at[2 * a + 1] + ia[m2 + q]];
                    first[a * size + p0 + q] = (up - um) / two_h;
                    acc += (up - two_f) + um;
                }
                lap[p0 + q] = -acc / h_sq;
            }
        }
    }
}

void euler_update(const double *src, double *out, int64_t *work, int64_t start,
                  int64_t len, int64_t m, int64_t dim_h, const int64_t *twist,
                  double w)
{
    int64_t m2 = m * m, fibre = m2 * m, stop = start + len, q0, q1;
    int64_t *idx = work, *from = idx + 2 * dim_h * m2;
    int64_t *c0 = from + 2 * dim_h, *at = c0 + 2 * dim_h;
    for (int64_t fib = start / fibre; fib * fibre < stop; fib++) {
        int64_t base = fib * fibre;
        int64_t lo = start > base ? start - base : 0;
        int64_t hi = stop < base + fibre ? stop - base : fibre;
        fibre_steps(fib, m, dim_h, 0, dim_h, twist, idx, from, c0);
        for (int64_t t0 = lo / m2; plane_run(t0, m2, lo, hi, &q0, &q1); t0++) {
            const double *v = src + base + t0 * m2;
            double *o = out + base + t0 * m2 - start;
            /* at[k]: where step k reads plane t0's source plane */
            for (int64_t k = 0; k < 2 * dim_h; k++)
                at[k] = from[k] + wrap(t0, c0[k], m) * m2;
            /* acc stays in a register: out is written once per point */
            for (int64_t q = q0; q < q1; q++) {
                double acc = (src[at[0] + idx[q]] + src[at[1] + idx[m2 + q]]) - v[q] * 2.0;
                for (int64_t a = 1; a < dim_h; a++) {
                    const int64_t *ia = idx + 2 * a * m2;
                    acc += (src[at[2 * a] + ia[q]] + src[at[2 * a + 1] + ia[m2 + q]])
                           - v[q] * 2.0;
                }
                o[q] = v[q] + acc * w;
            }
        }
    }
}
