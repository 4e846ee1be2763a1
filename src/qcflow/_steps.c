/* The twisted horizontal steps of the lattice quotient, read without a
 * step table: the weighted square norm of the centred differences they
 * give, the difference jet of a field, the Euler update that sums them,
 * the composed Hessian of a field's first differences, and the per-point
 * integrands of the energy production that read that Hessian.
 *
 * A step along horizontal axis a in direction d maps the point (i, t) to
 * (i + d e_a, t + d K(i)) (mod m), K_s(i) = sum_b twist[s][b, a] i_b, so
 * the m^3 points of one vertical fibre (fixed i) read the points of one
 * source fibre, rolled by d K(i).  A roll moves every plane (fixed t_0) of
 * the fibre in the same way, by (c_1, c_2) in (t_1, t_2), and there are
 * only m^2 such plane rolls.  plane_rolls writes all of them into one
 * int64 table of m^4 entries (32 KiB at m = 8), which the caller makes
 * once per grid and every thread then reads:
 *
 *     rolls[(c_1 m + c_2) m^2 + t_1 m + t_2] = (t_1 + c_1 mod m) m + (t_2 + c_2 mod m),
 *
 * where the plane rolled by (c_1, c_2) reads point (t_1, t_2) of its
 * source plane.  The layout lives in this file alone: the caller only
 * sizes the table and passes it back as rolls.  So a step needs, per
 * fibre, three numbers and no index array: fibre_steps sets its source
 * fibre, its roll of t_0 and the offset of its plane roll in the table.
 * A block edge that cuts a fibre (odd m, and m = 6 with small blocks)
 * cuts a run of the fibre's planes.
 *
 * grad_sq_block writes, on the points [start, start+len) of a flat field
 * f, (((D_0 f)^2 + (D_1 f)^2) + ...) * w, D_a f = (S_a^+ f - S_a^- f) / two_h,
 * into out[0:len], the block alone; the weight w is a flat field, read at
 * the same points.
 *
 * The x_0 planes: x_0, the first horizontal index, is the outermost axis,
 * so the points of one value of it, m^(dim_h + 2) of them, are one run of
 * the flat field, and only the steps along axis 0 leave the plane.
 * difference_jet and hessian_block read and write a field through a table
 * of m plane bases: planes[x_0] is where plane x_0 starts, and the point
 * of flat index p lies at planes[p / plane] + (p % plane) * width, width
 * the values a point holds.  A whole field's table holds base +
 * x_0 plane width; a window of planes holds the planes where it keeps
 * them, and a plane that a call does not read may have any entry.
 *
 * difference_jet writes, on the points [start, start+len) of a field f,
 * D_a f into the run of dim_h values of the point, in order of a, in the
 * planes of first: first is point-major, each point's dim_h differences
 * one run.  It writes the compact Laplacian -acc / h_sq,
 * acc = sum_a ((S_a^+ f - f * 2) + S_a^- f), into the planes of lap: acc
 * starts at 0 and each axis adds to it.  f, first and lap are each read
 * or written through a table of plane bases.
 *
 * euler_update writes u + acc * w, acc = sum_a ((S_a^+ u + S_a^- u) - u * 2),
 * on the same points of a flat field into the flat array out: the first
 * axis writes acc, each later one adds to it.  It writes the minimum and
 * the maximum of the values it wrote into ext[0] and ext[1]; a NaN among
 * them is kept, as np.min and np.max keep it.
 *
 * hessian_block accumulates, on the points [start, start+len) of the
 * point-major first differences D_b f that difference_jet writes, read
 * through their table of plane bases, the composed Hessian H_ab = D_a D_b f
 * into tr[0:len] = sum_a H_aa, the rows om[s ld + i], om[s] =
 * sum_a sigma_s(a) H_a b_s(a), ld >= len, and, unless nsq is NULL,
 * nsq[0:len] = sum_a sum_b H_ab^2, each from zero in (a, b) order.  Row a
 * of omega_s = g(I_s ., .), I_s = B_s, is the twist column of (a, s), with
 * one entry +-1 (the caller refuses others): sigma_s(a), at b_s(a).  It
 * goes fibre by fibre and, within a fibre, axis by axis: at each point it
 * reads the dim_h differences of each of the two points that the steps
 * along a reach as one run, through one plane-roll index per step, forms
 * the row H_a. = (up - um) / two_h and adds it into tr, om and nsq, whose
 * share of the fibre stays in a core's L1 cache across the axes.  Adding
 * sigma_s(a) H_ab, sigma = +-1, gives the bits of adding or subtracting
 * H_ab.
 *
 * production_block forms, per point of a block of len points, from the
 * Hessian's tr, om and nsq there, with the compact Laplacian lap and the
 * point-major first differences first of the same points, the p-deficit
 * d = ((((nsq - tr q tr) - om_0 q om_0) - om_1 q om_1) - om_2 q om_2),
 * q = 1 / dim_h, and |Df|^2 = sum_b first_b^2 in axis order.  The
 * C-contiguous (5, len) work holds the weights w2 and w4 in its rows 0
 * and 1; a point's weights are read before the point's integrands are
 * written over them: lap^2 w2, (|Df|^2)^2 w4, w2 nsq,
 * (om_0^2 + om_1^2 + om_2^2) w2 and w2 d, in rows 0 to 4.  It writes the
 * minimum of d into lo[0]; a NaN among the d is kept, as
 * np.minimum.reduce keeps it.
 *
 * The per-point loops of grad_sq_block, difference_jet, euler_update and
 * hessian_block are written once, as static inline bodies that each
 * function calls with the literal dim_h 4 (n = 1, the dimension every
 * suite runs), so the compiler unrolls the reads of a point, and with the
 * runtime dim_h otherwise.
 *
 * Each function does the + - x / of the whole-field numpy formula in its
 * per-point order, each one rounded on its own, so its output has that
 * formula's bits as long as the compiler contracts no multiply and add
 * into an FMA: the library is built with -ffp-contract=off, and never with
 * -ffast-math.
 *
 * Each function keeps its scratch on its own stack, the per-step arrays at
 * a fixed size: a variable-length one costs the hot loops a register.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* the 2 dim_h steps of a point: a field of 2^(dim_h + 3) float64 values or
 * more fits in a 64-bit address space only for dim_h <= 57 */
#define MAX_STEPS 128

/* (t + c) mod m for t and c in [0, m), with no division */
static int64_t wrap(int64_t t, int64_t c, int64_t m)
{
    return t + c < m ? t + c : t + c - m;
}

/* the table of all m^2 plane rolls, m^4 entries, in the layout above */
void plane_rolls(int64_t *rolls, int64_t m)
{
    for (int64_t c1 = 0; c1 < m; c1++)
        for (int64_t c2 = 0; c2 < m; c2++)
            for (int64_t t1 = 0; t1 < m; t1++)
                for (int64_t t2 = 0; t2 < m; t2++)
                    *rolls++ = wrap(t1, c1, m) * m + wrap(t2, c2, m);
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

/* the steps from fibre fib along the axes [a0, a1): step k = 2 (a - a0) + d
 * (d = 0 for +, 1 for -) gets the offset from[k] of its source fibre, its
 * roll c0[k] of t_0 and the offset roll[k] of its plane roll in the table.
 * twist is the (dim_h, 3, dim_h) array of the columns twist[s][:, a] */
static void fibre_steps(int64_t fib, int64_t m, int64_t dim_h, int64_t a0,
                        int64_t a1, const int64_t *twist, int64_t *from,
                        int64_t *c0, int64_t *roll)
{
    int64_t m2 = m * m, fibre = m2 * m;
    for (int64_t a = a0; a < a1; a++) {
        int64_t f[2], c[2][3];
        sources(fib, m, dim_h, a, twist + a * 3 * dim_h, f, c);
        for (int d = 0; d < 2; d++) {
            int64_t k = 2 * (a - a0) + d;
            from[k] = f[d] * fibre;
            c0[k] = c[d][0];
            roll[k] = (c[d][1] * m + c[d][2]) * m2;
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

/* where each of the 2 dim_h steps reads plane t0's source plane */
static void plane_sources(int64_t t0, int64_t m, int64_t dim_h, const int64_t *from,
                          const int64_t *c0, int64_t *at)
{
    for (int64_t k = 0; k < 2 * dim_h; k++)
        at[k] = from[k] + wrap(t0, c0[k], m) * m * m;
}

/* the value step k reads at point q of the plane */
static inline double step_read(const double *src, const int64_t *rolls,
                               const int64_t *at, const int64_t *roll, int64_t k,
                               int64_t q)
{
    return src[at[k] + rolls[roll[k] + q]];
}

/* the points of one x_0 plane, m^(dim_h + 2): m^(dim_h - 1) fibres */
static int64_t plane_points(int64_t m, int64_t dim_h)
{
    int64_t plane = 1;
    for (int64_t b = 0; b < dim_h + 2; b++)
        plane *= m;
    return plane;
}

/* the first value of the source fibre of each of the 2 steps steps along
 * the axes from a0 that leave a fibre of plane x0, at width values a point,
 * in the plane that the table planes holds it in: the steps along axis 0
 * reach the planes x0 + 1 and x0 - 1, and every other step stays in x0 (a
 * division of the source's index by the plane size, two a step, made the
 * jet 5-13 % slower) */
static void source_fibres(const double *const *planes, int64_t m, int64_t plane,
                          int64_t width, int64_t x0, int64_t a0, int64_t steps,
                          const int64_t *from, const double **fibres)
{
    for (int64_t k = 0; k < 2 * steps; k++) {
        int64_t xs = a0 + k / 2 == 0 ? wrap(x0, k % 2 ? m - 1 : 1, m) : x0;
        fibres[k] = planes[xs] + (from[k] - xs * plane) * width;
    }
}

/* where each of the 2 steps steps reads its source plane of plane t0 */
static void plane_reads(int64_t t0, int64_t m, int64_t width, int64_t steps,
                        const double *const *fibres, const int64_t *c0, const double **reads)
{
    for (int64_t k = 0; k < 2 * steps; k++)
        reads[k] = fibres[k] + wrap(t0, c0[k], m) * m * m * width;
}

/* the body of grad_sq_block */
static inline void grad_sq_points(const double *src, const double *w, double *out,
                                  int64_t start, int64_t len, int64_t m, int64_t dim_h,
                                  const int64_t *twist, const int64_t *rolls, double two_h)
{
    int64_t m2 = m * m, fibre = m2 * m, stop = start + len, q0, q1;
    int64_t from[MAX_STEPS], c0[MAX_STEPS], roll[MAX_STEPS], at[MAX_STEPS];
    for (int64_t fib = start / fibre; fib * fibre < stop; fib++) {
        int64_t base = fib * fibre;
        int64_t lo = start > base ? start - base : 0;
        int64_t hi = stop < base + fibre ? stop - base : fibre;
        fibre_steps(fib, m, dim_h, 0, dim_h, twist, from, c0, roll);
        for (int64_t t0 = lo / m2; plane_run(t0, m2, lo, hi, &q0, &q1); t0++) {
            int64_t p0 = base + t0 * m2;
            plane_sources(t0, m, dim_h, from, c0, at);
            for (int64_t q = q0; q < q1; q++) {
                double d = (step_read(src, rolls, at, roll, 0, q)
                            - step_read(src, rolls, at, roll, 1, q)) / two_h;
                double g = d * d;
                for (int64_t a = 1; a < dim_h; a++) {
                    d = (step_read(src, rolls, at, roll, 2 * a, q)
                         - step_read(src, rolls, at, roll, 2 * a + 1, q)) / two_h;
                    g += d * d;
                }
                out[p0 + q - start] = g * w[p0 + q];
            }
        }
    }
}

void grad_sq_block(const double *src, const double *w, double *out, int64_t start,
                   int64_t len, int64_t m, int64_t dim_h, const int64_t *twist,
                   const int64_t *rolls, double two_h)
{
    if (dim_h == 4)
        grad_sq_points(src, w, out, start, len, m, 4, twist, rolls, two_h);
    else
        grad_sq_points(src, w, out, start, len, m, dim_h, twist, rolls, two_h);
}

/* the body of difference_jet */
static inline void jet_points(const double *const *src, double *const *first,
                              double *const *lap, int64_t start, int64_t len, int64_t m,
                              int64_t dim_h, const int64_t *twist, const int64_t *rolls,
                              double two_h, double h_sq)
{
    int64_t m2 = m * m, fibre = m2 * m, plane = plane_points(m, dim_h), stop = start + len;
    int64_t from[MAX_STEPS], c0[MAX_STEPS], roll[MAX_STEPS], q0, q1;
    const double *fibres[MAX_STEPS], *reads[MAX_STEPS];
    for (int64_t fib = start / fibre; fib * fibre < stop; fib++) {
        int64_t base = fib * fibre, x0 = base / plane, in = base - x0 * plane;
        int64_t lo = start > base ? start - base : 0;
        int64_t hi = stop < base + fibre ? stop - base : fibre;
        fibre_steps(fib, m, dim_h, 0, dim_h, twist, from, c0, roll);
        source_fibres(src, m, plane, 1, x0, 0, dim_h, from, fibres);
        for (int64_t t0 = lo / m2; plane_run(t0, m2, lo, hi, &q0, &q1); t0++) {
            int64_t p0 = in + t0 * m2;
            const double *v = src[x0] + p0;
            double *d = first[x0] + p0 * dim_h, *l = lap[x0] + p0;
            plane_reads(t0, m, 1, dim_h, fibres, c0, reads);
            for (int64_t q = q0; q < q1; q++) {
                double two_f = v[q] * 2.0, acc = 0.0;
                for (int64_t a = 0; a < dim_h; a++) {
                    double up = reads[2 * a][rolls[roll[2 * a] + q]];
                    double um = reads[2 * a + 1][rolls[roll[2 * a + 1] + q]];
                    d[q * dim_h + a] = (up - um) / two_h;
                    acc += (up - two_f) + um;
                }
                l[q] = -acc / h_sq;
            }
        }
    }
}

void difference_jet(const double *const *src, double *const *first, double *const *lap,
                    int64_t start, int64_t len, int64_t m, int64_t dim_h,
                    const int64_t *twist, const int64_t *rolls, double two_h, double h_sq)
{
    if (dim_h == 4)
        jet_points(src, first, lap, start, len, m, 4, twist, rolls, two_h, h_sq);
    else
        jet_points(src, first, lap, start, len, m, dim_h, twist, rolls, two_h, h_sq);
}

/* the body of euler_update */
static inline void euler_points(const double *src, double *out, double *ext, int64_t start,
                                int64_t len, int64_t m, int64_t dim_h, const int64_t *twist,
                                const int64_t *rolls, double w)
{
    int64_t m2 = m * m, fibre = m2 * m, stop = start + len, q0, q1;
    int64_t from[MAX_STEPS], c0[MAX_STEPS], roll[MAX_STEPS], at[MAX_STEPS];
    double min_x = INFINITY, max_x = -INFINITY;
    for (int64_t fib = start / fibre; fib * fibre < stop; fib++) {
        int64_t base = fib * fibre;
        int64_t lo = start > base ? start - base : 0;
        int64_t hi = stop < base + fibre ? stop - base : fibre;
        fibre_steps(fib, m, dim_h, 0, dim_h, twist, from, c0, roll);
        for (int64_t t0 = lo / m2; plane_run(t0, m2, lo, hi, &q0, &q1); t0++) {
            const double *v = src + base + t0 * m2;
            double *o = out + base + t0 * m2;
            plane_sources(t0, m, dim_h, from, c0, at);
            /* acc stays in a register: out is written once per point */
            for (int64_t q = q0; q < q1; q++) {
                double acc = (step_read(src, rolls, at, roll, 0, q)
                              + step_read(src, rolls, at, roll, 1, q)) - v[q] * 2.0;
                for (int64_t a = 1; a < dim_h; a++)
                    acc += (step_read(src, rolls, at, roll, 2 * a, q)
                            + step_read(src, rolls, at, roll, 2 * a + 1, q)) - v[q] * 2.0;
                double x = v[q] + acc * w;
                o[q] = x;
                /* x != x keeps a NaN: no later comparison replaces it */
                min_x = x < min_x || x != x ? x : min_x;
                max_x = x > max_x || x != x ? x : max_x;
            }
        }
    }
    ext[0] = min_x;
    ext[1] = max_x;
}

void euler_update(const double *src, double *out, double *ext, int64_t start, int64_t len,
                  int64_t m, int64_t dim_h, const int64_t *twist, const int64_t *rolls,
                  double w)
{
    if (dim_h == 4)
        euler_points(src, out, ext, start, len, m, 4, twist, rolls, w);
    else
        euler_points(src, out, ext, start, len, m, dim_h, twist, rolls, w);
}


/* the one entry +-1 of row a of each omega_s, omega_s[a, b] = twist[s][b, a]:
 * sign sg[s] at column bs[s]; a row without one reads as sign 0 at column 0 */
static void omega_row(const int64_t *twist, int64_t dim_h, int64_t a, int64_t bs[3],
                      double sg[3])
{
    const int64_t *col = twist + a * 3 * dim_h;
    for (int s = 0; s < 3; s++) {
        bs[s] = 0;
        sg[s] = 0.0;
        for (int64_t b = 0; b < dim_h; b++)
            if (col[s * dim_h + b] != 0) {
                bs[s] = b;
                sg[s] = (double)col[s * dim_h + b];
            }
    }
}

/* the body of hessian_block */
static inline void hessian_points(const double *const *first, double *restrict tr,
                                  double *restrict om, double *restrict nsq, int64_t ld,
                                  int64_t start, int64_t len, int64_t m, int64_t dim_h,
                                  const int64_t *twist, const int64_t *rolls, double two_h)
{
    int64_t m2 = m * m, fibre = m2 * m, plane = plane_points(m, dim_h), stop = start + len;
    int64_t q0, q1;
    double *om0 = om, *om1 = om + ld, *om2 = om + 2 * ld;
    for (int64_t fib = start / fibre; fib * fibre < stop; fib++) {
        int64_t base = fib * fibre, x0 = base / plane;
        int64_t lo = start > base ? start - base : 0;
        int64_t hi = stop < base + fibre ? stop - base : fibre;
        for (int64_t p = base + lo - start; p < base + hi - start; p++) {
            tr[p] = om0[p] = om1[p] = om2[p] = 0.0;
            if (nsq != NULL)
                nsq[p] = 0.0;
        }
        for (int64_t a = 0; a < dim_h; a++) {
            int64_t from[2], c0[2], roll[2], bs[3];
            double sg[3], h[MAX_STEPS];
            const double *fibres[2], *reads[2];
            fibre_steps(fib, m, dim_h, a, a + 1, twist, from, c0, roll);
            source_fibres(first, m, plane, dim_h, x0, a, 1, from, fibres);
            omega_row(twist, dim_h, a, bs, sg);
            const int64_t *rp = rolls + roll[0], *rm = rolls + roll[1];
            for (int64_t t0 = lo / m2; plane_run(t0, m2, lo, hi, &q0, &q1); t0++) {
                /* the planes the two steps read, each point's run of dim_h
                 * differences at dim_h times its index */
                plane_reads(t0, m, dim_h, 1, fibres, c0, reads);
                int64_t p0 = base + t0 * m2 - start;
                for (int64_t q = q0; q < q1; q++) {
                    const double *u = reads[0] + rp[q] * dim_h, *v = reads[1] + rm[q] * dim_h;
                    int64_t p = p0 + q;
                    for (int64_t b = 0; b < dim_h; b++)
                        h[b] = (u[b] - v[b]) / two_h;
                    tr[p] += h[a];
                    om0[p] += sg[0] * h[bs[0]];
                    om1[p] += sg[1] * h[bs[1]];
                    om2[p] += sg[2] * h[bs[2]];
                    if (nsq != NULL) {
                        double acc = nsq[p];
                        for (int64_t b = 0; b < dim_h; b++)
                            acc += h[b] * h[b];
                        nsq[p] = acc;
                    }
                }
            }
        }
    }
}

void hessian_block(const double *const *first, double *tr, double *om, double *nsq, int64_t ld,
                   int64_t start, int64_t len, int64_t m, int64_t dim_h, const int64_t *twist,
                   const int64_t *rolls, double two_h)
{
    if (dim_h == 4)
        hessian_points(first, tr, om, nsq, ld, start, len, m, 4, twist, rolls, two_h);
    else
        hessian_points(first, tr, om, nsq, ld, start, len, m, dim_h, twist, rolls, two_h);
}

void production_block(const double *tr, const double *om, const double *nsq,
                      const double *lap, const double *first, double *work, double *lo,
                      int64_t len, int64_t dim_h)
{
    double quarter = 1.0 / (double)dim_h, min_d = INFINITY;
    double *lap2 = work, *quart = work + len, *hess2 = work + 2 * len;
    double *omega2 = work + 3 * len, *weighted = work + 4 * len;
    for (int64_t i = 0; i < len; i++) {
        /* the weights are read before any integrand overwrites them */
        double w2 = work[i], w4 = work[len + i];
        double t = tr[i], o0 = om[i], o1 = om[len + i], o2 = om[2 * len + i], n = nsq[i];
        const double *f = first + i * dim_h;
        double d = (((n - t * quarter * t) - o0 * quarter * o0) - o1 * quarter * o1)
                   - o2 * quarter * o2;
        double g = f[0] * f[0];
        for (int64_t b = 1; b < dim_h; b++)
            g += f[b] * f[b];
        lap2[i] = lap[i] * lap[i] * w2;
        quart[i] = g * g * w4;
        hess2[i] = w2 * n;
        omega2[i] = (o0 * o0 + o1 * o1 + o2 * o2) * w2;
        weighted[i] = w2 * d;
        /* d != d keeps a NaN: no later comparison replaces it */
        min_d = d < min_d || d != d ? d : min_d;
    }
    *lo = min_d;
}
