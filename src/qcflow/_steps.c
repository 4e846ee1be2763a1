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
 * C-contiguous (3, len) work holds the weights w2 and w4 in its rows 0
 * and 1; a point's weights are read before the point's integrands are
 * written over them: lap^2 w2, (|Df|^2)^2 w4 and w2 d, in rows 0 to 2,
 * the three that the production formula reads.  It writes the minimum of
 * d into lo[0]; a NaN among the d is kept, as np.minimum.reduce keeps it.
 *
 * The per-point loops of grad_sq_block, difference_jet, euler_update and
 * hessian_block are written once, as static inline bodies that each
 * function calls with the literal dim_h 4 (n = 1, the dimension every
 * suite runs), so the compiler unrolls the reads of a point, and with the
 * runtime dim_h otherwise.
 *
 * The row bodies.  grad_sq_block, difference_jet and euler_update also
 * have a body that works a whole t_1 row of a plane at a time: since a
 * plane roll by (c_1, c_2) sends row t_1 to source row (t_1 + c_1) mod m,
 * rotated by c_2, the m points of a row read one source row per step.  At
 * dim_h = 4 and m <= 8 a row fits one 8-lane AVX-512 register, so per row
 * the body makes one masked load of each of the 8 steps' source rows and
 * one lane permute by (t_2 + c_2) mod m, picked from m index vectors made
 * per call, and reads no rolls entry: at m_x = 8 an Euler step takes about
 * half the time of the scalar body, whose two loads a step read are the
 * cost.  A row that a block or run edge cuts is stored under a lane mask,
 * so no body has a scalar tail; the Euler body's masked min and max keep a
 * NaN lane, and its lanes are folded as the scalar body folds its points.
 * difference_jet turns the 4 x m differences of a row point-major in
 * registers before it stores them.  The function selects the row body
 * itself, at run time: only on x86-64, when the CPU reports AVX-512F
 * (__builtin_cpu_supports), with dim_h = 4 and m <= 8.  The bodies are
 * compiled for AVX-512F alone (the target attribute), not the library, so
 * the shipped flags name no CPU and a library built on one x86-64 CPU runs
 * on any.  The scalar bodies are the only path on other CPUs, at n >= 2
 * and at m >= 9.  Each lane does the + - x / of the scalar body in its
 * order, each rounded on its own under the same -ffp-contract=off, so a
 * row body writes the scalar body's bits, and a negation flips the sign
 * bit, as the scalar body's does, NaN too.  Where NaNs of both signs meet
 * in one sum (inf - inf makes one), the NaN takes the sign of whichever
 * operand the compiler put first in a +, in either body, so the two may
 * differ in that sign bit there.
 *
 * Each function does the + - x / of the whole-field numpy formula in its
 * per-point order, each one rounded on its own, so its output has that
 * formula's bits as long as the compiler contracts no multiply and add
 * into an FMA: the library is built with -ffp-contract=off, and never with
 * -ffast-math.  Where two_h (and, for difference_jet, h_sq) is a power of
 * two, as at m_x = 2, 4 and 8, grad_sq_block and difference_jet multiply by
 * its reciprocal, which is then exact, so the product is the quotient;
 * hessian_block divides at every m_x: a second body made it slower, even
 * at m_x = 8.
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

/* 1 when x is a power of two (m_x = 2, 4, 8 give two_h and h_sq of that
 * form): then v * (1 / x) is exact division, the one correctly rounded
 * value of v / x, so a body may multiply where it would divide */
static int power_of_two(double x)
{
    int e;
    return frexp(x, &e) == 0.5;
}

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

#if defined(__x86_64__)
#include <immintrin.h>

/* The row bodies.  A plane roll by (c_1, c_2) sends row t_1 of a plane to
 * row (t_1 + c_1) mod m of its source plane, rotated by c_2: the m points
 * of a row read one source row, point t_2 its value (t_2 + c_2) mod m.  At
 * m <= 8 a row fits the 8 lanes of one AVX-512 register, so a row body
 * makes, per row, one masked load of each step's source row and one lane
 * permute by the index vector of its c_2, and reads no rolls entry. */
#define LANES 8

/* 1 when the row bodies run: n = 1, rows of at most 8 points, and a CPU
 * with AVX-512F */
static int row_bodies(int64_t m, int64_t dim_h)
{
    return dim_h == 4 && m <= LANES && __builtin_cpu_supports("avx512f");
}

/* the lanes [lo, hi) of row t1 that lie in the plane's points [q0, q1) */
static __mmask8 row_lanes(int64_t t1, int64_t m, int64_t q0, int64_t q1)
{
    int64_t lo = q0 > t1 * m ? q0 - t1 * m : 0, hi = q1 < t1 * m + m ? q1 - t1 * m : m;
    return (__mmask8)(((1u << hi) - 1) & ~((1u << lo) - 1));
}

/* turn[c] takes lane t to lane (t + c) mod m, each lane past m to itself */
__attribute__((target("avx512f")))
static void row_turns(int64_t m, __m512i *turn)
{
    for (int64_t c = 0; c < m; c++) {
        int64_t lane[LANES];
        for (int64_t t = 0; t < LANES; t++)
            lane[t] = t < m ? wrap(t, c, m) : t;
        turn[c] = _mm512_loadu_si512(lane);
    }
}

/* per step k of a fibre, the row roll c1[k] and the lane permute idx[k] of
 * its plane roll, from the offset roll[k] of that roll in the table */
__attribute__((target("avx512f")))
static void fibre_turns(const int64_t *roll, int64_t m, const __m512i *turn, int64_t *c1,
                        __m512i *idx)
{
    for (int k = 0; k < 8; k++) {
        int64_t c = roll[k] / (m * m);
        c1[k] = c / m;
        idx[k] = turn[c % m];
    }
}

/* the 8 step values s[k] of the points of row t1, step k reading the plane
 * at rd[k]: its source row, loaded into the lanes [0, m) and permuted */
__attribute__((target("avx512f")))
static inline void row_steps(const double *const *rd, const int64_t *c1, const __m512i *idx,
                             int64_t t1, int64_t m, __m512d *s)
{
    __mmask8 row = (__mmask8)((1u << m) - 1);
    for (int k = 0; k < 8; k++)
        s[k] = _mm512_permutexvar_pd(idx[k],
                                     _mm512_maskz_loadu_pd(row, rd[k] + wrap(t1, c1[k], m) * m));
}

/* the NaN-keeping minimum and maximum of the lanes of lo and hi */
__attribute__((target("avx512f")))
static void lane_extremes(__m512d lo, __m512d hi, double *ext)
{
    double l[LANES], h[LANES], min_x = INFINITY, max_x = -INFINITY;
    _mm512_storeu_pd(l, lo);
    _mm512_storeu_pd(h, hi);
    for (int t = 0; t < LANES; t++) {
        min_x = l[t] < min_x || l[t] != l[t] ? l[t] : min_x;
        max_x = h[t] > max_x || h[t] != h[t] ? h[t] : max_x;
    }
    ext[0] = min_x;
    ext[1] = max_x;
}

/* the row body of euler_update */
__attribute__((target("avx512f")))
static void euler_rows(const double *src, double *out, double *ext, int64_t start, int64_t len,
                       int64_t m, const int64_t *twist, double w)
{
    int64_t m2 = m * m, fibre = m2 * m, stop = start + len, q0, q1;
    int64_t from[8], c0[8], roll[8], at[8], c1[8];
    const double *rd[8];
    __m512i turn[LANES], idx[8];
    __m512d s[8], wv = _mm512_set1_pd(w), two = _mm512_set1_pd(2.0);
    __m512d lo = _mm512_set1_pd(INFINITY), hi = _mm512_set1_pd(-INFINITY);
    __mmask8 row = (__mmask8)((1u << m) - 1);
    row_turns(m, turn);
    for (int64_t fib = start / fibre; fib * fibre < stop; fib++) {
        int64_t base = fib * fibre;
        int64_t lo_q = start > base ? start - base : 0;
        int64_t hi_q = stop < base + fibre ? stop - base : fibre;
        fibre_steps(fib, m, 4, 0, 4, twist, from, c0, roll);
        fibre_turns(roll, m, turn, c1, idx);
        for (int64_t t0 = lo_q / m2; plane_run(t0, m2, lo_q, hi_q, &q0, &q1); t0++) {
            const double *v = src + base + t0 * m2;
            double *o = out + base + t0 * m2;
            plane_sources(t0, m, 4, from, c0, at);
            for (int k = 0; k < 8; k++)
                rd[k] = src + at[k];
            for (int64_t t1 = q0 / m; t1 * m < q1; t1++) {
                __mmask8 keep = row_lanes(t1, m, q0, q1);
                __m512d u = _mm512_maskz_loadu_pd(row, v + t1 * m);
                __m512d two_u = _mm512_mul_pd(u, two);
                row_steps(rd, c1, idx, t1, m, s);
                /* the scalar body's sums, lane by lane, in its order */
                __m512d acc = _mm512_sub_pd(_mm512_add_pd(s[0], s[1]), two_u);
                for (int a = 1; a < 4; a++)
                    acc = _mm512_add_pd(acc, _mm512_sub_pd(_mm512_add_pd(s[2 * a], s[2 * a + 1]),
                                                           two_u));
                __m512d x = _mm512_add_pd(u, _mm512_mul_pd(acc, wv));
                _mm512_mask_storeu_pd(o + t1 * m, keep, x);
                /* a NaN lane is kept, as the scalar body keeps it */
                __mmask8 nan = _mm512_mask_cmp_pd_mask(keep, x, x, _CMP_UNORD_Q);
                lo = _mm512_mask_mov_pd(lo, nan | _mm512_mask_cmp_pd_mask(keep, x, lo, _CMP_LT_OQ), x);
                hi = _mm512_mask_mov_pd(hi, nan | _mm512_mask_cmp_pd_mask(keep, x, hi, _CMP_GT_OQ), x);
            }
        }
    }
    lane_extremes(lo, hi, ext);
}

/* the row body of grad_sq_block */
__attribute__((target("avx512f")))
static inline void grad_sq_rows(const double *src, const double *w, double *out, int64_t start,
                                int64_t len, int64_t m, const int64_t *twist, double two_h,
                                int exact)
{
    int64_t m2 = m * m, fibre = m2 * m, stop = start + len, q0, q1;
    int64_t from[8], c0[8], roll[8], at[8], c1[8];
    const double *rd[8];
    __m512i turn[LANES], idx[8];
    __m512d s[8], inv = _mm512_set1_pd(1.0 / two_h), h2 = _mm512_set1_pd(two_h);
    row_turns(m, turn);
    for (int64_t fib = start / fibre; fib * fibre < stop; fib++) {
        int64_t base = fib * fibre;
        int64_t lo = start > base ? start - base : 0;
        int64_t hi = stop < base + fibre ? stop - base : fibre;
        fibre_steps(fib, m, 4, 0, 4, twist, from, c0, roll);
        fibre_turns(roll, m, turn, c1, idx);
        for (int64_t t0 = lo / m2; plane_run(t0, m2, lo, hi, &q0, &q1); t0++) {
            plane_sources(t0, m, 4, from, c0, at);
            for (int k = 0; k < 8; k++)
                rd[k] = src + at[k];
            for (int64_t t1 = q0 / m; t1 * m < q1; t1++) {
                __mmask8 keep = row_lanes(t1, m, q0, q1);
                int64_t p = base + t0 * m2 + t1 * m;
                row_steps(rd, c1, idx, t1, m, s);
                __m512d d = _mm512_sub_pd(s[0], s[1]);
                d = exact ? _mm512_mul_pd(d, inv) : _mm512_div_pd(d, h2);
                __m512d g = _mm512_mul_pd(d, d);
                for (int a = 1; a < 4; a++) {
                    d = _mm512_sub_pd(s[2 * a], s[2 * a + 1]);
                    d = exact ? _mm512_mul_pd(d, inv) : _mm512_div_pd(d, h2);
                    g = _mm512_add_pd(g, _mm512_mul_pd(d, d));
                }
                g = _mm512_mul_pd(g, _mm512_maskz_loadu_pd(keep, w + p));
                /* a row that starts before the block writes its lanes from
                 * out[0], so no address before out is formed */
                if (p < start)
                    _mm512_mask_compressstoreu_pd(out, keep, g);
                else
                    _mm512_mask_storeu_pd(out + (p - start), keep, g);
            }
        }
    }
}

/* the row body of difference_jet: the 4 differences of a row's points,
 * one register per axis, are turned point-major in registers, each point's
 * 4 one half of a register, and stored as 4 m values */
__attribute__((target("avx512f")))
static inline void jet_rows(const double *const *src, double *const *first,
                            double *const *lap, int64_t start, int64_t len, int64_t m,
                            const int64_t *twist, double two_h, double h_sq, int exact)
{
    int64_t m2 = m * m, fibre = m2 * m, plane = plane_points(m, 4), stop = start + len;
    int64_t from[8], c0[8], roll[8], c1[8], q0, q1;
    const double *fibres[8], *reads[8];
    __m512i turn[LANES], idx[8];
    __m512d s[8], d[4], two = _mm512_set1_pd(2.0);
    __m512i sign = _mm512_set1_epi64(INT64_MIN);
    __m512d inv_2h = _mm512_set1_pd(1.0 / two_h), inv_h_sq = _mm512_set1_pd(1.0 / h_sq);
    __m512d h2 = _mm512_set1_pd(two_h), hh = _mm512_set1_pd(h_sq);
    /* lanes of (D_0, D_1) and (D_2, D_3) paired per point, then the pairs
     * of two points side by side */
    __m512i pair_lo = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
    __m512i pair_hi = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
    __m512i quad_lo = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
    __m512i quad_hi = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
    __mmask8 row = (__mmask8)((1u << m) - 1);
    row_turns(m, turn);
    for (int64_t fib = start / fibre; fib * fibre < stop; fib++) {
        int64_t base = fib * fibre, x0 = base / plane, in = base - x0 * plane;
        int64_t lo = start > base ? start - base : 0;
        int64_t hi = stop < base + fibre ? stop - base : fibre;
        fibre_steps(fib, m, 4, 0, 4, twist, from, c0, roll);
        fibre_turns(roll, m, turn, c1, idx);
        source_fibres(src, m, plane, 1, x0, 0, 4, from, fibres);
        for (int64_t t0 = lo / m2; plane_run(t0, m2, lo, hi, &q0, &q1); t0++) {
            int64_t p0 = in + t0 * m2;
            const double *v = src[x0] + p0;
            double *f = first[x0] + p0 * 4, *l = lap[x0] + p0;
            plane_reads(t0, m, 1, 4, fibres, c0, reads);
            for (int64_t t1 = q0 / m; t1 * m < q1; t1++) {
                __mmask8 keep = row_lanes(t1, m, q0, q1);
                __m512d two_f = _mm512_mul_pd(_mm512_maskz_loadu_pd(row, v + t1 * m), two);
                __m512d acc = _mm512_setzero_pd();
                row_steps(reads, c1, idx, t1, m, s);
                for (int a = 0; a < 4; a++) {
                    __m512d diff = _mm512_sub_pd(s[2 * a], s[2 * a + 1]);
                    d[a] = exact ? _mm512_mul_pd(diff, inv_2h) : _mm512_div_pd(diff, h2);
                    acc = _mm512_add_pd(acc, _mm512_add_pd(_mm512_sub_pd(s[2 * a], two_f),
                                                           s[2 * a + 1]));
                }
                /* -acc flips the sign bit, as the scalar body's negation
                 * does, zeros and NaN too */
                acc = _mm512_castsi512_pd(_mm512_xor_epi64(_mm512_castpd_si512(acc), sign));
                _mm512_mask_storeu_pd(l + t1 * m, keep, exact ? _mm512_mul_pd(acc, inv_h_sq)
                                                              : _mm512_div_pd(acc, hh));
                __m512d p01 = _mm512_permutex2var_pd(d[0], pair_lo, d[1]);
                __m512d p01h = _mm512_permutex2var_pd(d[0], pair_hi, d[1]);
                __m512d p23 = _mm512_permutex2var_pd(d[2], pair_lo, d[3]);
                __m512d p23h = _mm512_permutex2var_pd(d[2], pair_hi, d[3]);
                __m512d q[4] = {_mm512_permutex2var_pd(p01, quad_lo, p23),
                                _mm512_permutex2var_pd(p01, quad_hi, p23),
                                _mm512_permutex2var_pd(p01h, quad_lo, p23h),
                                _mm512_permutex2var_pd(p01h, quad_hi, p23h)};
                for (int j = 0; j < 4; j++) {
                    /* register j holds the points 2j and 2j + 1 */
                    __mmask8 two_points = (__mmask8)(((keep >> (2 * j)) & 1 ? 0x0F : 0)
                                                     | ((keep >> (2 * j + 1)) & 1 ? 0xF0 : 0));
                    _mm512_mask_storeu_pd(f + (t1 * m + 2 * j) * 4, two_points, q[j]);
                }
            }
        }
    }
}
#endif

/* the body of grad_sq_block */
static inline void grad_sq_points(const double *src, const double *w, double *out,
                                  int64_t start, int64_t len, int64_t m, int64_t dim_h,
                                  const int64_t *twist, const int64_t *rolls, double two_h,
                                  int exact)
{
    int64_t m2 = m * m, fibre = m2 * m, stop = start + len, q0, q1;
    double inv = 1.0 / two_h;
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
                double d = step_read(src, rolls, at, roll, 0, q)
                           - step_read(src, rolls, at, roll, 1, q);
                d = exact ? d * inv : d / two_h;
                double g = d * d;
                for (int64_t a = 1; a < dim_h; a++) {
                    d = step_read(src, rolls, at, roll, 2 * a, q)
                        - step_read(src, rolls, at, roll, 2 * a + 1, q);
                    d = exact ? d * inv : d / two_h;
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
#if defined(__x86_64__)
    if (row_bodies(m, dim_h)) {
        if (power_of_two(two_h))
            grad_sq_rows(src, w, out, start, len, m, twist, two_h, 1);
        else
            grad_sq_rows(src, w, out, start, len, m, twist, two_h, 0);
        return;
    }
#endif
    if (dim_h == 4 && power_of_two(two_h))
        grad_sq_points(src, w, out, start, len, m, 4, twist, rolls, two_h, 1);
    else if (dim_h == 4)
        grad_sq_points(src, w, out, start, len, m, 4, twist, rolls, two_h, 0);
    else
        grad_sq_points(src, w, out, start, len, m, dim_h, twist, rolls, two_h, 0);
}

/* the body of difference_jet */
static inline void jet_points(const double *const *src, double *const *first,
                              double *const *lap, int64_t start, int64_t len, int64_t m,
                              int64_t dim_h, const int64_t *twist, const int64_t *rolls,
                              double two_h, double h_sq, int exact)
{
    int64_t m2 = m * m, fibre = m2 * m, plane = plane_points(m, dim_h), stop = start + len;
    double inv_2h = 1.0 / two_h, inv_h_sq = 1.0 / h_sq;
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
                    d[q * dim_h + a] = exact ? (up - um) * inv_2h : (up - um) / two_h;
                    acc += (up - two_f) + um;
                }
                l[q] = exact ? -acc * inv_h_sq : -acc / h_sq;
            }
        }
    }
}

void difference_jet(const double *const *src, double *const *first, double *const *lap,
                    int64_t start, int64_t len, int64_t m, int64_t dim_h,
                    const int64_t *twist, const int64_t *rolls, double two_h, double h_sq)
{
#if defined(__x86_64__)
    if (row_bodies(m, dim_h)) {
        if (power_of_two(two_h) && power_of_two(h_sq))
            jet_rows(src, first, lap, start, len, m, twist, two_h, h_sq, 1);
        else
            jet_rows(src, first, lap, start, len, m, twist, two_h, h_sq, 0);
        return;
    }
#endif
    if (dim_h == 4 && power_of_two(two_h) && power_of_two(h_sq))
        jet_points(src, first, lap, start, len, m, 4, twist, rolls, two_h, h_sq, 1);
    else if (dim_h == 4)
        jet_points(src, first, lap, start, len, m, 4, twist, rolls, two_h, h_sq, 0);
    else
        jet_points(src, first, lap, start, len, m, dim_h, twist, rolls, two_h, h_sq, 0);
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
#if defined(__x86_64__)
    if (row_bodies(m, dim_h)) {
        euler_rows(src, out, ext, start, len, m, twist, w);
        return;
    }
#endif
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
    double *lap2 = work, *quart = work + len, *weighted = work + 2 * len;
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
        weighted[i] = w2 * d;
        /* d != d keeps a NaN: no later comparison replaces it */
        min_d = d < min_d || d != d ? d : min_d;
    }
    *lo = min_d;
}
