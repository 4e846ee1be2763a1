"""Discrete horizontal calculus on the lattice quotient.

All derivatives act by group translation (left-invariant frame), so they
are pure index arithmetic; the connection coefficients of the model frame
vanish, hence covariant derivatives are plain compositions of directional
differences.  Summation by parts is exact: every first-difference operator
is skew-adjoint for the grid inner product, and the compact sub-Laplacian
is self-adjoint.

One field's derivatives come from its difference jet (DifferenceJet): the
8n whole-field step gathers S_a^{+-} f are made once, and give both the
first differences D_a f and the compact sub-Laplacian.  The composed second
differences H_ab = D_a D_b f come from one Hessian stream: block by block,
one stacked gather per step table gives the rows H_a. of every D_b f, and
the stream accumulates tr H and omega_s(H), and |H|^2 when asked.  Two
contractions read it: hessian() keeps the whole-field HessianData (with the
p-deficit), and p_functional forms its integrand per block from tr H and
omega_s(H) alone, never building the full Hessian.  grad_h, sub_laplacian,
hessian_data and p_functional read a jet, so a caller that needs several of
them passes the jet instead of the field and pays for the gathers once.

Because D_a is exactly skew-adjoint, the P-pairing needs no third-order
stencil: summing by parts,

    int P_f(grad f) = int (Delta f tr H + sum_t G_t^2),
    G_t = sum_{b,d} I_t[d, b] H_bd = g(H, omega_t),

which p_functional evaluates from the jet.  p_form and third_contractions
build the third-order 1-form itself; they remain for c_operator and as the
independent route that the duality tests compare against.

Sign convention: sub_laplacian returns the positive operator
Delta f = -sum_a f_aa, so the heat equation du/dt = -Delta u is smoothing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import TorsionData
from .lattice import (
    BLOCK_POINTS,
    XI_SCALE,
    HorizontalField,
    LatticeGrid,
    ScalarField,
    frame_data,
    point_blocks,
    shift,
    vertical_shift,
)


def first_difference(values: np.ndarray, grid: LatticeGrid, a: int) -> np.ndarray:
    return (shift(values, grid, a, +1) - shift(values, grid, a, -1)) / (2.0 * grid.h_x)


def vertical_difference(values: np.ndarray, grid: LatticeGrid, s: int) -> np.ndarray:
    return (vertical_shift(values, grid, s, +1)
            - vertical_shift(values, grid, s, -1)) / (2.0 * grid.h_t)


@dataclass
class HessianData:
    """Streaming contractions of the composed horizontal Hessian.

    norm_sq      |nabla^2 f|^2 pointwise
    trace        sum_a X_a X_a f (wide stencil; the compact sub-Laplacian is
                 its negative up to an O(h^2) stencil gap)
    omega[s]     g(nabla^2 f, omega_s)
    deficit      p-deficit |H|^2 - (1/4n)(tr H)^2 - (1/4n) sum_s omega[s]^2,
                 pointwise non-negative by the Bessel inequality for the
                 orthogonal family {Id, omega_1, omega_2, omega_3}
    """

    norm_sq: np.ndarray
    trace: np.ndarray
    omega: np.ndarray
    deficit: np.ndarray


def _step_gathers(flat: np.ndarray, grid: LatticeGrid):
    """Blocks of points outside, axes a inside: yield (blk, a, up, um) with
    up = S_a^+ f and um = S_a^- f on the block blk, gathered through the step
    tables.  up and um are buffers that the next yield overwrites, so a
    consumer may work in them."""
    perms = [(grid.step_permutation(a, +1), grid.step_permutation(a, -1))
             for a in range(grid.dim_h)]
    up, um = np.empty(BLOCK_POINTS), np.empty(BLOCK_POINTS)
    for blk in point_blocks(flat.size):
        k = blk.stop - blk.start
        up_b, um_b = up[:k], um[:k]
        for a, (p_up, p_dn) in enumerate(perms):
            np.take(flat, p_up[blk], out=up_b, mode="clip")
            np.take(flat, p_dn[blk], out=um_b, mode="clip")
            yield blk, a, up_b, um_b


class DifferenceJet:
    """The horizontal differences of one field, each gather made once.

    first      D_a f as a (4n,) + grid.shape array
    laplacian  the compact positive sub-Laplacian, -sum_a (S_a^+ f - 2f +
               S_a^- f) / h_x^2, from the same 8n step gathers as `first`
    hessian()  contractions of H_ab = D_a D_b f from the Hessian stream,
               computed on first use and kept

    Every pass runs over cache-sized blocks of points (lattice.point_blocks)
    and gives the bits of the whole-field stencils.
    """

    def __init__(self, f: ScalarField):
        grid = f.grid
        dim = grid.dim_h
        flat = f.values.reshape(-1)
        first = np.empty((dim, grid.size))
        lap = np.empty(grid.size)
        acc, two_f = np.empty(BLOCK_POINTS), np.empty(BLOCK_POINTS)
        two_h = 2.0 * grid.h_x
        h_sq = grid.h_x * grid.h_x
        for blk, a, up_b, um_b in _step_gathers(flat, grid):
            k = blk.stop - blk.start
            acc_b, two_f_b = acc[:k], two_f[:k]
            # a block's first axis starts its Laplacian sum, its last ends it
            if a == 0:
                np.multiply(flat[blk], 2.0, out=two_f_b)
                acc_b.fill(0.0)
            d_a = first[a, blk]
            np.subtract(up_b, um_b, out=d_a)
            d_a /= two_h
            # (S^+ f - 2f) + S^- f, the grouping of the compact stencil
            up_b -= two_f_b
            up_b += um_b
            acc_b += up_b
            if a == dim - 1:
                lap_b = lap[blk]
                np.negative(acc_b, out=lap_b)
                lap_b /= h_sq
        self.grid = grid
        self.first = first.reshape((dim,) + grid.shape)
        self.laplacian = lap.reshape(grid.shape)
        self._hessian: HessianData | None = None

    def hessian(self) -> HessianData:
        if self._hessian is None:
            self._hessian = self._contract_hessian()
        return self._hessian

    def _hessian_stream(self, with_norm: bool):
        """The one pass over the composed Hessian H_ab = D_a D_b f.

        Blocks of points outside, axes a inside: for each a, one stacked
        gather per direction carries every D_b f through S_a^+- and gives
        the block rows H_a. = D_a D_. f.  Yields (blk, trace, omega, norm_sq)
        per block, accumulated in (a, b) order from zero, so each point sees
        the operations of a whole-field pass; norm_sq = |H|^2 is formed only
        when with_norm.  The yielded arrays are buffers that the next block
        overwrites.
        """
        grid = self.grid
        fd = frame_data(grid)
        dim = grid.dim_h
        first = self.first.reshape(dim, grid.size)
        perms = [(grid.step_permutation(a, +1), grid.step_permutation(a, -1))
                 for a in range(dim)]
        # (b, s, omega_s[a, b]) for the nonzero entries of row a, in (b, s) order
        weights = [[(b, s, fd.omega[s][a, b]) for b in range(dim) for s in range(3)
                    if fd.omega[s][a, b] != 0.0] for a in range(dim)]
        rows_buf, work_buf = np.empty(dim * BLOCK_POINTS), np.empty(dim * BLOCK_POINTS)
        trace, norm_sq = np.empty(BLOCK_POINTS), np.empty(BLOCK_POINTS)
        om = np.empty((3, BLOCK_POINTS))
        two_h = 2.0 * grid.h_x
        for blk in point_blocks(grid.size):
            k = blk.stop - blk.start
            # contiguous (dim, k) views, so np.take writes straight into them
            rows = rows_buf[:dim * k].reshape(dim, k)
            work = work_buf[:dim * k].reshape(dim, k)
            tr, om_b = trace[:k], om[:, :k]
            nsq = norm_sq[:k] if with_norm else None
            tr.fill(0.0)
            om_b.fill(0.0)
            if nsq is not None:
                nsq.fill(0.0)
            for a, (p_up, p_dn) in enumerate(perms):
                np.take(first, p_up[blk], axis=1, out=rows, mode="clip")
                np.take(first, p_dn[blk], axis=1, out=work, mode="clip")
                rows -= work
                rows /= two_h
                tr += rows[a]
                for b, s, w in weights[a]:
                    # the frame's entries are +-1, where adding or subtracting
                    # the row gives the bits of w * H_ab without a temporary
                    if w == 1.0:
                        om_b[s] += rows[b]
                    elif w == -1.0:
                        om_b[s] -= rows[b]
                    else:
                        om_b[s] += w * rows[b]
                if nsq is not None:
                    rows *= rows
                    for row in rows:
                        nsq += row
            yield blk, tr, om_b, nsq

    def _contract_hessian(self) -> HessianData:
        grid = self.grid
        norm_sq, trace, deficit = (np.empty(grid.size) for _ in range(3))
        om = np.empty((3, grid.size))
        sq = np.empty(BLOCK_POINTS)
        quarter = 1.0 / grid.dim_h
        for blk, tr, om_b, nsq in self._hessian_stream(with_norm=True):
            norm_sq[blk] = nsq
            trace[blk] = tr
            om[:, blk] = om_b
            # nsq - (1/4n) tr^2 - (1/4n) sum_s om_s^2, grouped as written
            d, sq_b = deficit[blk], sq[:tr.size]
            np.multiply(tr, quarter, out=d)
            d *= tr
            np.subtract(nsq, d, out=d)
            for s in range(3):
                np.multiply(om_b[s], quarter, out=sq_b)
                sq_b *= om_b[s]
                d -= sq_b
        shape = grid.shape
        return HessianData(norm_sq=norm_sq.reshape(shape), trace=trace.reshape(shape),
                           omega=om.reshape((3,) + shape), deficit=deficit.reshape(shape))


def _jet(f: ScalarField | DifferenceJet) -> DifferenceJet:
    return f if isinstance(f, DifferenceJet) else DifferenceJet(f)


def grad_h(f: ScalarField | DifferenceJet) -> HorizontalField:
    """Horizontal gradient, centered group differences per frame direction."""
    jet = _jet(f)
    return HorizontalField(jet.grid, jet.first)


def grad_h_norm_sq(f: ScalarField) -> np.ndarray:
    """|grad_h f|^2 = sum_a (D_a f)^2 pointwise, formed block by block from
    the step gathers alone: the bits of np.sum(grad_h(f).components ** 2,
    axis=0), without the jet's (4n,) + grid.shape first differences or its
    sub-Laplacian."""
    grid = f.grid
    out = np.empty(grid.size)
    two_h = 2.0 * grid.h_x
    for blk, a, up_b, um_b in _step_gathers(f.values.reshape(-1), grid):
        # the first axis squares straight into out
        d = out[blk] if a == 0 else up_b
        np.subtract(up_b, um_b, out=d)
        d /= two_h
        d *= d
        if a > 0:
            out[blk] += d
    return out.reshape(grid.shape)


def reeb_derivative(f: ScalarField, s: int) -> ScalarField:
    """xi_s f via the centered vertical difference and the frame scale."""
    return ScalarField(f.grid, XI_SCALE * vertical_difference(f.values, f.grid, s))


def sub_laplacian(f: ScalarField | DifferenceJet) -> ScalarField:
    """Positive sub-Laplacian from compact per-axis second differences."""
    jet = _jet(f)
    return ScalarField(jet.grid, jet.laplacian)


def hessian_component(f: ScalarField, a: int, b: int) -> np.ndarray:
    """Second covariant derivative entry (a, b) = X_a X_b f (flat frame)."""
    grid = f.grid
    return first_difference(first_difference(f.values, grid, b), grid, a)


def divergence(sigma: HorizontalField) -> ScalarField:
    """Horizontal divergence nabla* sigma = -sum_a X_a sigma_a.

    Integrates to zero exactly on the periodic quotient.
    """
    grid = sigma.grid
    acc = np.zeros(grid.shape)
    for a in range(grid.dim_h):
        acc += first_difference(sigma.components[a], grid, a)
    return ScalarField(grid, -acc)


def hessian_data(f: ScalarField | DifferenceJet) -> HessianData:
    return _jet(f).hessian()


def hessian_deficit(f: ScalarField) -> ScalarField:
    """Pointwise remainder of the Hessian-norm decomposition (non-negative)."""
    return ScalarField(f.grid, hessian_data(f).deficit)


def third_contractions(f: ScalarField):
    """The two third-derivative contractions entering the P-form.

    c1(X_a) = nabla^3 f(e_a, e_b, e_b) summed over b = -X_a(Delta f);
    c2(X_a) = sum_t nabla^3 f(I_t e_a, e_b, I_t e_b), assembled by
    recombining directional compositions through the constant I_t matrices.
    """
    grid = f.grid
    fd = frame_data(grid)
    dim = grid.dim_h
    jet = DifferenceJet(f)
    c1 = np.empty((dim,) + grid.shape)
    for a in range(dim):
        c1[a] = -first_difference(jet.laplacian, grid, a)

    c2 = np.zeros((dim,) + grid.shape)
    for t in range(3):
        It = fd.structure.I[t]
        # G_t = g(nabla^2 f, omega_t) built from the composed Hessian
        gt = np.zeros(grid.shape)
        for b in range(dim):
            for d in range(dim):
                w = It[d, b]
                if w != 0.0:
                    gt += w * first_difference(jet.first[d], grid, b)
        for a in range(dim):
            for c in range(dim):
                w = It[c, a]
                if w != 0.0:
                    c2[a] += w * first_difference(gt, grid, c)
    return HorizontalField(grid, c1), HorizontalField(grid, c2)


def _torsion_or_model(grid: LatticeGrid, torsion: TorsionData | None) -> TorsionData:
    if torsion is None:
        return TorsionData.zero(grid.n)
    if torsion.n != grid.n:
        raise ValueError("torsion data does not match the grid dimension")
    return torsion


def _torsion_coefficients(grid: LatticeGrid, torsion: TorsionData | None):
    """(td, s_coef, t_coef, u_coef) of the first-order part
    s_coef Df + t_coef T0 Df + u_coef U Df of P_f, or None when the torsion
    vanishes (the model)."""
    td = _torsion_or_model(grid, torsion)
    if not (td.S != 0.0 or np.any(td.T0) or np.any(td.U)):
        return None
    n = grid.n
    if n > 1:
        return td, -4.0 * n * td.S, 4.0 * n, -8.0 * n * (n - 2) / (n - 1)
    return td, -4.0 * td.S, 4.0, 0.0


def p_form(f: ScalarField, torsion: TorsionData | None = None) -> HorizontalField:
    """Third-order 1-form P_f; torsion terms use the supplied data (zero on
    the model) with the n = 1 coefficient branch."""
    grid = f.grid
    c1, c2 = third_contractions(f)
    comps = c1.components + c2.components
    coefs = _torsion_coefficients(grid, torsion)
    if coefs is not None:
        td, s_coef, t_coef, u_coef = coefs
        g = grad_h(f)
        t0g = np.einsum("ab,b...->a...", td.T0, g.components)
        comps = comps + s_coef * g.components + t_coef * t0g
        if u_coef != 0.0:
            comps = comps + u_coef * np.einsum("ab,b...->a...", td.U, g.components)
    return HorizontalField(grid, comps)


def p_functional(f: ScalarField | DifferenceJet, torsion: TorsionData | None = None) -> float:
    """Pairing integral of P_f against the gradient of f.

    Evaluated by summation by parts from the jet of f (module docstring):
    vol * sum(Delta f tr H + sum_t G_t^2), plus the first-order torsion
    terms s_coef |Df|^2 + t_coef <T0 Df, Df> + u_coef <U Df, Df>.  The
    integrand is formed block by block from tr H and omega_s(H) of the
    Hessian stream, so the full Hessian is not built, and summed over the
    whole field with one np.sum.  It agrees with the direct pairing of
    p_form against grad_h to roundoff.  The
    P-function of f counts as non-negative when this integral is
    non-positive.
    """
    jet = _jet(f)
    grid = jet.grid
    lap = jet.laplacian.reshape(-1)
    integrand = np.empty(grid.size)
    sq = np.empty(BLOCK_POINTS)
    for blk, tr, om, _ in jet._hessian_stream(with_norm=False):
        ib, sq_b = integrand[blk], sq[:tr.size]
        np.multiply(lap[blk], tr, out=ib)
        for t in range(3):
            np.multiply(om[t], om[t], out=sq_b)
            ib += sq_b
    integrand = integrand.reshape(grid.shape)
    coefs = _torsion_coefficients(grid, torsion)
    if coefs is not None:
        td, s_coef, t_coef, u_coef = coefs
        g = jet.first
        integrand += s_coef * np.sum(g * g, axis=0)
        integrand += t_coef * np.einsum("a...,ab,b...->...", g, td.T0, g)
        if u_coef != 0.0:
            integrand += u_coef * np.einsum("a...,ab,b...->...", g, td.U, g)
    return float(grid.cell_volume * np.sum(integrand))


def c_operator(f: ScalarField, torsion: TorsionData | None = None) -> ScalarField:
    """Fourth-order operator C f = -nabla* P_f."""
    div = divergence(p_form(f, torsion))
    return ScalarField(f.grid, -div.values)
