"""Discrete horizontal calculus on the lattice quotient.

All derivatives act by group translation (left-invariant frame), so they
are pure index arithmetic; the connection coefficients of the model frame
vanish, hence covariant derivatives are plain compositions of directional
differences.  Summation by parts is exact: every first-difference operator
is skew-adjoint for the grid inner product, and the compact sub-Laplacian
is self-adjoint.

One field's derivatives come from its difference jet (DifferenceJet): the
8n whole-field step gathers S_a^{+-} f are made once, and give both the
first differences D_a f and the compact sub-Laplacian; a streaming pass over
the composed second differences H_ab = D_a D_b f accumulates the Hessian
contractions while holding one H_ab at a time.  grad_h, sub_laplacian,
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


class DifferenceJet:
    """The horizontal differences of one field, each gather made once.

    first      D_a f as a (4n,) + grid.shape array
    laplacian  the compact positive sub-Laplacian, -sum_a (S_a^+ f - 2f +
               S_a^- f) / h_x^2, from the same 8n step gathers as `first`
    hessian()  contractions of H_ab = D_a D_b f (two gathers per entry),
               computed on first use and kept

    Both passes run over cache-sized blocks of points (lattice.point_blocks)
    and give the bits of the whole-field stencils.
    """

    def __init__(self, f: ScalarField):
        grid = f.grid
        dim = grid.dim_h
        flat = f.values.reshape(-1)
        perms = [(grid.step_permutation(a, +1), grid.step_permutation(a, -1))
                 for a in range(dim)]
        first = np.empty((dim, grid.size))
        lap = np.empty(grid.size)
        up, um, acc, two_f = (np.empty(BLOCK_POINTS) for _ in range(4))
        two_h = 2.0 * grid.h_x
        h_sq = grid.h_x * grid.h_x
        for blk in point_blocks(grid.size):
            k = blk.stop - blk.start
            up_b, um_b, acc_b, two_f_b = up[:k], um[:k], acc[:k], two_f[:k]
            np.multiply(flat[blk], 2.0, out=two_f_b)
            acc_b.fill(0.0)
            for a, (p_up, p_dn) in enumerate(perms):
                np.take(flat, p_up[blk], out=up_b, mode="clip")
                np.take(flat, p_dn[blk], out=um_b, mode="clip")
                d_a = first[a, blk]
                np.subtract(up_b, um_b, out=d_a)
                d_a /= two_h
                # (S^+ f - 2f) + S^- f, the grouping of the compact stencil
                up_b -= two_f_b
                up_b += um_b
                acc_b += up_b
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

    def _contract_hessian(self) -> HessianData:
        grid = self.grid
        fd = frame_data(grid)
        dim = grid.dim_h
        first = self.first.reshape(dim, grid.size)
        norm_sq = np.zeros(grid.size)
        trace = np.zeros(grid.size)
        om = np.zeros((3, grid.size))
        hab = np.empty(BLOCK_POINTS)
        work = np.empty(BLOCK_POINTS)
        two_h = 2.0 * grid.h_x
        blocks = point_blocks(grid.size)
        for a in range(dim):
            for b in range(dim):
                p_up = grid.step_permutation(a, +1)
                p_dn = grid.step_permutation(a, -1)
                weights = [(s, fd.omega[s][a, b]) for s in range(3)
                           if fd.omega[s][a, b] != 0.0]
                for blk in blocks:
                    # one block of H_ab = D_a D_b f
                    k = blk.stop - blk.start
                    h, w_b = hab[:k], work[:k]
                    np.take(first[b], p_up[blk], out=h, mode="clip")
                    np.take(first[b], p_dn[blk], out=w_b, mode="clip")
                    h -= w_b
                    h /= two_h
                    if a == b:
                        trace[blk] += h
                    for s, w in weights:
                        # the frame's entries are +-1, where adding or
                        # subtracting h gives the bits of w * h without a
                        # temporary
                        if w == 1.0:
                            om[s, blk] += h
                        elif w == -1.0:
                            om[s, blk] -= h
                        else:
                            om[s, blk] += w * h
                    h *= h
                    norm_sq[blk] += h
        # norm_sq - (1/4n) tr^2 - (1/4n) sum_s om_s^2, grouped as written,
        # with one temporary
        quarter = 1.0 / dim
        deficit = quarter * trace
        deficit *= trace
        np.subtract(norm_sq, deficit, out=deficit)
        for s in range(3):
            sq = quarter * om[s]
            sq *= om[s]
            deficit -= sq
        shape = grid.shape
        return HessianData(norm_sq=norm_sq.reshape(shape), trace=trace.reshape(shape),
                           omega=om.reshape((3,) + shape), deficit=deficit.reshape(shape))


def _jet(f: ScalarField | DifferenceJet) -> DifferenceJet:
    return f if isinstance(f, DifferenceJet) else DifferenceJet(f)


def grad_h(f: ScalarField | DifferenceJet) -> HorizontalField:
    """Horizontal gradient, centered group differences per frame direction."""
    jet = _jet(f)
    return HorizontalField(jet.grid, jet.first)


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
    terms s_coef |Df|^2 + t_coef <T0 Df, Df> + u_coef <U Df, Df>.  It agrees
    with the direct pairing of p_form against grad_h to roundoff.  The
    P-function of f counts as non-negative when this integral is
    non-positive.
    """
    jet = _jet(f)
    grid = jet.grid
    hd = jet.hessian()
    integrand = jet.laplacian * hd.trace
    for t in range(3):
        integrand += hd.omega[t] * hd.omega[t]
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
