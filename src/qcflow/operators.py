"""Discrete horizontal calculus on the lattice quotient.

All derivatives act by group translation (left-invariant frame), so they
are pure index arithmetic; the connection coefficients of the model frame
vanish, hence covariant derivatives are plain compositions of directional
differences.  Summation by parts is exact: every first-difference operator
is skew-adjoint for the grid inner product, and the compact sub-Laplacian
is self-adjoint.

Every horizontal difference comes from a blocked pass of lattice, which
shares the point blocks among the cores and reads the steps in C.  One
field's derivatives come from its difference jet (DifferenceJet):
lattice.jet_pass reads the 8n steps S_a^{+-} f once per point and writes
both the first differences D_a f and the compact sub-Laplacian.  The
composed second differences H_ab = D_a D_b f come from the one Hessian
pass, lattice.hessian_pass, over point-major first differences, each
point's 4n differences D_b f one run: per block, one C call reads the
runs of a point's two neighbours along each axis a, forms the row
H_a. = D_a of every D_b f and accumulates tr H and omega_s(H), and |H|^2
when asked.  No Hessian field is kept: each consumer passes a contraction
that reads a block's contractions and returns its block sums of the
consumer's integrands.  Given a field (the P-pairing of p_functional, the
production integrals of u^alpha, the omega-contraction check of the
calculus suite), the pass makes the field's jet and its Hessian plane by
plane, so a record holds a window of x_0 planes and no whole jet.  Given
first differences, it reads them whole: the Bochner residual and the
catalog's gr4 hand the jet they hold anyway, and divergence the
point-major components of a 1-form, whose negated tr H it is.  The
energy's int |Df|^2 u is lattice.grad_sq_pass, one C call per block that
reads the steps of ln u alone and builds no jet.  Any other difference of a derived field (the
identity catalog's commutators) reads that field's jet.

Because D_a is exactly skew-adjoint, the P-pairing needs no third-order
stencil: summing by parts,

    int P_f(grad f) = int (Delta f tr H + sum_t G_t^2),
    G_t = sum_{b,d} I_t[d, b] H_bd = g(H, omega_t),

which p_functional evaluates from the jet.  The model's torsion vanishes,
so the P-form has no first-order terms.  The tests assemble the third-order
1-form itself from composed differences, as the independent route they
compare this pairing and the duality int f C f = -int P_f(grad f) with.

Sign convention: sub_laplacian returns the positive operator
Delta f = -sum_a f_aa, so the heat equation du/dt = -Delta u is smoothing.
"""
from __future__ import annotations

import numpy as np

from .lattice import (
    XI_SCALE,
    HorizontalField,
    ScalarField,
    hessian_pass,
    jet_pass,
    vertical_shift,
)


class DifferenceJet:
    """The horizontal differences of one field, each gather made once.

    first      D_a f as first[..., a], point-major: a grid.shape + (4n,)
               array that holds each point's 4n differences as one run
    laplacian  the compact positive sub-Laplacian,
               -sum_a ((S_a^+ f - 2f) + S_a^- f) / h_x^2, from the same 8n
               step reads as `first`

    Both come from lattice.jet_pass, one C call per worker that reads each
    point's 8n steps once and does the stencils' + - x / in their per-point
    order, so they have the bits of the whole-field stencils.  The Hessian
    H_ab = D_a D_b f is lattice.hessian_pass of f, or of `first` handed to
    it, which reads a neighbour's 4n differences as one run.  A composed
    difference D_a g of a derived field g reads the jet of g:
    DifferenceJet(g).first[..., a].
    """

    def __init__(self, f: ScalarField):
        self.grid = f.grid
        self.first, self.laplacian = jet_pass(f.values, f.grid)


def reeb_derivative(f: ScalarField, s: int) -> ScalarField:
    """xi_s f via the centered vertical difference and the frame scale."""
    grid = f.grid
    diff = (vertical_shift(f.values, grid, s, +1)
            - vertical_shift(f.values, grid, s, -1)) / (2.0 * grid.h_t)
    return ScalarField(grid, XI_SCALE * diff)


def sub_laplacian(f: ScalarField) -> ScalarField:
    """Positive sub-Laplacian from compact per-axis second differences."""
    return ScalarField(f.grid, DifferenceJet(f).laplacian)


def divergence(sigma: HorizontalField) -> ScalarField:
    """Horizontal divergence nabla* sigma = -sum_a X_a sigma_a, of integral
    exactly zero: the negated tr H = sum_a D_a sigma_a of the Hessian pass
    over sigma's components, handed as first differences, the bits of
    -(zeros + D_0 sigma_0 + D_1 sigma_1 + ...)."""
    grid = sigma.grid
    out = np.empty(grid.size)

    def contract(blk, tr, om, nsq, work, lap, first):
        np.negative(tr, out=out[blk])

    hessian_pass(sigma.components, grid, None, contract, with_norm=False)
    return ScalarField(grid, out.reshape(grid.shape))


def _p_integrand(lap: np.ndarray, tr: np.ndarray, om: np.ndarray, work) -> tuple:
    # one block's Delta f tr H + sum_t G_t^2 and its sum
    ib, sq = work
    np.multiply(lap, tr, out=ib)
    for t in range(3):
        np.multiply(om[t], om[t], out=sq)
        ib += sq
    return (np.add.reduce(ib),)


def p_functional(f: ScalarField, transform=None) -> float:
    """Pairing integral of P_g against the gradient of g: g = f, or
    transform(f.values), a ufunc of the field, when transform is given.

    Evaluated by summation by parts from the jet of g (module docstring):
    vol * sum(Delta g tr H + sum_t G_t^2).  The integrand is formed and
    summed block by block from tr H and omega_s(H) of the Hessian pass of
    g, so neither the full Hessian nor a whole-field integrand is built;
    the pass's total has the bits of one np.sum over the whole integrand,
    and it holds a window of the x_0 planes of g and its jet, never a
    whole one.  The P-function of g counts as non-negative when this
    integral is non-positive.
    """
    grid = f.grid
    (total,) = hessian_pass(
        f.values, grid, transform,
        lambda blk, tr, om, nsq, work, lap, first: _p_integrand(lap, tr, om, work),
        with_norm=False, scratch=((), ()))
    return float(grid.cell_volume * total)
