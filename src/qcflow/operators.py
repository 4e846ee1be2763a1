"""Discrete horizontal calculus on the lattice quotient.

All derivatives act by group translation (left-invariant frame), so they
are pure index arithmetic; the connection coefficients of the model frame
vanish, hence covariant derivatives are plain compositions of directional
differences.  Summation by parts is exact: every first-difference operator
is skew-adjoint for the grid inner product, and the compact sub-Laplacian
is self-adjoint.

Every horizontal difference is a block kernel of lattice.map_blocks, the
one blocked pass of step gathers, which shares the point blocks among the
cores.  One field's derivatives come from its difference
jet (DifferenceJet): the 8n step gathers S_a^{+-} f are made once, and
give both the first differences D_a f and the compact sub-Laplacian.  The
composed second differences H_ab = D_a D_b f come from one Hessian stream,
DifferenceJet.hessian_stream: block by block, one stacked gather per step
gives the rows H_a. of every D_b f, and the stream accumulates tr H
and omega_s(H), and |H|^2 when asked.  No Hessian field is kept: each
consumer passes a contraction that reads a block's contractions and returns
its block sums of the consumer's integrands (the production integrals of
identities.FlowQuantities, the Bochner residual, the omega-contraction
check of the calculus suite, and p_functional).
grad_h, sub_laplacian and p_functional read a jet, so a caller that needs
several of them passes the jet instead of the field and pays for the
gathers once.  divergence is one kernel over the stacked components of its
1-form; any other difference of a derived field (the identity catalog's
commutators) reads that field's jet.

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
    frame_data,
    map_blocks,
    vertical_shift,
)


class DifferenceJet:
    """The horizontal differences of one field, each gather made once.

    first      D_a f as a (4n,) + grid.shape array
    laplacian  the compact positive sub-Laplacian, -sum_a (S_a^+ f - 2f +
               S_a^- f) / h_x^2, from the same 8n step gathers as `first`
    hessian_stream(contract, with_norm)
               the one pass over H_ab = D_a D_b f: per block it hands
               contract tr H, omega_s(H) and, with_norm, |H|^2, and it
               returns the totals of contract's block sums; no Hessian
               field is built or kept

    Both passes are block kernels of lattice.map_blocks, the one blocked
    gather pass, and give the bits of the whole-field stencils.  A composed
    difference D_a g of a derived field g reads the jet of g:
    DifferenceJet(g).first[a].
    """

    def __init__(self, f: ScalarField):
        grid = f.grid
        dim = grid.dim_h
        flat = f.values.reshape(-1)
        first = np.empty((dim, grid.size))
        lap = np.empty(grid.size)
        two_h = 2.0 * grid.h_x
        h_sq = grid.h_x * grid.h_x

        def kernel(blk, steps, scratch):
            acc, two_f = scratch
            np.multiply(flat[blk], 2.0, out=two_f)
            acc.fill(0.0)
            for a, up, um in steps:
                d_a = first[a, blk]
                np.subtract(up, um, out=d_a)
                d_a /= two_h
                # (S^+ f - 2f) + S^- f, the grouping of the compact stencil
                up -= two_f
                up += um
                acc += up
            lap_b = lap[blk]
            np.negative(acc, out=lap_b)
            lap_b /= h_sq

        map_blocks(kernel, flat, grid, scratch=((), ()))
        self.grid = grid
        self.first = first.reshape((dim,) + grid.shape)
        self.laplacian = lap.reshape(grid.shape)

    def hessian_stream(self, contract, with_norm: bool, scratch=()) -> tuple:
        """The one pass over the composed Hessian H_ab = D_a D_b f.

        A block kernel of lattice.map_blocks over the stacked first
        differences: per block, for each axis a, one gather per direction
        carries every D_b f through S_a^+- and gives the block rows
        H_a. = D_a D_. f.  The kernel accumulates, in (a, b) order from zero
        as a whole-field pass does, tr H (the wide stencil: the compact
        sub-Laplacian is its negative up to an O(h^2) stencil gap) and
        omega_s(H), and with_norm also |H|^2.  After the block's axis loop
        it calls contract(blk, tr, om, nsq, work), which writes the block's
        share of the caller's outputs and returns its block's sums, as a
        map_blocks kernel does; nsq is None without with_norm, and work holds
        one block array per entry of scratch.  The stream returns what
        map_blocks returns: the whole-field sum of each entry.  contract runs
        on the pool's threads: it may call no public qcflow function.
        """
        grid = self.grid
        fd = frame_data(grid)
        dim = grid.dim_h
        # (b, s, omega_s[a, b]) for the nonzero entries of row a, in (b, s) order
        weights = [[(b, s, fd.omega[s][a, b]) for b in range(dim) for s in range(3)
                    if fd.omega[s][a, b] != 0.0] for a in range(dim)]
        two_h = 2.0 * grid.h_x
        # tr, om, and with_norm nsq
        own = ((), (3,), ()) if with_norm else ((), (3,))

        def kernel(blk, steps, blocks):
            tr, om = blocks[0], blocks[1]
            nsq = blocks[2] if with_norm else None
            tr.fill(0.0)
            om.fill(0.0)
            if with_norm:
                nsq.fill(0.0)
            for a, rows, work in steps:
                rows -= work
                rows /= two_h
                tr += rows[a]
                for b, s, w in weights[a]:
                    # the frame's entries are +-1, where adding or subtracting
                    # the row gives the bits of w * H_ab without a temporary
                    if w == 1.0:
                        om[s] += rows[b]
                    elif w == -1.0:
                        om[s] -= rows[b]
                    else:
                        om[s] += w * rows[b]
                if with_norm:
                    rows *= rows
                    for row in rows:
                        nsq += row
            return contract(blk, tr, om, nsq, blocks[len(own):])

        first = self.first.reshape(dim, grid.size)
        return map_blocks(kernel, first, grid, scratch=own + tuple(scratch))


def _jet(f: ScalarField | DifferenceJet) -> DifferenceJet:
    return f if isinstance(f, DifferenceJet) else DifferenceJet(f)


def grad_h(f: ScalarField | DifferenceJet) -> HorizontalField:
    """Horizontal gradient, centered group differences per frame direction."""
    jet = _jet(f)
    return HorizontalField(jet.grid, jet.first)


def weighted_grad_sq_integral(f: ScalarField, weight: np.ndarray) -> float:
    """int |grad_h f|^2 weight, with |grad_h f|^2 = sum_a (D_a f)^2 summed
    in axis order from the step gathers alone: one block kernel forms the
    integrand and returns its sum per block to map_blocks, with the bits of
    integrating np.sum(grad_h(f).components ** 2, axis=0) * weight, and
    builds no whole field (no jet, no Laplacian)."""
    grid = f.grid
    w = weight.reshape(-1)
    two_h = 2.0 * grid.h_x

    def kernel(blk, steps, scratch):
        sq = scratch[0]
        # the first axis squares straight into sq
        _, up, um = next(steps)
        np.subtract(up, um, out=sq)
        sq /= two_h
        sq *= sq
        for _, up, um in steps:
            np.subtract(up, um, out=up)
            up /= two_h
            up *= up
            sq += up
        sq *= w[blk]
        return (np.add.reduce(sq),)

    (total,) = map_blocks(kernel, f.values.reshape(-1), grid, scratch=((),))
    return float(grid.cell_volume * total)


def reeb_derivative(f: ScalarField, s: int) -> ScalarField:
    """xi_s f via the centered vertical difference and the frame scale."""
    grid = f.grid
    diff = (vertical_shift(f.values, grid, s, +1)
            - vertical_shift(f.values, grid, s, -1)) / (2.0 * grid.h_t)
    return ScalarField(grid, XI_SCALE * diff)


def sub_laplacian(f: ScalarField | DifferenceJet) -> ScalarField:
    """Positive sub-Laplacian from compact per-axis second differences."""
    jet = _jet(f)
    return ScalarField(jet.grid, jet.laplacian)


def divergence(sigma: HorizontalField) -> ScalarField:
    """Horizontal divergence nabla* sigma = -sum_a X_a sigma_a.

    One block kernel over the stacked (4n, N) components: axis a reads the
    a-th row of the stepped stack.  Integrates to zero exactly on the
    periodic quotient.
    """
    grid = sigma.grid
    comps = sigma.components.reshape(grid.dim_h, grid.size)
    acc = np.zeros(grid.size)
    two_h = 2.0 * grid.h_x

    def kernel(blk, steps, scratch):
        # zeros + D_0 sigma_0 + D_1 sigma_1 + ..., the whole-field sum
        for a, up, um in steps:
            d_a = up[a]
            np.subtract(d_a, um[a], out=d_a)
            d_a /= two_h
            acc[blk] += d_a

    map_blocks(kernel, comps, grid)
    return ScalarField(grid, -acc.reshape(grid.shape))


def p_functional(f: ScalarField | DifferenceJet) -> float:
    """Pairing integral of P_f against the gradient of f.

    Evaluated by summation by parts from the jet of f (module docstring):
    vol * sum(Delta f tr H + sum_t G_t^2).  The integrand is formed and
    summed block by block from tr H and omega_s(H) of the Hessian stream,
    so neither the full Hessian nor a whole-field integrand is built; the
    stream's total has the bits of one np.sum over the whole integrand.  The
    P-function of f counts as non-negative when this integral is
    non-positive.
    """
    jet = _jet(f)
    grid = jet.grid
    lap = jet.laplacian.reshape(-1)

    def contract(blk, tr, om, nsq, work):
        ib, sq = work
        np.multiply(lap[blk], tr, out=ib)
        for t in range(3):
            np.multiply(om[t], om[t], out=sq)
            ib += sq
        return (np.add.reduce(ib),)

    (total,) = jet.hessian_stream(contract, with_norm=False, scratch=((), ()))
    return float(grid.cell_volume * total)
