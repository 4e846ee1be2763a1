"""Catalog of the differential and integral identities verified on the model.

Each tag names one identity; identity_residual evaluates both sides on the
supplied field with the model's torsion terms (identically zero) and
returns an IdentityReport.  Both sides are computed through independent
subexpressions so that a sign error in one route cannot silently cancel.

The tags are the five that the calculus suite evaluates: ricci2, bochner,
gr4, intform and hesrep_contraction.  FlowQuantities keeps the two
quantities of F = u^alpha and f = u^(1/2) that energy.derf_rhs reads at
every record, the production integrals of F's Hessian and the P-pairing
of f, and derf_terms is the five-term production formula over them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import h_polynomial
from .lattice import LatticeGrid, ScalarField, _production_block, hessian_pass, twist_matrices
from .operators import (DifferenceJet, _p_integrand, p_functional, reeb_derivative,
                        sub_laplacian)

IDENTITY_NAMES = ("ricci2", "bochner", "gr4", "intform", "hesrep_contraction")

NORM_FLOOR = 1e-30


@dataclass
class IdentityReport:
    name: str
    lhs: float
    rhs: float
    residual: float
    norm_scale: float
    n: int
    m_x: int

    @property
    def relative_residual(self) -> float:
        return self.residual / self.norm_scale


def _report(name, lhs, rhs, grid, norm_scale=None, residual=None) -> IdentityReport:
    if norm_scale is None:
        norm_scale = max(abs(lhs), abs(rhs), NORM_FLOOR)
    if residual is None:
        residual = abs(float(lhs) - float(rhs))
    return IdentityReport(name=name, lhs=float(lhs), rhs=float(rhs), residual=residual,
                          norm_scale=max(float(norm_scale), NORM_FLOOR),
                          n=grid.n, m_x=grid.m_x)


def require_positive(u: ScalarField):
    if not float(u.values.min()) > 0.0:
        raise ValueError("field u must be strictly positive")


def check_alpha(alpha: float):
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, not {alpha}")
    if alpha in (0.0, 0.5):
        raise ValueError("alpha must avoid 0 and 1/2")


def _integral(grid: LatticeGrid, values) -> float:
    return float(grid.cell_volume * np.sum(values))


def _grad_sq(first: np.ndarray) -> np.ndarray:
    # |Dg|^2 = sum_a (D_a g)^2 of a jet's point-major first differences,
    # in axis order from the first square
    acc = first[..., 0] * first[..., 0]
    sq = np.empty_like(acc)
    for a in range(1, first.shape[-1]):
        np.multiply(first[..., a], first[..., a], out=sq)
        acc += sq
    return acc


def _grad_lap_dot(jet: DifferenceJet) -> np.ndarray:
    # <D Delta g, Dg> of the jet of g, in axis order from the first product
    grad_lap = DifferenceJet(ScalarField(jet.grid, jet.laplacian)).first
    acc = grad_lap[..., 0] * jet.first[..., 0]
    for a in range(1, jet.grid.dim_h):
        acc += grad_lap[..., a] * jet.first[..., a]
    return acc


def _xi_sq(f: ScalarField) -> np.ndarray:
    # sum_s (xi_s f)^2 in s order
    return sum(reeb_derivative(f, s).values ** 2 for s in range(3))


class ProductionIntegrals(NamedTuple):
    """FlowQuantities.production, from one contraction of F's Hessian pass:
    the three integrals of the production formula and the deficit's min."""
    I_lap2: float
    I_quart: float
    I_deficit: float
    min_deficit: float


def _power(alpha: float):
    # the transform F = u^alpha of a Hessian pass, written with out=
    return lambda src, out: np.power(src, alpha, out=out)


class FlowQuantities:
    """The production integrals of F = u^alpha and the P-pairing of
    f = u^(1/2) (lazy, each made once).

    F's Hessian is swept once, in production: lattice.hessian_pass, given
    u and the transform u^alpha, makes F and its jet plane by plane.  The
    P-pairing sweeps f the same way: so energy.derf_rhs, which reads these
    two, never holds F, f or a jet whole.
    """

    def __init__(self, u: ScalarField, alpha: float):
        check_alpha(alpha)
        require_positive(u)
        self.u = u
        self.alpha = alpha
        self.grid = u.grid

    @cached_property
    def production(self) -> ProductionIntegrals:
        """The integrals of F's Hessian that the production formula reads,
        I_lap2, I_quart and I_deficit, and the min of the p-deficit, from
        one contraction of F's Hessian pass (lattice.hessian_pass), which
        makes F = u^alpha and its jet plane by plane and holds neither
        whole.

        Per block it writes the weights u^(1-2 alpha) and u^(1-4 alpha)
        with np.power, and one call of lattice's production block forms,
        per point, the p-deficit from |H|^2, tr H and omega_s(H), |DF|^2 in
        axis order and the integrands w2 (Delta F)^2, w4 |DF|^4 and
        w2 deficit, with the bits of the whole-field formulas, and returns
        the block's deficit minimum.  The contraction returns each
        integrand's np.add.reduce, so no weight, square or integrand field
        is built.  The pass's totals give each integral the bits of one
        np.sum over the whole integrand, and a min is exact in any order.
        """
        grid = self.grid
        u = self.u.values.reshape(-1)
        alpha, e2, e4 = self.alpha, 1.0 - 2 * self.alpha, 1.0 - 4 * self.alpha
        mins = []

        def contract(blk, tr, om, nsq, work, lap, first):
            (rows,) = work
            np.power(u[blk], e2, out=rows[0])
            np.power(u[blk], e4, out=rows[1])
            mins.append(_production_block(tr, om, nsq, lap, first, rows))
            # lap2, quart and the weighted deficit
            return tuple(np.add.reduce(row) for row in rows)

        sums = hessian_pass(u, grid, _power(alpha), contract, with_norm=True, scratch=((3,),))
        vol = grid.cell_volume
        return ProductionIntegrals(*(float(vol * total) for total in sums), float(np.min(mins)))

    @cached_property
    def P_pair_half(self):
        # f = u^(1/2), made plane by plane in the window of its sweep
        return p_functional(self.u, np.sqrt)


def _ricci2_report(f: ScalarField) -> IdentityReport:
    grid = f.grid
    B = twist_matrices(grid.n)
    xi = [reeb_derivative(f, s).values for s in range(3)]
    # second[b][..., a] = D_a D_b f = H_ab; f's jet goes once they are built
    second = [DifferenceJet(ScalarField(grid, d_b)).first
              for d_b in np.moveaxis(DifferenceJet(f).first, -1, 0)]
    anti_sq = np.zeros(grid.shape)
    twist_sq = np.zeros(grid.shape)
    res_sq = np.zeros(grid.shape)
    for a in range(grid.dim_h):
        for b in range(a + 1, grid.dim_h):
            comm = second[b][..., a] - second[a][..., b]
            # omega_s[a, b] = B_s[b, a]
            twist = sum(2.0 * B[s][b, a] * xi[s] for s in range(3))
            anti_sq += comm * comm
            twist_sq += twist * twist
            res_sq += (comm + twist) ** 2
    lhs, rhs, res = (float(np.sqrt(_integral(grid, v))) for v in (anti_sq, twist_sq, res_sq))
    return _report("ricci2", lhs, rhs, grid, residual=res)


def bochner_residual(f: ScalarField) -> IdentityReport:
    """Pointwise residual of the horizontal Bochner formula, model torsion.

    With the positive sub-Laplacian Delta = -sum nabla^2(e_a, e_a) used
    throughout, the sign-consistent form of the formula is

        (1/2) Delta |grad f|^2
            = -|nabla^2 f|^2 + g(grad(Delta f), grad f)
              - 4 sum_s nabla^2 f(xi_s, I_s grad f),

    which reduces to the classical Euclidean identity for vertically
    constant fields; statements written with the analyst's sign of the
    Laplacian carry the opposite left-hand side, and the Euclidean
    reduction pins the orientation used here.  The right side and the L2
    norms are formed and summed block by block in the Hessian pass over
    the first differences of f's jet, which the left side reads too.
    """
    grid = f.grid
    jet = DifferenceJet(f)
    lhs_field = (0.5 * sub_laplacian(ScalarField(grid, _grad_sq(jet.first))).values).reshape(-1)
    dot = _grad_lap_dot(jet).reshape(-1)
    mixed = _reeb_mixed(grid, jet.first).reshape(-1)

    def contract(blk, tr, om, nsq, work, lap, first):
        # the right side -|H|^2 + dot - 4 mixed, grouped as written, and the
        # block sums of the squares of both sides and of their difference
        rhs, sq = work
        np.negative(nsq, out=rhs)
        rhs += dot[blk]
        np.multiply(mixed[blk], 4.0, out=sq)
        rhs -= sq
        lhs_b = lhs_field[blk]
        np.multiply(lhs_b, lhs_b, out=sq)
        lhs_sq = np.add.reduce(sq)
        np.subtract(lhs_b, rhs, out=sq)
        sq *= sq
        res_sq = np.add.reduce(sq)
        rhs *= rhs
        return lhs_sq, np.add.reduce(rhs), res_sq

    sums = hessian_pass(jet.first, grid, None, contract, with_norm=True, scratch=((), ()))
    lhs, rhs, res = (float(np.sqrt(grid.cell_volume * total)) for total in sums)
    return _report("bochner", lhs, rhs, grid, residual=res)


def _reeb_mixed(grid: LatticeGrid, grad: np.ndarray) -> np.ndarray:
    """Pointwise Reeb mixed term sum_s sum_a xi_s(D_a f) (I_s Df)_a of the
    point-major gradient components grad[..., a] = D_a f, with I_s = B_s."""
    B = twist_matrices(grid.n)
    # the rows D_a f as one contiguous copy, since each is rolled and
    # contracted whole: a roll of the strided grad[..., a] reads four times
    # the bytes
    rows = np.moveaxis(grad, -1, 0).copy()
    mixed = np.zeros(grid.shape)
    for s in range(3):
        is_grad = np.einsum("ab,b...->a...", B[s], rows)
        for a in range(grid.dim_h):
            mixed += reeb_derivative(ScalarField(grid, rows[a]), s).values * is_grad[a]
    return mixed


def derf_coefficients(n: int, alpha: float):
    """The five rational coefficients of the energy-production formula.

    Order: (Delta F)^2 term, |grad F|^4 term, P-pairing term, L term,
    p(F) term.  Integer literals keep them exact at Fraction input.
    """
    check_alpha(alpha)
    a = alpha
    one_m2a = 1 - 2 * a
    three_m4a = 3 - 4 * a
    c_lap = 4 * a / (3 * one_m2a)
    c_quart = h_polynomial(n, a) / (12 * (2 * n + 1) * a * a)
    c_pfun = 4 * three_m4a * a * a / ((2 * n + 1) * one_m2a)
    c_lich = -2 * n * three_m4a / (3 * (n + 2) * one_m2a)
    c_pdef = -4 * n * three_m4a / (3 * (2 * n + 1) * one_m2a)
    return c_lap, c_quart, c_pfun, c_lich, c_pdef


def derf_terms(q, n, alpha) -> tuple:
    """The five terms of alpha^2 dE/dt over the integrals of q, in the
    order of derf_coefficients.  The Lichnerowicz term pairs grad F with
    the model's torsion, which vanishes: c_lich * 0 is the signed zero that
    energy.csv has always written, and exact at Fraction input."""
    c_lap, c_quart, c_pfun, c_lich, c_pdef = derf_coefficients(n, alpha)
    p = q.production
    return (c_lap * p.I_lap2, c_quart * p.I_quart, c_pfun * q.P_pair_half, c_lich * 0,
            c_pdef * p.I_deficit)


def identity_residual(name: str, u: ScalarField, alpha: float | None = None) -> IdentityReport:
    """Evaluate both sides of the named identity on the model.

    Fields playing the role of a solution must be strictly positive, and
    hesrep_contraction, the one tag of F = u^alpha, needs alpha outside
    {0, 1/2}.
    """
    if name not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity tag {name!r}")
    grid = u.grid
    n = grid.n

    if name == "ricci2":
        return _ricci2_report(u)
    if name == "bochner":
        return bochner_residual(u)

    if name in ("gr4", "intform"):
        require_positive(u)
        f = ScalarField(grid, np.sqrt(u.values))
        jet = DifferenceJet(f)
        lhs = _integral(grid, _reeb_mixed(grid, jet.first))
        if name == "intform":
            return _report(name, lhs, -4.0 * n * _integral(grid, _xi_sq(f)), grid)
        i_lap = _integral(grid, jet.laplacian ** 2)
        # the P-pairing of f from the jet held (operators.p_functional would
        # make it again): the Hessian pass over its first differences
        lap = jet.laplacian.reshape(-1)
        (pairing,) = hessian_pass(
            jet.first, grid, None,
            lambda blk, tr, om, nsq, work, _lap, first: _p_integrand(lap[blk], tr, om, work),
            with_norm=False, scratch=((), ()))
        rhs = -(1.0 / (4 * n)) * (float(grid.cell_volume * pairing) + i_lap)
        scale = max(abs(lhs), abs(rhs), (1.0 / (4 * n)) * i_lap, NORM_FLOOR)
        return _report(name, lhs, rhs, grid, norm_scale=scale)

    if alpha is None:
        raise ValueError(f"identity {name!r} needs alpha")
    return _hesrep_report(u, alpha)


def _hesrep_report(u: ScalarField, alpha: float) -> IdentityReport:
    """hesrep_contraction: the min of the p-deficit of F = u^alpha against
    the mean of |H|^2, from a Hessian pass of its own.  Its contraction
    hands the production block unit weights, since the deficit minimum
    reads none, and sums |H|^2 per block, so the pass's total gives
    np.mean's bits; a min is exact in any order."""
    check_alpha(alpha)
    require_positive(u)
    grid = u.grid
    mins = []

    def contract(blk, tr, om, nsq, work, lap, first):
        (rows,) = work
        rows[:2] = 1.0
        mins.append(_production_block(tr, om, nsq, lap, first, rows))
        return (np.add.reduce(nsq),)

    (norms,) = hessian_pass(u.values, grid, _power(alpha), contract, with_norm=True,
                            scratch=((3,),))
    min_p = float(np.min(mins))
    return IdentityReport(name="hesrep_contraction", lhs=min_p, rhs=0.0, residual=max(0.0, -min_p),
                          norm_scale=float(norms / grid.size) + NORM_FLOOR, n=grid.n,
                          m_x=grid.m_x)
