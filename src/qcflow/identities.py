"""Catalog of the differential and integral identities verified on the model.

Each tag names one identity; identity_residual evaluates both sides on the
supplied field with the model's torsion terms (identically zero) and
returns an IdentityReport.  Both sides are computed through independent
subexpressions so that a sign error in one route cannot silently cancel.

Six tags have code of their own: ricci2, ricci_mixed, bochner, gr4,
intform and hesrep_contraction.  The other ten are the linear links of the
lemma's chain, one row each of linear_rows over the integrals that
FlowQuantities keeps of F = u^alpha (and of f = u^(1/2), its P-pairing).
A row's coefficients are rational in (n, alpha), so at Fraction input the
chain's algebra is exact.  The derf row reads derf_terms, the five-term
production formula, which energy.derf_rhs evaluates at every record.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import h_polynomial
from .lattice import (LatticeGrid, ScalarField, _field_beside, _production_block, hessian_pass,
                      twist_matrices)
from .operators import (DifferenceJet, _p_integrand, p_functional, reeb_derivative,
                        sub_laplacian)

IDENTITY_NAMES = (
    "ricci2", "ricci_mixed", "bochner", "gr4", "intform", "deriv2", "deriv3",
    "firstt", "secondt", "deriv5", "intform1", "deriv6", "reprtor", "lastrep",
    "derf", "hesrep_contraction",
)

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
    """FlowQuantities.production, from one contraction of F's Hessian pass."""
    I_lap2: float
    I_quart: float
    I_hess2: float
    I_omega2: float
    I_deficit: float
    min_deficit: float
    mean_hess2: float


class FlowQuantities:
    """Shared derived fields for the F = u^alpha identity chain (lazy).

    F's Hessian is swept once, in production: lattice.hessian_pass, given
    u and the transform u^alpha, makes F and its jet plane by plane.  The
    P-pairing, the only quantity of f = u^(1/2), sweeps f the same way: so
    energy.derf_rhs, which reads those two alone, never holds F, f or a jet
    whole.  The catalog's other quantities of F read its whole jet, jetF,
    made once.
    Only what two quantities share is kept: jetF, the weight
    u^(1 - 2 alpha), |DF|^2 and the integrals.  A whole F is formed beside
    u (lattice._field_beside) and does not outlive its jet.
    """

    def __init__(self, u: ScalarField, alpha: float):
        check_alpha(alpha)
        require_positive(u)
        self.u = u
        self.alpha = alpha
        self.grid = u.grid

    # base fields -----------------------------------------------------------
    @property
    def F(self):
        # not kept: F's jet holds every difference of F but its Reeb ones
        u = self.u.values
        return ScalarField(self.grid, np.power(u, self.alpha,
                                               out=_field_beside(u, self.grid.shape)))

    @cached_property
    def jetF(self):
        return DifferenceJet(self.F)

    # the weight u^(1 - 2 alpha) = F^(1/alpha - 2)
    @cached_property
    def w2(self):
        return np.power(self.u.values, 1.0 - 2 * self.alpha)

    @cached_property
    def grad_sq(self):
        return _grad_sq(self.jetF.first)

    # integrals -------------------------------------------------------------
    @cached_property
    def production(self) -> ProductionIntegrals:
        """The integrals of F's Hessian, I_lap2, I_quart, I_hess2, I_omega2
        and I_deficit, the min of the p-deficit and the mean of |H|^2, from
        one contraction of F's Hessian pass (lattice.hessian_pass), which
        makes F = u^alpha and its jet plane by plane and holds neither
        whole.

        Per block it writes the weights u^(1-2 alpha) and u^(1-4 alpha)
        with np.power, and one call of lattice's production block forms,
        per point, the p-deficit from |H|^2, tr H and omega_s(H), |DF|^2 in
        axis order and the integrands w2 (Delta F)^2, w4 |DF|^4, w2 |H|^2,
        w2 sum_s omega_s^2 and w2 deficit, with the bits of the whole-field
        formulas, and returns the block's deficit minimum.  The contraction
        returns each integrand's np.add.reduce and that of |H|^2, so no
        weight, square or integrand field is built.  The pass's totals give
        each integral the bits of one np.sum over the whole integrand, a
        min is exact in any order, and np.mean is that sum over the size.
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
            # lap2, quart, hess2, omega2 and the weighted deficit
            return (*(np.add.reduce(row) for row in rows), np.add.reduce(nsq))

        *sums, norms = hessian_pass(u, grid, lambda src, out: np.power(src, alpha, out=out),
                                    contract, with_norm=True, scratch=((5,),))
        vol = grid.cell_volume
        return ProductionIntegrals(*(float(vol * total) for total in sums),
                                   float(np.min(mins)), float(norms / grid.size))

    @cached_property
    def I_mixed(self):
        w3 = np.power(self.u.values, 1.0 - 3 * self.alpha)
        return _integral(self.grid, w3 * self.jetF.laplacian * self.grad_sq)

    @cached_property
    def I_reeb_mixed(self):
        return _integral(self.grid, self.w2 * _reeb_mixed(self.grid, self.jetF.first))

    @cached_property
    def I_xi2(self):
        return _integral(self.grid, self.w2 * _xi_sq(self.F))

    @cached_property
    def P_pair_half(self):
        # f = u^(1/2), made plane by plane in the window of its sweep
        return p_functional(self.u, np.sqrt)

    @cached_property
    def I_gradlap(self):
        return _integral(self.grid, self.w2 * _grad_lap_dot(self.jetF))

    @cached_property
    def I_lap_gradsq(self):
        lap = sub_laplacian(ScalarField(self.grid, self.grad_sq)).values
        return _integral(self.grid, self.w2 * lap)

    @cached_property
    def deriv1_integral(self):
        # d/dt of the energy expressed in the phi = -ln u variables:
        # int u * (-2 (Delta phi)^2 - 3 Delta phi |grad phi|^2 - |grad phi|^4)
        phi_jet = DifferenceJet(ScalarField(self.grid, -np.log(self.u.values)))
        lap_phi = phi_jet.laplacian
        gp2 = _grad_sq(phi_jet.first)
        integrand = self.u.values * (-2.0 * lap_phi ** 2
                                     - 3.0 * lap_phi * gp2 - gp2 ** 2)
        return _integral(self.grid, integrand)


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


def _ricci_mixed_report(f: ScalarField) -> IdentityReport:
    # mixed second derivatives commute exactly on the model: the torsion
    # endomorphism vanishes, and vertical shifts commute with group steps
    grid = f.grid
    # the rows D_a f, each rolled whole, as one contiguous copy: a roll of
    # the strided first[..., a] reads four times the bytes
    rows = np.moveaxis(DifferenceJet(f).first, -1, 0).copy()
    res_sq = 0.0
    scale_sq = 0.0
    for s in range(3):
        d_xi_f = DifferenceJet(reeb_derivative(f, s)).first
        for a in range(grid.dim_h):
            mixed1 = d_xi_f[..., a]
            mixed2 = reeb_derivative(ScalarField(grid, rows[a]), s).values
            res_sq += np.sum((mixed1 - mixed2) ** 2)
            scale_sq += np.sum(mixed1 ** 2)
    lhs = float(np.sqrt(grid.cell_volume * res_sq))
    scale = float(np.sqrt(grid.cell_volume * scale_sq))
    return _report("ricci_mixed", lhs, 0.0, grid, norm_scale=max(scale, NORM_FLOOR))


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
    # contracted whole (as in _ricci_mixed_report)
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


def linear_rows(n, alpha) -> dict:
    """Each linear tag as a row q -> (lhs, rhs, scale_terms) over the
    integrals of a FlowQuantities q.  Coefficients are + - x / of n and
    alpha with integer literals: at Fraction (n, alpha), on a record of
    unit vectors, a row gives its exact coefficient vector."""
    check_alpha(alpha)
    a = alpha
    half = 1 / (2 * a) - 1
    c_div = (3 * n + 2) * (1 - 2 * a)

    def deriv2(q):
        p = q.production
        return (a * a * q.deriv1_integral,
                -2 * p.I_lap2 + (3 - 4 * a) / a * q.I_mixed
                + (-1 + 3 * a - 2 * a * a) / (a * a) * p.I_quart, (2 * p.I_lap2,))
    def deriv3(q):
        return q.I_gradlap + (1 / a - 2) * q.I_mixed, q.production.I_lap2, ()
    def firstt(q):
        return ((1 / a - 2) * q.I_mixed,
                (1 / a - 2) * (1 / a - 3) * q.production.I_quart + q.I_lap_gradsq,
                (q.I_lap_gradsq,))
    def secondt(q):
        return q.I_reeb_mixed, -4 * n * q.I_xi2, ()
    def deriv5(q):
        p = q.production
        return (3 * (1 / a - 2) / 2 * q.I_mixed,
                (1 / a - 2) / 2 * (1 / a - 3) * p.I_quart
                - (p.I_hess2 - 16 * n * q.I_xi2 - p.I_lap2), (p.I_hess2,))
    def intform1(q):
        p = q.production
        return (-4 * n * q.I_xi2,
                -(a * a / n) * q.P_pair_half - 1 / (4 * n) * p.I_lap2
                + 1 / (2 * n) * half * q.I_mixed - 1 / (4 * n) * half * half * p.I_quart,
                (1 / (4 * n) * p.I_lap2,))
    def deriv6(q):
        p = q.production
        return (q.I_mixed,
                8 * a ** 3 / c_div * q.P_pair_half
                + (2 * n + 1 - 2 * (3 * n + 1) * a) / (2 * (3 * n + 2) * a) * p.I_quart
                + (3 + 4 * n) * a / (2 * c_div) * p.I_lap2
                - 2 * n * a / c_div * (1 / (4 * n) * p.I_omega2 + p.I_deficit), ())
    def reprtor(q):
        p = q.production
        return (1 / (4 * n) * (p.I_lap2 + half * half * p.I_quart) + a * a / n * q.P_pair_half,
                1 / (4 * n) * (2 * half * q.I_mixed + p.I_omega2), ())
    def lastrep(q):
        p = q.production
        return (3 * (2 * n + 1) / 2 * q.I_mixed,
                (8 * n + 3 - 6 * (4 * n + 1) * a) / (8 * a) * p.I_quart
                + (2 * n + 1) * a / (1 - 2 * a) * p.I_lap2
                + 6 * a ** 3 / (1 - 2 * a) * q.P_pair_half
                - 2 * n * a / (1 - 2 * a) * p.I_deficit, ())
    def derf(q):
        # the five-term formula times alpha^2
        terms = derf_terms(q, n, a)
        return a * a * q.deriv1_integral, sum(terms), terms

    return {row.__name__: row for row in (deriv2, deriv3, firstt, secondt, deriv5,
                                          intform1, deriv6, reprtor, lastrep, derf)}


def identity_residual(name: str, u: ScalarField, alpha: float | None = None) -> IdentityReport:
    """Evaluate both sides of the named identity on the model.

    Fields playing the role of a solution must be strictly positive; tags
    from the derivative chain additionally need alpha outside {0, 1/2}.
    """
    if name not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity tag {name!r}")
    grid = u.grid
    n = grid.n

    if name == "ricci2":
        return _ricci2_report(u)
    if name == "ricci_mixed":
        return _ricci_mixed_report(u)
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
    q = FlowQuantities(u, alpha)
    if name == "hesrep_contraction":
        min_p = q.production.min_deficit
        return IdentityReport(name=name, lhs=min_p, rhs=0.0, residual=max(0.0, -min_p),
                              norm_scale=q.production.mean_hess2 + NORM_FLOOR,
                              n=n, m_x=grid.m_x)

    lhs, rhs, extra = linear_rows(n, alpha)[name](q)
    scale = max(abs(lhs), abs(rhs), *(abs(t) for t in extra), NORM_FLOOR)
    return _report(name, lhs, rhs, grid, norm_scale=scale)
