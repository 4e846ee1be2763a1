"""Independent reference routes the tests compare the package against: the
whole-field gather through a step table (every block kernel's reference)
and the difference stencils, Hessian and Reeb mixed term built from it,
the gradient as a 1-form, the third-order P-form assembled from composed
first differences (the lab pairs it with grad f by summation by parts,
operators.p_functional), the bump as its defining lattice sum at one
group point (lattice.periodized_bump), the production integrals of F and
the P-pairing from a whole jet (the routes that FlowQuantities.production
and operators.p_functional sweep), and a record of the calls of the C
functions, with the plane tables they read.

The lemma's chain of integral identities lives here too, since only the
tests evaluate it: the ten linear rows deriv2 ... derf and ricci_mixed,
eleven tags that chain_residual reports as identities.identity_residual
reports the package's five.  A row reads the package's production and
P_pair_half and eight catalog integrals of whole-field reference formulas,
made once per field and alpha."""
from __future__ import annotations

import ctypes
import hashlib
import itertools
import math

import numpy as np

from qcflow import identities, lattice, operators
from qcflow.identities import (NORM_FLOOR, FlowQuantities, IdentityReport, ProductionIntegrals,
                               check_alpha, derf_terms)
from qcflow.lattice import (SUPPORT_FACTOR, GroupPoint, HorizontalField, LatticeGrid,
                            ScalarField, default_center, default_tau_width, group_inverse,
                            group_multiply, twist_matrices)
from qcflow.operators import DifferenceJet, divergence, reeb_derivative


def shift(values: np.ndarray, grid: LatticeGrid, a: int, direction: int) -> np.ndarray:
    """Sample the field after one twisted horizontal step, one np.take
    through the grid's step table."""
    perm = grid.step_permutation(a, direction)
    return np.take(values.reshape(-1), perm).reshape(grid.shape)


# reference stencils: the per-operator loops the difference jet replaced

def ref_first_difference(values, grid, a):
    return (shift(values, grid, a, +1) - shift(values, grid, a, -1)) / (2.0 * grid.h_x)


def ref_sub_laplacian(values, grid):
    acc = np.zeros(grid.shape)
    for a in range(grid.dim_h):
        acc += (shift(values, grid, a, +1) - 2.0 * values
                + shift(values, grid, a, -1))
    return -acc / (grid.h_x * grid.h_x)


def ref_hessian(values, grid):
    """|H|^2, tr H, omega_s(H) and the p-deficit of the composed stencils."""
    B = twist_matrices(grid.n)
    dim = grid.dim_h
    first = [ref_first_difference(values, grid, b) for b in range(dim)]
    norm_sq = np.zeros(grid.shape)
    trace = np.zeros(grid.shape)
    om = np.zeros((3,) + grid.shape)
    for a in range(dim):
        for b in range(dim):
            hab = ref_first_difference(first[b], grid, a)
            norm_sq += hab * hab
            if a == b:
                trace += hab
            for s in range(3):
                w = B[s][b, a]
                if w != 0.0:
                    om[s] += w * hab
    quarter = 1.0 / dim
    deficit = norm_sq - quarter * trace * trace
    for s in range(3):
        deficit = deficit - quarter * om[s] * om[s]
    return norm_sq, trace, om, deficit


def ref_reeb_mixed(first, grid):
    """The Reeb mixed term sum_s sum_a xi_s(D_a f) (I_s Df)_a of the
    reference first differences, read entry by entry from per-s loops over
    I_s: no contraction of identities."""
    B = twist_matrices(grid.n)
    mixed = np.zeros(grid.shape)
    for s in range(3):
        for a in range(grid.dim_h):
            xi_da = reeb_derivative(ScalarField(grid, first[a]), s).values
            for b in range(grid.dim_h):
                entry = B[s][a, b]
                if entry != 0.0:
                    mixed += xi_da * (entry * first[b])
    return mixed


def grad_h(f: ScalarField | DifferenceJet) -> HorizontalField:
    """Horizontal gradient, centered group differences per frame direction:
    the point-major first differences of f's jet as a 1-form."""
    jet = f if isinstance(f, DifferenceJet) else DifferenceJet(f)
    return HorizontalField(jet.grid, jet.first)


def third_contractions(f: ScalarField):
    """The two third-derivative contractions entering the P-form.

    c1(X_a) = nabla^3 f(e_a, e_b, e_b) summed over b = -X_a(Delta f);
    c2(X_a) = sum_t nabla^3 f(I_t e_a, e_b, I_t e_b), assembled by
    recombining directional compositions through the constant I_t matrices.
    """
    grid = f.grid
    B = twist_matrices(grid.n)
    dim = grid.dim_h
    jet = DifferenceJet(f)
    c1 = -DifferenceJet(ScalarField(grid, jet.laplacian)).first
    # second[b][..., a] = D_a D_b f = H_ab
    second = [DifferenceJet(ScalarField(grid, jet.first[..., b])).first for b in range(dim)]

    c2 = np.zeros(grid.shape + (dim,))
    for t in range(3):
        It = B[t]
        # G_t = g(nabla^2 f, omega_t) built from the composed Hessian
        gt = np.zeros(grid.shape)
        for b in range(dim):
            for d in range(dim):
                w = It[d, b]
                if w != 0.0:
                    gt += w * second[d][..., b]
        dgt = DifferenceJet(ScalarField(grid, gt)).first
        for a in range(dim):
            for c in range(dim):
                w = It[c, a]
                if w != 0.0:
                    c2[..., a] += w * dgt[..., c]
    return HorizontalField(grid, c1), HorizontalField(grid, c2)


def p_form(f: ScalarField) -> HorizontalField:
    """Third-order 1-form P_f of the model, whose torsion vanishes."""
    c1, c2 = third_contractions(f)
    return HorizontalField(f.grid, c1.components + c2.components)


def c_operator(f: ScalarField) -> ScalarField:
    """Fourth-order operator C f = -nabla* P_f."""
    div = divergence(p_form(f))
    return ScalarField(f.grid, -div.values)


def bump_value(point: GroupPoint, grid: LatticeGrid, center: GroupPoint | None = None,
               width: float = 0.2, amplitude: float = 1.0, offset: float = 0.0,
               tau_width: float | None = None, shells: int = 2,
               profile: str = "smooth", tau_profile: str | None = None) -> float:
    """Pointwise evaluation of the defining lattice sum at any group point.

    Sums psi(center^{-1} * (gamma * point)) over lattice elements gamma with
    horizontal shifts up to `shells` and an exact vertical window; used to
    test lattice invariance of the construction.
    """
    if center is None:
        center = default_center(grid)
    if tau_width is None:
        tau_width = default_tau_width(width)
    if tau_profile is None:
        tau_profile = profile
    dh = grid.dim_h
    cinv = group_inverse(center)
    W = SUPPORT_FACTOR * width
    T = SUPPORT_FACTOR * tau_width
    total = 0.0
    for ell_tuple in itertools.product(range(-shells, shells + 1), repeat=dh):
        ell = np.array(ell_tuple, dtype=float) * grid.L_x
        gamma = GroupPoint(ell, np.zeros(3))
        rel0 = group_multiply(cinv, group_multiply(gamma, point))
        q = float(rel0.x @ rel0.x)
        if q >= W * W:
            continue
        if profile == "smooth":
            chi_x = math.exp(-q / (W * W - q))
        elif profile == "cosine":
            chi_x = math.cos(0.5 * math.pi * math.sqrt(q) / W) ** 2
        else:
            raise ValueError(f"unknown bump profile {profile!r}")
        tprod = 1.0
        for s in range(3):
            acc = 0.0
            base = rel0.t[s]
            kmin = int(math.floor((-base - T) / grid.L_t))
            kmax = int(math.ceil((T - base) / grid.L_t))
            for k in range(kmin, kmax + 1):
                tau = base + k * grid.L_t
                if abs(tau) < T:
                    if tau_profile == "smooth":
                        acc += math.exp(-tau * tau / (T * T - tau * tau))
                    else:
                        acc += math.cos(0.5 * math.pi * tau / T) ** 2
            tprod *= acc
        total += chi_x * tprod
    return offset + amplitude * total


def whole_production(u: ScalarField, alpha: float) -> ProductionIntegrals:
    """FlowQuantities.production from the whole jet of F = u^alpha, made by
    lattice.jet_pass, and lattice.hessian_pass over its handed first
    differences, whose contraction reads the block's rows of the jet's lap,
    makes the weights with np.power and the integrands with lattice's
    production block: the all-planes route, with every plane of F and its
    jet held at once."""
    grid = u.grid
    values = u.values.reshape(-1)
    first, lap = lattice.jet_pass(np.power(u.values, alpha), grid)
    lap = lap.reshape(-1)
    mins = []

    def contract(blk, tr, om, nsq, work, _lap, first_rows):
        (rows,) = work
        np.power(values[blk], 1.0 - 2 * alpha, out=rows[0])
        np.power(values[blk], 1.0 - 4 * alpha, out=rows[1])
        mins.append(lattice._production_block(tr, om, nsq, lap[blk], first_rows, rows))
        return tuple(np.add.reduce(row) for row in rows)

    sums = lattice.hessian_pass(first, grid, None, contract, with_norm=True, scratch=((3,),))
    return ProductionIntegrals(*(float(grid.cell_volume * total) for total in sums),
                               float(np.min(mins)))


def handed_p_functional(first: np.ndarray, lap: np.ndarray, grid: LatticeGrid) -> float:
    """operators.p_functional from a whole jet (first, lap) of the field:
    lattice.hessian_pass over the handed first differences, whose
    contraction reads the block's rows of lap, the all-planes route of the
    P-pairing."""
    lap = lap.reshape(-1)

    def contract(blk, tr, om, nsq, work, _lap, _first):
        return operators._p_integrand(lap[blk], tr, om, work)

    (total,) = lattice.hessian_pass(first, grid, None, contract, with_norm=False,
                                    scratch=((), ()))
    return float(grid.cell_volume * total)


def step_cases(workers) -> list:
    """The (n, m, workers) cases of the tests that hold a step kernel to
    the step tables: each small grid at each worker count in workers, with
    m_x = 7, whose rows of 7 points the tests' blocks cut, and m_x = 8, whose
    rows they leave whole, on one worker only (its tables are 16 MiB each)."""
    grids = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 2), (2, 3), (3, 2))
    return [(n, m, w) for n, m in grids for w in workers] + [(1, 8, 1)]


def kernel_calls(monkeypatch) -> list:
    """Record every call of a C function of _steps.c made through
    lattice._step_kernel, as (name, arguments), in call order; the plane
    tables that difference_jet and hessian_block read by address are
    replaced by copies taken at the call, since a sweep rewrites them
    between its rounds."""
    lib, calls = lattice._step_kernel(), []
    tables = {"difference_jet": (3, 5), "hessian_block": (1, 7)}  # (tables, index of m)

    class Recorder:
        def __getattr__(self, name):
            def call(*args):
                count, at_m = tables.get(name, (0, 0))
                read = [np.ctypeslib.as_array((ctypes.c_int64 * args[at_m]).from_address(addr)).copy()
                        for addr in args[:count]]
                calls.append((name, (*read, *args[count:])))
                return getattr(lib, name)(*args)
            return call

    monkeypatch.setattr(lattice, "_step_kernel", Recorder)
    return calls


# the lemma's chain -----------------------------------------------------------

_INTEGRALS: dict = {}


def reference_integrals(u: ScalarField, alpha: float) -> dict:
    """The catalog integrals of F = u^alpha and phi = -ln u that the chain's
    rows read beside production and P_pair_half, by name, each one np.sum
    over its whole-field integrand of the reference stencils.  Made once per
    field (its grid and the digest of its values) and alpha, since rows and
    tests read one field's integrals many times."""
    values, grid = u.values, u.grid
    key = (grid.n, grid.m_x, alpha, hashlib.sha256(values).digest())
    if key in _INTEGRALS:
        return _INTEGRALS[key]
    vol = grid.cell_volume

    def grad(v):
        return np.stack([ref_first_difference(v, grid, b) for b in range(grid.dim_h)])

    F = np.power(values, alpha)
    dF = grad(F)
    lap_F = ref_sub_laplacian(F, grid)
    grad_sq = np.sum(dF ** 2, axis=0)
    w2 = np.power(values, 1 - 2 * alpha)
    xi_sq = sum(reeb_derivative(ScalarField(grid, F), s).values ** 2 for s in range(3))
    norm_sq, _, omega, _ = ref_hessian(F, grid)
    phi = -np.log(values)
    lap_phi = ref_sub_laplacian(phi, grid)
    gp2 = np.sum(grad(phi) ** 2, axis=0)
    _INTEGRALS[key] = {
        "I_mixed": float(vol * np.sum(np.power(values, 1 - 3 * alpha) * lap_F * grad_sq)),
        "I_reeb_mixed": float(vol * np.sum(w2 * ref_reeb_mixed(dF, grid))),
        "I_xi2": float(vol * np.sum(w2 * xi_sq)),
        "I_hess2": float(vol * np.sum(w2 * norm_sq)),
        "I_omega2": float(vol * np.sum(w2 * sum(omega[s] ** 2 for s in range(3)))),
        "I_gradlap": float(vol * np.sum(w2 * np.sum(grad(lap_F) * dF, axis=0))),
        "I_lap_gradsq": float(vol * np.sum(w2 * ref_sub_laplacian(grad_sq, grid))),
        # d/dt of the energy in the phi = -ln u variables:
        # int u * (-2 (Delta phi)^2 - 3 Delta phi |grad phi|^2 - |grad phi|^4)
        "deriv1_integral": float(vol * np.sum(
            values * (-2.0 * lap_phi ** 2 - 3.0 * lap_phi * gp2 - gp2 ** 2))),
    }
    return _INTEGRALS[key]


class ChainRecord(FlowQuantities):
    """The record a row of linear_rows reads: the package's production and
    P_pair_half of FlowQuantities, each made on its first read, and the
    eight reference integrals as attributes."""

    def __init__(self, u: ScalarField, alpha: float):
        super().__init__(u, alpha)
        vars(self).update(reference_integrals(u, alpha))


def linear_rows(n, alpha) -> dict:
    """Each linear tag as a row q -> (lhs, rhs, scale_terms) over the
    integrals of a record q.  Coefficients are + - x / of n and alpha with
    integer literals: at Fraction (n, alpha), on a record of unit vectors, a
    row gives its exact coefficient vector."""
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
                - (q.I_hess2 - 16 * n * q.I_xi2 - p.I_lap2), (q.I_hess2,))
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
                - 2 * n * a / c_div * (1 / (4 * n) * q.I_omega2 + p.I_deficit), ())
    def reprtor(q):
        p = q.production
        return (1 / (4 * n) * (p.I_lap2 + half * half * p.I_quart) + a * a / n * q.P_pair_half,
                1 / (4 * n) * (2 * half * q.I_mixed + q.I_omega2), ())
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


def ricci_mixed_report(f: ScalarField) -> IdentityReport:
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
    return identities._report("ricci_mixed", lhs, 0.0, grid, norm_scale=max(scale, NORM_FLOOR))


CHAIN_NAMES = ("ricci_mixed", "deriv2", "deriv3", "firstt", "secondt", "deriv5", "intform1",
               "deriv6", "reprtor", "lastrep", "derf")


def chain_residual(name: str, u: ScalarField, alpha: float | None = None) -> IdentityReport:
    """Both sides of a chain tag on the model, reported as
    identities.identity_residual reports a tag of the package: a row's norm
    scale is the largest of |lhs|, |rhs| and its scale terms.  A row needs
    alpha outside {0, 1/2} and a strictly positive u."""
    if name == "ricci_mixed":
        return ricci_mixed_report(u)
    if alpha is None:
        raise ValueError(f"identity {name!r} needs alpha")
    lhs, rhs, extra = linear_rows(u.grid.n, alpha)[name](ChainRecord(u, alpha))
    scale = max(abs(lhs), abs(rhs), *(abs(t) for t in extra), NORM_FLOOR)
    return identities._report(name, lhs, rhs, u.grid, norm_scale=scale)
