"""Independent reference routes the tests compare the package against: the
whole-field gather through a step table (every block kernel's reference),
the gradient as a 1-form, the third-order P-form assembled from composed
first differences (the lab pairs it with grad f by summation by parts,
operators.p_functional), the bump as its defining lattice sum at one
group point (lattice.periodized_bump), the production integrals of F and
the P-pairing from a whole jet (the routes that FlowQuantities.production
and operators.p_functional sweep), and a
record of the calls of the C functions, with the plane tables they read."""
from __future__ import annotations

import ctypes
import itertools
import math

import numpy as np

from qcflow import lattice, operators
from qcflow.identities import ProductionIntegrals
from qcflow.lattice import (SUPPORT_FACTOR, GroupPoint, HorizontalField, LatticeGrid,
                            ScalarField, default_center, default_tau_width, group_inverse,
                            group_multiply, twist_matrices)
from qcflow.operators import DifferenceJet, divergence


def shift(values: np.ndarray, grid: LatticeGrid, a: int, direction: int) -> np.ndarray:
    """Sample the field after one twisted horizontal step, one np.take
    through the grid's step table."""
    perm = grid.step_permutation(a, direction)
    return np.take(values.reshape(-1), perm).reshape(grid.shape)


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
        return (*(np.add.reduce(row) for row in rows), np.add.reduce(nsq))

    *sums, norms = lattice.hessian_pass(first, grid, None, contract, with_norm=True,
                                        scratch=((5,),))
    return ProductionIntegrals(*(float(grid.cell_volume * total) for total in sums),
                               float(np.min(mins)), float(norms / grid.size))


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
