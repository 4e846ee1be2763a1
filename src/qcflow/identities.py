"""Catalog of the differential and integral identities verified on the model.

Each tag names one identity; identity_residual evaluates both sides on the
supplied field with the model's torsion terms (identically zero) and
returns an IdentityReport.  Both sides are computed through independent
subexpressions so that a sign error in one route cannot silently cancel.

Tags operating on the heat-flow variables take a positive field u and the
exponent alpha, and internally use F = u^alpha and f = u^(1/2).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeGrid, ScalarField, frame_data
from .operators import (
    DifferenceJet,
    first_difference,
    grad_h,
    hessian_data,
    p_functional,
    reeb_derivative,
    sub_laplacian,
)

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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "norm_scale": self.norm_scale,
            "relative_residual": self.relative_residual,
            "n": self.n,
            "m_x": self.m_x,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _report(name, lhs, rhs, grid, norm_scale=None) -> IdentityReport:
    if norm_scale is None:
        norm_scale = max(abs(lhs), abs(rhs), NORM_FLOOR)
    return IdentityReport(name=name, lhs=float(lhs), rhs=float(rhs),
                          residual=abs(float(lhs) - float(rhs)),
                          norm_scale=max(float(norm_scale), NORM_FLOOR),
                          n=grid.n, m_x=grid.m_x)


def _l2(grid, values) -> float:
    return float(np.sqrt(grid.cell_volume * np.sum(values * values)))


def require_positive(u: ScalarField, role: str = "u"):
    if float(u.values.min()) <= 0.0:
        raise ValueError(f"field {role} must be strictly positive")


def check_alpha(alpha: float):
    if alpha in (0.0, 0.5):
        raise ValueError("alpha must avoid 0 and 1/2")


class FlowQuantities:
    """Shared derived fields for the F = u^alpha identity chain (lazy).

    F has one difference jet that every quantity of F reads, so its gathers
    are made once.  The P-pairing is the only quantity of f = u^(1/2);
    p_functional builds f's jet and drops it with its Hessian contractions.
    """

    def __init__(self, u: ScalarField, alpha: float):
        check_alpha(alpha)
        require_positive(u)
        self.u = u
        self.alpha = alpha
        self.grid = u.grid
        self._cache: dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # base fields -----------------------------------------------------------
    @property
    def F(self):
        return self._get("F", lambda: ScalarField(self.grid, np.power(self.u.values, self.alpha)))

    @property
    def f_half(self):
        return self._get("f_half", lambda: ScalarField(self.grid, np.sqrt(self.u.values)))

    @property
    def jetF(self):
        return self._get("jetF", lambda: DifferenceJet(self.F))

    def weight(self, k: int):
        # u^(1 - k*alpha) = F^(1/alpha - k)
        return self._get(("w", k), lambda: np.power(self.u.values, 1.0 - k * self.alpha))

    @property
    def gradF(self):
        return self._get("gradF", lambda: grad_h(self.jetF))

    @property
    def grad_sq(self):
        def build():
            # sum_a (D_a F)^2 in axis order, the bits of
            # np.sum(components ** 2, axis=0) without its (4n,) + grid.shape
            # temporary
            comps = self.gradF.components
            acc = comps[0] * comps[0]
            sq = np.empty_like(acc)
            for c in comps[1:]:
                np.multiply(c, c, out=sq)
                acc += sq
            return acc
        return self._get("grad_sq", build)

    @property
    def lapF(self):
        return self._get("lapF", lambda: sub_laplacian(self.jetF))

    @property
    def hess(self):
        return self._get("hess", lambda: hessian_data(self.jetF))

    @property
    def xiF(self):
        return self._get("xiF", lambda: [reeb_derivative(self.F, s).values for s in range(3)])

    # integrals -------------------------------------------------------------
    @property
    def I_lap2(self):
        return self._get("I_lap2", lambda: self._integral(self.weight(2) * self.lapF.values ** 2))

    @property
    def I_mixed(self):
        return self._get("I_mixed", lambda: self._integral(
            self.weight(3) * self.lapF.values * self.grad_sq))

    @property
    def I_quart(self):
        return self._get("I_quart", lambda: self._integral(self.weight(4) * self.grad_sq ** 2))

    @property
    def I_xi2(self):
        return self._get("I_xi2", lambda: self._integral(
            self.weight(2) * sum(x * x for x in self.xiF)))

    @property
    def I_hess2(self):
        return self._get("I_hess2", lambda: self._integral(self.weight(2) * self.hess.norm_sq))

    @property
    def I_omega2(self):
        return self._get("I_omega2", lambda: self._integral(
            self.weight(2) * sum(self.hess.omega[s] ** 2 for s in range(3))))

    @property
    def I_deficit(self):
        return self._get("I_deficit", lambda: self._integral(self.weight(2) * self.hess.deficit))

    @property
    def P_pair_half(self):
        return self._get("P_pair_half", lambda: p_functional(self.f_half))

    @property
    def I_gradlap(self):
        def build():
            comps = grad_h(self.lapF)
            val = np.sum(comps.components * self.gradF.components, axis=0)
            return self._integral(self.weight(2) * val)
        return self._get("I_gradlap", build)

    @property
    def I_lap_gradsq(self):
        def build():
            lap = sub_laplacian(ScalarField(self.grid, self.grad_sq))
            return self._integral(self.weight(2) * lap.values)
        return self._get("I_lap_gradsq", build)

    @property
    def deriv1_integral(self):
        # d/dt of the energy expressed in the phi = -ln u variables:
        # int u * (-2 (Delta phi)^2 - 3 Delta phi |grad phi|^2 - |grad phi|^4)
        def build():
            phi_jet = DifferenceJet(ScalarField(self.grid, -np.log(self.u.values)))
            lap_phi = sub_laplacian(phi_jet).values
            grad_phi = grad_h(phi_jet).components
            gp2 = np.sum(grad_phi ** 2, axis=0)
            integrand = self.u.values * (-2.0 * lap_phi ** 2
                                         - 3.0 * lap_phi * gp2 - gp2 ** 2)
            return self._integral(integrand)
        return self._get("deriv1", build)

    def _integral(self, values) -> float:
        return float(self.grid.cell_volume * np.sum(values))


def _ricci2_report(f: ScalarField) -> IdentityReport:
    grid = f.grid
    fd = frame_data(grid)
    xi = [reeb_derivative(f, s).values for s in range(3)]
    first = DifferenceJet(f).first
    anti_sq = np.zeros(grid.shape)
    twist_sq = np.zeros(grid.shape)
    res_sq = np.zeros(grid.shape)
    for a in range(grid.dim_h):
        for b in range(a + 1, grid.dim_h):
            comm = (first_difference(first[b], grid, a)
                    - first_difference(first[a], grid, b))
            twist = sum(2.0 * fd.omega[s][a, b] * xi[s] for s in range(3))
            anti_sq += comm * comm
            twist_sq += twist * twist
            res_sq += (comm + twist) ** 2
    lhs = float(np.sqrt(grid.cell_volume * np.sum(anti_sq)))
    rhs = float(np.sqrt(grid.cell_volume * np.sum(twist_sq)))
    res = float(np.sqrt(grid.cell_volume * np.sum(res_sq)))
    report = _report("ricci2", lhs, rhs, grid)
    report.residual = res
    return report


def _ricci_mixed_report(f: ScalarField) -> IdentityReport:
    # mixed second derivatives commute exactly on the model: the torsion
    # endomorphism vanishes, and vertical shifts commute with group steps
    grid = f.grid
    first = DifferenceJet(f).first
    res_sq = 0.0
    scale_sq = 0.0
    for s in range(3):
        xi_f = reeb_derivative(f, s).values
        for a in range(grid.dim_h):
            mixed1 = first_difference(xi_f, grid, a)
            mixed2 = reeb_derivative(ScalarField(grid, first[a]), s).values
            res_sq += np.sum((mixed1 - mixed2) ** 2)
            scale_sq += np.sum(mixed1 ** 2)
    lhs = float(np.sqrt(grid.cell_volume * res_sq))
    scale = float(np.sqrt(grid.cell_volume * scale_sq))
    report = _report("ricci_mixed", lhs, 0.0, grid, norm_scale=max(scale, NORM_FLOOR))
    return report


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
    reduction pins the orientation used here.
    """
    grid = f.grid
    jet = DifferenceJet(f)
    g = grad_h(jet)
    grad_sq = np.sum(g.components ** 2, axis=0)
    lhs_field = 0.5 * sub_laplacian(ScalarField(grid, grad_sq)).values
    hd = hessian_data(jet)
    lap = sub_laplacian(jet)
    grad_lap = grad_h(lap)
    dot = np.sum(grad_lap.components * g.components, axis=0)
    mixed = _reeb_mixed(grid, g.components)
    rhs_field = -hd.norm_sq + dot - 4.0 * mixed
    lhs = _l2(grid, lhs_field)
    rhs = _l2(grid, rhs_field)
    res = _l2(grid, lhs_field - rhs_field)
    report = _report("bochner", lhs, rhs, grid)
    report.residual = res
    return report


def _reeb_mixed(grid: LatticeGrid, grad: np.ndarray) -> np.ndarray:
    """Pointwise Reeb mixed term sum_s sum_a xi_s(D_a f) (I_s Df)_a of the
    gradient components grad = Df."""
    fd = frame_data(grid)
    mixed = np.zeros(grid.shape)
    for s in range(3):
        is_grad = np.einsum("ab,b...->a...", fd.structure.I[s], grad)
        for a in range(grid.dim_h):
            mixed += reeb_derivative(ScalarField(grid, grad[a]), s).values * is_grad[a]
    return mixed


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
        lhs = float(grid.cell_volume * np.sum(_reeb_mixed(grid, grad_h(jet).components)))
        if name == "gr4":
            lap = sub_laplacian(jet)
            i_lap = float(grid.cell_volume * np.sum(lap.values ** 2))
            rhs = -(1.0 / (4 * n)) * (p_functional(jet) + i_lap)
            scale = max(abs(lhs), abs(rhs), (1.0 / (4 * n)) * i_lap, NORM_FLOOR)
        else:
            xi_sq = sum(reeb_derivative(f, s).values ** 2 for s in range(3))
            i_xi = float(grid.cell_volume * np.sum(xi_sq))
            rhs = -4.0 * n * i_xi
            scale = max(abs(lhs), abs(rhs), NORM_FLOOR)
        return _report(name, lhs, rhs, grid, norm_scale=scale)

    if name == "hesrep_contraction":
        require_positive(u, "F-base")
        if alpha is None:
            raise ValueError("hesrep_contraction needs alpha")
        q = FlowQuantities(u, alpha)
        deficit = q.hess.deficit
        min_p = float(deficit.min())
        scale = float(np.mean(q.hess.norm_sq)) + NORM_FLOOR
        report = IdentityReport(name=name, lhs=min_p, rhs=0.0,
                                residual=max(0.0, -min_p),
                                norm_scale=scale, n=n, m_x=grid.m_x)
        return report

    if alpha is None:
        raise ValueError(f"identity {name!r} needs alpha")
    q = FlowQuantities(u, alpha)
    a = alpha

    if name == "deriv2":
        lhs = a * a * q.deriv1_integral
        rhs = (-2.0 * q.I_lap2
               + (3.0 - 4.0 * a) / a * q.I_mixed
               + (-1.0 + 3.0 * a - 2.0 * a * a) / (a * a) * q.I_quart)
        scale = max(abs(lhs), abs(rhs), 2.0 * q.I_lap2, NORM_FLOOR)
        return _report(name, lhs, rhs, grid=grid, norm_scale=scale)

    if name == "deriv3":
        lhs = q.I_gradlap + (1.0 / a - 2.0) * q.I_mixed
        rhs = q.I_lap2
        return _report(name, lhs, rhs, grid)

    if name == "firstt":
        lhs = (1.0 / a - 2.0) * q.I_mixed
        rhs = ((1.0 / a - 2.0) * (1.0 / a - 3.0) * q.I_quart + q.I_lap_gradsq)
        scale = max(abs(lhs), abs(rhs), abs(q.I_lap_gradsq), NORM_FLOOR)
        return _report(name, lhs, rhs, grid, norm_scale=scale)

    if name == "secondt":
        mixed = _reeb_mixed(grid, q.gradF.components)
        lhs = float(grid.cell_volume * np.sum(q.weight(2) * mixed))
        rhs = -4.0 * n * q.I_xi2
        return _report(name, lhs, rhs, grid)

    if name == "deriv5":
        lhs = 1.5 * (1.0 / a - 2.0) * q.I_mixed
        rhs = (0.5 * (1.0 / a - 2.0) * (1.0 / a - 3.0) * q.I_quart
               - (q.I_hess2 - 16.0 * n * q.I_xi2 - q.I_lap2))
        scale = max(abs(lhs), abs(rhs), q.I_hess2, NORM_FLOOR)
        return _report(name, lhs, rhs, grid, norm_scale=scale)

    if name == "intform1":
        lhs = -4.0 * n * q.I_xi2
        half = 1.0 / (2.0 * a) - 1.0
        rhs = (-(a * a / n) * q.P_pair_half
               - (1.0 / (4 * n)) * q.I_lap2
               + (1.0 / (2 * n)) * half * q.I_mixed
               - (1.0 / (4 * n)) * half * half * q.I_quart)
        scale = max(abs(lhs), abs(rhs), (1.0 / (4 * n)) * q.I_lap2, NORM_FLOOR)
        return _report(name, lhs, rhs, grid, norm_scale=scale)

    if name == "deriv6":
        lhs = q.I_mixed
        c_div = (3.0 * n + 2.0) * (1.0 - 2.0 * a)
        rhs = (8.0 * a ** 3 / c_div * q.P_pair_half
               + (2.0 * n + 1.0 - 2.0 * (3.0 * n + 1.0) * a) / (2.0 * (3 * n + 2) * a) * q.I_quart
               + (3.0 + 4.0 * n) * a / (2.0 * c_div) * q.I_lap2
               - 2.0 * n * a / c_div * ((1.0 / (4 * n)) * q.I_omega2 + q.I_deficit))
        return _report(name, lhs, rhs, grid)

    if name == "reprtor":
        half = 1.0 / (2.0 * a) - 1.0
        lhs = ((1.0 / (4 * n)) * (q.I_lap2 + half * half * q.I_quart)
               + (a * a / n) * q.P_pair_half)
        rhs = (1.0 / (4 * n)) * (2.0 * half * q.I_mixed + q.I_omega2)
        return _report(name, lhs, rhs, grid)

    if name == "lastrep":
        lhs = 1.5 * (2.0 * n + 1.0) * q.I_mixed
        rhs = ((8.0 * n + 3.0 - 6.0 * (4.0 * n + 1.0) * a) / (8.0 * a) * q.I_quart
               + (2.0 * n + 1.0) * a / (1.0 - 2.0 * a) * q.I_lap2
               + 6.0 * a ** 3 / (1.0 - 2.0 * a) * q.P_pair_half
               - 2.0 * n * a / (1.0 - 2.0 * a) * q.I_deficit)
        return _report(name, lhs, rhs, grid)

    if name == "derf":
        from .energy import derf_rhs
        lhs = a * a * q.deriv1_integral
        report = derf_rhs(u, alpha)
        rhs = report.dF_dt_analytic * a * a
        scale = max(abs(lhs), abs(rhs),
                    max(abs(t) for t in report.terms()), NORM_FLOOR)
        return _report(name, lhs, rhs, grid, norm_scale=scale)

    raise AssertionError(f"unhandled tag {name}")
