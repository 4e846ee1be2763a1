"""Energy functional, its exact five-term production formula, and the
monotonicity verdict for heat-flow trajectories.

The energy is E(u) = int |grad phi|^2 e^{-phi} with phi = -ln u, computed
as int |grad phi|^2 u to avoid an exp/log round trip.  Its time derivative
along the flow decomposes, after multiplying by alpha^2, into five
integrals of F = u^alpha with fixed rational-in-(n, alpha) coefficients;
for admissible alpha every one of the five terms is non-positive provided
the measured positivity hypotheses hold.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .algebra import alpha_interval, h_polynomial, lichnerowicz_matrix
from .flow import FlowState
from .identities import FlowQuantities, IdentityReport, NORM_FLOOR, check_alpha, require_positive
from .lattice import ScalarField, frame_data
from .operators import grad_h_norm_sq

CSV_COLUMNS = (
    "time", "energy", "dF_dt_numeric", "dF_dt_analytic", "term_laplacian",
    "term_quartic", "term_pfunctional", "term_L", "term_p", "p_functional",
    "min_pF",
)


def energy(u: ScalarField) -> float:
    """E(u) = int |grad phi|^2 u, phi = -ln u.

    |grad phi|^2 comes from grad_h_norm_sq, the first differences alone
    (no jet of phi, no Laplacian), with the bits of
    np.sum(grad_h(phi).components ** 2, axis=0).
    """
    require_positive(u)
    phi = np.log(u.values)
    np.negative(phi, out=phi)
    val = grad_h_norm_sq(ScalarField(u.grid, phi))
    val *= u.values
    return float(u.grid.cell_volume * np.sum(val))


def derf_coefficients(n: int, alpha: float):
    """The five rational coefficients of the energy-production formula.

    Order: (Delta F)^2 term, |grad F|^4 term, P-pairing term, L term,
    p(F) term.
    """
    check_alpha(alpha)
    a = alpha
    one_m2a = 1.0 - 2.0 * a
    three_m4a = 3.0 - 4.0 * a
    c_lap = 4.0 * a / (3.0 * one_m2a)
    c_quart = h_polynomial(n, a) / (12.0 * (2 * n + 1) * a * a)
    c_pfun = 4.0 * three_m4a * a * a / ((2 * n + 1) * one_m2a)
    c_lich = -2.0 * n * three_m4a / (3.0 * (n + 2) * one_m2a)
    c_pdef = -4.0 * n * three_m4a / (3.0 * (2 * n + 1) * one_m2a)
    return c_lap, c_quart, c_pfun, c_lich, c_pdef


@dataclass
class EnergyReport:
    time: float
    energy: float
    dF_dt_numeric: float
    dF_dt_analytic: float
    term_laplacian: float
    term_quartic: float
    term_pfunctional: float
    term_L: float
    term_p: float
    p_functional_value: float
    min_pF: float

    def terms(self):
        return (self.term_laplacian, self.term_quartic, self.term_pfunctional,
                self.term_L, self.term_p)

    def csv_row(self):
        return [self.time, self.energy, self.dF_dt_numeric, self.dF_dt_analytic,
                self.term_laplacian, self.term_quartic, self.term_pfunctional,
                self.term_L, self.term_p, self.p_functional_value, self.min_pF]


def derf_rhs(u: ScalarField, alpha: float, coeff_override=None,
             time: float = 0.0) -> EnergyReport:
    """Evaluate the five production terms at one snapshot.

    The Lichnerowicz term is computed through the generic bilinear form of
    the grid's torsion data (identically zero on the flat model) so that a
    curved backend can reuse the same path.  coeff_override replaces the
    five standard coefficients, which the mutation-sensitivity tests use.
    """
    require_positive(u)
    check_alpha(alpha)
    grid = u.grid
    n = grid.n
    e = energy(u)
    q = FlowQuantities(u, alpha)
    # f's jet lives only inside the P-pairing; evaluating it before F's jet
    # exists keeps the two jets out of memory at the same time
    p_pair = q.P_pair_half
    coeffs = derf_coefficients(n, alpha) if coeff_override is None else tuple(coeff_override)
    c_lap, c_quart, c_pfun, c_lich, c_pdef = coeffs

    # Lichnerowicz pairing with the model torsion (zero), generic route
    lmat = lichnerowicz_matrix(frame_data(grid).torsion)
    if np.any(lmat):
        gf = q.gradF.components
        lich_field = np.einsum("a...,ab,b...->...", gf, lmat, gf)
        i_lich = float(grid.cell_volume * np.sum(q.weight(2) * lich_field))
    else:
        i_lich = 0.0

    term_lap = c_lap * q.I_lap2
    term_quart = c_quart * q.I_quart
    term_pfun = c_pfun * p_pair
    term_lich = c_lich * i_lich
    term_pdef = c_pdef * q.I_deficit
    total = term_lap + term_quart + term_pfun + term_lich + term_pdef

    return EnergyReport(
        time=time,
        energy=e,
        dF_dt_numeric=float("nan"),
        dF_dt_analytic=total / (alpha * alpha),
        term_laplacian=term_lap,
        term_quartic=term_quart,
        term_pfunctional=term_pfun,
        term_L=term_lich,
        term_p=term_pdef,
        p_functional_value=p_pair,
        min_pF=float(q.hess.deficit.min()),
    )


def lemma_residual(states: list[FlowState], k: int, alpha: float,
                   coeff_override=None) -> IdentityReport:
    """Centered time derivative of the energy vs the five-term formula.

    lhs = alpha^2 [E(t_{k+1}) - E(t_{k-1})] / (t_{k+1} - t_{k-1}),
    rhs = alpha^2 * analytic rate at t_k.
    """
    if not 1 <= k <= len(states) - 2:
        raise IndexError("k needs a left and a right neighbor record")
    left, mid, right = states[k - 1], states[k], states[k + 1]
    lhs = alpha * alpha * (energy(right.u) - energy(left.u)) / (right.time - left.time)
    report = derf_rhs(mid.u, alpha, coeff_override=coeff_override, time=mid.time)
    rhs = alpha * alpha * report.dF_dt_analytic
    scale = max(abs(lhs), abs(rhs), max(abs(t) for t in report.terms()), NORM_FLOOR)
    grid = mid.u.grid
    return IdentityReport(name="derf", lhs=float(lhs), rhs=float(rhs),
                          residual=abs(lhs - rhs), norm_scale=scale,
                          n=grid.n, m_x=grid.m_x)


def energy_series(states: list[FlowState], alpha: float) -> list[EnergyReport]:
    """Per-record production terms plus centered numeric dE/dt.

    The numeric rate reads the energies of the neighbouring reports, so
    energy(u) runs once per record.
    """
    reports = [derf_rhs(st.u, alpha, time=st.time) for st in states]
    for k in range(1, len(states) - 1):
        reports[k].dF_dt_numeric = ((reports[k + 1].energy - reports[k - 1].energy)
                                    / (states[k + 1].time - states[k - 1].time))
    return reports


@dataclass
class MonotonicityVerdict:
    alpha: float
    alpha_admissible: bool
    L_nonneg: bool
    p_function_nonneg: bool
    energy_monotone: bool
    counterexample_time: float | None
    eps_mono: float
    eps_p: float

    def to_dict(self):
        return {
            "alpha": self.alpha,
            "alpha_admissible": self.alpha_admissible,
            "L_nonneg": self.L_nonneg,
            "p_function_nonneg": self.p_function_nonneg,
            "energy_monotone": self.energy_monotone,
            "counterexample_time": self.counterexample_time,
            "eps_mono": self.eps_mono,
            "eps_p": self.eps_p,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def monotonicity_verdict(states: list[FlowState], alpha: float,
                         reports: list[EnergyReport] | None = None) -> MonotonicityVerdict:
    """Hypothesis checks plus the measured monotonicity of the energy.

    The energy decays toward zero along the flow, so the slack combines an
    absolute floor with a fraction of the initial energy.  The P-function
    hypothesis is measured per record, never assumed.
    """
    if len(states) < 3:
        raise ValueError("need at least three records")
    check_alpha(alpha)
    if reports is None:
        reports = energy_series(states, alpha)
    n = states[0].u.grid.n
    lo, hi = alpha_interval(n)
    admissible = lo <= alpha < hi

    eps_mono = max(1e-10, 1e-6 * abs(reports[0].energy))
    # scale for the P-pairing sign check: the Laplacian integral that
    # dominates the pairing on the flat model
    p_scales = []
    for rep in reports:
        base = abs(rep.term_laplacian) + abs(rep.term_pfunctional)
        p_scales.append(base)
    eps_p = max(1e-12, 1e-8 * max(p_scales)) if p_scales else 1e-12

    p_ok = all(rep.p_functional_value <= eps_p for rep in reports)
    monotone = True
    counterexample = None
    for rep in reports:
        if np.isnan(rep.dF_dt_numeric):
            continue
        if rep.dF_dt_numeric > eps_mono:
            monotone = False
            counterexample = rep.time
            break
    return MonotonicityVerdict(
        alpha=alpha,
        alpha_admissible=admissible,
        L_nonneg=True,  # model torsion is identically zero, k0 = 0
        p_function_nonneg=p_ok,
        energy_monotone=monotone,
        counterexample_time=counterexample,
        eps_mono=eps_mono,
        eps_p=eps_p,
    )
