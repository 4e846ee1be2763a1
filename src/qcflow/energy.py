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

from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .algebra import alpha_interval, h_polynomial
from .flow import FlowState
from .identities import FlowQuantities, IdentityReport, NORM_FLOOR, check_alpha, require_positive
from .lattice import ScalarField, grad_sq_pass


def energy(u: ScalarField) -> float:
    """E(u) = int |grad phi|^2 u, phi = -ln u.

    lattice.grad_sq_pass over the first differences of ln u alone (no jet,
    no Laplacian) forms |grad phi|^2 u and its sum per block, with the bits
    of integrating sum_a (D_a phi)^2, added in axis order, times u:
    negating ln u is exact through the difference, the division and the
    square.
    """
    require_positive(u)
    return grad_sq_pass(np.log(u.values), u.grid, u.values)


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
    p_functional: float
    min_pF: float

    def terms(self):
        return (self.term_laplacian, self.term_quartic, self.term_pfunctional,
                self.term_L, self.term_p)

    def csv_row(self):
        return astuple(self)


CSV_COLUMNS = tuple(f.name for f in fields(EnergyReport))


def derf_rhs(u: ScalarField, alpha: float, coeff_override=None,
             time: float = 0.0) -> EnergyReport:
    """Evaluate the five production terms at one snapshot.

    The Lichnerowicz term pairs grad F with the Lichnerowicz form of the
    model's torsion, which vanishes, so its integral is zero.
    coeff_override replaces the five standard coefficients, which the
    mutation-sensitivity tests use.  energy(u) checks that u is positive
    before any work, and FlowQuantities checks alpha.
    """
    n = u.grid.n
    e = energy(u)
    q = FlowQuantities(u, alpha)
    # f's jet lives only inside the P-pairing; evaluating it before F's jet
    # exists keeps the two jets out of memory at the same time
    p_pair = q.P_pair_half
    prod = q.production
    coeffs = derf_coefficients(n, alpha) if coeff_override is None else tuple(coeff_override)
    c_lap, c_quart, c_pfun, c_lich, c_pdef = coeffs

    term_lap = c_lap * prod.I_lap2
    term_quart = c_quart * prod.I_quart
    term_pfun = c_pfun * p_pair
    # the model's torsion vanishes; the product keeps the signed zero that
    # energy.csv has always written
    term_lich = c_lich * 0.0
    term_pdef = c_pdef * prod.I_deficit
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
        p_functional=p_pair,
        min_pF=prod.min_deficit,
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


def fill_numeric_rates(reports: list[EnergyReport]) -> list[EnergyReport]:
    """Set each interior report's centred numeric dE/dt from its neighbours'
    energies and times; the first and the last keep NaN."""
    for k in range(1, len(reports) - 1):
        reports[k].dF_dt_numeric = ((reports[k + 1].energy - reports[k - 1].energy)
                                    / (reports[k + 1].time - reports[k - 1].time))
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
        return asdict(self)


def monotonicity_verdict(reports: list[EnergyReport], alpha: float,
                         n: int) -> MonotonicityVerdict:
    """Hypothesis checks plus the measured monotonicity of the energy, from
    the per-record reports of a flow in quaternionic dimension n.

    The energy decays toward zero along the flow, so the slack combines an
    absolute floor with a fraction of the initial energy.  The P-function
    hypothesis is measured per record, never assumed.
    """
    if len(reports) < 3:
        raise ValueError("need at least three records")
    check_alpha(alpha)
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

    p_ok = all(rep.p_functional <= eps_p for rep in reports)
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
