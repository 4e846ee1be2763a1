"""Energy functional, the per-record energy reports, and the lemma
residual and monotonicity verdict read from them.

The energy is E(u) = int |grad phi|^2 e^{-phi} with phi = -ln u, computed
as int |grad phi|^2 u to avoid an exp/log round trip.  Its time derivative
along the flow decomposes, after multiplying by alpha^2, into five
integrals of F = u^alpha with fixed rational-in-(n, alpha) coefficients;
for admissible alpha every one of the five terms is non-positive provided
the measured positivity hypotheses hold.  The formula is written once, as
identities.derf_terms, which the catalog's derf row reads too.  derf_rhs
evaluates one record's EnergyReport, the rows of energy.csv, and
lemma_residual and monotonicity_verdict only read reports.
"""
from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .algebra import alpha_interval
from .identities import (FlowQuantities, IdentityReport, NORM_FLOOR, check_alpha,
                         derf_terms, require_positive)
from .lattice import LatticeGrid, ScalarField, _field_beside, grad_sq_pass


def energy(u: ScalarField) -> float:
    """E(u) = int |grad phi|^2 u, phi = -ln u.

    lattice.grad_sq_pass over the first differences of ln u alone (no jet,
    no Laplacian) forms |grad phi|^2 u and its sum per block, with the bits
    of integrating sum_a (D_a phi)^2, added in axis order, times u:
    negating ln u is exact through the difference, the division and the
    square.  ln u is made beside u (lattice._field_beside).
    """
    require_positive(u)
    log_u = np.log(u.values, out=_field_beside(u.values, u.grid.shape))
    return grad_sq_pass(log_u, u.grid, u.values)


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


def derf_rhs(u: ScalarField, alpha: float, time: float = 0.0) -> EnergyReport:
    """The energy and the five production terms of identities.derf_terms at
    one record.

    energy(u) checks that u is positive before any work, and
    FlowQuantities checks alpha.
    """
    e = energy(u)
    q = FlowQuantities(u, alpha)
    terms = derf_terms(q, u.grid.n, alpha)
    # in field order; fill_numeric_rates sets the numeric rate from the neighbours
    return EnergyReport(time, e, float("nan"), sum(terms) / (alpha * alpha), *terms,
                        q.P_pair_half, q.production.min_deficit)


def lemma_residual(reports: list[EnergyReport], k: int, alpha: float,
                   grid: LatticeGrid) -> IdentityReport:
    """Centred time derivative of the energy vs the five-term formula, read
    from the reports of records k-1, k and k+1 on grid; nothing is
    evaluated.

    lhs = alpha^2 [E(t_{k+1}) - E(t_{k-1})] / (t_{k+1} - t_{k-1}),
    rhs = alpha^2 * analytic rate at t_k, and the norm scale takes in the
    five terms at t_k.
    """
    if not 1 <= k <= len(reports) - 2:
        raise IndexError("k needs a left and a right neighbor record")
    left, mid, right = reports[k - 1], reports[k], reports[k + 1]
    lhs = alpha * alpha * (right.energy - left.energy) / (right.time - left.time)
    rhs = alpha * alpha * mid.dF_dt_analytic
    scale = max(abs(lhs), abs(rhs), *(abs(t) for t in mid.terms()), NORM_FLOOR)
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
    p_scale = max(abs(rep.term_laplacian) + abs(rep.term_pfunctional) for rep in reports)
    eps_p = max(1e-12, 1e-8 * p_scale)

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
