"""Tests for the energy monitor and its five-term production formula."""
import importlib

import numpy as np
import pytest

from qcflow.algebra import alpha_interval, h_polynomial
from qcflow.energy import (
    derf_coefficients,
    derf_rhs,
    energy,
    energy_series,
    lemma_residual,
    monotonicity_verdict,
)
from qcflow.flow import FlowConfig, cfl_timestep, evolve, initial_field
from qcflow.lattice import ScalarField, make_grid, periodized_bump
from qcflow.operators import grad_h


def flow_config(m=4, alpha=-0.05, **kw):
    base = dict(n=1, m_x=m, alpha=alpha, cfl_safety=0.2, record_every=2,
                t_end=0.001, width=0.22, amplitude=0.3, offset=1.0,
                tau_profile="uniform")
    base.update(kw)
    return FlowConfig(**base)


@pytest.mark.parametrize("m", [4, 5])
def test_energy_pass_is_bit_identical_to_the_gradient_route(m):
    # m_x = 5 ends on a partial point block
    grid = make_grid(1, m)
    rough = ScalarField(grid, 1.0 + np.random.default_rng(m).random(grid.shape))
    for u in (initial_field(flow_config(m=m), grid),
              periodized_bump(grid, width=0.22, amplitude=0.3, offset=1.0), rough):
        phi = ScalarField(grid, -np.log(u.values))
        val = np.sum(grad_h(phi).components ** 2, axis=0) * u.values
        assert energy(u) == float(grid.cell_volume * np.sum(val))


def test_energy_constant_zero():
    grid = make_grid(1, 4)
    u = ScalarField(grid, np.full(grid.shape, 2.0))
    assert energy(u) == 0.0


def test_energy_scaling_is_linear():
    # E(c u) = c E(u): grad phi is scale invariant and the weight
    # e^{-phi} = u carries the factor c
    u = initial_field(flow_config())
    base = energy(u)
    for c in (0.5, 2.0, 10.0):
        scaled = ScalarField(u.grid, c * u.values)
        assert abs(energy(scaled) - c * base) <= 1e-12 * abs(c * base)


def test_energy_positive_required():
    grid = make_grid(1, 3)
    with pytest.raises(ValueError):
        energy(ScalarField(grid, np.zeros(grid.shape)))


def test_derf_coefficient_signs_and_values():
    c_lap, c_quart, c_pfun, c_lich, c_pdef = derf_coefficients(1, -0.05)
    assert c_lap == pytest.approx(-0.2 / 3.3, rel=1e-12)
    assert c_quart == pytest.approx(-1.58 / 0.09, rel=1e-12)
    assert c_pfun == pytest.approx(4 * 3.2 * 0.0025 / 3.3, rel=1e-12)
    assert c_lich < 0 and c_pdef < 0
    assert c_lap < 0 and c_quart < 0 and c_pfun > 0


def test_derf_coefficients_reject_bad_alpha():
    for bad in (0.0, 0.5):
        with pytest.raises(ValueError):
            derf_coefficients(1, bad)


def _assembled_coefficients(n, a):
    """Re-derive the five coefficients by substituting the second-stage
    representation of the mixed integral into the first-stage expansion."""
    # first stage: rate = -2 I_lap + (3-4a)/a * I_mixed + (-1+3a-2a^2)/a^2 * I_quart
    # second stage: I_mixed = (2/(3(2n+1))) * [ q4 I_quart + qlap I_lap
    #                + qP P + qp I_p + qL I_L ]
    pref = (3.0 - 4.0 * a) / a * 2.0 / (3.0 * (2 * n + 1))
    q4 = (8.0 * n + 3.0 - 6.0 * (4.0 * n + 1.0) * a) / (8.0 * a)
    qlap = (2.0 * n + 1.0) * a / (1.0 - 2.0 * a)
    qP = 6.0 * a ** 3 / (1.0 - 2.0 * a)
    qp = -2.0 * n * a / (1.0 - 2.0 * a)
    qL = -n * (2.0 * n + 1.0) * a / ((n + 2.0) * (1.0 - 2.0 * a))
    c_lap = -2.0 + pref * qlap
    c_quart = (-1.0 + 3.0 * a - 2.0 * a * a) / (a * a) + pref * q4
    c_pfun = pref * qP
    c_pdef = pref * qp
    c_lich = pref * qL
    return c_lap, c_quart, c_pfun, c_lich, c_pdef


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coefficient_assembly_oracle(n):
    for a in (-0.05, -0.09, -0.02, 0.2, 0.7, -1.5):
        got = derf_coefficients(n, a)
        expect = _assembled_coefficients(n, a)
        for g, e in zip(got, expect):
            assert g == pytest.approx(e, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coefficient_linearized_closure(n):
    # for small perturbations around the constant state the five terms sum
    # to -2 int (Delta b)^2 per alpha^2; this pins the coefficient algebra
    # independently of the assembly route
    for a in (-0.05, -0.08, 0.3, -2.0):
        c_lap, c_quart, c_pfun, c_lich, c_pdef = derf_coefficients(n, a)
        combo = c_lap - c_pfun / (4.0 * a * a) + (1.0 - 1.0 / (4.0 * n)) * c_pdef
        assert combo == pytest.approx(-2.0, rel=1e-12)


def test_quartic_coefficient_is_h_polynomial():
    for n in (1, 2, 3):
        for a in (-0.05, -0.09, 0.3):
            _, c_quart, _, _, _ = derf_coefficients(n, a)
            assert c_quart == pytest.approx(
                h_polynomial(n, a) / (12.0 * (2 * n + 1) * a * a), rel=1e-13)


def test_derf_rhs_constant_field():
    grid = make_grid(1, 3)
    u = ScalarField(grid, np.full(grid.shape, 1.0))
    rep = derf_rhs(u, -0.05)
    for term in rep.terms():
        assert term == pytest.approx(0.0, abs=1e-15)
    assert rep.energy == 0.0
    assert rep.p_functional_value == pytest.approx(0.0, abs=1e-15)


def test_derf_rhs_bookkeeping_identity():
    u = initial_field(flow_config())
    alpha = -0.05
    rep = derf_rhs(u, alpha)
    assert rep.dF_dt_analytic * alpha * alpha == pytest.approx(
        sum(rep.terms()), rel=1e-14)


def test_derf_rhs_term_L_zero_on_model():
    u = initial_field(flow_config())
    rep = derf_rhs(u, -0.05)
    assert rep.term_L == 0.0


def test_coeff_override_changes_terms():
    u = initial_field(flow_config())
    alpha = -0.05
    base = derf_rhs(u, alpha)
    coeffs = list(derf_coefficients(1, alpha))
    coeffs[0] *= 1.01
    mutated = derf_rhs(u, alpha, coeff_override=coeffs)
    assert mutated.term_laplacian == pytest.approx(1.01 * base.term_laplacian, rel=1e-12)
    assert mutated.term_quartic == base.term_quartic


def run_lemma(m, alpha=-0.05, safety=0.1, record_every=2, **kw):
    cfg = flow_config(m=m, alpha=alpha, cfl_safety=safety,
                      record_every=record_every, **kw)
    dt = cfl_timestep(make_grid(1, m), safety)
    cfg.t_end = 2 * record_every * dt * 1.0000001
    states = evolve(cfg)
    return lemma_residual(states, 1, alpha)


def test_lemma_residual_constant_data():
    grid = make_grid(1, 3)
    u = ScalarField(grid, np.full(grid.shape, 1.0))
    from qcflow.flow import FlowState
    states = [FlowState(u=u.copy(), time=k * 0.1, step=k) for k in range(3)]
    rep = lemma_residual(states, 1, -0.05)
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.rhs == pytest.approx(0.0, abs=1e-14)


def test_lemma_residual_needs_neighbors():
    grid = make_grid(1, 3)
    u = ScalarField(grid, np.full(grid.shape, 1.0))
    from qcflow.flow import FlowState
    states = [FlowState(u=u.copy(), time=k * 0.1, step=k) for k in range(3)]
    with pytest.raises(IndexError):
        lemma_residual(states, 0, -0.05)
    with pytest.raises(IndexError):
        lemma_residual(states, 2, -0.05)


def test_lemma_residual_decreases_under_refinement():
    r4 = run_lemma(4).relative_residual
    r8 = run_lemma(8).relative_residual
    assert r8 < r4


def test_monotonicity_verdict_pipeline():
    m = 4
    cfg = flow_config(m=m, cfl_safety=0.5, record_every=4, t_end=0.02)
    states = evolve(cfg)
    assert len(states) >= 3
    verdict = monotonicity_verdict(states, -0.05)
    assert verdict.alpha_admissible
    assert verdict.L_nonneg
    assert verdict.p_function_nonneg  # vertically uniform data
    assert verdict.energy_monotone
    assert verdict.counterexample_time is None
    data = verdict.to_dict()
    assert set(data) == {"alpha", "alpha_admissible", "L_nonneg",
                         "p_function_nonneg", "energy_monotone",
                         "counterexample_time", "eps_mono", "eps_p"}


def test_monotonicity_verdict_inadmissible_alpha():
    m = 4
    alpha = 0.7
    assert h_polynomial(1, alpha) > 0
    cfg = flow_config(m=m, alpha=alpha, cfl_safety=0.5, record_every=4, t_end=0.01)
    states = evolve(cfg)
    verdict = monotonicity_verdict(states, alpha)
    assert not verdict.alpha_admissible
    lo, hi = alpha_interval(1)
    assert not (lo <= alpha < hi)


def test_energy_series_evaluates_energy_once_per_record(monkeypatch):
    # the package re-exports the function energy under the module's name
    energy_mod = importlib.import_module("qcflow.energy")
    states = evolve(flow_config(m=4, cfl_safety=0.5, record_every=2, t_end=0.004))
    calls = []

    def counting_energy(u):
        calls.append(u)
        return energy(u)

    monkeypatch.setattr(energy_mod, "energy", counting_energy)
    reports = energy_series(states, -0.05)
    assert len(calls) == len(states)
    for k in range(1, len(states) - 1):
        rate = ((energy(states[k + 1].u) - energy(states[k - 1].u))
                / (states[k + 1].time - states[k - 1].time))
        assert reports[k].dF_dt_numeric == rate


def test_energy_series_numeric_rates():
    cfg = flow_config(m=4, cfl_safety=0.5, record_every=2, t_end=0.004)
    states = evolve(cfg)
    reports = energy_series(states, -0.05)
    assert np.isnan(reports[0].dF_dt_numeric)
    for rep in reports[1:-1]:
        assert np.isfinite(rep.dF_dt_numeric)
        assert rep.dF_dt_numeric < 0  # energy decays on bump data
