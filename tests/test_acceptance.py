"""Acceptance criteria, one test per criterion (split where parts are
independently meaningful).  Each test prints a PASS/FAIL line.

Two sub-criteria are implemented faithfully but are unattainable on this
grid family; the analysis lives in the project notes:

* criterion 4's [3,5] ratio windows for the vertical-structure identities
  (order-2 Ricci, omega-contraction) and intform's ratio >= 2: the
  measured 4 -> 8 ratios sit near 1.5 (intform 1.52, omega-contraction
  1.49).  The vertical period tied to the spacing (L_t = 2 h_x) is not
  the cause: on a lattice family with a fixed L_t = 1/2 the ratios did
  not improve (intform 1.39, omega-contraction 1.34).  A likely cause,
  not yet tested, is horizontal under-resolution: the bump width 0.22 is
  1.76 h_x at m_x = 8.
* criterion 6's 2e-2 residual gate and the 10x mutation inflation at
  m_x = 8, alpha = -0.05: the five-term formula evaluated with the
  composed/compact stencils differs from the exact semi-discrete energy
  rate by (1/(1-2 alpha)) * <wide-vs-compact stencil gap>, which is
  >= 6.6% at m_x = 8 even for band-limited data (measured 7-12% on bump
  data); a 1% coefficient perturbation moves the residual by well under
  10x of that floor.
"""
import pytest

from qcflow.suites import (
    algebra_suite,
    calculus_suite,
    flow_suite,
    geometry_suite,
    lemma_suite,
    roots_suite,
    theorem_suite,
)


def report_line(criterion, report, ok=None):
    ok = report.passed if ok is None else ok
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {criterion}: {status} "
          f"({sum(c.status == 'pass' for c in report.checks)}/{len(report.checks)}"
          f" checks, {report.runtime_seconds:.1f}s)")
    for c in report.checks:
        extra = f" measured={c.measured:.6g}" if c.measured is not None else ""
        print(f"    [{c.status:>14}] {c.name}{extra}")


@pytest.fixture(scope="module")
def calculus_report():
    return calculus_suite(seed=1)


@pytest.fixture(scope="module")
def lemma_report():
    return lemma_suite(seed=1, m_x=8, alpha=-0.05)


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_criterion_1_algebra_suite():
    report = algebra_suite(seed=1)
    report_line("1 (algebra, 500 seeded instances, <5s)", report)
    assert report.passed
    assert report.runtime_seconds < 5.0


def test_criterion_2_root_checks():
    report = roots_suite(seed=1)
    report_line("2 (admissible interval root checks, <1s)", report)
    assert report.passed
    assert report.runtime_seconds < 1.0


def test_criterion_3_discrete_geometry_exactness():
    report = geometry_suite(seed=1, m_x=3)
    report_line("3 (discrete geometry exactness at m_x=3, <10s)", report)
    assert report.passed
    assert report.runtime_seconds < 10.0


def test_criterion_4_convergence_orders_attainable(calculus_report):
    report = calculus_report
    names = ("bochner_ratio_ge_2", "gr4_decreasing_ratio_ge_2",
             "min_pF_nonnegative_slack_shrinks")
    ok = all(_check(report, n).passed for n in names)
    report_line("4a (Bochner/gr4 convergence, p(F) slack)", report, ok)
    assert report.runtime_seconds < 120.0
    for n in names:
        assert _check(report, n).passed, n


def test_criterion_4_vertical_identity_windows(calculus_report):
    """Unattainable on this grid family; see the module docstring and the
    project decision notes."""
    report = calculus_report
    names = ("ricci2_ratio_in_[3,5]", "omega_contraction_ratio_in_[3,5]",
             "intform_decreasing_ratio_ge_2")
    ok = all(_check(report, n).passed for n in names)
    report_line("4b (vertical-structure identity ratio windows)", report, ok)
    for n in names:
        c = _check(report, n)
        assert c.passed, f"{n}: measured={c.measured}, threshold={c.threshold}"


def test_criterion_5_flow_invariants():
    report = flow_suite(seed=1, m_x=8, steps=200)
    report_line("5 (flow invariants, 200 steps at m_x=8, <1min)", report)
    assert report.passed
    assert report.runtime_seconds < 60.0


def test_criterion_6_lemma_residual_refinement(lemma_report):
    report = lemma_report
    c = _check(report, "lemma_residual_decreases_with_refinement")
    report_line("6a (energy-rate residual decreases under refinement)",
                report, c.passed)
    assert report.runtime_seconds < 180.0
    assert c.passed


def test_criterion_6_lemma_gate_and_mutation(lemma_report):
    """Unattainable at m_x=8 with these stencils; see the module docstring
    and the project decision notes."""
    report = lemma_report
    gate = _check(report, "lemma_relative_residual")
    mutations = [c for c in report.checks if c.name.startswith("mutation_")
                 and c.status != "not_applicable"]
    ok = gate.passed and all(c.passed for c in mutations)
    report_line("6b (2e-2 residual gate and 10x mutation inflation)",
                report, ok)
    assert gate.passed, (f"lemma gate: measured {gate.measured:.4g} "
                         f"vs threshold {gate.threshold}")
    for c in mutations:
        assert c.passed, f"{c.name}: inflation {c.measured:.3g} < 10"


def test_criterion_7_theorem_gate():
    report = theorem_suite(seed=1, m_x=6, alpha=-0.05)
    report_line("7 (monotonicity theorem gate, 5 seeded runs, <5min)", report)
    assert report.passed
    assert report.runtime_seconds < 300.0
    met = _check(report, "hypothesis_met_monotone_runs")
    assert met.measured >= 3
