"""Tests for the energy monitor and its five-term production formula."""
import inspect
import sys
import tracemalloc

import numpy as np
import pytest

import qcflow.energy as energy_module
import qcflow.suites as suites_module
from qcflow import lattice
from qcflow.algebra import alpha_interval, h_polynomial
from qcflow.energy import (
    EnergyReport,
    derf_rhs,
    energy,
    fill_numeric_rates,
    lemma_residual,
    monotonicity_verdict,
)
from qcflow.flow import FlowConfig, cfl_timestep, evolve, initial_field
from qcflow.identities import (IDENTITY_NAMES, FlowQuantities, derf_coefficients,
                               identity_residual)
from qcflow.lattice import ScalarField, make_grid, periodized_bump
from qcflow.operators import DifferenceJet
from qcflow.suites import _lemma_states, _rich_field, lemma_suite

from oracles import (CHAIN_NAMES, chain_residual, grad_h, handed_p_functional, kernel_calls,
                     ref_hessian, whole_production)


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
        g = grad_h(phi).components
        # |D phi|^2 in axis order, as the pass adds it
        val = sum(g[..., a] ** 2 for a in range(grid.dim_h)) * u.values
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


def test_derf_rhs_rejects_nonpositive_data_and_excluded_alpha():
    # energy(u) checks u before any work, and FlowQuantities checks alpha
    grid = make_grid(1, 3)
    with pytest.raises(ValueError, match="strictly positive"):
        derf_rhs(ScalarField(grid, np.zeros(grid.shape)), -0.05)
    u = ScalarField(grid, np.ones(grid.shape))
    for bad in (0.0, 0.5):
        with pytest.raises(ValueError, match="alpha"):
            derf_rhs(u, bad)


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
    # a non-finite alpha made five NaN coefficients
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="alpha must be finite"):
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
    assert rep.p_functional == pytest.approx(0.0, abs=1e-15)


def test_derf_rhs_bookkeeping_identity():
    u = initial_field(flow_config())
    alpha = -0.05
    rep = derf_rhs(u, alpha)
    assert rep.dF_dt_analytic * alpha * alpha == pytest.approx(
        sum(rep.terms()), rel=1e-14)


# the tags whose identity reads no integral of F's Hessian
NO_HESSIAN_OF_F = ("ricci2", "ricci_mixed", "bochner", "gr4", "intform", "secondt")


@pytest.mark.parametrize("tag", IDENTITY_NAMES + CHAIN_NAMES)
def test_each_tag_streams_the_hessian_of_F_at_most_once(tag, monkeypatch):
    # every integral of F's Hessian comes from one contraction of its
    # Hessian pass, so no tag runs the pass over F, made from u or handed
    # as F's first differences, twice; the pass is counted in every qcflow
    # namespace that binds it
    alpha = -0.05
    u = _rich_field(make_grid(1, 4))
    F = np.power(u.values, alpha)
    first_F = DifferenceJet(ScalarField(u.grid, F)).first
    streamed = []
    hessian_pass = lattice.hessian_pass

    def counting(values, grid, transform, *args, **kwargs):
        if np.shape(values) == first_F.shape:
            streamed.append(np.array_equal(values, first_F))
        else:
            g = values if transform is None else transform(values, out=np.empty_like(values))
            streamed.append(np.array_equal(np.reshape(g, F.shape), F))
        return hessian_pass(values, grid, transform, *args, **kwargs)

    bound = [mod for key, mod in sorted(sys.modules.items())
             if key.split(".")[0] == "qcflow" and vars(mod).get("hessian_pass") is hessian_pass]
    assert {mod.__name__ for mod in bound} >= {"qcflow.lattice", "qcflow.operators",
                                               "qcflow.identities"}
    for mod in bound:
        monkeypatch.setattr(mod, "hessian_pass", counting)
    (identity_residual if tag in IDENTITY_NAMES else chain_residual)(tag, u, alpha)
    assert sum(streamed) == (0 if tag in NO_HESSIAN_OF_F else 1)


@pytest.mark.parametrize("m", [4, 5])
def test_derf_rhs_deficit_terms_are_bit_identical_to_the_whole_field_hessian(m):
    # min_pF and term_p come from F's Hessian pass with the bits of the
    # whole-field p-deficit
    u = initial_field(flow_config(m=m, tau_profile=None))
    alpha = -0.05
    rep = derf_rhs(u, alpha)
    deficit = ref_hessian(np.power(u.values, alpha), u.grid)[3]
    assert rep.min_pF == float(deficit.min())
    c_pdef = derf_coefficients(1, alpha)[4]
    w2 = np.power(u.values, 1.0 - 2 * alpha)
    assert rep.term_p == c_pdef * float(u.grid.cell_volume * np.sum(w2 * deficit))


@pytest.mark.parametrize("m", [5, 8])
def test_derf_rhs_places_ln_u_and_its_windows_2_kib_past_their_inputs(m, monkeypatch):
    # ln u starts 2 KiB past u modulo 4 KiB, each transform plane that the
    # two sweeps (f = u^(1/2) and F = u^alpha) read 2 KiB past its plane of
    # u, and each jet plane 2 KiB past the transform plane it differentiates,
    # so no store of a transform or a jet false-aliases the loads it runs
    # ahead of (m_x = 8 fields sit 16 B apart modulo 1 MiB where numpy
    # places them); m_x = 5 is swept as one slab of all its planes
    seen = []

    def grad_sq_pass(values, grid, weight):
        seen.append((values, weight))
        return lattice.grad_sq_pass(values, grid, weight)

    monkeypatch.setattr(energy_module, "grad_sq_pass", grad_sq_pass)
    u = initial_field(flow_config(m=m))
    calls = kernel_calls(monkeypatch)
    derf_rhs(u, -0.05)

    def gap(out, src):
        return (out - src) % 4096

    ((log_u, weight),) = seen
    assert weight is u.values and gap(log_u.ctypes.data, u.values.ctypes.data) == 2048
    assert log_u.tobytes() == np.log(u.values).tobytes()
    plane = u.values.size // m
    jets = [args for name, args in calls if name == "difference_jet"]
    assert jets and (m < 8 or {start // plane for _, _, _, start, *_ in jets} == set(range(m)))
    for g_tab, first_tab, lap_tab, start, *_ in jets:
        x = start // plane if m == 8 else 0
        held = np.flatnonzero(g_tab)
        assert {gap(int(g_tab[y]), u.values.ctypes.data + 8 * plane * y) for y in held} == {2048}
        assert [gap(first_tab[x], g_tab[x]), gap(lap_tab[x], g_tab[x])] == [2048] * 2


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3)])
def test_the_swept_derf_rhs_has_the_bits_of_the_all_planes_route(n, m, workers, monkeypatch):
    # a record swept plane by plane, with blocks of 4096 points that
    # straddle the planes and the workers' shares, against the same record
    # with every plane held (the whole field as one slab) and against the
    # whole-jet routes of the P-pairing and the production integrals (the
    # Hessian pass over the handed first differences of a jet_pass): every
    # EnergyReport field, the production integrals and the P-pairing, with
    # ==.  Each window slot is filled with NaN before it takes a plane, so
    # a read of a plane that left the window, or of one not yet made, shows;
    # at m_x <= 4 the ring of jet slots holds every plane, so the jets made
    # again at the sweep's end take the slots their planes are read from
    # (at m_x = 2 the planes x_0 - 1 and x_0 + 1 are one plane)
    monkeypatch.setattr(lattice, "WORKERS", workers)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", 4096)
    alpha = -0.05
    grid = make_grid(n, m)
    u = ScalarField(grid, 1.0 + 0.3 * np.random.default_rng(m).random(grid.shape))
    assert grid.size // m < lattice.WINDOW_PLANE_POINTS  # all planes held
    reports = [derf_rhs(u, alpha, time=0.5)]
    pairing = handed_p_functional(*lattice.jet_pass(np.sqrt(u.values), grid), grid)
    production = whole_production(u, alpha)
    place = lattice._place

    def poisoned(raw, at, count):
        raw.fill(np.nan)
        return place(raw, at, count)

    monkeypatch.setattr(lattice, "_place", poisoned)
    monkeypatch.setattr(lattice, "WINDOW_PLANE_POINTS", 1)
    reports.append(derf_rhs(u, alpha, time=0.5))
    q = FlowQuantities(u, alpha)
    assert q.P_pair_half == pairing == reports[0].p_functional
    assert q.production == production
    swept, held = (np.array(rep.csv_row()) for rep in reports)
    assert np.array_equal(swept, held, equal_nan=True)
    assert reports[0].min_pF == production.min_deficit


def test_derf_rhs_holds_a_window_of_planes_at_m_x_8(monkeypatch):
    # at m_x = 8 a record's sweeps hold three jet planes (1.875 fields),
    # three transform planes and block arrays, never a whole jet: one
    # derf_rhs peaks at 2.6 fields besides the record; a window that holds
    # the jets of the two planes where a sweep starts (3.8) fails the bound,
    # as whole jets (6.0) do
    monkeypatch.setattr(lattice, "WORKERS", 2)
    u = initial_field(flow_config(m=8))
    derf_rhs(u, -0.05)  # builds the grid's step constants and the twist matrices
    tracemalloc.start()
    try:
        derf_rhs(u, -0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * u.values.nbytes


def test_derf_rhs_at_m_x_9_keeps_the_bits_of_the_all_planes_route(monkeypatch):
    # m_x = 9 is the smallest n = 1 grid swept plane by plane whose tree
    # blocks, at the shipped constants, straddle the x_0 planes, so a block
    # is formed over two rounds: the swept P-pairing and production
    # integrals have the bits of the whole-jet routes with ==, and one
    # derf_rhs peaks within 2.5 fields above u
    monkeypatch.setattr(lattice, "WORKERS", 2)
    alpha = -0.05
    u = initial_field(flow_config(m=9))
    grid = u.grid
    plane = grid.size // grid.m_x
    assert plane >= lattice.WINDOW_PLANE_POINTS
    assert not set(range(0, grid.size, plane)) <= set(lattice._block_bounds(grid.size))
    derf_rhs(u, alpha)  # builds the grid's step constants and the twist matrices
    tracemalloc.start()
    try:
        rep = derf_rhs(u, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * u.values.nbytes
    production = whole_production(u, alpha)
    assert FlowQuantities(u, alpha).production == production
    assert rep.min_pF == production.min_deficit
    assert rep.p_functional == handed_p_functional(*lattice.jet_pass(np.sqrt(u.values), grid),
                                                   grid)


def test_derf_rhs_peaks_within_seven_whole_fields(monkeypatch):
    # every integral of derf_rhs (the energy, the P-pairing and the three
    # production integrals) is formed and summed block by block inside its
    # kernel: besides the record, one evaluation holds f's or F's jet (5
    # fields here), the field it is built from while it is built, and block
    # buffers.  Whole-field integrands (8.5 fields) and whole-field weights
    # and squares (12) fail this.  The workers and the block size are
    # fixed, so the per-worker buffers weigh the same on any host.
    monkeypatch.setattr(lattice, "WORKERS", 2)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", 4096)
    u = initial_field(flow_config(m=6))
    derf_rhs(u, -0.05)  # builds the grid's step constants and the twist matrices
    tracemalloc.start()
    try:
        derf_rhs(u, -0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * u.values.nbytes


def test_derf_rhs_term_L_zero_on_model():
    u = initial_field(flow_config())
    rep = derf_rhs(u, -0.05)
    assert rep.term_L == 0.0


def run_lemma(m, alpha=-0.05, safety=0.1, record_every=2, **kw):
    cfg = flow_config(m=m, alpha=alpha, cfl_safety=safety,
                      record_every=record_every, **kw)
    dt = cfl_timestep(make_grid(1, m), safety)
    cfg.t_end = 2 * record_every * dt * 1.0000001
    states = evolve(cfg)[:3]
    reports = [derf_rhs(st.u, alpha, time=st.time) for st in states]
    return lemma_residual(reports, 1, alpha, states[1].u.grid)


def _constant_reports():
    grid = make_grid(1, 3)
    u = ScalarField(grid, np.full(grid.shape, 1.0))
    return [derf_rhs(u, -0.05, time=k * 0.1) for k in range(3)], grid


def test_lemma_residual_constant_data():
    reports, grid = _constant_reports()
    rep = lemma_residual(reports, 1, -0.05, grid)
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.rhs == pytest.approx(0.0, abs=1e-14)


def test_lemma_residual_needs_neighbors():
    reports, grid = _constant_reports()
    with pytest.raises(IndexError):
        lemma_residual(reports, 0, -0.05, grid)
    with pytest.raises(IndexError):
        lemma_residual(reports, 2, -0.05, grid)


def test_lemma_residual_reads_the_reports():
    # lhs from the neighbours' energies and times, rhs from the middle
    # record's analytic rate, and a norm scale that takes in its terms
    alpha = -0.05
    terms = (-1.0, -0.5, 0.25, -0.0, -0.125)
    reports = [EnergyReport(0.1 * k, 3.0 - 0.5 * k, float("nan"), -4.0, *terms, 0.0, 0.0)
               for k in range(3)]
    grid = make_grid(2, 3)
    rep = lemma_residual(reports, 1, alpha, grid)
    assert rep.lhs == alpha * alpha * (2.0 - 3.0) / (0.2 - 0.0)
    assert rep.rhs == alpha * alpha * -4.0
    assert rep.residual == abs(rep.lhs - rep.rhs)
    assert rep.norm_scale == 1.0
    assert (rep.name, rep.n, rep.m_x) == ("derf", 2, 3)


def test_lemma_residual_decreases_under_refinement():
    r4 = run_lemma(4).relative_residual
    r8 = run_lemma(8).relative_residual
    assert r8 < r4


def _count_derf_and_energy(monkeypatch):
    """Lists that grow by one on each derf_rhs and each energy call;
    derf_rhs is counted in every module that binds it."""
    derf_calls, energy_calls = [], []
    derf = energy_module.derf_rhs

    def counting_derf(*args, **kwargs):
        derf_calls.append(args)
        return derf(*args, **kwargs)

    def counting_energy(u):
        energy_calls.append(u)
        return energy(u)

    for mod in (energy_module, suites_module):
        monkeypatch.setattr(mod, "derf_rhs", counting_derf)
    monkeypatch.setattr(energy_module, "energy", counting_energy)
    return derf_calls, energy_calls


def test_lemma_suite_evaluates_each_record_once(monkeypatch):
    # derf_rhs runs once on each of the three records at each of the two
    # grids, and the energy of no record is evaluated again
    derf_calls, energy_calls = _count_derf_and_energy(monkeypatch)
    lemma_suite()
    assert (len(derf_calls), len(energy_calls)) == (6, 6)


@pytest.mark.parametrize("m", [3, 4])
def test_lemma_suite_has_no_refinement_check_without_a_coarser_grid(m, monkeypatch):
    # max(4, m_x // 2) is the same grid at m_x = 4 and a finer one at 3, so
    # a refinement check would compare the residual with itself or with a
    # finer grid's: it is not applicable, never a pass, and the suite
    # evaluates one grid's three records.  The 6b gate still fails there
    derf_calls, _ = _count_derf_and_energy(monkeypatch)
    report = lemma_suite(m_x=m)
    checks = {c.name: c for c in report.checks}
    check = checks["lemma_residual_decreases_with_refinement"]
    assert check.status == "not_applicable" and "no coarser grid" in check.detail
    assert (check.measured, check.threshold) == (None, None)
    assert len(derf_calls) == 3
    assert checks["lemma_relative_residual"].status == "fail" and not report.passed


def test_lemma_states_are_the_three_records_the_lemma_reads():
    # a horizon of exactly four steps: steps 0, 2 and 4 are recorded, and no
    # fourth record a step later is made and held
    states = _lemma_states(5, -0.05)
    assert [st.step for st in states] == [0, 2, 4]


def test_lemma_mutation_checks_move_one_coefficient_by_one_percent():
    # each applicable mutation check is the lemma residual with that
    # coefficient times 1.01, recomputed here from the middle record's
    # integrals; the Lichnerowicz term is zero on the model
    alpha, m = -0.05, 4
    checks = {c.name: c for c in lemma_suite(m_x=m, alpha=alpha).checks}
    states = _lemma_states(m, alpha)[:3]
    reports = [derf_rhs(st.u, alpha, time=st.time) for st in states]
    base = lemma_residual(reports, 1, alpha, states[1].u.grid)
    q = FlowQuantities(states[1].u, alpha)
    p = q.production
    integrals = (p.I_lap2, p.I_quart, q.P_pair_half, 0.0, p.I_deficit)
    coeffs = derf_coefficients(1, alpha)
    names = ("laplacian", "quartic", "p_functional", "lichnerowicz", "p_deficit")
    for k, name in enumerate(names):
        check = checks[f"mutation_{name}"]
        if coeffs[k] * integrals[k] == 0.0:
            assert check.status == "not_applicable", name
            continue
        mutated = list(coeffs)
        mutated[k] *= 1.01
        by_hand = abs(base.lhs - sum(c * i for c, i in zip(mutated, integrals)))
        assert check.measured * base.residual == pytest.approx(by_hand, rel=1e-12), name


def test_monotonicity_verdict_pipeline():
    m = 4
    cfg = flow_config(m=m, cfl_safety=0.5, record_every=4, t_end=0.02)
    states = evolve(cfg)
    assert len(states) >= 3
    reports = fill_numeric_rates([derf_rhs(st.u, -0.05, time=st.time) for st in states])
    verdict = monotonicity_verdict(reports, -0.05, 1)
    assert verdict.alpha_admissible
    assert verdict.L_nonneg
    assert verdict.p_function_nonneg  # vertically uniform data
    assert verdict.energy_monotone
    assert verdict.counterexample_time is None
    data = verdict.to_dict()
    assert set(data) == {"alpha", "alpha_admissible", "L_nonneg",
                         "p_function_nonneg", "energy_monotone",
                         "counterexample_time", "eps_mono", "eps_p"}


def test_monotonicity_verdict_names_the_record_where_the_energy_rises():
    # the energy rises from record 2 to record 3, so the centred rate at
    # record 2 is positive: the verdict is not monotone, at record 2's time
    terms = (-1.0, -0.5, -0.25, -0.0, -0.125)
    reports = fill_numeric_rates([EnergyReport(0.1 * k, e, float("nan"), -4.0, *terms, -1.0, 0.0)
                                  for k, e in enumerate((3.0, 2.0, 1.0, 2.5))])
    verdict = monotonicity_verdict(reports, -0.05, 1)
    assert verdict.p_function_nonneg
    assert not verdict.energy_monotone
    assert verdict.counterexample_time == reports[2].time == 0.2


def test_monotonicity_verdict_inadmissible_alpha():
    m = 4
    alpha = 0.7
    assert h_polynomial(1, alpha) > 0
    cfg = flow_config(m=m, alpha=alpha, cfl_safety=0.5, record_every=4, t_end=0.01)
    states = evolve(cfg)
    reports = fill_numeric_rates([derf_rhs(st.u, alpha, time=st.time) for st in states])
    verdict = monotonicity_verdict(reports, alpha, 1)
    assert not verdict.alpha_admissible
    lo, hi = alpha_interval(1)
    assert not (lo <= alpha < hi)


def test_energy_series_evaluates_energy_once_per_record(monkeypatch):
    # the package attribute and the import bind the module, not its
    # function energy
    assert inspect.ismodule(energy_module)
    states = evolve(flow_config(m=4, cfl_safety=0.5, record_every=2, t_end=0.004))
    calls = []

    def counting_energy(u):
        calls.append(u)
        return energy(u)

    monkeypatch.setattr(energy_module, "energy", counting_energy)
    reports = fill_numeric_rates([derf_rhs(st.u, -0.05, time=st.time) for st in states])
    assert len(calls) == len(states)
    for k in range(1, len(states) - 1):
        rate = ((energy(states[k + 1].u) - energy(states[k - 1].u))
                / (states[k + 1].time - states[k - 1].time))
        assert reports[k].dF_dt_numeric == rate


def test_energy_series_numeric_rates():
    cfg = flow_config(m=4, cfl_safety=0.5, record_every=2, t_end=0.004)
    states = evolve(cfg)
    reports = fill_numeric_rates([derf_rhs(st.u, -0.05, time=st.time) for st in states])
    assert np.isnan(reports[0].dF_dt_numeric)
    for rep in reports[1:-1]:
        assert np.isfinite(rep.dF_dt_numeric)
        assert rep.dF_dt_numeric < 0  # energy decays on bump data
