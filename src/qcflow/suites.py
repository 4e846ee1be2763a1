"""Named verification suites: every acceptance property as a runnable check.

Each suite returns a SuiteReport listing pass/fail per check with the
measured quantity and its threshold; the CLI serializes reports to JSON
and the test suite asserts on them.  One-directional hypotheses report
status "not_applicable" instead of "fail" when their premise does not
hold (exploratory alpha values, measured positivity hypotheses).
"""
from __future__ import annotations

import itertools
import json
import time
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .algebra import (
    alpha_interval,
    casimir_apply,
    casimir_decompose,
    four_part_decompose,
    h_polynomial,
    lichnerowicz_form,
    lichnerowicz_form_via_ricci,
    random_torsion,
    represtor_combination,
    torsion_contraction,
    twist_matrices,
)
from .energy import (
    derf_rhs,
    fill_numeric_rates,
    lemma_residual,
    monotonicity_verdict,
)
from .flow import (
    FlowConfig,
    cfl_timestep,
    evolve,
    initial_field,
    stream,
)
from .identities import check_alpha, identity_residual
from .lattice import (
    HorizontalField,
    ScalarField,
    group_inverse,
    group_multiply,
    GroupPoint,
    integrate,
    grid_inner,
    hessian_pass,
    make_grid,
    periodized_bump,
)
from .operators import divergence, reeb_derivative, sub_laplacian

FORMAT_VERSION = "qcflow-report-1"


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "not_applicable"
    measured: float | None = None
    threshold: float | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_dict(self):
        return asdict(self)


@dataclass
class SuiteReport:
    suite: str
    seed: int
    config: dict
    checks: list
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        # wall-clock time stays out of the artifact so identical
        # configurations serialize byte-identically
        return {
            "format_version": FORMAT_VERSION,
            "suite": self.suite,
            "seed": self.seed,
            "config": self.config,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


def _verdict(name, measured, threshold, ok, detail=""):
    return CheckResult(name=name, status="pass" if ok else "fail",
                       measured=float(measured) if measured is not None else None,
                       threshold=float(threshold) if threshold is not None else None,
                       detail=detail)


# ---------------------------------------------------------------------------
# criterion 1: pointwise algebra, 500 seeded instances per check
# ---------------------------------------------------------------------------

def algebra_suite(seed: int = 1) -> SuiteReport:
    t0 = time.time()
    rng = np.random.default_rng(seed)
    instances, tol = 500, 1e-12
    worst = {
        "casimir_projections": 0.0,
        "four_part_reassembly": 0.0,
        "four_part_signs": 0.0,
        "torsion_propt": 0.0,
        "lichnerowicz_two_forms": 0.0,
        "represtor": 0.0,
        "torsion_contraction_vs_reeb_oracle": 0.0,
    }
    for k in range(instances):
        n = (1, 2, 3)[k % 3]
        B = twist_matrices(n)
        d = 4 * n
        psi = rng.normal(size=(d, d))
        scale = max(1.0, float(np.max(np.abs(psi))))

        p3, p1 = casimir_decompose(psi)
        err = max(
            np.max(np.abs(p3 + p1 - psi)),
            np.max(np.abs(casimir_apply(p3) - 3.0 * p3)),
            np.max(np.abs(casimir_apply(p1) + p1)),
            np.max(np.abs(casimir_decompose(p3)[1])),
            np.max(np.abs(casimir_decompose(p1)[0])),
        )
        worst["casimir_projections"] = max(worst["casimir_projections"], err / scale)

        parts = four_part_decompose(psi)
        worst["four_part_reassembly"] = max(
            worst["four_part_reassembly"], np.max(np.abs(sum(parts) - psi)) / scale)
        signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
        serr = 0.0
        for part, sgn in zip(parts, signs):
            for Is, eps in zip(B, sgn):
                serr = max(serr, np.max(np.abs(Is @ part - eps * part @ Is)))
        worst["four_part_signs"] = max(worst["four_part_signs"], serr / scale)

        td = random_torsion(n, rng)
        tscale = max(1.0, float(np.max(np.abs(td.T0))), float(np.max(np.abs(td.U))))
        four = td.T0 + sum(Is.T @ td.T0 @ Is for Is in B)
        uerr = max(np.max(np.abs(Is.T @ td.U @ Is - td.U)) for Is in B)
        worst["torsion_propt"] = max(
            worst["torsion_propt"],
            max(np.max(np.abs(four)), uerr, abs(np.trace(td.T0)),
                abs(np.trace(td.U))) / tscale)

        X = rng.normal(size=d)
        if n in (2, 3):
            a = lichnerowicz_form(td, X)
            b = lichnerowicz_form_via_ricci(td, X)
            worst["lichnerowicz_two_forms"] = max(
                worst["lichnerowicz_two_forms"],
                abs(a - b) / max(abs(a), abs(b), 1.0))
        lhs, rhs = represtor_combination(td, X)
        worst["represtor"] = max(worst["represtor"],
                                 abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))

        Y = rng.normal(size=d)
        s = int(rng.integers(0, 3))
        got = torsion_contraction(td, s, X, Y)
        Is = B[s]
        oracle = float(Y @ (td.T0_xi[s] @ (Is @ X)) + Y @ (Is @ td.U @ Is @ X))
        worst["torsion_contraction_vs_reeb_oracle"] = max(
            worst["torsion_contraction_vs_reeb_oracle"],
            abs(got - oracle) / max(abs(got), abs(oracle), 1.0))

    checks = [_verdict(name, value, tol, value <= tol,
                       detail=f"max over {instances} instances, n in 1..3")
              for name, value in worst.items()]
    return SuiteReport("algebra", seed, {"instances": instances},
                       checks, time.time() - t0)


# ---------------------------------------------------------------------------
# criterion 2: admissible exponent interval
# ---------------------------------------------------------------------------

def roots_suite(seed: int = 1) -> SuiteReport:
    t0 = time.time()
    checks = []
    lo, hi = alpha_interval(1)
    closed = (16.0 - 3.0 - np.sqrt(256.0 + 48.0 + 9.0)) / 48.0
    checks.append(_verdict("closed_form_endpoint", abs(lo - closed), 1e-14,
                           abs(lo - closed) <= 1e-14))
    # sign-change bisection of h_1
    a, b = lo - 0.1, lo + 0.1
    for _ in range(80):
        mid = 0.5 * (a + b)
        if h_polynomial(1, mid) > 0:
            a = mid
        else:
            b = mid
    bisected = 0.5 * (a + b)
    checks.append(_verdict("bisection_matches_endpoint", abs(bisected - lo),
                           1e-10, abs(bisected - lo) <= 1e-10))
    for n in (1, 2, 3):
        lo_n, hi_n = alpha_interval(n)
        samples = np.linspace(lo_n, hi_n, 1000, endpoint=False)
        vals = np.array([h_polynomial(n, float(x)) for x in samples])
        checks.append(_verdict(f"h_nonpositive_n{n}", float(vals.max()), 1e-12,
                               bool(np.all(vals <= 1e-12)),
                               detail="1000 interval samples"))
    return SuiteReport("roots", seed, {}, checks, time.time() - t0)


# ---------------------------------------------------------------------------
# criterion 3: discrete geometry exactness at n=1, m_x=3
# ---------------------------------------------------------------------------

def geometry_suite(seed: int = 1, m_x: int = 3) -> SuiteReport:
    t0 = time.time()
    rng = np.random.default_rng(seed)
    grid = make_grid(1, m_x)
    checks = []

    # exhaustive: every step of the reference tables (step_permutation)
    # from every point lands exactly on a grid point (group-law oracle: the
    # landed index equals the true product up to an integer lattice
    # translation)
    worst = 0.0
    tables = {(a, d): grid.step_permutation(a, d) for a in range(4) for d in (-1, 1)}
    steps = {(a, d): GroupPoint(np.eye(4)[a] * d * grid.h_x, np.zeros(3))
             for a, d in tables}
    for flat, idx in enumerate(itertools.product(range(m_x), repeat=7)):
        g = grid.point_at(idx)
        for (a, d), stepper in steps.items():
            q = grid.point_at(np.unravel_index(tables[a, d][flat], grid.shape))
            p = group_multiply(g, stepper)
            gamma = group_multiply(q, group_inverse(p))
            kx = gamma.x / grid.L_x
            kt = gamma.t / grid.L_t
            worst = max(worst,
                        float(np.max(np.abs(kx - np.round(kx)))),
                        float(np.max(np.abs(kt - np.round(kt)))))
    checks.append(_verdict("steps_land_on_grid", worst, 1e-12, worst <= 1e-12,
                           detail=f"exhaustive over {grid.size} points x 8 directions"))

    bijective = all(np.array_equal(np.sort(perm), np.arange(grid.size))
                    for perm in tables.values())
    checks.append(_verdict("step_bijectivity", 0.0 if bijective else 1.0, 0.0,
                           bijective))

    worst_div = 0.0
    for _ in range(100):
        comps = rng.normal(size=(4,) + grid.shape)
        sigma = HorizontalField(grid, np.moveaxis(comps, 0, -1))
        total = integrate(divergence(sigma))
        l1 = grid.cell_volume * float(np.sum(np.abs(comps)))
        worst_div = max(worst_div, abs(total) / max(l1, 1e-30))
    checks.append(_verdict("divergence_integrates_to_zero", worst_div, 1e-12,
                           worst_div <= 1e-12, detail="100 random rough fields"))

    worst_sa = 0.0
    for _ in range(20):
        u = ScalarField(grid, rng.normal(size=grid.shape))
        v = ScalarField(grid, rng.normal(size=grid.shape))
        a_ = grid_inner(sub_laplacian(u), v)
        b_ = grid_inner(u, sub_laplacian(v))
        worst_sa = max(worst_sa, abs(a_ - b_) / max(abs(a_), abs(b_), 1e-30))
    checks.append(_verdict("sub_laplacian_self_adjoint", worst_sa, 1e-12,
                           worst_sa <= 1e-12, detail="20 random pairs"))
    return SuiteReport("geometry", seed, {"m_x": m_x}, checks, time.time() - t0)


# ---------------------------------------------------------------------------
# criterion 4: convergence orders of the calculus identities
# ---------------------------------------------------------------------------

def _unit_peak_field(grid, bump):
    """1 + 0.3 bump / max(bump); a bump that is zero on every grid point is
    refused, since it has no peak to normalise by."""
    peak = bump.values.max()
    if not peak > 0.0:
        raise ValueError(f"the bump is zero on every point of the grid at "
                         f"n={grid.n}, m_x={grid.m_x}")
    return ScalarField(grid, 1.0 + 0.3 * bump.values / peak)


def _uniformish_field(grid):
    return _unit_peak_field(
        grid, periodized_bump(grid, width=0.245, tau_width=0.75, profile="cosine"))


def _rich_field(grid):
    return _unit_peak_field(grid, periodized_bump(grid, width=0.22))


def calculus_suite(seed: int = 1, alpha: float = -0.05) -> SuiteReport:
    check_alpha(alpha)
    t0 = time.time()
    m_lo, m_hi = 4, 8
    checks = []

    rel = {}
    for tag, maker in (("ricci2", _rich_field), ("omega_contraction", _rich_field),
                       ("intform", _rich_field), ("bochner", _uniformish_field),
                       ("gr4", _uniformish_field)):
        rel[tag] = {}
        for m in (m_lo, m_hi):
            grid = make_grid(1, m)
            u = maker(grid)
            if tag == "omega_contraction":
                xi = [reeb_derivative(u, s).values.reshape(-1) for s in range(3)]

                def contract(blk, tr, om, nsq, work, lap, first):
                    # the block sums of (omega_s(H) + 4 xi_s u)^2 per s
                    sq = work[0]
                    sums = []
                    for s in range(3):
                        np.multiply(xi[s][blk], 4.0, out=sq)
                        sq += om[s]
                        sq *= sq
                        sums.append(np.add.reduce(sq))
                    return tuple(sums)

                totals = hessian_pass(u.values, grid, None, contract, with_norm=False,
                                      scratch=((),))
                num = sum(float(t) for t in totals)
                den = sum(float(np.sum((4.0 * x) ** 2)) for x in xi)
                rel[tag][m] = np.sqrt(num) / max(np.sqrt(den), 1e-30)
            else:
                rel[tag][m] = identity_residual(tag, u).relative_residual

    r = rel["ricci2"][m_lo] / max(rel["ricci2"][m_hi], 1e-30)
    checks.append(_verdict("ricci2_ratio_in_[3,5]", r, 3.0, 3.0 <= r <= 5.0,
                           detail=f"rel {rel['ricci2'][m_lo]:.3g} -> {rel['ricci2'][m_hi]:.3g}"))
    r = rel["omega_contraction"][m_lo] / max(rel["omega_contraction"][m_hi], 1e-30)
    checks.append(_verdict("omega_contraction_ratio_in_[3,5]", r, 3.0,
                           3.0 <= r <= 5.0,
                           detail=f"rel {rel['omega_contraction'][m_lo]:.3g} -> "
                                  f"{rel['omega_contraction'][m_hi]:.3g}"))
    r = rel["bochner"][m_lo] / max(rel["bochner"][m_hi], 1e-30)
    checks.append(_verdict("bochner_ratio_ge_2", r, 2.0, r >= 2.0,
                           detail=f"rel {rel['bochner'][m_lo]:.3g} -> {rel['bochner'][m_hi]:.3g}"))
    for tag in ("gr4", "intform"):
        r = rel[tag][m_lo] / max(rel[tag][m_hi], 1e-30)
        checks.append(_verdict(f"{tag}_decreasing_ratio_ge_2", r, 2.0,
                               rel[tag][m_hi] < rel[tag][m_lo] and r >= 2.0,
                               detail=f"rel {rel[tag][m_lo]:.3g} -> {rel[tag][m_hi]:.3g}"))

    # hessian-norm decomposition: pointwise non-negative remainder with
    # shrinking (here: machine-zero) slack
    slacks = {}
    for m in (m_lo, m_hi):
        grid = make_grid(1, m)
        u = _rich_field(grid)
        rep = identity_residual("hesrep_contraction", u, alpha)
        slacks[m] = max(0.0, -rep.lhs) / rep.norm_scale
    ok = slacks[m_hi] <= max(0.5 * slacks[m_lo], 1e-13)
    checks.append(_verdict("min_pF_nonnegative_slack_shrinks", slacks[m_hi],
                           max(0.5 * slacks[m_lo], 1e-13), ok,
                           detail=f"relative slack {slacks[m_lo]:.3g} -> {slacks[m_hi]:.3g}"))
    return SuiteReport("calculus", seed, {"m_pair": [m_lo, m_hi], "alpha": alpha},
                       checks, time.time() - t0)


# ---------------------------------------------------------------------------
# criterion 5: flow invariants over 200 steps at m_x = 8
# ---------------------------------------------------------------------------

def flow_suite(seed: int = 1, m_x: int = 8, steps: int = 200) -> SuiteReport:
    t0 = time.time()
    grid = make_grid(1, m_x)
    cfg = FlowConfig(n=1, m_x=m_x, cfl_safety=0.9, record_every=max(1, steps),
                     width=0.22, amplitude=0.3, offset=1.0, tau_profile="uniform",
                     t_end=steps * cfl_timestep(grid, 0.9))
    u = initial_field(cfg, grid)

    # each step measures the mass, min and max of the field it makes; the
    # reruns below stream the same cfg, so they make as many steps
    range_ok = True
    for st in stream(cfg, u, measure=True):
        if st.step == 0:
            first = st
        elif st.lo < first.lo or st.hi > first.hi:
            range_ok = False
    if st.step != steps:
        raise RuntimeError(f"the stream made {st.step} steps, not {steps}")
    v = st.u
    drift = abs(st.mass - first.mass) / abs(first.mass)
    checks = [
        _verdict("mass_drift", drift, 1e-12, drift <= 1e-12,
                 detail=f"{steps} steps"),
        _verdict("range_never_expands", 0.0 if range_ok else 1.0, 0.0, range_ok,
                 detail="exact inequality per step"),
    ]

    # linearity over the same horizon; a deque of length 1 keeps only the
    # latest state, where `*_, last = stream(...)` would hold every field
    a_, b_ = 1.7, 0.4
    w = deque(stream(cfg, ScalarField(grid, a_ * u.values + b_)), maxlen=1)[0].u
    lin_err = float(np.max(np.abs(w.values - (a_ * v.values + b_))))
    lin_scale = float(np.max(np.abs(w.values)))
    checks.append(_verdict("linearity", lin_err / lin_scale, 1e-12,
                           lin_err <= 1e-12 * lin_scale))

    # determinism: an independent rerun is bit-identical
    v2 = deque(stream(cfg, u), maxlen=1)[0].u
    identical = np.array_equal(v.values, v2.values)
    checks.append(_verdict("determinism_bit_identical",
                           0.0 if identical else 1.0, 0.0, identical))
    return SuiteReport("flow", seed, {"m_x": m_x, "steps": steps}, checks,
                       time.time() - t0)


# ---------------------------------------------------------------------------
# criterion 6: the energy-production formula along the flow
# ---------------------------------------------------------------------------

def _lemma_states(m_x: int, alpha: float):
    """The records of a short flow at n = 1: a horizon of four steps makes
    4 steps and 3 records, at steps 0, 2 and 4, the three the lemma reads."""
    safety, record_every = 0.1, 2
    grid = make_grid(1, m_x)
    dt = cfl_timestep(grid, safety)
    cfg = FlowConfig(n=1, m_x=m_x, alpha=alpha, cfl_safety=safety,
                     record_every=record_every, width=0.245, amplitude=0.3,
                     offset=1.0, tau_profile="uniform",
                     t_end=2 * record_every * dt)
    return evolve(cfg)


def _lemma_residual(m_x: int, alpha: float):
    """The lemma residual at the middle of the three records at m_x, from
    one derf_rhs each, and the middle record's report."""
    states = _lemma_states(m_x, alpha)
    reports = [derf_rhs(st.u, alpha, time=st.time) for st in states]
    return lemma_residual(reports, 1, alpha, states[1].u.grid), reports[1]


def lemma_suite(seed: int = 1, m_x: int = 8, alpha: float = -0.05) -> SuiteReport:
    """The energy-production formula along the flow (criterion 6): the
    lemma residual at m_x and at the coarser max(4, m_x // 2) (at m_x <= 4
    there is none, and that check is not applicable), from derf_rhs on the
    three records of each grid, and the mutation checks, read from them."""
    t0 = time.time()
    checks = []
    rep, mid = _lemma_residual(m_x, alpha)
    checks.append(_verdict("lemma_relative_residual", rep.relative_residual,
                           2e-2, rep.relative_residual <= 2e-2,
                           detail=f"m_x={m_x}, alpha={alpha}"))

    coarse, name = max(4, m_x // 2), "lemma_residual_decreases_with_refinement"
    if coarse >= m_x:
        checks.append(CheckResult(name, "not_applicable",
                                  detail=f"max(4, m_x // 2) = {coarse} is no coarser grid"))
    else:
        r_lo, r = _lemma_residual(coarse, alpha)[0].relative_residual, rep.relative_residual
        checks.append(_verdict(name, r / max(r_lo, 1e-30), 1.0, r < r_lo,
                               detail=f"rel {r_lo:.3g} -> {r:.3g}"))

    # mutation sensitivity: a 1% error in a coefficient whose term is
    # nonzero on the model moves the right side by 1% of that term (the
    # Lichnerowicz coefficient multiplies an identically zero integral here
    # and cannot move the residual)
    base = rep.residual
    names = ("laplacian", "quartic", "p_functional", "lichnerowicz", "p_deficit")
    for name, term in zip(names, mid.terms()):
        if term == 0.0:
            checks.append(CheckResult(
                name=f"mutation_{name}", status="not_applicable",
                detail="term identically zero on the flat model"))
            continue
        inflation = abs(rep.lhs - rep.rhs - 0.01 * term) / max(base, 1e-300)
        checks.append(_verdict(f"mutation_{name}", inflation, 10.0,
                               inflation >= 10.0,
                               detail=f"term={term:.3g}"))
    return SuiteReport("lemma", seed, {"m_x": m_x, "alpha": alpha}, checks,
                       time.time() - t0)


# ---------------------------------------------------------------------------
# criterion 7: the monotonicity theorem gate
# ---------------------------------------------------------------------------

def theorem_configs(seed: int, m_x: int = 6, alpha: float = -0.05):
    """Five seeded bump configurations: three vertically uniform and two
    vertically structured.  At m_x = 6, seed 1, all five meet the measured
    positivity hypothesis, the structured ones included (largest
    P-pairings -8.09e-5 for run3 and -2.12e-5 for run4), so no run reaches
    the hypothesis-not-met path.  A horizon of 64 steps times 1.0000001
    makes 65 whole steps (stream rounds it up) and 10 records, at steps 0,
    8, ..., 64 and 65."""
    rng = np.random.default_rng(seed)
    configs = []
    for k in range(5):
        width = float(rng.uniform(0.2, 0.245))
        amplitude = float(rng.uniform(0.2, 0.4))
        tau_profile = "uniform" if k < 3 else None
        grid = make_grid(1, m_x)
        dt = cfl_timestep(grid, 0.5)
        record_every = 8
        cfg = FlowConfig(n=1, m_x=m_x, alpha=alpha, cfl_safety=0.5,
                         record_every=record_every, width=width,
                         amplitude=amplitude, offset=1.0,
                         tau_profile=tau_profile,
                         t_end=8 * record_every * dt * 1.0000001)
        configs.append(cfg)
    return configs


def theorem_suite(seed: int = 1, m_x: int = 6, alpha: float = -0.05) -> SuiteReport:
    t0 = time.time()
    checks = []
    lo, hi = alpha_interval(1)
    admissible = lo <= alpha < hi
    checks.append(_verdict("alpha_admissible", alpha, lo, admissible,
                           detail=f"interval [{lo:.6f}, {hi})"))
    met_and_monotone = 0
    hypothesis_met_runs = 0
    for k, cfg in enumerate(theorem_configs(seed, m_x, alpha)):
        name = f"run{k}_{'uniform' if cfg.tau_profile == 'uniform' else 'structured'}"
        if not admissible:
            checks.append(CheckResult(name=name, status="not_applicable",
                                      detail="alpha outside the admissible interval"))
            continue
        # one record at a time: each field is dropped once its report exists
        reports = fill_numeric_rates([derf_rhs(st.u, alpha, time=st.time)
                                      for st in stream(cfg) if st.record])
        verdict = monotonicity_verdict(reports, alpha, cfg.n)
        if not verdict.p_function_nonneg:
            checks.append(CheckResult(
                name=name, status="not_applicable",
                measured=max(r.p_functional for r in reports),
                detail="P-function hypothesis not met (measured)"))
            continue
        hypothesis_met_runs += 1
        eps = verdict.eps_mono
        rates = [r.dF_dt_numeric for r in reports if np.isfinite(r.dF_dt_numeric)]
        worst_rate = max(rates) if rates else 0.0
        worst_term = max(max(r.terms()) for r in reports)
        ok = verdict.energy_monotone and worst_term <= eps
        if ok:
            met_and_monotone += 1
        checks.append(_verdict(name, max(worst_rate, worst_term), eps, ok,
                               detail=f"records={len(reports)}, "
                                      f"max p_functional="
                                      f"{max(r.p_functional for r in reports):.3g}"))
    if admissible:
        checks.append(_verdict("hypothesis_met_monotone_runs", met_and_monotone,
                               3, met_and_monotone >= 3,
                               detail=f"{hypothesis_met_runs} runs met the hypotheses"))
    return SuiteReport("theorem", seed, {"m_x": m_x, "alpha": alpha}, checks,
                       time.time() - t0)


SUITE_BUILDERS = {
    "algebra": algebra_suite,
    "roots": roots_suite,
    "geometry": geometry_suite,
    "calculus": calculus_suite,
    "flow": flow_suite,
    "lemma": lemma_suite,
    "theorem": theorem_suite,
}
SUITE_NAMES = tuple(SUITE_BUILDERS)


def run_suite(name: str, seed: int = 1, **kw) -> SuiteReport:
    if name not in SUITE_BUILDERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES} or 'all'")
    return SUITE_BUILDERS[name](seed=seed, **kw)
