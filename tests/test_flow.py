"""Tests for the explicit heat integrator."""
import hashlib
import itertools
import weakref
from pathlib import Path

import numpy as np
import pytest

from qcflow import flow, lattice
from qcflow.flow import (
    FlowConfig,
    cfl_timestep,
    euler_step,
    evolve,
    initial_field,
    stream,
)
from qcflow.lattice import ScalarField, integrate, make_grid
from qcflow.operators import sub_laplacian

from oracles import grad_h, step_cases


def small_config(**kw):
    base = dict(n=1, m_x=4, alpha=-0.05, cfl_safety=0.9, t_end=0.002,
                record_every=1, width=0.2, amplitude=0.3, offset=1.0,
                tau_profile="uniform")
    base.update(kw)
    return FlowConfig(**base)


def heat_step(u, dt):
    """One Euler step from a scan of u's minimum, through euler_step's
    CFL and positivity guards."""
    return euler_step(u, dt, float(u.values.min()))[0]


def test_cfl_value_and_scaling():
    grid = make_grid(1, 8)
    dt = cfl_timestep(grid, 1.0)
    assert dt == pytest.approx((1.0 / 64.0) / 16.0, rel=1e-15)
    grid2 = make_grid(1, 16)
    assert cfl_timestep(grid2, 1.0) == pytest.approx(dt / 4.0, rel=1e-15)
    with pytest.raises(ValueError):
        cfl_timestep(grid, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(alpha=0.0)
    with pytest.raises(ValueError):
        small_config(alpha=0.5)
    with pytest.raises(ValueError):
        small_config(cfl_safety=0.0)
    with pytest.raises(ValueError):
        small_config(offset=0.1, amplitude=0.3)
    with pytest.raises(ValueError):
        small_config(record_every=0)
    # an infinite t_end overflowed the step count, and a NaN alpha ran to
    # the end with NaN energies
    for name in ("alpha", "amplitude", "offset", "t_end"):
        for value in (float("inf"), -float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                small_config(**{name: value})
    # under a smooth vertical profile, tau_width = inf overflows the bump, NaN
    # makes it NaN, 0 makes it constant and a negative width acts as |tau_width|
    for value in (float("inf"), -float("inf"), float("nan"), 0.0, -0.05):
        with pytest.raises(ValueError, match="tau_width must be finite and > 0"):
            small_config(tau_profile="smooth", tau_width=value)
    # a negative horizon made 0 steps and one record; t_end = 0 stays valid
    for value in (-1.0, -1e-300):
        with pytest.raises(ValueError, match="t_end must be >= 0"):
            small_config(t_end=value)
    assert small_config(t_end=0.0).t_end == 0.0


def test_initial_field_refuses_a_bump_that_is_zero_on_every_grid_point():
    # at m_x = 3 a bump of width 0.05 reaches no grid point, so it has no
    # peak to normalize by
    with pytest.raises(ValueError, match="zero on every point"):
        initial_field(small_config(m_x=3, width=0.05))


def test_heat_step_constant_fixed_point():
    grid = make_grid(1, 4)
    u = ScalarField(grid, np.full(grid.shape, 1.5))
    dt = cfl_timestep(grid, 0.9)
    v = heat_step(u, dt)
    assert np.array_equal(v.values, u.values)


def test_heat_step_guards():
    grid = make_grid(1, 4)
    u = ScalarField(grid, np.full(grid.shape, 1.0))
    with pytest.raises(ValueError):
        heat_step(u, cfl_timestep(grid, 1.0) * 2.0)
    # a negative dt steps the flow backwards, which widens the range, and
    # a NaN dt makes every value NaN
    for dt in (-1e-4, 0.0, float("nan")):
        with pytest.raises(ValueError, match="must be positive and within the CFL bound"):
            heat_step(u, dt)
    bad = ScalarField(grid, np.zeros(grid.shape))
    with pytest.raises(ValueError):
        heat_step(bad, cfl_timestep(grid, 0.5))


def test_heat_step_mass_and_range():
    cfg = small_config(m_x=4)
    u = initial_field(cfg)
    grid = u.grid
    dt = cfl_timestep(grid, 0.9)
    mass0 = integrate(u)
    lo0, hi0 = u.values.min(), u.values.max()
    v = u
    for _ in range(50):
        v = heat_step(v, dt)
        assert v.values.min() >= lo0
        assert v.values.max() <= hi0
    assert abs(integrate(v) - mass0) <= 1e-12 * abs(mass0)
    # contraction toward the mean
    mean = mass0 / (grid.cell_volume * grid.size)
    assert np.max(np.abs(v.values - mean)) < np.max(np.abs(u.values - mean))


def test_evolve_t_end_zero_returns_initial():
    cfg = small_config(t_end=0.0)
    states = evolve(cfg)
    assert len(states) == 1
    assert states[0].step == 0


def test_evolve_deterministic():
    cfg = small_config()
    a = evolve(cfg)
    b = evolve(cfg)
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.u.values, sb.u.values)
        assert sa.time == sb.time


def test_evolve_linearity():
    # the update is linear and constants are fixed points
    cfg = small_config(t_end=0.003)
    u0 = initial_field(cfg)
    grid = u0.grid
    a, b = 1.7, 0.4
    scaled = ScalarField(grid, a * u0.values + b)
    st1 = [st for st in stream(cfg, u0) if st.record]
    st2 = [st for st in stream(cfg, scaled) if st.record]
    for s1, s2 in zip(st1, st2):
        expect = a * s1.u.values + b
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(s2.u.values - expect)) <= 1e-12 * scale


def test_evolve_decays_to_mean():
    cfg = small_config(m_x=4, t_end=0.25, record_every=64)
    states = evolve(cfg)
    u_end = states[-1].u
    mean = integrate(u_end) / (u_end.grid.cell_volume * u_end.grid.size)
    dev0 = np.max(np.abs(states[0].u.values - mean))
    dev = np.max(np.abs(u_end.values - mean)) / mean
    assert dev < 1e-3
    assert dev0 > 1e-2


# sha256 of the little-endian field after 20 Euler steps at m_x = 4 from
# vertically structured data; pins the rounding of the stepper
EULER_20_STEPS_SHA256 = "b353588208f4bedc4498ab86d4e7171289a8cb767d83e24af67a76695aae03ad"


def test_euler_rounding_is_pinned():
    cfg = small_config(tau_profile=None)
    grid = make_grid(1, 4)
    u = initial_field(cfg, grid)
    dt = cfl_timestep(grid, 0.9)
    for _ in range(20):
        u = heat_step(u, dt)
    digest = hashlib.sha256(u.values.astype("<f8").tobytes()).hexdigest()
    assert digest == EULER_20_STEPS_SHA256


@pytest.mark.parametrize("n, m, workers", step_cases((1, 2)))
def test_fused_euler_update_matches_the_step_tables(n, m, workers, monkeypatch):
    # the C update against the numpy one through np.take of the reference
    # step tables: the first axis gives acc = (u+ + u-) - 2u, each later one
    # adds its own, and the new field is u + acc * w.  Blocks of a little
    # over two vertical fibres cut fibres at m = 3, 5, 6 and 7, so both
    # whole fibres and the runs of cut ones are read; at m = 7 they cut the
    # rows of the row body too, and at m = 8 they leave its rows whole
    monkeypatch.setattr(lattice, "WORKERS", workers)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", max(128, 2 * m ** 3 + 1))
    grid = make_grid(n, m)
    if m in (3, 5, 6, 7):
        assert any(b % m ** 3 for b in lattice._block_bounds(grid.size))
    values = 1.0 + 0.3 * np.random.default_rng(m).random(grid.size)
    two_u = values * 2.0
    for a in range(grid.dim_h):
        term = (np.take(values, grid.step_permutation(a, 1))
                + np.take(values, grid.step_permutation(a, -1))) - two_u
        acc = term if a == 0 else acc + term
    w = cfl_timestep(grid, 0.9) / (grid.h_x * grid.h_x)
    new = (values + acc * w).reshape(grid.shape)
    got, mass, lo, hi = lattice.euler_pass(values.reshape(grid.shape), grid, w, True)
    assert got.tobytes() == new.tobytes()
    assert mass == integrate(ScalarField(grid, new))
    assert (lo, hi) == (float(new.min()), float(new.max()))
    got, mass, lo, hi = lattice.euler_pass(values.reshape(grid.shape), grid, w, False)
    assert got.tobytes() == new.tobytes() and (mass, lo, hi) == (None, float(new.min()), None)


def test_the_contraction_guard_keeps_the_euler_bits(tmp_path, monkeypatch):
    # the guard matters: with fused multiply-adds allowed, u + acc * w is
    # rounded once instead of twice and the pinned Euler bits move, while
    # the shipped flags, built afresh, reproduce them
    cpuinfo = Path("/proc/cpuinfo")
    if not cpuinfo.exists() or "fma" not in cpuinfo.read_text().split():
        pytest.skip("the CPU has no fma flag")

    def euler_20_steps_digest():
        grid = make_grid(1, 4)
        u = initial_field(small_config(tau_profile=None), grid)
        dt = cfl_timestep(grid, 0.9)
        for _ in range(20):
            u = heat_step(u, dt)
        return hashlib.sha256(u.values.astype("<f8").tobytes()).hexdigest()

    shipped = lattice._CFLAGS
    monkeypatch.setattr(lattice, "_STEPS_DIR", str(tmp_path))
    monkeypatch.setattr(lattice, "_CFLAGS",
                        ("-O3", "-mfma", "-ffp-contract=fast", "-shared", "-fPIC"))
    monkeypatch.setattr(lattice, "_steps_lib", None)
    try:
        lattice._step_kernel()
    except RuntimeError as exc:
        pytest.skip(f"the compiler refuses -mfma: {exc}")
    fused = euler_20_steps_digest()
    monkeypatch.setattr(lattice, "_CFLAGS", shipped)
    monkeypatch.setattr(lattice, "_steps_lib", None)
    assert euler_20_steps_digest() == EULER_20_STEPS_SHA256
    assert fused != EULER_20_STEPS_SHA256
    assert len(list(tmp_path.iterdir())) == 2


def test_evolve_records_hold_distinct_states():
    # the records of stream(cfg, u0) hold the stepped fields themselves, not
    # copies: each is its own array, u0 is left untouched, and the record
    # after 20 steps carries the pinned Euler bits
    grid = make_grid(1, 4)
    dt = cfl_timestep(grid, 0.9)
    cfg = small_config(tau_profile=None, t_end=20 * dt, record_every=5)
    u0 = initial_field(cfg, grid)
    before = u0.values.copy()
    states = [st for st in stream(cfg, u0) if st.record]
    assert [st.step for st in states] == [0, 5, 10, 15, 20]
    arrays = [u0.values] + [st.u.values for st in states]
    for x, y in itertools.combinations(arrays, 2):
        assert not np.shares_memory(x, y)
    assert np.array_equal(u0.values, before)
    digest = hashlib.sha256(states[-1].u.values.astype("<f8").tobytes()).hexdigest()
    assert digest == EULER_20_STEPS_SHA256


def test_stream_yields_every_step_and_marks_the_records():
    grid = make_grid(1, 4)
    dt = cfl_timestep(grid, 0.9)
    cfg = small_config(tau_profile=None, t_end=20 * dt, record_every=8)
    states = list(stream(cfg))
    assert [st.step for st in states] == list(range(21))
    assert [st.time for st in states] == [k * dt for k in range(21)]
    assert [st.step for st in states if st.record] == [0, 8, 16, 20]
    records = evolve(cfg)
    assert [st.step for st in records] == [0, 8, 16, 20]
    for st, rec in zip([st for st in states if st.record], records):
        assert st.u.values.tobytes() == rec.u.values.tobytes()
    digest = hashlib.sha256(states[-1].u.values.astype("<f8").tobytes()).hexdigest()
    assert digest == EULER_20_STEPS_SHA256
    # every state carries the min of its field as its step measured it, and
    # with measure also the mass and the max, with the bits of a scan
    for st in states:
        assert (st.mass, st.lo, st.hi) == (None, float(st.u.values.min()), None)
    measured = list(stream(cfg, measure=True))
    assert [st.u.values.tobytes() for st in measured] == [st.u.values.tobytes() for st in states]
    for st in measured:
        assert (st.mass, st.lo, st.hi) == (integrate(st.u), float(st.u.values.min()),
                                           float(st.u.values.max()))


def test_stream_aborts_at_the_step_that_loses_positivity(monkeypatch):
    real_step = flow.euler_step

    def losing_step(u, dt, u_min, measure=False):
        v, mass, _, hi = real_step(u, dt, u_min, measure)
        return v, mass, 0.0, hi

    monkeypatch.setattr(flow, "euler_step", losing_step)
    states = flow.stream(small_config())
    assert next(states).step == 0
    with pytest.raises(RuntimeError, match="positivity lost at step 1:"):
        next(states)


def test_stream_keeps_only_the_latest_field():
    # a consumer that drops a state drops its field: the stream itself
    # holds the latest state alone
    grid = make_grid(1, 4)
    cfg = small_config(tau_profile=None, t_end=3 * cfl_timestep(grid, 0.9))
    states = stream(cfg)
    seen = [weakref.ref(next(states).u)]
    for _ in range(3):
        current = next(states).u
        assert [ref() is None for ref in seen] == [True] * len(seen)
        seen.append(weakref.ref(current))
        del current


@pytest.mark.parametrize("m", [5, 8])
def test_a_yielded_state_keeps_its_bytes_after_later_steps(m):
    # each step places its field in a longer array of its own: a state the
    # stream yielded is not written by the steps after it
    grid = make_grid(1, m)
    cfg = small_config(m_x=m, t_end=4 * cfl_timestep(grid, 0.9))
    states = stream(cfg)
    next(states)
    kept = next(states).u
    before = kept.values.tobytes()
    later = [next(states).u.values for _ in range(3)]
    assert kept.values.tobytes() == before
    for values in later:
        assert not np.shares_memory(values, kept.values)


@pytest.mark.parametrize("tau_profile", ["uniform", None])
def test_initial_field_has_the_bits_of_the_normalised_bump(tau_profile):
    # the in-place normalisation against offset + amplitude * (bump / peak)
    # with the peak of |bump| taken over a field of |bump|
    cfg = small_config(m_x=5, tau_profile=tau_profile, amplitude=0.35, offset=1.3)
    grid = make_grid(1, 5)
    if tau_profile == "uniform":
        bump = lattice.vertically_uniform_bump(grid, width=cfg.width).values
    else:
        bump = lattice.periodized_bump(grid, width=cfg.width).values
    want = cfg.offset + cfg.amplitude * (bump / np.max(np.abs(bump)))
    assert initial_field(cfg, grid).values.tobytes() == want.tobytes()


def test_blocked_step_matches_whole_field_pass():
    # the blocked update against u + w * acc from the whole-field stencil;
    # m_x = 5 spans several point blocks, the last one partial
    for m in (4, 5):
        grid = make_grid(1, m)
        u = initial_field(small_config(m_x=m, tau_profile=None), grid)
        dt = cfl_timestep(grid, 0.9)
        flat = u.values.reshape(-1)
        acc = np.zeros_like(flat)
        for a in range(grid.dim_h):
            up = np.take(flat, grid.step_permutation(a, +1))
            up += np.take(flat, grid.step_permutation(a, -1))
            up -= 2.0 * flat
            acc += up
        w = dt / (grid.h_x * grid.h_x)
        expected = u.values + w * acc.reshape(grid.shape)
        assert heat_step(u, dt).values.tobytes() == expected.tobytes()


def _connect_residuals(m, alpha=-0.05):
    cfg = small_config(m_x=m)
    u = initial_field(cfg)
    grid = u.grid
    phi = ScalarField(grid, -np.log(u.values))
    F = ScalarField(grid, np.power(u.values, alpha))
    gphi = grad_h(phi).components
    gF = grad_h(F).components
    gphi_sq = sum(gphi[..., a] ** 2 for a in range(grid.dim_h))
    gF_sq = sum(gF[..., a] ** 2 for a in range(grid.dim_h))
    Finv = 1.0 / F.values
    r1 = gphi_sq - (alpha ** -2) * Finv ** 2 * gF_sq
    lapphi = sub_laplacian(phi).values
    lapF = sub_laplacian(F).values
    r2 = lapphi + (1.0 / alpha) * (Finv ** 2 * gF_sq + Finv * lapF)
    s1 = np.sqrt(np.mean(r1 ** 2)) / max(np.sqrt(np.mean(gphi_sq ** 2)), 1e-30)
    s2 = np.sqrt(np.mean(r2 ** 2)) / max(np.sqrt(np.mean(lapphi ** 2)), 1e-30)
    return s1, s2


def test_connect_identities_improve():
    a4 = _connect_residuals(4)
    a8 = _connect_residuals(8)
    assert a8[0] < a4[0]
    assert a8[1] < a4[1]
    assert a8[0] < 0.05
