"""Tests for the discrete horizontal calculus."""
import inspect
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import qcflow.energy as energy_module
from qcflow import algebra, flow, identities, lattice, operators
from qcflow.energy import energy
from qcflow.identities import FlowQuantities, bochner_residual, identity_residual
from qcflow.lattice import (
    ScalarField,
    default_center,
    grid_inner,
    integrate,
    make_grid,
    periodized_bump,
    twist_matrices,
    vertically_uniform_bump,
)
from qcflow.operators import (
    DifferenceJet,
    divergence,
    p_functional,
    reeb_derivative,
    sub_laplacian,
)

from oracles import c_operator, grad_h, handed_p_functional, p_form, shift, third_contractions


def make_bump_field(m, width=0.22, tau_width=None, amplitude=1.0, offset=0.0,
                    profile="smooth"):
    grid = make_grid(1, m)
    return periodized_bump(grid, width=width, amplitude=amplitude,
                           offset=offset, tau_width=tau_width, profile=profile)


def xonly_field(grid, rng=None, smooth=True):
    """Field constant along the vertical axes."""
    m = grid.m_x
    if smooth:
        xs = np.arange(m) / m
        vals = np.ones((m,) * 4)
        for k in range(4):
            vals = vals * (1.0 + 0.4 * np.sin(2 * np.pi * xs + 0.7 * k)).reshape(
                (1,) * k + (-1,) + (1,) * (3 - k))
    else:
        vals = rng.normal(size=(m,) * 4)
    full = np.broadcast_to(vals[..., None, None, None], grid.shape).copy()
    return ScalarField(grid, full)


def test_grad_of_constant_is_zero():
    grid = make_grid(1, 4)
    f = ScalarField(grid, np.full(grid.shape, 2.5))
    g = grad_h(f)
    assert np.max(np.abs(g.components)) == 0.0
    assert np.max(np.abs(sub_laplacian(f).values)) == 0.0
    for s in range(3):
        assert np.max(np.abs(reeb_derivative(f, s).values)) == 0.0


def test_grad_xonly_equals_euclidean():
    # the vertical twist contributes nothing on vertically constant fields,
    # so the twisted stencil reduces exactly to the plain Euclidean one
    grid = make_grid(1, 5)
    rng = np.random.default_rng(3)
    f = xonly_field(grid, rng, smooth=False)
    g = grad_h(f)
    for a in range(4):
        plain = (np.roll(f.values, -1, axis=a) - np.roll(f.values, +1, axis=a)) / (2 * grid.h_x)
        assert np.array_equal(g.components[..., a], plain)


def test_grad_matches_analytic_xonly_bump_derivative():
    # vertically uniform data: the gradient should match the analytic
    # derivative of the horizontal mollifier with clean second-order decay
    width = 0.22
    errs = {}
    for m in (4, 8):
        grid = make_grid(1, m)
        from qcflow.lattice import vertically_uniform_bump
        f = vertically_uniform_bump(grid, width=width)
        g = grad_h(f)
        # vertical partition of unity contributes a constant factor
        C = float(np.max(f.values))
        W = 2.0 * width
        center = default_center(grid)
        rng = np.random.default_rng(5)
        max_err, max_scale = 0.0, 1e-30
        for _ in range(60):
            idx = tuple(rng.integers(0, m, size=7))
            p = grid.point_at(idx)
            for ell in np.ndindex(*(3,) * 4):
                lvec = (np.array(ell) - 1).astype(float)
                y = p.x + lvec - center.x
                q = float(y @ y)
                if q < W * W:
                    chi = math.exp(-q / (W * W - q))
                    dchi_dq = chi * (-(W * W) / (W * W - q) ** 2)
                    for a in range(4):
                        oracle = C * dchi_dq * 2.0 * y[a]
                        got = g.components[idx + (a,)]
                        max_err = max(max_err, abs(got - oracle))
                        max_scale = max(max_scale, abs(oracle))
                    break
        errs[m] = max_err / max_scale
    # the mollifier's edge curvature keeps desk-scale grids pre-asymptotic
    # in the sup norm; the error still decreases markedly
    assert errs[8] < errs[4]
    assert errs[4] / errs[8] >= 1.4


def test_grad_oracle_tau_rich_bump_improves():
    # for vertically structured data the worst-point error still decreases,
    # though the twisted sampling caps the rate
    width = 0.22
    tauw = 0.3
    errs = {}
    for m in (4, 8):
        grid = make_grid(1, m)
        f = periodized_bump(grid, width=width, amplitude=1.0, offset=0.0,
                            tau_width=tauw)
        g = grad_h(f)
        # analytic oracle: along the frame direction a the group-relative
        # coordinates move as y -> y + s e_a, tau_s -> tau_s + 2 s Im_s(conj(y) e_a)
        rng = np.random.default_rng(11)
        W = 2.0 * width
        T = 2.0 * tauw
        B = grid.twist.astype(float)
        center = default_center(grid)

        def psi_and_dpsi(y, tau, a):
            q = float(y @ y)
            if q >= W * W:
                return 0.0
            chi = math.exp(-q / (W * W - q))
            dchi_dq = chi * (-(W * W) / (W * W - q) ** 2)
            parts = []
            dparts = []
            for s in range(3):
                acc = 0.0
                dacc = 0.0
                kmin = int(math.floor((-tau[s] - T) / grid.L_t))
                kmax = int(math.ceil((T - tau[s]) / grid.L_t))
                for k in range(kmin, kmax + 1):
                    t = tau[s] + k * grid.L_t
                    if abs(t) < T:
                        val = math.exp(-t * t / (T * T - t * t))
                        acc += val
                        dacc += val * (-2.0 * t * T * T / (T * T - t * t) ** 2)
                parts.append(acc)
                dparts.append(dacc)
            val = chi * parts[0] * parts[1] * parts[2]
            # directional derivative along frame direction a
            dv = dchi_dq * 2.0 * y[a] * parts[0] * parts[1] * parts[2]
            for s in range(3):
                rate = 2.0 * float(y @ B[s][:, a])
                prod = chi * dparts[s] * rate
                for t_ in range(3):
                    if t_ != s:
                        prod *= parts[t_]
                dv += prod
            return dv

        max_err = 0.0
        max_scale = 1e-30
        for _ in range(40):
            idx = tuple(rng.integers(0, m, size=7))
            p = grid.point_at(idx)
            # group-relative coordinates for the l=0 copy only; shift into
            # the copy whose support contains the point
            best = None
            for ell in np.ndindex(*(3,) * 4):
                lvec = (np.array(ell) - 1).astype(float)
                y = p.x + lvec - center.x
                if float(y @ y) < W * W:
                    tau = (p.t + 2.0 * np.array([lvec @ B[s] @ p.x for s in range(3)])
                           - center.t - 2.0 * np.array([center.x @ B[s] @ (p.x + lvec) for s in range(3)]))
                    best = (y, tau)
                    break
            if best is None:
                continue
            y, tau = best
            for a in range(4):
                oracle = psi_and_dpsi(y, tau, a)
                got = g.components[idx + (a,)]
                max_err = max(max_err, abs(got - oracle))
                max_scale = max(max_scale, abs(oracle))
        errs[m] = max_err / max_scale
    assert errs[8] < errs[4]
    assert errs[4] / errs[8] >= 1.3


def test_hessian_antisymmetry_is_vertical():
    # off-diagonal commutators reduce to vertical differences exactly;
    # reeb_derivative itself is second-order accurate
    grid = make_grid(1, 4)
    f = periodized_bump(grid, width=0.2, amplitude=1.0, offset=0.0)
    for (a, b) in [(0, 1), (1, 3)]:
        hab = _ref_first_difference(_ref_first_difference(f.values, grid, b), grid, a)
        hba = _ref_first_difference(_ref_first_difference(f.values, grid, a), grid, b)
        v = grid.twist[:, a, b]
        s = int(np.nonzero(v)[0][0])
        # commutator is supported where the field has vertical variation
        assert np.max(np.abs(hab - hba)) > 0


def test_sub_laplacian_self_adjoint_and_mass_free():
    grid = make_grid(1, 3)
    rng = np.random.default_rng(5)
    u = ScalarField(grid, rng.normal(size=grid.shape))
    v = ScalarField(grid, rng.normal(size=grid.shape))
    lu, lv = sub_laplacian(u), sub_laplacian(v)
    a = grid_inner(lu, v)
    b = grid_inner(u, lv)
    scale = abs(a) + abs(b) + 1e-30
    assert abs(a - b) <= 1e-12 * scale
    assert abs(integrate(lu)) <= 1e-12 * np.abs(lu.values).max() * grid.size * grid.cell_volume


def test_divergence_integrates_to_zero_rough_fields():
    grid = make_grid(1, 3)
    rng = np.random.default_rng(7)
    from qcflow.lattice import HorizontalField
    for _ in range(100):
        comps = rng.normal(size=(4,) + grid.shape)
        sigma = HorizontalField(grid, np.moveaxis(comps, 0, -1))
        total = integrate(divergence(sigma))
        l1 = grid.cell_volume * np.sum(np.abs(comps))
        assert abs(total) <= 1e-12 * max(l1, 1e-30)


def test_divergence_is_the_trace_of_one_hessian_pass(monkeypatch):
    # the divergence is the negated trace of the Hessian pass over the
    # point-major components: no jet pass, and besides the input it holds
    # only its output and the pass's block buffers (1.5 fields here; a jet
    # per component is 5 each).  The workers are fixed, so the per-worker
    # buffers weigh the same on any host
    def no_jet(*args):
        raise AssertionError("divergence ran a jet pass")

    monkeypatch.setattr(lattice, "WORKERS", 2)
    monkeypatch.setattr(lattice, "jet_pass", no_jet)
    monkeypatch.setattr(operators, "jet_pass", no_jet)
    grid = make_grid(1, 6)
    sigma = lattice.HorizontalField(
        grid, np.random.default_rng(6).normal(size=grid.shape + (grid.dim_h,)))
    divergence(sigma)  # builds the grid's step constants
    tracemalloc.start()
    try:
        divergence(sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * grid.size


def test_divergence_of_gradient_vs_laplacian_stencil_gap():
    # -div(grad f) is the wide-stencil Laplacian; the gap to the compact one
    # shrinks under refinement for smooth data
    # Delta = nabla* nabla: the divergence of the gradient reproduces the
    # compact sub-Laplacian up to the wide-stencil gap
    from qcflow.lattice import vertically_uniform_bump
    gaps = {}
    for m in (4, 8):
        f = vertically_uniform_bump(make_grid(1, m), width=0.245)
        grid = f.grid
        wide = divergence(grad_h(f)).values
        compact = sub_laplacian(f).values
        num = np.sqrt(np.sum((wide - compact) ** 2))
        den = np.sqrt(np.sum(compact ** 2))
        gaps[m] = num / den
    assert gaps[4] <= 1.0 + 1e-12  # spectral bound for any field
    assert gaps[8] < gaps[4]
    assert gaps[4] / gaps[8] >= 1.4


def test_third_contraction_c1_is_grad_of_laplacian():
    f = make_bump_field(4)
    c1, _ = third_contractions(f)
    lap = sub_laplacian(f)
    g = grad_h(lap)
    assert np.array_equal(c1.components, -g.components)


def test_third_contractions_vanish_on_constants():
    grid = make_grid(1, 4)
    f = ScalarField(grid, np.full(grid.shape, 1.0))
    c1, c2 = third_contractions(f)
    assert np.max(np.abs(c1.components)) == 0.0
    assert np.max(np.abs(c2.components)) == 0.0


def test_c1_interior_zero_for_xonly_quadratic():
    # third differences of a quadratic vanish; test away from the wrap seam
    grid = make_grid(1, 8)
    xs = np.arange(8) * grid.h_x
    vals = np.zeros((8,) * 4)
    for k in range(4):
        vals = vals + ((xs - 0.5) ** 2).reshape((1,) * k + (-1,) + (1,) * (3 - k))
    full = np.broadcast_to(vals[..., None, None, None], grid.shape).copy()
    f = ScalarField(grid, full)
    c1, c2 = third_contractions(f)
    interior = (slice(2, 6),) * 4
    assert np.max(np.abs(c1.components[interior])) <= 1e-10
    assert np.max(np.abs(c2.components)) <= 1e-12


def test_c2_vanishes_exactly_for_xonly_fields():
    # Euclidean reduction: the omega-contraction of a symmetric Euclidean
    # Hessian vanishes, and for vertically constant fields the discrete
    # Hessian is exactly symmetric
    grid = make_grid(1, 5)
    rng = np.random.default_rng(13)
    f = xonly_field(grid, rng, smooth=False)
    _, c2 = third_contractions(f)
    assert np.max(np.abs(c2.components)) <= 1e-11


def test_p_form_constant_zero_and_duality():
    grid = make_grid(1, 4)
    const = ScalarField(grid, np.full(grid.shape, 3.0))
    assert np.max(np.abs(p_form(const).components)) == 0.0
    assert p_functional(const) == 0.0
    # int f C f = - int P_f(grad f) exactly (discrete summation by parts)
    f = make_bump_field(4, amplitude=1.0, offset=1.0)
    pf = p_functional(f)
    fc = grid_inner(f, c_operator(f))
    scale = max(abs(pf), abs(fc), 1e-30)
    assert abs(pf + fc) <= 1e-12 * scale


def _stream_hessian(f, with_norm=True):
    """(|H|^2, tr H, omega_s(H), p-deficit) as whole fields, in the order of
    _ref_hessian, collected from the blocks of the Hessian pass of a field
    f, or over the first differences of a jet f, handed, the deficit formed
    per block by F's production block from the block's jet rows, as its
    weighted deficit row with unit weights (1.0 * d is d); |H|^2 and the
    deficit are None without with_norm."""
    grid = f.grid
    handed = isinstance(f, DifferenceJet)
    jet_lap = f.laplacian.reshape(-1) if handed else None
    norm_sq, trace, deficit = (np.full(grid.size, np.nan) for _ in range(3))
    omega = np.full((3, grid.size), np.nan)

    def collect(blk, tr, om, nsq, work, lap, first):
        trace[blk] = tr
        omega[:, blk] = om
        if with_norm:
            norm_sq[blk] = nsq
            (rows,) = work
            rows[:2] = 1.0
            lattice._production_block(tr, om, nsq, jet_lap[blk] if handed else lap, first,
                                      rows)
            deficit[blk] = rows[4]
        else:
            assert nsq is None

    lattice.hessian_pass(f.first if handed else f.values, grid, None, collect,
                         with_norm=with_norm, scratch=((5,),))
    shape = grid.shape
    if not with_norm:
        return None, trace.reshape(shape), omega.reshape((3,) + shape), None
    return (norm_sq.reshape(shape), trace.reshape(shape),
            omega.reshape((3,) + shape), deficit.reshape(shape))

def test_hessian_deficit_nonnegative():
    # Bessel inequality for the orthogonal family {Id, omega_s} holds
    # pointwise for the composed Hessian, up to roundoff
    f = make_bump_field(4, amplitude=1.0, offset=1.0)
    norm_sq, _, _, deficit = _stream_hessian(f)
    floor = -1e-12 * float(np.max(norm_sq))
    assert float(deficit.min()) >= floor


def test_omega_contraction_tracks_reeb():
    # g(nabla^2 f, omega_s) approximates -4n xi_s f; exact modulo the
    # corner-averaging of the twisted stencil
    f = make_bump_field(6)
    omega = _stream_hessian(f, with_norm=False)[2]
    for s in range(3):
        xi = reeb_derivative(f, s).values
        num = np.sqrt(np.sum((omega[s] + 4.0 * xi) ** 2))
        den = np.sqrt(np.sum((4.0 * xi) ** 2)) + 1e-30
        assert num / den < 1.2  # bounded; exactness is unattainable at this scale


# reference stencils: the per-operator loops the difference jet replaced ----

def _ref_first_difference(values, grid, a):
    return (shift(values, grid, a, +1) - shift(values, grid, a, -1)) / (2.0 * grid.h_x)


def _ref_sub_laplacian(values, grid):
    acc = np.zeros(grid.shape)
    for a in range(grid.dim_h):
        acc += (shift(values, grid, a, +1) - 2.0 * values
                + shift(values, grid, a, -1))
    return -acc / (grid.h_x * grid.h_x)


def _ref_hessian(values, grid):
    B = twist_matrices(grid.n)
    dim = grid.dim_h
    first = [_ref_first_difference(values, grid, b) for b in range(dim)]
    norm_sq = np.zeros(grid.shape)
    trace = np.zeros(grid.shape)
    om = np.zeros((3,) + grid.shape)
    for a in range(dim):
        for b in range(dim):
            hab = _ref_first_difference(first[b], grid, a)
            norm_sq += hab * hab
            if a == b:
                trace += hab
            for s in range(3):
                w = B[s][b, a]
                if w != 0.0:
                    om[s] += w * hab
    quarter = 1.0 / dim
    deficit = norm_sq - quarter * trace * trace
    for s in range(3):
        deficit = deficit - quarter * om[s] * om[s]
    return norm_sq, trace, om, deficit


def _jet_fields(m):
    grid = make_grid(1, m)
    return [periodized_bump(grid, width=0.22, amplitude=1.0, offset=1.0),
            vertically_uniform_bump(grid, width=0.22, amplitude=0.3, offset=1.0)]


@pytest.mark.parametrize("m", [4, 5])
def test_jet_readers_are_bit_identical_to_the_stencils(m):
    for f in _jet_fields(m):
        grid = f.grid
        first = np.stack([_ref_first_difference(f.values, grid, a)
                          for a in range(grid.dim_h)], axis=-1)
        assert np.array_equal(grad_h(f).components, first)
        assert np.array_equal(sub_laplacian(f).values,
                              _ref_sub_laplacian(f.values, grid))
        ref = _ref_hessian(f.values, grid)
        for got, expect in zip(_stream_hessian(f), ref):
            assert np.array_equal(got, expect)
        # over a handed jet, the pass gives the same bits, and without the
        # norm the same trace and omega_s; a shared jet gives the same bits
        # as a jet per call
        jet = DifferenceJet(f)
        for got, expect in zip(_stream_hessian(jet), ref):
            assert np.array_equal(got, expect)
        _, trace, omega, _ = _stream_hessian(jet, with_norm=False)
        assert np.array_equal(trace, ref[1])
        assert np.array_equal(omega, ref[2])
        assert np.array_equal(grad_h(jet).components, first)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3),
                                  (3, 2)])
def test_fused_jet_matches_the_step_tables(n, m, workers, monkeypatch):
    # difference_jet against np.take through the reference step tables:
    # D_a f = (f+ - f-) / 2h, and the compact Laplacian -acc / h^2, where
    # acc starts at zero and each axis adds (f+ - 2f) + f-.  Blocks of a
    # little over two vertical fibres cut fibres at m = 3, 5 and 6, so both
    # whole fibres and the runs of cut ones are read
    monkeypatch.setattr(lattice, "WORKERS", workers)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", max(128, 2 * m ** 3 + 1))
    grid = make_grid(n, m)
    if m in (3, 5, 6):
        assert any(b % m ** 3 for b in lattice._block_bounds(grid.size))
    values = np.random.default_rng(m).normal(size=grid.size)
    two_f = values * 2.0
    first, acc = [], np.zeros(grid.size)
    for a in range(grid.dim_h):
        up = np.take(values, grid.step_permutation(a, 1))
        um = np.take(values, grid.step_permutation(a, -1))
        first.append((up - um) / (2.0 * grid.h_x))
        acc += (up - two_f) + um
    lap = -acc / (grid.h_x * grid.h_x)
    jet = DifferenceJet(ScalarField(grid, values.reshape(grid.shape)))
    # point-major: each point's 4n differences are one run
    assert jet.first.shape == grid.shape + (grid.dim_h,)
    assert jet.first.tobytes() == np.stack(first, axis=-1).tobytes()
    assert jet.laplacian.tobytes() == lap.tobytes()


@pytest.mark.parametrize("m", [4, 6])
def test_p_functional_matches_the_third_order_pairing(m):
    # summation by parts: vol * sum(Delta f tr H + sum_t G_t^2) equals the
    # direct pairing of the third-order P-form against grad f to roundoff
    for f in _jet_fields(m):
        grid = f.grid
        oracle = float(grid.cell_volume
                       * np.sum(p_form(f).components * grad_h(f).components))
        got = p_functional(f)
        assert abs(got - oracle) <= 1e-13 * abs(oracle)
        jet = DifferenceJet(f)
        assert handed_p_functional(jet.first, jet.laplacian, grid) == got


@pytest.mark.parametrize("m", [4, 5])
def test_p_functional_stream_is_bit_identical_to_the_hessian_route(m):
    # the Hessian pass without |H|^2, of the field or over its handed jet,
    # gives the bits of the integrand built from the full Hessian, without
    # building it
    for f in _jet_fields(m):
        _, trace, omega, _ = _ref_hessian(f.values, f.grid)
        integrand = sub_laplacian(f).values * trace
        for t in range(3):
            integrand += omega[t] * omega[t]
        expect = float(f.grid.cell_volume * np.sum(integrand))
        jet = DifferenceJet(f)
        assert handed_p_functional(jet.first, jet.laplacian, f.grid) == expect
        assert p_functional(f) == expect


def test_the_handed_route_has_the_bits_of_the_swept_route_at_m8(monkeypatch):
    # at m_x = 8 (2^18 points a plane) the Hessian pass sweeps a field plane
    # by plane, and reads handed differences whole, as one slab: on 1, 2
    # and 3 workers the P-pairing of the field equals the pass over its
    # handed jet, whose contraction reads the jet's laplacian, and the
    # divergence of its gradient, a 1-form handed to the pass, equals the
    # numpy -(zeros + D_0 sigma_0 + D_1 sigma_1 + ...), with ==
    f = periodized_bump(make_grid(1, 8), width=0.22, amplitude=1.0, offset=1.0)
    grid = f.grid
    assert grid.size // grid.m_x >= lattice.WINDOW_PLANE_POINTS
    jet = DifferenceJet(f)
    sigma = grad_h(jet)
    acc = np.zeros(grid.shape)
    for a in range(grid.dim_h):
        acc = acc + _ref_first_difference(sigma.components[..., a], grid, a)
    expect = (-acc).tobytes()
    del acc
    for workers in (1, 2, 3):
        monkeypatch.setattr(lattice, "WORKERS", workers)
        assert p_functional(f) == handed_p_functional(jet.first, jet.laplacian, grid), workers
        assert divergence(sigma).values.tobytes() == expect, workers


# the block passes on the worker pool ----------------------------------------

PRODUCTION_ALPHA = -0.05


def _production(u):
    return tuple(FlowQuantities(u, PRODUCTION_ALPHA).production)


def _bochner(f):
    report = bochner_residual(f)
    return report.lhs, report.rhs, report.residual


def _run_passes(f):
    """Every block kernel of the package on f: the Euler update with the
    mass, min and max of the new field, the jet, the energy (|D phi|^2 u
    summed per block), the divergence of the jet's gradient and
    the Hessian pass under its contractions: one that collects it, the
    production integrals of FlowQuantities (with f as u), the Bochner
    residual's L2 norms and the P-pairing."""
    return {
        "euler": lambda: lattice.euler_pass(f.values, f.grid, 0.01, True),
        "jet": lambda: DifferenceJet(f),
        "energy": lambda: energy(f),
        "divergence": lambda: divergence(grad_h(f)).values,
        "hessian": lambda: _stream_hessian(f),
        "production": lambda: _production(f),
        "bochner": lambda: _bochner(f),
        "p_functional": lambda: p_functional(f),
    }


def _reference_production(values, grid):
    """The production integrals from the whole-field formulas of F = u^alpha,
    their weights from whole-field np.power."""
    a = PRODUCTION_ALPHA
    F = np.power(values, a)
    lap = _ref_sub_laplacian(F, grid)
    grad_sq = np.sum(np.stack([_ref_first_difference(F, grid, b)
                               for b in range(grid.dim_h)]) ** 2, axis=0)
    norm_sq, _, omega, deficit = _ref_hessian(F, grid)
    w2 = np.power(values, 1 - 2 * a)
    vol = grid.cell_volume
    return (float(vol * np.sum(w2 * lap ** 2)),
            float(vol * np.sum(np.power(values, 1 - 4 * a) * grad_sq ** 2)),
            float(vol * np.sum(w2 * norm_sq)),
            float(vol * np.sum(w2 * sum(omega[s] ** 2 for s in range(3)))),
            float(vol * np.sum(w2 * deficit)),
            float(deficit.min()),
            float(np.mean(norm_sq)))


def _ref_reeb_mixed(first, grid):
    """The Reeb mixed term sum_s sum_a xi_s(D_a f) (I_s Df)_a of the
    reference first differences, read entry by entry from per-s loops over
    I_s: no contraction of identities."""
    B = twist_matrices(grid.n)
    mixed = np.zeros(grid.shape)
    for s in range(3):
        for a in range(grid.dim_h):
            xi_da = reeb_derivative(ScalarField(grid, first[a]), s).values
            for b in range(grid.dim_h):
                entry = B[s][a, b]
                if entry != 0.0:
                    mixed += xi_da * (entry * first[b])
    return mixed


@pytest.mark.parametrize("m", [4, 5])
def test_reeb_mixed_term_matches_a_per_entry_reference(m, monkeypatch):
    # identities._reeb_mixed contracts I_s with Df by einsum, the reference
    # reads I_s entry by entry, so the two may add in other orders: they
    # agree to 1e-13 of the term's largest value.  With one sign of one I_s
    # flipped in the frame the code reads, they do not.  The vertically
    # uniform field of _jet_fields has no Reeb derivative, so a random one
    # stands in for it
    grid = make_grid(1, m)
    rough = ScalarField(grid, np.random.default_rng(m).normal(size=grid.shape))
    for f in (_jet_fields(m)[0], rough):
        first = np.stack([_ref_first_difference(f.values, grid, a) for a in range(grid.dim_h)])
        ref = _ref_reeb_mixed(first, grid)
        tol = 1e-13 * float(np.max(np.abs(ref)))
        assert tol > 0.0
        # _reeb_mixed reads a jet's point-major differences
        first = np.moveaxis(first, 0, -1)
        assert float(np.max(np.abs(identities._reeb_mixed(grid, first) - ref))) <= tol
        for s in range(3):
            broken = twist_matrices(grid.n).copy()
            a, b = np.argwhere(broken[s] != 0.0)[0]
            broken[s, a, b] *= -1.0
            monkeypatch.setattr(identities, "twist_matrices", lambda n: broken)
            assert float(np.max(np.abs(identities._reeb_mixed(grid, first) - ref))) > tol, s
            monkeypatch.undo()


def _reference_bochner(values, grid):
    """The Bochner residual's three L2 norms from whole-field formulas."""
    first = np.stack([_ref_first_difference(values, grid, a) for a in range(grid.dim_h)])
    lhs = 0.5 * _ref_sub_laplacian(np.sum(first ** 2, axis=0), grid)
    lap = _ref_sub_laplacian(values, grid)
    grad_lap = np.stack([_ref_first_difference(lap, grid, a) for a in range(grid.dim_h)])
    mixed = _ref_reeb_mixed(first, grid)
    rhs = -_ref_hessian(values, grid)[0] + np.sum(grad_lap * first, axis=0) - 4.0 * mixed
    return tuple(float(np.sqrt(grid.cell_volume * np.sum(v * v)))
                 for v in (lhs, rhs, lhs - rhs))


def _reference_catalog(values, grid):
    """The catalog's other integrals of F = u^alpha, phi = -ln u and
    f = u^(1/2) from whole-field formulas, each one np.sum over its
    integrand: the FlowQuantities integrals by name, and the (lhs, rhs) of
    the gr4, intform and secondt reports."""
    a = PRODUCTION_ALPHA
    n = grid.n
    vol = grid.cell_volume

    def grad(v):
        return np.stack([_ref_first_difference(v, grid, b) for b in range(grid.dim_h)])

    def xi_sq(v):
        return sum(reeb_derivative(ScalarField(grid, v), s).values ** 2 for s in range(3))

    F = np.power(values, a)
    dF = grad(F)
    lap_F = _ref_sub_laplacian(F, grid)
    grad_sq = np.sum(dF ** 2, axis=0)
    w2 = np.power(values, 1 - 2 * a)
    phi = -np.log(values)
    lap_phi = _ref_sub_laplacian(phi, grid)
    gp2 = np.sum(grad(phi) ** 2, axis=0)
    f = np.sqrt(values)
    lap_f = _ref_sub_laplacian(f, grid)
    _, trace, omega, _ = _ref_hessian(f, grid)
    pairing = lap_f * trace
    for t in range(3):
        pairing += omega[t] * omega[t]
    i_xi2 = float(vol * np.sum(w2 * xi_sq(F)))
    mixed_f = float(vol * np.sum(_ref_reeb_mixed(grad(f), grid)))
    return {
        "I_mixed": float(vol * np.sum(np.power(values, 1 - 3 * a) * lap_F * grad_sq)),
        "I_xi2": i_xi2,
        "I_gradlap": float(vol * np.sum(w2 * np.sum(grad(lap_F) * dF, axis=0))),
        "I_lap_gradsq": float(vol * np.sum(w2 * _ref_sub_laplacian(grad_sq, grid))),
        "deriv1_integral": float(vol * np.sum(
            values * (-2.0 * lap_phi ** 2 - 3.0 * lap_phi * gp2 - gp2 ** 2))),
        "gr4": (mixed_f, -(1.0 / (4 * n)) * (float(vol * np.sum(pairing))
                                            + float(vol * np.sum(lap_f ** 2)))),
        "intform": (mixed_f, -4.0 * n * float(vol * np.sum(xi_sq(f)))),
        "secondt": (float(vol * np.sum(w2 * _ref_reeb_mixed(dF, grid))),
                    -4.0 * n * i_xi2),
    }


@pytest.mark.parametrize("m", [4, 5])
def test_catalog_integrals_are_bit_identical_to_the_whole_field_formulas(m):
    # the shared contractions of the catalog (|Dg|^2, <D Delta g, Dg>,
    # sum_s (xi_s g)^2 and vol * sum) keep the bits of the whole-field
    # stencils; a reference computed in this process, so no sha256 is pinned
    for u in _jet_fields(m):
        expect = _reference_catalog(u.values, u.grid)
        q = FlowQuantities(u, PRODUCTION_ALPHA)
        for name, value in expect.items():
            if name in identities.IDENTITY_NAMES:
                rep = identity_residual(name, u, PRODUCTION_ALPHA)
                assert (rep.lhs, rep.rhs) == value, name
            else:
                assert getattr(q, name) == value, name


def _reference_passes(f):
    """The same quantities from the whole-field lattice.shift stencils, each
    integral one np.sum over its whole-field integrand."""
    grid = f.grid
    values = f.values
    acc = np.zeros(grid.shape)
    for a in range(grid.dim_h):
        up = shift(values, grid, a, +1)
        up += shift(values, grid, a, -1)
        up -= 2.0 * values
        acc += up
    stepped = values + 0.01 * acc
    phi = -np.log(values)
    grad_phi_sq = np.sum(np.stack([_ref_first_difference(phi, grid, a)
                                   for a in range(grid.dim_h)]) ** 2, axis=0)
    first = np.stack([_ref_first_difference(values, grid, a) for a in range(grid.dim_h)])
    lap = _ref_sub_laplacian(values, grid)
    norm_sq, trace, omega, deficit = _ref_hessian(values, grid)
    integrand = lap * trace
    for t in range(3):
        integrand += omega[t] * omega[t]
    div = np.zeros(grid.shape)
    for a in range(grid.dim_h):
        div += _ref_first_difference(first[a], grid, a)
    return {
        "euler": (stepped, integrate(ScalarField(grid, stepped)),
                  float(np.min(stepped)), float(np.max(stepped))),
        "jet": (np.stack(first, axis=-1), lap),
        "energy": float(grid.cell_volume * np.sum(grad_phi_sq * values)),
        "divergence": -div,
        "hessian": (norm_sq, trace, omega, deficit),
        "production": _reference_production(values, grid),
        "bochner": _reference_bochner(values, grid),
        "p_functional": float(grid.cell_volume * np.sum(integrand)),
    }


def _as_arrays(name, result):
    if name == "jet":
        return result.first, result.laplacian
    return result


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_block_passes_are_bit_identical_for_every_worker_count(workers, monkeypatch):
    # 78125 points in blocks of at most 5000: 16 nodes of the pairwise
    # tree, of 4880 to 4893 points, in one run, in runs of 8 + 8 or of
    # 5 + 5 + 6 blocks.  Most blocks end in part of a SIMD vector, which
    # pins the per-block np.power of the production integrals to the
    # whole-field bits, and every integral and extreme is compared with
    # ==; a short switch interval interleaves the threads often
    monkeypatch.setattr(lattice, "WORKERS", workers)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", 5000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for f in _jet_fields(5):
            expect = _reference_passes(f)
            for name, run in _run_passes(f).items():
                got = _as_arrays(name, run())
                if name == "p_functional":
                    assert got == expect[name], name
                elif isinstance(got, tuple):
                    for g, e in zip(got, expect[name]):
                        assert np.array_equal(g, e), name
                else:
                    assert np.array_equal(got, expect[name]), name
    finally:
        sys.setswitchinterval(interval)


def test_block_passes_call_public_functions_only_on_the_calling_thread(monkeypatch):
    # the runs of every pass (its kernels or its C calls) go to the pool,
    # while every public qcflow function (the Bochner residual's Reeb
    # derivatives among them, and a step table should a pass build one) runs
    # on the calling thread, which keeps a tracer's span stack (one per
    # process) valid
    monkeypatch.setattr(lattice, "WORKERS", 2)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", 5000)
    calls, kernel_threads = [], set()
    perm = lattice.LatticeGrid.step_permutation
    sharer = lattice._share_blocks

    def step_permutation(grid, a, direction):
        calls.append(("step_permutation", threading.get_ident()))
        return perm(grid, a, direction)

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    modules = (algebra, lattice, operators, identities, flow, energy_module)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            wrapper = recorded(attr, obj)
            for ns in modules:
                if vars(ns).get(attr) is obj:
                    monkeypatch.setattr(ns, attr, wrapper)

    def share_blocks(run, count, buffers):
        # every pass hands its runs of blocks to the pool helper: each run
        # waits for the other before its first block, so the pass fails (a
        # broken barrier) unless two threads run it at once
        meet = threading.Barrier(2, timeout=60)

        def watched(first, last, bufs):
            kernel_threads.add(threading.get_ident())
            meet.wait()
            return run(first, last, bufs)

        return sharer(watched, count, buffers)

    monkeypatch.setattr(lattice.LatticeGrid, "step_permutation", step_permutation)
    monkeypatch.setattr(lattice, "_share_blocks", share_blocks)
    main = threading.get_ident()
    f = _jet_fields(5)[0]
    for name, run in _run_passes(f).items():
        calls.clear()
        kernel_threads.clear()
        run()
        names = {fn for fn, _ in calls}
        if name == "bochner":
            assert "reeb_derivative" in names, name
        assert {ident for _, ident in calls} <= {main}, name
        assert len(kernel_threads) == 2 and main not in kernel_threads, name


def test_no_run_path_builds_a_step_table(monkeypatch):
    # the step kernel computes every gather from the affine step, so the
    # flow, the energy report and every block pass run with no table
    def step_permutation(grid, a, direction):
        raise AssertionError(f"a step table was built for axis {a}")

    monkeypatch.setattr(lattice.LatticeGrid, "step_permutation", step_permutation)
    cfg = flow.FlowConfig(m_x=4, t_end=1.0)
    states = list(itertools.islice(flow.stream(cfg, measure=True), 4))
    assert states[-1].step == 3
    energy_module.derf_rhs(states[-1].u, PRODUCTION_ALPHA)
    for name, run in _run_passes(_jet_fields(4)[0]).items():
        run()


def test_pass_blocks_runs_serially_inside_a_worker(monkeypatch):
    # a block that calls the block driver again, on a pool whose threads
    # are all busy, must not wait for a free thread: the inner pass runs
    # its 16 blocks on the one thread that called it
    monkeypatch.setattr(lattice, "WORKERS", 2)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", 5000)
    grid = make_grid(1, 5)
    field = np.zeros(grid.size)
    inner = []

    def inner_block(start, k, blocks):
        inner.append(threading.get_ident())
        return ()

    def block(start, k, blocks):
        if start == 0:
            lattice._pass_blocks(inner_block, grid, (), field)
        return ()

    done = threading.Thread(target=lattice._pass_blocks, args=(block, grid, (), field),
                            daemon=True)
    done.start()
    done.join(timeout=120)
    assert not done.is_alive()
    assert len(inner) == 16 and len(set(inner)) == 1
