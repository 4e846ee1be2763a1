"""Tests for the discrete horizontal calculus."""
import inspect
import itertools
import math
import sys
import threading

import numpy as np
import pytest

import qcflow.energy as energy_module
from qcflow import algebra, flow, identities, lattice, operators
from qcflow.energy import energy
from qcflow.identities import FlowQuantities, bochner_residual
from qcflow.lattice import (
    ScalarField,
    default_center,
    frame_data,
    grid_inner,
    integrate,
    make_grid,
    periodized_bump,
    shift,
    vertically_uniform_bump,
)
from qcflow.operators import (
    DifferenceJet,
    divergence,
    grad_h,
    p_functional,
    reeb_derivative,
    sub_laplacian,
)

from oracles import c_operator, p_form, third_contractions


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
        assert np.array_equal(g.components[a], plain)


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
                        got = g.components[(a,) + idx]
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
                got = g.components[(a,) + idx]
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
        sigma = HorizontalField(grid, comps)
        total = integrate(divergence(sigma))
        l1 = grid.cell_volume * np.sum(np.abs(comps))
        assert abs(total) <= 1e-12 * max(l1, 1e-30)


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
    interior = (slice(None),) + (slice(2, 6),) * 4
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
    _ref_hessian, collected from the blocks of the Hessian stream of f (a
    field or its jet), the deficit formed per block as F's production
    contraction forms it; |H|^2 and the deficit are None without
    with_norm."""
    jet = f if isinstance(f, DifferenceJet) else DifferenceJet(f)
    grid = jet.grid
    quarter = 1.0 / grid.dim_h
    norm_sq, trace, deficit = (np.full(grid.size, np.nan) for _ in range(3))
    omega = np.full((3, grid.size), np.nan)

    def collect(blk, tr, om, nsq, work):
        trace[blk] = tr
        omega[:, blk] = om
        if with_norm:
            norm_sq[blk] = nsq
            identities._deficit_block(deficit[blk], tr, om, nsq, work[0], quarter)
        else:
            assert nsq is None

    jet.hessian_stream(collect, with_norm=with_norm, scratch=((),))
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
    fd = frame_data(grid)
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
                w = fd.omega[s][a, b]
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
                          for a in range(grid.dim_h)])
        assert np.array_equal(grad_h(f).components, first)
        assert np.array_equal(sub_laplacian(f).values,
                              _ref_sub_laplacian(f.values, grid))
        ref = _ref_hessian(f.values, grid)
        for got, expect in zip(_stream_hessian(f), ref):
            assert np.array_equal(got, expect)
        # without the norm the stream gives the same trace and omega_s, and
        # a shared jet gives the same bits as a jet per call
        jet = DifferenceJet(f)
        _, trace, omega, _ = _stream_hessian(jet, with_norm=False)
        assert np.array_equal(trace, ref[1])
        assert np.array_equal(omega, ref[2])
        assert np.array_equal(grad_h(jet).components, first)
        assert np.array_equal(sub_laplacian(jet).values, sub_laplacian(f).values)


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
        assert p_functional(DifferenceJet(f)) == got


@pytest.mark.parametrize("m", [4, 5])
def test_p_functional_stream_is_bit_identical_to_the_hessian_route(m):
    # the Hessian stream without |H|^2 gives the bits of the integrand built
    # from the full Hessian, without building it
    for f in _jet_fields(m):
        _, trace, omega, _ = _ref_hessian(f.values, f.grid)
        integrand = sub_laplacian(f).values * trace
        for t in range(3):
            integrand += omega[t] * omega[t]
        expect = float(f.grid.cell_volume * np.sum(integrand))
        assert p_functional(DifferenceJet(f)) == expect


# the block passes on the worker pool ----------------------------------------

PRODUCTION_ALPHA = -0.05


def _production(u):
    q = FlowQuantities(u, PRODUCTION_ALPHA)
    return (q.I_lap2, q.I_quart, q.I_hess2, q.I_omega2, q.I_deficit,
            q.min_deficit, q.mean_hess2)


def _bochner(f):
    report = bochner_residual(f)
    return report.lhs, report.rhs, report.residual


def _run_passes(f):
    """Every block kernel of the package on f: the Euler update with the
    mass, min and max of the new field, the jet, the energy (|D phi|^2 u
    summed per block), the divergence of the jet's gradient and
    the Hessian stream under its contractions: one that collects it, the
    production integrals of FlowQuantities (with f as u), the Bochner
    residual's L2 norms and the P-pairing."""
    return {
        "euler": lambda: flow._euler_update(f.values, f.grid, 0.01, True),
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


def _reference_bochner(values, grid):
    """The Bochner residual's three L2 norms from whole-field formulas."""
    first = np.stack([_ref_first_difference(values, grid, a) for a in range(grid.dim_h)])
    lhs = 0.5 * _ref_sub_laplacian(np.sum(first ** 2, axis=0), grid)
    lap = _ref_sub_laplacian(values, grid)
    grad_lap = np.stack([_ref_first_difference(lap, grid, a) for a in range(grid.dim_h)])
    mixed = identities._reeb_mixed(grid, first)
    rhs = -_ref_hessian(values, grid)[0] + np.sum(grad_lap * first, axis=0) - 4.0 * mixed
    return tuple(float(np.sqrt(grid.cell_volume * np.sum(v * v)))
                 for v in (lhs, rhs, lhs - rhs))


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
        "jet": (first, lap),
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
    # the kernels run on the pool, while every public qcflow function (the
    # frame data among them, and a step table should a pass build one) runs
    # on the calling thread, which keeps a tracer's span stack (one per
    # process) valid
    monkeypatch.setattr(lattice, "WORKERS", 2)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", 5000)
    calls, kernel_threads = [], set()
    perm = lattice.LatticeGrid.step_permutation
    mapper = lattice.map_blocks

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

    def map_blocks(kernel, values, grid, scratch=()):
        # each run waits for the other at its first block, so the pass
        # fails (a broken barrier) unless two threads run it at once
        meet = threading.Barrier(2, timeout=60)

        def watched(*args):
            ident = threading.get_ident()
            if ident not in kernel_threads:
                kernel_threads.add(ident)
                meet.wait()
            return kernel(*args)

        return mapper(watched, values, grid, scratch)

    monkeypatch.setattr(lattice.LatticeGrid, "step_permutation", step_permutation)
    for mod in (flow, operators):
        monkeypatch.setattr(mod, "map_blocks", map_blocks)
    main = threading.get_ident()
    f = _jet_fields(5)[0]
    for name, run in _run_passes(f).items():
        calls.clear()
        kernel_threads.clear()
        run()
        names = {fn for fn, _ in calls}
        if name in ("hessian", "production", "bochner", "p_functional"):
            assert "frame_data" in names, name
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


def test_map_blocks_runs_serially_inside_a_worker(monkeypatch):
    # a kernel that calls the helper again, on a pool whose threads are all
    # busy, must not wait for a free thread
    monkeypatch.setattr(lattice, "WORKERS", 2)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", 5000)
    grid = make_grid(1, 5)
    values = np.arange(grid.size, dtype=float)
    inner = []

    def inner_kernel(blk, steps, scratch):
        for _ in steps:
            inner.append(threading.get_ident())

    def kernel(blk, steps, scratch):
        if blk.start == 0:
            lattice.map_blocks(inner_kernel, values, grid)

    done = threading.Thread(target=lattice.map_blocks, args=(kernel, values, grid),
                            daemon=True)
    done.start()
    done.join(timeout=120)
    assert not done.is_alive()
    assert len(inner) == 16 * grid.dim_h and len(set(inner)) == 1
