"""Tests for the discrete horizontal calculus."""
import math

import numpy as np
import pytest

from qcflow.algebra import TorsionData
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
    c_operator,
    divergence,
    grad_h,
    grad_h_norm_sq,
    hessian_component,
    hessian_data,
    hessian_deficit,
    p_form,
    p_functional,
    reeb_derivative,
    sub_laplacian,
    third_contractions,
)


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
        hab = hessian_component(f, a, b)
        hba = hessian_component(f, b, a)
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


def test_p_form_torsion_branches():
    # supplying synthetic torsion data changes the form through the
    # dimension-dependent coefficient branches
    from qcflow.algebra import TorsionData
    grid = make_grid(1, 3)
    f = make_bump_field(3, amplitude=1.0, offset=0.5)
    d = 4
    td = TorsionData(n=1, T0=np.zeros((d, d)), U=np.zeros((d, d)), S=2.0)
    base = p_form(f)
    with_s = p_form(f, torsion=td)
    g = grad_h(f)
    # n = 1 branch: -4 S df term
    expect = base.components - 4.0 * 2.0 * g.components
    assert np.allclose(with_s.components, expect, atol=1e-12)


def test_hessian_deficit_nonnegative():
    # Bessel inequality for the orthogonal family {Id, omega_s} holds
    # pointwise for the composed Hessian, up to roundoff
    f = make_bump_field(4, amplitude=1.0, offset=1.0)
    d = hessian_deficit(f)
    hd = hessian_data(f)
    floor = -1e-12 * float(np.max(hd.norm_sq))
    assert float(d.values.min()) >= floor


def test_omega_contraction_tracks_reeb():
    # g(nabla^2 f, omega_s) approximates -4n xi_s f; exact modulo the
    # corner-averaging of the twisted stencil
    f = make_bump_field(6)
    grid = f.grid
    hd = hessian_data(f)
    for s in range(3):
        xi = reeb_derivative(f, s).values
        num = np.sqrt(np.sum((hd.omega[s] + 4.0 * xi) ** 2))
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
        hd = hessian_data(f)
        for got, ref in zip((hd.norm_sq, hd.trace, hd.omega, hd.deficit),
                            _ref_hessian(f.values, grid)):
            assert np.array_equal(got, ref)
        # a shared jet gives the same bits as a jet per call
        jet = DifferenceJet(f)
        assert np.array_equal(grad_h(jet).components, first)
        assert np.array_equal(sub_laplacian(jet).values, sub_laplacian(f).values)
        assert np.array_equal(hessian_data(jet).deficit, hd.deficit)


@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("with_torsion", [False, True])
def test_p_functional_matches_the_third_order_pairing(m, with_torsion):
    # summation by parts: vol * sum(Delta f tr H + sum_t G_t^2) equals the
    # direct pairing of the third-order P-form against grad f to roundoff
    td = None
    if with_torsion:
        td = TorsionData(n=1, T0=np.zeros((4, 4)), U=np.zeros((4, 4)), S=2.0)
    for f in _jet_fields(m):
        grid = f.grid
        oracle = float(grid.cell_volume
                       * np.sum(p_form(f, td).components * grad_h(f).components))
        got = p_functional(f, td)
        assert abs(got - oracle) <= 1e-13 * abs(oracle)
        assert p_functional(DifferenceJet(f), td) == got


@pytest.mark.parametrize("m", [4, 5])
def test_p_functional_stream_is_bit_identical_to_the_hessian_route(m):
    # the Hessian stream without |H|^2 gives the bits of the integrand built
    # from the full Hessian, without building it, and a jet that already
    # keeps the Hessian gives the same value
    for f in _jet_fields(m):
        hd = hessian_data(f)
        integrand = sub_laplacian(f).values * hd.trace
        for t in range(3):
            integrand += hd.omega[t] * hd.omega[t]
        expect = float(f.grid.cell_volume * np.sum(integrand))
        jet = DifferenceJet(f)
        assert p_functional(jet) == expect
        assert jet._hessian is None
        jet.hessian()
        assert p_functional(jet) == expect


@pytest.mark.parametrize("m", [4, 5])
def test_grad_h_norm_sq_is_bit_identical_to_the_squared_gradient(m):
    for f in _jet_fields(m):
        expect = np.sum(grad_h(f).components ** 2, axis=0)
        assert grad_h_norm_sq(f).tobytes() == expect.tobytes()
