"""Tests for the identity catalog."""

import numpy as np
import pytest

from qcflow.identities import (
    IDENTITY_NAMES,
    FlowQuantities,
    bochner_residual,
    identity_residual,
)
from qcflow.lattice import (
    ScalarField,
    make_grid,
    periodized_bump,
    vertically_uniform_bump,
)

ALPHA = -0.05

NEEDS_ALPHA = tuple(nm for nm in IDENTITY_NAMES
                    if nm not in ("ricci2", "ricci_mixed", "bochner", "gr4", "intform"))


def uniform_u(m, width=0.245, amplitude=0.3):
    grid = make_grid(1, m)
    b = vertically_uniform_bump(grid, width=width)
    peak = b.values.max()
    return ScalarField(grid, 1.0 + amplitude * b.values / peak)


def rich_u(m, width=0.22, amplitude=0.3):
    grid = make_grid(1, m)
    b = periodized_bump(grid, width=width)
    peak = b.values.max()
    return ScalarField(grid, 1.0 + amplitude * b.values / peak)


@pytest.mark.parametrize("m", [4, 5])
def test_grad_sq_is_bit_identical_to_the_squared_sum(m):
    for u in (uniform_u(m), rich_u(m)):
        q = FlowQuantities(u, ALPHA)
        expect = np.sum(q.jetF.first ** 2, axis=0)
        assert q.grad_sq.tobytes() == expect.tobytes()


def test_unknown_tag_rejected():
    u = uniform_u(3)
    with pytest.raises(ValueError):
        identity_residual("nonsense", u, ALPHA)


def test_alpha_validation():
    u = uniform_u(3)
    for bad in (0.0, 0.5):
        with pytest.raises(ValueError):
            identity_residual("deriv2", u, bad)
    with pytest.raises(ValueError):
        identity_residual("deriv2", u, None)


def test_positive_field_required():
    grid = make_grid(1, 3)
    u = ScalarField(grid, np.full(grid.shape, -1.0))
    with pytest.raises(ValueError):
        identity_residual("gr4", u)
    with pytest.raises(ValueError):
        identity_residual("deriv5", u, ALPHA)


def test_constant_field_all_tags_trivial():
    grid = make_grid(1, 3)
    u = ScalarField(grid, np.full(grid.shape, 2.0))
    for tag in IDENTITY_NAMES:
        rep = identity_residual(tag, u, ALPHA)
        assert rep.residual <= 1e-12, tag
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_ricci_mixed_exact_zero():
    # vertical shifts commute with group steps exactly, and the model's
    # torsion endomorphism vanishes
    u = rich_u(4)
    rep = identity_residual("ricci_mixed", u)
    assert rep.relative_residual <= 1e-13


def test_hesrep_bessel_nonnegative():
    u = rich_u(4)
    rep = identity_residual("hesrep_contraction", u, ALPHA)
    assert rep.lhs >= -1e-12 * rep.norm_scale
    assert rep.residual <= 1e-12 * rep.norm_scale


def test_bochner_reduces_to_euclidean_for_xonly():
    # independent oracle: plain-roll Euclidean operators on the x-array
    u = uniform_u(4)
    grid = u.grid
    rep = bochner_residual(u)

    x = u.values[..., 0, 0, 0]
    h = grid.h_x

    def roll_diff(v, a):
        return (np.roll(v, -1, axis=a) - np.roll(v, +1, axis=a)) / (2 * h)

    def lap_pos(v):
        acc = np.zeros_like(v)
        for a in range(4):
            acc += np.roll(v, -1, axis=a) - 2 * v + np.roll(v, +1, axis=a)
        return -acc / (h * h)

    grads = [roll_diff(x, a) for a in range(4)]
    gsq = sum(g * g for g in grads)
    lhs = 0.5 * lap_pos(gsq)
    hess_sq = np.zeros_like(x)
    for a in range(4):
        for b in range(4):
            hab = roll_diff(grads[b], a)
            hess_sq += hab * hab
    lap = lap_pos(x)
    dot = sum(roll_diff(lap, a) * grads[a] for a in range(4))
    resid_e = lhs - (-hess_sq + dot)
    l2_e = np.sqrt(grid.cell_volume * grid.m_t ** 3 * np.sum(resid_e ** 2))
    assert abs(rep.residual - l2_e) <= 1e-10 * max(rep.residual, 1e-30)


@pytest.mark.parametrize("tag", ["bochner", "gr4"])
def test_convergence_on_uniform_data(tag):
    rels = []
    for m in (4, 6, 8):
        grid = make_grid(1, m)
        b = periodized_bump(grid, width=0.245, tau_width=0.75, profile="cosine")
        u = ScalarField(grid, 1.0 + 0.3 * b.values / b.values.max())
        rep = identity_residual(tag, u)
        rels.append(rep.relative_residual)
    assert rels[2] < rels[1] < rels[0]


@pytest.mark.parametrize("tag", ["deriv3", "reprtor", "lastrep", "deriv6",
                                 "intform1", "firstt", "deriv5"])
def test_chain_tags_improve_under_refinement(tag):
    r4 = identity_residual(tag, uniform_u(4), ALPHA).relative_residual
    r8 = identity_residual(tag, uniform_u(8), ALPHA).relative_residual
    assert r8 < r4


def test_secondt_needs_vertical_content():
    # vacuous (0 = 0) on vertically uniform data, nontrivial on the
    # vertically structured bump
    rep0 = identity_residual("secondt", uniform_u(4), ALPHA)
    assert rep0.residual <= 1e-12
    rep = identity_residual("secondt", rich_u(6), ALPHA)
    assert abs(rep.lhs) > 0 and abs(rep.rhs) > 0


def test_derf_static_identity_shrinks():
    # the static surrogate compares the phi-route integral with the
    # five-term side; its constants are large at desk scale but shrink
    rels = [identity_residual("derf", uniform_u(m), ALPHA).relative_residual
            for m in (4, 6, 8)]
    assert rels[2] < rels[1] < rels[0]
    assert rels[2] < 1.0


def test_sign_mutation_inflates_firstt():
    # flipping the sign of one side is loudly visible: the catalog computes
    # the two sides through independent expressions with comparable size
    u = uniform_u(6)
    rep = identity_residual("firstt", u, ALPHA)
    assert abs(rep.lhs) > 0 and abs(rep.rhs) > 0
    flipped = abs(rep.lhs + rep.rhs)  # residual if the rhs sign were wrong
    assert flipped >= 10.0 * rep.residual
