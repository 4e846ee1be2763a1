"""Tests for the identity catalog."""

from fractions import Fraction

import numpy as np
import pytest

import qcflow.energy as energy_module
import qcflow.identities as identities_module
from qcflow.algebra import alpha_interval
from qcflow.flow import FlowConfig, stream
from qcflow.identities import (
    IDENTITY_NAMES,
    FlowQuantities,
    bochner_residual,
    identity_residual,
    linear_rows,
)
from qcflow.lattice import (
    ScalarField,
    make_grid,
    periodized_bump,
    vertically_uniform_bump,
)
from qcflow.operators import DifferenceJet, p_functional
from qcflow.suites import _rich_field, _uniformish_field

from oracles import kernel_calls

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
        # the rows D_a F as one (4n,) + grid.shape stack, summed over its
        # first axis: one addition per axis, in axis order
        rows = np.moveaxis(q.jetF.first, -1, 0).copy()
        expect = np.sum(rows ** 2, axis=0)
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


def test_a_nan_point_is_refused_like_a_non_positive_one():
    # every positivity guard reads `not x > 0.0`, which holds for NaN where
    # `x <= 0.0` does not: a field with one NaN point is refused by the
    # energy, the catalog and its record, and by the first step of a
    # stream, which would otherwise step from a NaN minimum
    grid = make_grid(1, 3)
    values = np.full(grid.shape, 1.0)
    values.flat[grid.size // 2] = np.nan
    u = ScalarField(grid, values)
    for refused in (lambda: energy_module.energy(u),
                    lambda: identity_residual("deriv2", u, ALPHA),
                    lambda: FlowQuantities(u, ALPHA)):
        with pytest.raises(ValueError, match="strictly positive"):
            refused()
    states = stream(FlowConfig(m_x=3), u)
    assert next(states).step == 0
    with pytest.raises(ValueError, match="strictly positive"):
        next(states)


def test_suite_fields_refuse_a_bump_that_is_zero_on_the_grid():
    # at (n, m_x) = (2, 3) no grid point lies in the support of the rich
    # field's bump, which was then normalised by its zero peak into an
    # all-NaN field; both suite fields share one normalisation, which
    # refuses such a bump by n and m_x and otherwise spans [1, 1.3]
    with pytest.raises(ValueError, match=r"zero on every point .* n=2, m_x=3"):
        _rich_field(make_grid(2, 3))
    for maker in (_rich_field, _uniformish_field):
        for n, m in ((1, 3), (2, 2)):
            u = maker(make_grid(n, m))
            assert u.values.min() >= 1.0
            assert u.values.max() == pytest.approx(1.3, rel=1e-15)


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


@pytest.mark.parametrize("m", [4, 5])
def test_gr4_makes_the_jet_of_f_once(m, monkeypatch):
    # gr4 pairs P_f with grad f, f = u^(1/2), from the jet of f it holds
    # for its left side and int (Delta f)^2: difference_jet writes each
    # point of f's jet once, and the right side keeps the bits of the
    # P-pairing that sweeps f (operators.p_functional)
    u = rich_u(m)
    grid = u.grid
    f = ScalarField(grid, np.sqrt(u.values))
    i_lap = float(grid.cell_volume * np.sum(DifferenceJet(f).laplacian ** 2))
    rhs = -(1.0 / (4 * grid.n)) * (p_functional(f) + i_lap)
    calls = kernel_calls(monkeypatch)
    rep = identity_residual("gr4", u)
    assert sum(args[4] for name, args in calls if name == "difference_jet") == grid.size
    assert rep.rhs == rhs


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


NONLINEAR_TAGS = ("ricci2", "ricci_mixed", "bochner", "gr4", "intform", "hesrep_contraction")


def test_every_tag_has_exactly_one_route():
    # a tag is either a row of linear_rows or one of the tags with code of
    # their own, never both and never neither
    routes = sorted(list(linear_rows(1, ALPHA)) + list(NONLINEAR_TAGS))
    assert routes == sorted(IDENTITY_NAMES)


# every integral a linear row reads, FlowQuantities' and its production's
INTEGRALS = ("deriv1_integral", "I_lap2", "I_quart", "I_mixed", "I_gradlap", "I_lap_gradsq",
             "I_xi2", "I_reeb_mixed", "P_pair_half", "I_hess2", "I_omega2", "I_deficit")


class _UnitRecord:
    """Each integral is its unit vector of exact ints, and the record is its
    own production record, so a row's lhs - rhs is its coefficient vector."""

    def __init__(self):
        for k, name in enumerate(INTEGRALS):
            unit = np.zeros(len(INTEGRALS), dtype=object)
            unit[k] = 1
            setattr(self, name, unit)
        self.production = self


def _hesrep(q, n):
    # the integrated Hessian split |H|^2 = (tr H)^2/4n + sum_s omega_s^2/4n + deficit
    p = q.production
    return p.I_hess2 - (p.I_lap2 + p.I_omega2) / (4 * n) - p.I_deficit


def _exact_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                ratio = Fraction(rows[i][col]) / rows[rank][col]
                rows[i] = [x - ratio * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_chain_algebra_is_exact(n):
    # the catalog's own rows at rational (n, alpha): every coefficient is
    # exact, the eight rows that do not read I_reeb_mixed and are not derf,
    # with the Hessian split, have rank 7, and derf, lastrep and the split
    # are the combinations of the lemma's chain
    n = Fraction(n)
    lo, hi = alpha_interval(int(n))
    q = _UnitRecord()
    for a in (Fraction(-1, 40), Fraction(-1, 64), Fraction(-1, 100)):
        assert lo <= a < hi
        rows = {}
        for tag, row in linear_rows(n, a).items():
            lhs, rhs, _ = row(q)
            rows[tag] = lhs - rhs
            assert all(type(c) in (int, Fraction) for c in rows[tag]), tag
        chain = [rows[tag] for tag in rows if tag not in ("derf", "secondt")]
        assert len(chain) == 8
        assert _exact_rank(chain + [_hesrep(q, n)]) == 7
        assert list(rows["derf"]) == list(
            rows["deriv2"] + 2 * (3 - 4 * a) / (3 * a * (2 * n + 1)) * rows["lastrep"])
        assert list(rows["lastrep"]) == list(
            (3 * n + 2) * rows["deriv6"] + 2 * n * a / (1 - 2 * a) * rows["reprtor"])
        assert list(_hesrep(q, n)) == list(
            rows["deriv5"] - 4 * rows["intform1"]
            + (2 * a - 1) * (3 * n + 2) / (2 * a * n) * rows["deriv6"])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_deriv3_and_firstt_rows_are_their_summation_by_parts(n):
    # The weight of both rows is u^(1 - 2 alpha) = F^p with F = u^alpha
    # and p = 1/alpha - 2; I_mixed weighs Delta F |DF|^2 by F^(p-1) and
    # I_quart weighs |DF|^4 by F^(p-2).  With Delta = -div D, summation by
    # parts and the product rule give
    #   deriv3: int F^p <D Delta F, DF> = -int Delta F div(F^p DF)
    #             = -p I_mixed + I_lap2, as div(F^p DF) = p F^(p-1) |DF|^2
    #             - F^p Delta F, so I_gradlap + p I_mixed - I_lap2 = 0;
    #   firstt: int F^p Delta |DF|^2 = int |DF|^2 Delta F^p
    #             = p I_mixed - p (p - 1) I_quart, as Delta F^p = p F^(p-1)
    #             Delta F - p (p - 1) F^(p-2) |DF|^2, so
    #             p I_mixed - p (p - 1) I_quart - I_lap_gradsq = 0.
    # Each row's lhs - rhs is that vector exactly.  No other row reads
    # I_gradlap or I_lap_gradsq, so the chain's algebra cannot pin them
    q = _UnitRecord()
    for a in (Fraction(-1, 40), Fraction(-1, 64), Fraction(-1, 100)):
        p = 1 / a - 2
        rows = linear_rows(Fraction(n), a)
        lhs, rhs, _ = rows["deriv3"](q)
        assert list(lhs - rhs) == list(q.I_gradlap + p * q.I_mixed - q.I_lap2)
        lhs, rhs, _ = rows["firstt"](q)
        assert list(lhs - rhs) == list(p * q.I_mixed - p * (p - 1) * q.I_quart
                                       - q.I_lap_gradsq)


def _lognormal_u(n, m, seed=7):
    grid = make_grid(n, m)
    rng = np.random.default_rng(seed)
    return ScalarField(grid, np.exp(0.2 * rng.standard_normal(grid.shape)))


def _relation_misses(q, n, a):
    """The three relations on the signed residuals lhs - rhs of the rows at
    one record, with the largest norm scale involved."""
    res, scale = {}, []
    for tag, row in linear_rows(n, a).items():
        lhs, rhs, extra = row(q)
        res[tag] = lhs - rhs
        scale.append(max(abs(lhs), abs(rhs), *(abs(t) for t in extra)))
    p = q.production
    res["hesrep"] = _hesrep(q, n)
    scale.append(p.I_hess2)
    misses = (
        res["derf"] - res["deriv2"] - 2 * (3 - 4 * a) / (3 * a * (2 * n + 1)) * res["lastrep"],
        res["lastrep"] - (3 * n + 2) * res["deriv6"] - 2 * n * a / (1 - 2 * a) * res["reprtor"],
        res["hesrep"] - res["deriv5"] + 4 * res["intform1"]
        - (2 * a - 1) * (3 * n + 2) / (2 * a * n) * res["deriv6"])
    return [abs(m) for m in misses], max(scale)


@pytest.mark.parametrize("n, m", [(1, 4), (2, 3)])
@pytest.mark.parametrize("alpha", [-0.05, -0.2])
def test_the_chain_relations_hold_on_lattice_residuals(n, m, alpha, monkeypatch):
    # the lattice residuals obey the chain's algebra to roundoff, and a 1 %
    # error in any five-term coefficient whose term is non-zero breaks the
    # derf relation by far more; the Lichnerowicz coefficient multiplies
    # the model's vanishing torsion and is skipped, as in the lemma suite
    u = _rich_field(make_grid(n, m)) if n == 1 else _lognormal_u(n, m)
    q = FlowQuantities(u, alpha)
    misses, scale = _relation_misses(q, n, alpha)
    assert max(misses) <= 1e-13 * scale
    coefficients = identities_module.derf_coefficients
    for k in (0, 1, 2, 4):
        def mutated(n_, a_, k=k):
            c = list(coefficients(n_, a_))
            c[k] *= 1.01
            return tuple(c)
        monkeypatch.setattr(identities_module, "derf_coefficients", mutated)
        (derf_miss, _, _), _ = _relation_misses(q, n, alpha)
        assert derf_miss >= 1e-9 * scale, k
