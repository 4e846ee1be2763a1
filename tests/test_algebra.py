"""Tests for the pointwise Sp(n)Sp(1) algebra."""
import math

import numpy as np
import pytest

from qcflow import algebra, lattice
from qcflow.algebra import (
    TorsionData,
    alpha_interval,
    casimir_apply,
    casimir_decompose,
    four_part_decompose,
    h_polynomial,
    lichnerowicz_form,
    lichnerowicz_form_via_ricci,
    random_torsion,
    represtor_combination,
    ricci_from_torsion,
    torsion_contraction,
    twist_matrices,
)
from qcflow.lattice import imaginary_product

TOL = 1e-12


def maxabs(a):
    return float(np.max(np.abs(a)))


def zero_torsion(n):
    """The model's torsion: every component zero, the per-Reeb parts too."""
    z = np.zeros((4 * n, 4 * n))
    return TorsionData(n=n, T0=z, U=z.copy(), S=0.0, T0_xi=(z.copy(), z.copy(), z.copy()))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_triple_relations(n):
    B = twist_matrices(n)
    I1, I2, I3 = B
    d = 4 * n
    assert maxabs(I1 @ I2 - I3) == 0.0
    assert maxabs(I1 @ I2 + I2 @ I1) == 0.0
    assert maxabs(I1 @ I2 @ I3 + np.eye(d)) == 0.0
    for Is in B:
        assert maxabs(Is @ Is + np.eye(d)) == 0.0
        assert maxabs(Is.T @ Is - np.eye(d)) == 0.0
        assert maxabs(Is.T + Is) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_structure_is_the_models_twist(n):
    # one triple: criterion 1's I_s are the B_s of the group law's twist,
    # which the lattice, the Hessian's omega_s(H) and the catalog read
    B = twist_matrices(n)
    rng = np.random.default_rng(n)
    for _ in range(20):
        x, y = rng.normal(size=(2, 4 * n))
        got = imaginary_product(x, y)
        for s in range(3):
            assert got[s] == x @ B[s] @ y


def test_lattice_reads_the_algebra_twist():
    assert lattice.twist_matrices is algebra.twist_matrices


def test_structure_rejects_n_zero():
    # the triple is read from the size 4n of the matrix acted on, n >= 1
    with pytest.raises(ValueError):
        random_torsion(0, np.random.default_rng(0))
    for shape in ((0, 0), (3, 3), (4, 8)):
        with pytest.raises(ValueError, match="not \\(4n, 4n\\)"):
            casimir_apply(np.zeros(shape))


def test_omega_pairings_brute_force():
    # sum_{a,b} omega_s(a,b) omega_t(a,b) = 4n delta_st, by explicit double sum
    B = twist_matrices(1)
    om = [B[s].T for s in range(3)]
    for s in range(3):
        for t in range(3):
            total = 0.0
            for a in range(4):
                for b in range(4):
                    total += om[s][a, b] * om[t][a, b]
            assert abs(total - (4.0 if s == t else 0.0)) <= TOL


def test_casimir_identity_and_omega_components():
    B = twist_matrices(1)
    eye = np.eye(4)
    p3, p1 = casimir_decompose(eye)
    assert maxabs(p3 - eye) <= TOL
    assert maxabs(p1) <= TOL
    p3, p1 = casimir_decompose(B[0])
    assert maxabs(p3) <= TOL
    assert maxabs(p1 - B[0]) <= TOL


def test_casimir_symmetric_part3_proportional_to_identity():
    # n = 1: the [3]-part of any symmetric endomorphism is c * Id; assert
    # proportionality only and record the measured constant.
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = rng.normal(size=(4, 4))
        psi = 0.5 * (psi + psi.T)
        p3, _ = casimir_decompose(psi)
        c = np.trace(p3) / 4.0
        assert maxabs(p3 - c * np.eye(4)) <= TOL
        # measured convention check: c tracks tr(psi)/4 (sign included)
        assert abs(c - np.trace(psi) / 4.0) <= TOL


@pytest.mark.parametrize("n", [1, 2])
def test_casimir_projectors_idempotent_and_annihilating(n):
    rng = np.random.default_rng(11)
    for _ in range(10):
        psi = rng.normal(size=(4 * n, 4 * n))
        p3, p1 = casimir_decompose(psi)
        assert maxabs(p3 + p1 - psi) <= TOL
        p33, p31 = casimir_decompose(p3)
        assert maxabs(p33 - p3) <= TOL
        assert maxabs(p31) <= TOL
        p13, p11 = casimir_decompose(p1)
        assert maxabs(p13) <= TOL
        assert maxabs(p11 - p1) <= TOL
        # eigenvalue relations of the Casimir action
        assert maxabs(casimir_apply(p3) - 3.0 * p3) <= TOL
        assert maxabs(casimir_apply(p1) + p1) <= TOL


@pytest.mark.parametrize("n", [1, 2])
def test_four_part_signs_and_reassembly(n):
    I1, I2, I3 = twist_matrices(n)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(4 * n, 4 * n))
    parts = four_part_decompose(psi)
    assert maxabs(sum(parts) - psi) <= TOL
    signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    for part, sgn in zip(parts, signs):
        for Is, eps in zip((I1, I2, I3), sgn):
            assert maxabs(Is @ part - eps * part @ Is) <= TOL
    # Casimir split agrees: [3] part is the (+++) component
    p3, p1 = casimir_decompose(psi)
    assert maxabs(parts[0] - p3) <= TOL
    assert maxabs(parts[1] + parts[2] + parts[3] - p1) <= TOL


def test_four_part_of_identity_and_i2():
    B = twist_matrices(1)
    parts = four_part_decompose(np.eye(4))
    assert maxabs(parts[0] - np.eye(4)) <= TOL
    for p in parts[1:]:
        assert maxabs(p) <= TOL
    parts = four_part_decompose(B[1])
    assert maxabs(parts[2] - B[1]) <= TOL
    for k in (0, 1, 3):
        assert maxabs(parts[k]) <= TOL


@pytest.mark.parametrize("n", [1, 2, 3])
def test_torsion_invariants(n):
    B = twist_matrices(n)
    rng = np.random.default_rng(5)
    for _ in range(10):
        td = random_torsion(n, rng)
        I1, I2, I3 = B
        # symmetric and trace-free
        assert maxabs(td.T0 - td.T0.T) <= TOL
        assert abs(np.trace(td.T0)) <= TOL
        assert abs(np.trace(td.U)) <= TOL
        # four-fold sum of T0 vanishes; U is I_s-invariant
        four = td.T0 + sum(Is.T @ td.T0 @ Is for Is in B)
        assert maxabs(four) <= TOL
        for Is in B:
            assert maxabs(Is.T @ td.U @ Is - td.U) <= TOL
        if n == 1:
            assert maxabs(td.U) <= TOL
        # per-Reeb components: reassembly, anticommutation, complete trace-freeness
        t1, t2, t3 = td.T0_xi
        assert maxabs(t1 @ I1 + t2 @ I2 + t3 @ I3 - td.T0) <= TOL
        for ts, Is in zip(td.T0_xi, B):
            assert maxabs(ts - ts.T) <= TOL
            assert maxabs(ts @ Is + Is @ ts) <= TOL
            assert abs(np.trace(ts)) <= TOL
            for It in B:
                assert abs(np.trace(ts @ It)) <= TOL


def test_torsion_contraction_zero_cases():
    B = twist_matrices(2)
    td = zero_torsion(2)
    rng = np.random.default_rng(1)
    X = rng.normal(size=8)
    Y = rng.normal(size=8)
    for s in range(3):
        assert abs(torsion_contraction(td, s, X, Y)) <= TOL
    # T0 invariant under (X,Y) -> (I_s X, I_s Y) makes the bracket cancel
    s = 1
    Is = B[s]
    sym = rng.normal(size=(8, 8))
    sym = 0.5 * (sym + sym.T)
    t0 = 0.5 * (sym + Is.T @ sym @ Is)  # satisfies t0(I_s., I_s.) = t0
    td2 = TorsionData(n=2, T0=t0, U=np.zeros((8, 8)), S=0.0)
    val = torsion_contraction(td2, s, X, Y)
    assert abs(val) <= TOL


def test_torsion_contraction_matches_per_reeb_oracle():
    # Straight-line oracle: T(xi_s, I_s X, Y) evaluated from the per-Reeb
    # endomorphisms, the relation 4 T0(xi_s, I_s X, Y) = T0(X,Y) - T0(I_sX, I_sY)
    # entering only through the generated components, plus the skew part I_s u.
    B = twist_matrices(2)
    rng = np.random.default_rng(17)
    for _ in range(20):
        td = random_torsion(2, rng)
        X = rng.normal(size=8)
        Y = rng.normal(size=8)
        for s in range(3):
            Is = B[s]
            t_sym = td.T0_xi[s]
            oracle = float(Y @ (t_sym @ (Is @ X)) + Y @ (Is @ td.U @ Is @ X))
            val = torsion_contraction(td, s, X, Y)
            assert abs(val - oracle) <= 1e-11


def test_torsion_contraction_rejects_bad_reeb_index():
    td = zero_torsion(1)
    with pytest.raises(ValueError):
        torsion_contraction(td, 3, np.ones(4), np.ones(4))


def test_ricci_from_torsion():
    rng = np.random.default_rng(23)
    for n in (1, 2):
        d = 4 * n
        X = np.zeros(d)
        X[0] = 1.0
        td = TorsionData(n=n, T0=np.zeros((d, d)), U=np.zeros((d, d)), S=1.3)
        assert abs(ricci_from_torsion(td, X, X) - 2 * (n + 2) * 1.3) <= TOL
        tdz = zero_torsion(n)
        assert abs(ricci_from_torsion(tdz, X, X)) <= TOL
    # n = 2: coefficients 6, 18, 8 recomputed independently
    td = random_torsion(2, rng)
    X = rng.normal(size=8)
    Y = rng.normal(size=8)
    expect = 6.0 * (X @ td.T0 @ Y) + 18.0 * (X @ td.U @ Y) + 8.0 * td.S * (X @ Y)
    assert abs(ricci_from_torsion(td, X, Y) - expect) <= 1e-11


@pytest.mark.parametrize("n", [2, 3])
def test_lichnerowicz_two_expressions_agree(n):
    rng = np.random.default_rng(29)
    for _ in range(50):
        td = random_torsion(n, rng)
        X = rng.normal(size=4 * n)
        a = lichnerowicz_form(td, X)
        b = lichnerowicz_form_via_ricci(td, X)
        scale = max(abs(a), abs(b), 1.0)
        assert abs(a - b) <= TOL * scale


def test_lichnerowicz_special_values():
    td = zero_torsion(1)
    X = np.array([1.0, 0.0, 0.0, 0.0])
    assert abs(lichnerowicz_form(td, X)) <= TOL
    td1 = TorsionData(n=1, T0=np.zeros((4, 4)), U=np.zeros((4, 4)), S=1.0)
    assert abs(lichnerowicz_form(td1, X) - 6.0) <= TOL


@pytest.mark.parametrize("n", [1, 2, 3])
def test_represtor_identity(n):
    rng = np.random.default_rng(31)
    tdz = zero_torsion(n)
    lhs, rhs = represtor_combination(tdz, np.ones(4 * n))
    assert abs(lhs) <= TOL and abs(rhs) <= TOL
    for _ in range(100):
        td = random_torsion(n, rng)
        X = rng.normal(size=4 * n)
        lhs, rhs = represtor_combination(td, X)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= TOL * scale


def test_h_polynomial_values():
    assert abs(h_polynomial(1, 0.0) + 3.0) <= TOL
    # direct arithmetic: h_1(-0.05) = 0.12 + 1.3 - 3
    assert abs(h_polynomial(1, -0.05) + 1.58) <= TOL


def test_alpha_interval_root_by_bisection():
    for n in (1, 2, 3):
        lo, hi = alpha_interval(n)
        assert hi == 0.0
        # bisection on h_n over a bracketing interval
        a, b = lo - 0.1, lo + 0.1
        assert h_polynomial(n, a) > 0 and h_polynomial(n, b) < 0
        for _ in range(100):
            mid = 0.5 * (a + b)
            if h_polynomial(n, mid) > 0:
                a = mid
            else:
                b = mid
        assert abs(0.5 * (a + b) - lo) <= 1e-10
    # closed form for n = 1
    assert abs(alpha_interval(1)[0] - (13.0 - math.sqrt(313.0)) / 48.0) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_h_nonpositive_on_interval(n):
    lo, hi = alpha_interval(n)
    samples = np.linspace(lo, hi, 1000, endpoint=False)
    vals = np.array([h_polynomial(n, float(a)) for a in samples])
    assert np.all(vals <= 1e-12)


def test_alpha_default_inside_interval():
    lo, hi = alpha_interval(1)
    assert lo < -0.05 < hi
