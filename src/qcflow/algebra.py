"""Pointwise Sp(n)Sp(1) linear algebra on the 4n-dimensional horizontal space.

The model's one quaternionic triple I_s = B_s (twist_matrices, the group
law's twist, which the lattice and the identity catalog read too), the
Casimir eigenprojections, the four commutation sign-pattern components,
torsion tensor algebra, and the scalar combinations consumed by the
heat-flow energy monitor.

All routines are pure functions on immutable values; endomorphisms and
bilinear forms are plain (4n, 4n) float arrays.  A bilinear form B is
stored so that B(X, Y) = X @ B_mat @ Y.  No routine takes the triple as an
argument: each reads twist_matrices(n) for the n that its input fixes, the
size 4n of the matrix it acts on or TorsionData.n.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Right multiplication by the unit quaternions i, j, k on one coordinate
# block ordered (1, i, j, k).
RIGHT_I = np.array(
    [[0.0, -1.0, 0.0, 0.0],
     [1.0, 0.0, 0.0, 0.0],
     [0.0, 0.0, 0.0, 1.0],
     [0.0, 0.0, -1.0, 0.0]])
RIGHT_J = np.array(
    [[0.0, 0.0, -1.0, 0.0],
     [0.0, 0.0, 0.0, -1.0],
     [1.0, 0.0, 0.0, 0.0],
     [0.0, 1.0, 0.0, 0.0]])
RIGHT_K = np.array(
    [[0.0, 0.0, 0.0, -1.0],
     [0.0, 0.0, 1.0, 0.0],
     [0.0, -1.0, 0.0, 0.0],
     [1.0, 0.0, 0.0, 0.0]])


@functools.lru_cache(maxsize=None)
def twist_matrices(n: int) -> np.ndarray:
    """Integer bilinear forms B_s with Im_s(conj(x) x') = x @ B_s @ x',
    built once per n and shared, so read-only."""
    B = np.stack([np.kron(np.eye(n), -blk) for blk in (RIGHT_I, RIGHT_J, RIGHT_K)])
    B.flags.writeable = False
    return B


def _check_shape(psi: np.ndarray) -> np.ndarray:
    """psi as a float (4n, 4n) matrix, n >= 1; its size fixes the triple."""
    psi = np.asarray(psi, dtype=float)
    d = psi.shape[0] if psi.ndim == 2 else 0
    if psi.shape != (d, d) or d < 4 or d % 4:
        raise ValueError(f"endomorphism shape {psi.shape} is not (4n, 4n) with n >= 1")
    return psi


def casimir_apply(psi: np.ndarray) -> np.ndarray:
    """Casimir action on endomorphisms/forms: (Upsilon psi)(X,Y) = sum_s psi(I_s X, I_s Y).

    In matrix form sum_s I_s^T psi I_s = -sum_s I_s psi I_s; eigenvalues 3 and -1.
    """
    psi = _check_shape(psi)
    return -sum(I @ psi @ I for I in twist_matrices(psi.shape[0] // 4))


def casimir_decompose(psi: np.ndarray):
    """Split psi into the Casimir eigencomponents (psi_[3], psi_[-1])."""
    psi = _check_shape(psi)
    ups = casimir_apply(psi)
    part3 = 0.25 * (psi + ups)
    part1 = 0.25 * (3.0 * psi - ups)
    return part3, part1


def four_part_decompose(psi: np.ndarray):
    """Split psi into the (+++), (+--), (-+-), (--+) commutation components.

    The sign triple records commutation (+) or anticommutation (-) with
    I1, I2, I3; the product of the three signs is always +.
    """
    psi = _check_shape(psi)
    I1, I2, I3 = twist_matrices(psi.shape[0] // 4)
    u1 = -I1 @ psi @ I1
    u2 = -I2 @ psi @ I2
    u3 = -I3 @ psi @ I3
    ppp = 0.25 * (psi + u1 + u2 + u3)
    pmm = 0.25 * (psi + u1 - u2 - u3)
    mpm = 0.25 * (psi - u1 + u2 - u3)
    mmp = 0.25 * (psi - u1 - u2 + u3)
    return ppp, pmm, mpm, mmp


@dataclass(frozen=True)
class TorsionData:
    """Invariant torsion components: symmetric trace-free T0 and U plus the
    normalized scalar curvature S.  U is identically zero when n == 1.

    T0 and U are bilinear-form matrices; T0_xi optionally carries the three
    per-Reeb symmetric endomorphisms that assemble into T0.
    """

    n: int
    T0: np.ndarray
    U: np.ndarray
    S: float
    T0_xi: tuple | None = None


def trace_free_casimir_part(sym: np.ndarray) -> np.ndarray:
    """Trace-free [3]-component of a symmetric matrix (the U-type tensors)."""
    part3, _ = casimir_decompose(sym)
    d = part3.shape[0]
    return part3 - (np.trace(part3) / d) * np.eye(d)


def random_torsion(n: int, rng: np.random.Generator) -> TorsionData:
    """Random valid torsion data built from per-Reeb components.

    Draws the free sign-pattern blocks A = (T_xi1)^{-+-}, B = (T_xi1)^{--+},
    C = (T_xi2)^{--+}; the remaining blocks are determined by the coupling
    relations between the three per-Reeb tensors.
    """
    if n < 1:
        raise ValueError("quaternionic dimension n must be >= 1")
    d = 4 * n
    I1, I2, I3 = twist_matrices(n)

    def sym(mat):
        return 0.5 * (mat + mat.T)

    _, _, mpm_a, _ = four_part_decompose(sym(rng.normal(size=(d, d))))
    _, _, _, mmp_b = four_part_decompose(sym(rng.normal(size=(d, d))))
    _, _, _, mmp_c = four_part_decompose(sym(rng.normal(size=(d, d))))
    A, B, C = mpm_a, mmp_b, mmp_c

    t1 = A + B
    t2 = I3 @ A + C
    t3 = I1 @ C - I2 @ B

    t0_form = t1 @ I1 + t2 @ I2 + t3 @ I3
    if n == 1:
        u_form = np.zeros((d, d))
    else:
        u_form = trace_free_casimir_part(sym(rng.normal(size=(d, d))))
    s_val = float(rng.normal())
    return TorsionData(n=n, T0=t0_form, U=u_form, S=s_val, T0_xi=(t1, t2, t3))


def torsion_contraction(td: TorsionData, s: int, X: np.ndarray, Y: np.ndarray) -> float:
    """T(xi_s, I_s X, Y) from the invariant components:
    (1/4)[T0(X,Y) - T0(I_s X, I_s Y)] - U(X,Y)."""
    if s not in (0, 1, 2):
        raise ValueError("Reeb index s must be 0, 1 or 2")
    Is = twist_matrices(td.n)[s]
    IsX = Is @ X
    IsY = Is @ Y
    val = 0.25 * (X @ td.T0 @ Y - IsX @ td.T0 @ IsY) - X @ td.U @ Y
    return float(val)


def ricci_from_torsion(td: TorsionData, X: np.ndarray, Y: np.ndarray) -> float:
    """Horizontal Ricci value (2n+2)T0 + (4n+10)U + 2(n+2)S g on (X, Y)."""
    n = td.n
    return float((2 * n + 2) * (X @ td.T0 @ Y)
                 + (4 * n + 10) * (X @ td.U @ Y)
                 + 2 * (n + 2) * td.S * (X @ Y))


def lichnerowicz_coefficients(n: int):
    """Coefficients (c_S, c_T, c_U) of the positivity tensor L = c_S S g + c_T T0 + c_U U.

    The U coefficient is dropped (zero) when n == 1.
    """
    c_s = 2.0 * (n + 2)
    c_t = (4.0 * n * n + 14.0 * n + 12.0) / (2.0 * n + 1.0)
    c_u = 0.0 if n == 1 else 4.0 * (n + 2) ** 2 * (2 * n - 1) / ((n - 1) * (2 * n + 1))
    return c_s, c_t, c_u


def lichnerowicz_matrix(td: TorsionData) -> np.ndarray:
    """Bilinear-form matrix of L, so L(X, Y) = X @ mat @ Y."""
    c_s, c_t, c_u = lichnerowicz_coefficients(td.n)
    d = 4 * td.n
    mat = c_s * td.S * np.eye(d) + c_t * td.T0
    if td.n > 1:
        mat = mat + c_u * td.U
    return mat


def lichnerowicz_form(td: TorsionData, X: np.ndarray) -> float:
    """L(X, X) = 2(n+2)S|X|^2 + [(4n^2+14n+12)/(2n+1)]T0(X,X) + c_U U(X,X)."""
    return float(X @ lichnerowicz_matrix(td) @ X)


def lichnerowicz_form_via_ricci(td: TorsionData, X: np.ndarray) -> float:
    """Equivalent expression Ric(X,X) + [2(4n+5)/(2n+1)]T0(X,X) + c'_U U(X,X)."""
    n = td.n
    val = ricci_from_torsion(td, X, X)
    val += 2.0 * (4 * n + 5) / (2 * n + 1) * float(X @ td.T0 @ X)
    if n > 1:
        val += 6.0 * (2 * n * n + 5 * n - 1) / ((n - 1) * (2 * n + 1)) * float(X @ td.U @ X)
    return val


def represtor_combination(td: TorsionData, X: np.ndarray):
    """Both sides of the torsion-recombination identity used to introduce L.

    lhs = 2nS|X|^2 + 2(n+2)T0(X,X) + [4n(n+1)/(n-1)]U(X,X)
    rhs = -S|X|^2 + T0(X,X) - [2(n-2)/(n-1)]U(X,X) + [(2n+1)/(2(n+2))]L(X,X)
    with every U term removed when n == 1.
    """
    n = td.n
    xx = float(X @ X)
    t0xx = float(X @ td.T0 @ X)
    uxx = float(X @ td.U @ X)
    lhs = 2.0 * n * td.S * xx + 2.0 * (n + 2) * t0xx
    rhs = -td.S * xx + t0xx + (2.0 * n + 1) / (2.0 * (n + 2)) * lichnerowicz_form(td, X)
    if n > 1:
        lhs += 4.0 * n * (n + 1) / (n - 1) * uxx
        rhs += -2.0 * (n - 2) / (n - 1) * uxx
    return lhs, rhs


def h_polynomial(n: int, alpha: float) -> float:
    """Admissibility quadratic h_n(alpha) = 48 n alpha^2 - 2(16n-3) alpha - 3."""
    return 48 * n * alpha * alpha - 2 * (16 * n - 3) * alpha - 3


def alpha_interval(n: int):
    """Admissible exponent range [ (16n-3-sqrt(256n^2+48n+9))/(48n), 0 )."""
    lo = (16.0 * n - 3.0 - math.sqrt(256.0 * n * n + 48.0 * n + 9.0)) / (48.0 * n)
    return lo, 0.0
