"""Compact model manifold: the quaternionic Heisenberg group, its cocompact
lattice quotient, and the exact on-grid discrete geometry.

Group law on R^{4n} x R^3:

    (x, t) * (x', t') = (x + x', t + t' + 2 Im(conj(x) x')),

with the imaginary quaternion product summed over the n coordinate blocks.
The grid couples the vertical spacing to the horizontal one (h_t = 2 h_x^2,
L_t = 2 h_x L_x, m_t = m_x) so that every unit horizontal step from a grid
point lands exactly on a grid point after periodic wrap; all discrete
derivatives are pure index arithmetic with zero interpolation error.

Left-invariant frame conventions (validated by the frame-contract tests):
the twist bilinears are Im_s(conj(x) x') = x @ B_s @ x' with B_s minus the
right multiplication by i_s, the Reeb fields are xi_s = 2 d/dt_s, and the
almost complex triple of the frame is I_s = B_s.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    RIGHT_I,
    RIGHT_J,
    RIGHT_K,
    QuaternionicStructure,
    TorsionData,
    structure_from_triple,
)

XI_SCALE = 2.0  # xi_s = XI_SCALE * d/dt_s

L_X = 1.0  # horizontal period of the lattice quotient

FORMAT_VERSION = "qcflow-field-1"


def twist_matrices(n: int) -> np.ndarray:
    """Integer bilinear forms B_s with Im_s(conj(x) x') = x @ B_s @ x'."""
    eye = np.eye(n)
    return np.stack([np.kron(eye, -blk) for blk in (RIGHT_I, RIGHT_J, RIGHT_K)])


@dataclass(frozen=True)
class GroupPoint:
    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        if self.x.shape[0] % 4 != 0 or self.t.shape != (3,):
            raise ValueError("GroupPoint needs a 4n horizontal and a 3 vertical part")

    @property
    def n(self) -> int:
        return self.x.shape[0] // 4


def imaginary_product(x: np.ndarray, xp: np.ndarray) -> np.ndarray:
    """Im(conj(x) xp) summed over quaternionic blocks, as a 3-vector."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    B = twist_matrices(x.shape[0] // 4)
    return np.array([x @ B[s] @ xp for s in range(3)])


def group_multiply(p: GroupPoint, q: GroupPoint, n: int | None = None) -> GroupPoint:
    if n is not None and (p.n != n or q.n != n):
        raise ValueError("group points do not match the requested n")
    if p.n != q.n:
        raise ValueError("group points have different dimensions")
    return GroupPoint(p.x + q.x, p.t + q.t + 2.0 * imaginary_product(p.x, q.x))


def group_inverse(p: GroupPoint) -> GroupPoint:
    return GroupPoint(-p.x, -p.t)


def group_identity(n: int) -> GroupPoint:
    return GroupPoint(np.zeros(4 * n), np.zeros(3))


@dataclass
class LatticeGrid:
    """Uniform grid on the lattice quotient; horizontal axes first, then the
    three vertical axes, row-major."""

    n: int
    m_x: int
    _perm_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.m_x < 2:
            raise ValueError("need n >= 1 and m_x >= 2")
        self.m_t = self.m_x
        self.L_x = L_X
        self.h_x = self.L_x / self.m_x
        self.h_t = 2.0 * self.h_x * self.h_x
        self.L_t = 2.0 * self.h_x * self.L_x
        self.dim_h = 4 * self.n
        self.shape = (self.m_x,) * self.dim_h + (self.m_t,) * 3
        self.size = self.m_x ** self.dim_h * self.m_t ** 3
        self.cell_volume = self.h_x ** self.dim_h * self.h_t ** 3
        self.twist = twist_matrices(self.n).astype(np.int64)

    def point_at(self, idx) -> GroupPoint:
        idx = tuple(int(i) for i in idx)
        x = np.array(idx[: self.dim_h], dtype=float) * self.h_x
        t = np.array(idx[self.dim_h:], dtype=float) * self.h_t
        return GroupPoint(x, t)

    def step_permutation(self, a: int, direction: int) -> np.ndarray:
        """Flat index map P with (S f)(g) = f(g * (dir*h_x e_a, 0)) = f.flat[P].

        Each table is int64, built directly for either direction (no
        inverse scatter, see _build_step_permutation) and kept for the life
        of the grid.  The 8n tables of a full difference pass cost 64n B per
        point against 8 B for one float64 field: at n = 1, m_x = 12 (12^7
        points) that is 2.3 GB.
        """
        key = (a, direction)
        if key not in self._perm_cache:
            self._perm_cache[key] = self._build_step_permutation(a, direction)
        return self._perm_cache[key]

    def _build_step_permutation(self, a: int, direction: int) -> np.ndarray:
        """The step is the affine map i_a -> i_a + d, t_s -> t_s + d K_s(x)
        (mod m) with K_s(x) = sum_b twist[s][b, a] i_b: crossing the top or
        the bottom of axis a adds a wrap correction +-m K_s to t_s, a
        multiple of m_t = m_x that drops out mod m.  So the flat index is a
        sum of per-axis offsets, each a small array over the axes it reads,
        broadcast to the grid with one full-size addition at the end."""
        if not 0 <= a < self.dim_h:
            raise ValueError(f"horizontal axis {a} out of range")
        if direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")
        m = self.m_x
        idx = np.indices(self.shape, sparse=True)
        strides = [m ** (len(self.shape) - 1 - k) for k in range(len(self.shape))]
        offsets = [((i + direction) % m if k == a else i) * strides[k]
                   for k, i in enumerate(idx[: self.dim_h])]
        for s in range(3):
            col = self.twist[s][:, a]
            K = sum(int(col[b]) * idx[b] for b in np.nonzero(col)[0])
            k = self.dim_h + s
            offsets.append((idx[k] + direction * K) % m * strides[k])
        # the horizontal offsets and the first two vertical ones stay at most
        # m^(4n+2) points; only the last addition writes a full-size table
        flat = sum(offsets[:-1])
        total = np.empty(self.shape, dtype=np.int64)
        np.add(flat, offsets[-1], out=total)
        # int64 indices: numpy gathers avoid a per-call index cast
        return total.reshape(-1)

    def drop_caches(self):
        self._perm_cache.clear()


def make_grid(n: int, m_x: int) -> LatticeGrid:
    return LatticeGrid(n=n, m_x=m_x)


def horizontal_step_index(grid: LatticeGrid, idx, a: int, direction: int):
    """Grid index of g * (direction*h_x e_a, 0) for the point g at idx."""
    if not 0 <= a < grid.dim_h:
        raise ValueError(f"horizontal axis {a} out of range")
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    m = grid.m_x
    ix = [int(i) for i in idx[: grid.dim_h]]
    it = [int(i) for i in idx[grid.dim_h:]]
    new_ix = list(ix)
    new_ix[a] += direction
    coef = direction
    if new_ix[a] == m:
        new_ix[a] = 0
        coef += m
    elif new_ix[a] == -1:
        new_ix[a] = m - 1
        coef -= m
    out_t = []
    for s in range(3):
        K = int(sum(grid.twist[s][b, a] * ix[b] for b in range(grid.dim_h)))
        out_t.append((it[s] + coef * K) % grid.m_t)
    return tuple(new_ix) + tuple(out_t)


@dataclass
class ScalarField:
    grid: LatticeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError("field shape does not match the grid")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class HorizontalField:
    """Frame components sigma(e_a), stored as a (4n,) + grid.shape array."""

    grid: LatticeGrid
    components: np.ndarray

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float)
        if self.components.shape != (self.grid.dim_h,) + self.grid.shape:
            raise ValueError("component shape does not match the grid")


def shift(values: np.ndarray, grid: LatticeGrid, a: int, direction: int) -> np.ndarray:
    """Sample the field after one twisted horizontal step."""
    perm = grid.step_permutation(a, direction)
    return np.take(values.reshape(-1), perm).reshape(grid.shape)


# a float64 block of BLOCK_POINTS values is 256 KB, so the few work arrays of
# a blocked pass stay in a core's L2 cache instead of streaming whole fields
BLOCK_POINTS = 32768


def point_blocks(size: int) -> list[slice]:
    """Consecutive slices of at most BLOCK_POINTS flat indices covering
    range(size), for passes that gather and combine fields block by block.

    Such a pass gathers a block with
    np.take(flat, perm[blk], out=buf, mode="clip"): every index of a step
    permutation is in range, so "clip" never clips, and unlike the default
    mode it writes into buf without an intermediate copy.  Each point sees
    the same operations in the same order as in a whole-field pass, so the
    results are bit-identical to it.
    """
    return [slice(i, min(i + BLOCK_POINTS, size)) for i in range(0, size, BLOCK_POINTS)]


def vertical_shift(values: np.ndarray, grid: LatticeGrid, s: int, direction: int) -> np.ndarray:
    """Sample the field after one vertical step (pure roll of a t-axis)."""
    if s not in (0, 1, 2):
        raise ValueError("vertical axis s must be 0, 1 or 2")
    return np.roll(values, -direction, axis=grid.dim_h + s)


@dataclass(frozen=True)
class FrameData:
    """Constant frame data of the left-invariant Biquard frame."""

    omega: np.ndarray                     # (3, 4n, 4n), omega_s(e_a, e_b)
    structure: QuaternionicStructure      # triple I_s with omega_s = g(I_s., .)
    xi_scale: float                       # xi_s = xi_scale * d/dt_s
    torsion: TorsionData                  # identically zero on the model


def frame_data(grid: LatticeGrid) -> FrameData:
    B = twist_matrices(grid.n)
    Q = structure_from_triple(grid.n, B[0], B[1], B[2])
    omega = np.stack([Q.omega(s) for s in range(3)])
    return FrameData(omega=omega, structure=Q, xi_scale=XI_SCALE,
                     torsion=TorsionData.zero(grid.n))


# ---------------------------------------------------------------------------
# periodized bump test data
# ---------------------------------------------------------------------------

SUPPORT_FACTOR = 2.0  # support radius of a profile is SUPPORT_FACTOR * scale

BUMP_PROFILES = ("smooth", "cosine")


def check_bump_params(width: float, profile: str = "smooth",
                      tau_profile: str | None = None):
    """Raise ValueError unless periodized_bump accepts these parameters:
    0 < width < L_x/4 keeps the support inside one lattice shell
    horizontally, and both profiles come from BUMP_PROFILES (a None
    tau_profile follows profile)."""
    if not 0 < width < L_X / 4:
        raise ValueError(f"bump width must lie in (0, {L_X / 4}) so one "
                         "lattice shell covers the support")
    if profile not in BUMP_PROFILES:
        raise ValueError(f"bump profile must be one of {', '.join(BUMP_PROFILES)}")
    if tau_profile is not None and tau_profile not in BUMP_PROFILES:
        raise ValueError("vertical bump profile must be one of "
                         + ", ".join(BUMP_PROFILES))


def _radial_profile(q: np.ndarray, scale: float, profile: str = "smooth") -> np.ndarray:
    """Compactly supported radial profile of q = |y|^2.

    `scale` is the characteristic half-width; the support radius is
    SUPPORT_FACTOR * scale.  "smooth" is the C-infinity mollifier,
    "cosine" the raised-cosine window (C^1, spectrally more concentrated,
    preferred for quadrature-sensitive convergence measurements).
    """
    w = SUPPORT_FACTOR * scale
    out = np.zeros_like(q)
    inside = q < w * w
    qi = q[inside]
    if profile == "smooth":
        out[inside] = np.exp(-qi / (w * w - qi))
    elif profile == "cosine":
        out[inside] = np.cos(0.5 * np.pi * np.sqrt(qi) / w) ** 2
    else:
        raise ValueError(f"unknown bump profile {profile!r}")
    return out


def _line_profile(tau: np.ndarray, scale: float, profile: str = "smooth") -> np.ndarray:
    """Compactly supported 1-d profile with support SUPPORT_FACTOR*scale."""
    ell = SUPPORT_FACTOR * scale
    out = np.zeros_like(tau)
    inside = np.abs(tau) < ell
    ti = tau[inside]
    if profile == "smooth":
        out[inside] = np.exp(-ti * ti / (ell * ell - ti * ti))
    elif profile == "cosine":
        out[inside] = np.cos(0.5 * np.pi * ti / ell) ** 2
    else:
        raise ValueError(f"unknown bump profile {profile!r}")
    return out


def _periodized_line_profile(tau: np.ndarray, scale: float, period: float,
                             profile: str = "smooth") -> np.ndarray:
    # window wide enough to cover every image of the support for the actual
    # range of tau offsets (the relative coordinate can sit several vertical
    # periods away from the support)
    support = SUPPORT_FACTOR * scale
    kmin = int(math.floor((-float(np.max(tau)) - support) / period))
    kmax = int(math.ceil((support - float(np.min(tau))) / period))
    total = np.zeros_like(tau)
    for k in range(kmin, kmax + 1):
        total += _line_profile(tau + k * period, scale, profile)
    return total


def default_center(grid: LatticeGrid) -> GroupPoint:
    return GroupPoint(np.full(grid.dim_h, 0.5 * grid.L_x),
                      np.full(3, 0.5 * grid.L_t))


def default_tau_width(width: float) -> float:
    # parabolic scaling: vertical extent tied to the square of the
    # horizontal one, so twisted-orbit resolution refines with the grid
    return 4.0 * width * width


def _axis_shifts(grid: LatticeGrid, center_x: np.ndarray, width: float):
    """Per-axis lattice shifts l with some |x + l - c| inside the support."""
    xs = np.arange(grid.m_x) * grid.h_x
    reach = SUPPORT_FACTOR * width
    shifts = []
    for k in range(grid.dim_h):
        good = [l for l in (-1, 0, 1)
                if np.min(np.abs(xs + l * grid.L_x - center_x[k])) < reach]
        shifts.append(good if good else [0])
    return shifts


def periodized_bump(grid: LatticeGrid, center: GroupPoint | None = None,
                    width: float = 0.2, amplitude: float = 1.0,
                    offset: float = 0.0, tau_width: float | None = None,
                    profile: str = "smooth",
                    tau_profile: str | None = None) -> ScalarField:
    """Lattice-periodic smooth bump plus a constant offset.

    The bump is the sum over the lattice of a compactly supported profile of
    the group-relative coordinates: with rel = center^{-1} * (gamma * g),
    psi(rel) = chi(|rel_x| / width) * prod_s chi(|rel_t,s| / tau_width),
    where chi has characteristic scale 1 and support radius SUPPORT_FACTOR.
    width < L_x/4 keeps the support inside one lattice shell horizontally;
    the vertical profile may wrap the short vertical period, in which case
    the overlapping images are summed exactly.
    """
    if center is None:
        center = default_center(grid)
    check_bump_params(width, profile, tau_profile)
    if tau_width is None:
        tau_width = default_tau_width(width)
    if tau_profile is None:
        tau_profile = profile

    dh = grid.dim_h
    xs = np.arange(grid.m_x) * grid.h_x
    ts = np.arange(grid.m_t) * grid.h_t
    B = grid.twist.astype(float)
    xc, tc = center.x, center.t

    total = np.zeros(grid.shape)
    for ell_tuple in itertools.product(*_axis_shifts(grid, xc, width)):
        ell = np.array(ell_tuple, dtype=float) * grid.L_x
        # |y|^2 over the horizontal grid, y = x + ell - xc
        ysq = np.zeros((grid.m_x,) * dh)
        for k in range(dh):
            axis_vals = (xs + ell[k] - xc[k]) ** 2
            ysq = ysq + axis_vals.reshape((1,) * k + (-1,) + (1,) * (dh - 1 - k))
        chi_x = _radial_profile(ysq, width, profile)
        if not chi_x.any():
            continue
        # vertical offset fields d_s(x) = 2 Im_s(conj(ell) x) - tc_s
        #                                 - 2 Im_s(conj(xc) (x + ell))
        tpart = []
        for s in range(3):
            coeff = 2.0 * (ell @ B[s]) - 2.0 * (xc @ B[s])     # linear in x
            const = -tc[s] - 2.0 * float(xc @ B[s] @ ell)
            dfield = np.full((grid.m_x,) * dh, const)
            for k in range(dh):
                dfield = dfield + (coeff[k] * xs).reshape(
                    (1,) * k + (-1,) + (1,) * (dh - 1 - k))
            # periodized profile of tau = t_s + d_s(x), shape x-grid + (m_t,)
            tau = dfield[..., None] + ts
            tpart.append(_periodized_line_profile(tau, tau_width, grid.L_t, tau_profile))
        contrib = (chi_x[..., None, None, None]
                   * tpart[0][..., :, None, None]
                   * tpart[1][..., None, :, None]
                   * tpart[2][..., None, None, :])
        total += contrib
    return ScalarField(grid, offset + amplitude * total)


def bump_value(point: GroupPoint, grid: LatticeGrid, center: GroupPoint | None = None,
               width: float = 0.2, amplitude: float = 1.0, offset: float = 0.0,
               tau_width: float | None = None, shells: int = 2,
               profile: str = "smooth", tau_profile: str | None = None) -> float:
    """Pointwise evaluation of the defining lattice sum at any group point.

    Sums psi(center^{-1} * (gamma * point)) over lattice elements gamma with
    horizontal shifts up to `shells` and an exact vertical window; used to
    test lattice invariance of the construction.
    """
    if center is None:
        center = default_center(grid)
    if tau_width is None:
        tau_width = default_tau_width(width)
    if tau_profile is None:
        tau_profile = profile
    dh = grid.dim_h
    cinv = group_inverse(center)
    W = SUPPORT_FACTOR * width
    T = SUPPORT_FACTOR * tau_width
    total = 0.0
    for ell_tuple in itertools.product(range(-shells, shells + 1), repeat=dh):
        ell = np.array(ell_tuple, dtype=float) * grid.L_x
        gamma = GroupPoint(ell, np.zeros(3))
        rel0 = group_multiply(cinv, group_multiply(gamma, point))
        q = float(rel0.x @ rel0.x)
        if q >= W * W:
            continue
        if profile == "smooth":
            chi_x = math.exp(-q / (W * W - q))
        elif profile == "cosine":
            chi_x = math.cos(0.5 * math.pi * math.sqrt(q) / W) ** 2
        else:
            raise ValueError(f"unknown bump profile {profile!r}")
        tprod = 1.0
        for s in range(3):
            acc = 0.0
            base = rel0.t[s]
            kmin = int(math.floor((-base - T) / grid.L_t))
            kmax = int(math.ceil((T - base) / grid.L_t))
            for k in range(kmin, kmax + 1):
                tau = base + k * grid.L_t
                if abs(tau) < T:
                    if tau_profile == "smooth":
                        acc += math.exp(-tau * tau / (T * T - tau * tau))
                    else:
                        acc += math.cos(0.5 * math.pi * tau / T) ** 2
            tprod *= acc
        total += chi_x * tprod
    return offset + amplitude * total


def vertically_uniform_bump(grid: LatticeGrid, center: GroupPoint | None = None,
                            width: float = 0.2, amplitude: float = 1.0,
                            offset: float = 0.0) -> ScalarField:
    """Smooth bump constant along the vertical axes.

    Uses the cosine vertical profile with support equal to twice the
    vertical period: its lattice images sum to an exact partition of unity,
    so the result is the plain horizontal mollifier broadcast vertically,
    still built by the defining lattice sum.
    """
    return periodized_bump(grid, center=center, width=width,
                           amplitude=amplitude, offset=offset,
                           tau_width=grid.L_t, profile="smooth",
                           tau_profile="cosine")


def integrate(f: ScalarField) -> float:
    """Haar integral: cell volume times the (deterministic pairwise) sum."""
    return float(f.grid.cell_volume * np.sum(f.values))


def grid_inner(f: ScalarField, g: ScalarField) -> float:
    return float(f.grid.cell_volume * np.sum(f.values * g.values))


# ---------------------------------------------------------------------------
# field snapshot format: raw little-endian float64 + JSON sidecar header
# ---------------------------------------------------------------------------

def save_field(f: ScalarField, basepath: str) -> tuple[str, str]:
    binpath = basepath + ".f64"
    headerpath = basepath + ".json"
    with open(binpath, "wb") as fh:
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())
    header = {
        "format_version": FORMAT_VERSION,
        "n": f.grid.n,
        "m_x": f.grid.m_x,
        "m_t": f.grid.m_t,
        "h_x": f.grid.h_x,
        "h_t": f.grid.h_t,
        "index_order": "row-major; 4n horizontal axes first, then 3 vertical axes",
        "dtype": "<f8",
    }
    with open(headerpath, "w") as fh:
        json.dump(header, fh, indent=1, sort_keys=True)
    return binpath, headerpath


def load_field(basepath: str) -> ScalarField:
    with open(basepath + ".json") as fh:
        header = json.load(fh)
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError("unsupported field snapshot version")
    grid = make_grid(int(header["n"]), int(header["m_x"]))
    raw = np.fromfile(basepath + ".f64", dtype="<f8")
    if raw.size != grid.size:
        raise ValueError("snapshot size does not match its header")
    return ScalarField(grid, raw.astype(float).reshape(grid.shape))
