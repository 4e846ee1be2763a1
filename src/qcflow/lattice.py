"""Compact model manifold: the quaternionic Heisenberg group, its cocompact
lattice quotient, and the exact on-grid discrete geometry.

Group law on R^{4n} x R^3:

    (x, t) * (x', t') = (x + x', t + t' + 2 Im(conj(x) x')),

with the imaginary quaternion product summed over the n coordinate blocks.
The grid couples the vertical spacing to the horizontal one (h_t = 2 h_x^2,
L_t = 2 h_x L_x, m_t = m_x) so that every unit horizontal step from a grid
point lands exactly on a grid point after periodic wrap; all discrete
derivatives are pure index arithmetic with zero interpolation error.  A
step along axis a moves each vertical fibre (fixed horizontal index) to
its neighbour along a and rolls it by the twist K(x); map_blocks gathers
the steps with the C kernel step_pair of _steps.c, compiled on first use,
and keeps no index table.

Left-invariant frame conventions (validated by the frame-contract tests):
the twist bilinears are Im_s(conj(x) x') = x @ B_s @ x' with B_s minus the
right multiplication by i_s, the Reeb fields are xi_s = 2 d/dt_s, and the
almost complex triple of the frame is I_s = B_s.
"""
from __future__ import annotations

import ctypes
import itertools
import json
import math
import os
import threading
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


def group_multiply(p: GroupPoint, q: GroupPoint) -> GroupPoint:
    if p.n != q.n:
        raise ValueError("group points have different dimensions")
    return GroupPoint(p.x + q.x, p.t + q.t + 2.0 * imaginary_product(p.x, q.x))


def group_inverse(p: GroupPoint) -> GroupPoint:
    return GroupPoint(-p.x, -p.t)


@dataclass
class LatticeGrid:
    """Uniform grid on the lattice quotient; horizontal axes first, then the
    three vertical axes, row-major."""

    n: int
    m_x: int
    # always empty, since no step table is kept: perfbench's tracer reads it
    # to tell a table build from a cache hit, and fails without it
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

        The reference index map of one step, built on demand as an int64
        table: no run path reads one (map_blocks gathers with the C kernel
        step_pair), so nothing keeps it.

        The step is the affine map i_a -> i_a + d, t_s -> t_s + d K_s(x)
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
        return total.reshape(-1)


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
# a blocked pass stay in a core's L2 cache instead of streaming whole fields.
# It must be at least 128, the run numpy's pairwise sum adds without a cut.
BLOCK_POINTS = 32768


def _tree_cut(n: int) -> int:
    """Where numpy's pairwise sum cuts a run of n > 128 points: at the
    multiple of 8 at or below n // 2."""
    half = n // 2
    return half - half % 8


def _block_bounds(size: int) -> list[int]:
    """Bounds of the blocks of a pass over size points: the nodes of
    numpy's pairwise-summation tree over them that have at most
    BLOCK_POINTS points, in order."""
    bounds = [0]

    def cut(start: int, n: int):
        if n <= BLOCK_POINTS:
            bounds.append(start + n)
        else:
            half = _tree_cut(n)
            cut(start, half)
            cut(start + half, n - half)

    cut(0, size)
    return bounds


def _tree_sum(block_sums: list, size: int):
    """The np.sum of a field from the np.sum of each block of a pass over
    its size points, in block order.

    The blocks are nodes of numpy's pairwise-summation tree over the field,
    so adding their sums back up that tree gives the bits of np.sum over
    the whole field (a left-to-right sum of the same values does not)."""
    sums = iter(block_sums)

    def node(n: int):
        if n <= BLOCK_POINTS:
            return next(sums)
        half = _tree_cut(n)
        return node(half) + node(n - half)

    return node(size)


# threads that share the point blocks of a pass: every core this process may
# run on (taskset -c 0 confines a run to one core, and the passes to one thread)
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_pool_lock = threading.Lock()
_pool = None  # the ThreadPoolExecutor, made on first use, never at import
_in_worker = threading.local()


def _executor():
    global _pool
    # imported here, not with the module: concurrent.futures also imports
    # logging, which a one-core run never needs
    from concurrent.futures import ThreadPoolExecutor
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=WORKERS,
                                       thread_name_prefix="qcflow-blocks")
        return _pool


_STEPS_SOURCE = os.path.join(os.path.dirname(__file__), "_steps.c")
_STEPS_DIR = os.path.join(os.path.dirname(__file__), "__pycache__")
_steps_lock = threading.Lock()
_step_pair = None  # the C function step_pair, loaded on first use, never at import


# the compile path imports hashlib, shlex, subprocess, sysconfig and
# tempfile itself: the set-up of a process that never gathers does not
# pay for them


def _compiler() -> list[str]:
    """The C compiler command this Python was built with."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _build_steps_library(path: str):
    """Compile _steps.c into the shared library path.  The compiler writes
    a temporary file that os.replace moves into place, so a process that
    loads path never sees half a library."""
    import shlex
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    cmd = _compiler() + ["-O2", "-shared", "-fPIC", "-o", tmp, _STEPS_SOURCE]
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise RuntimeError(f"cannot compile the step kernel: `{shlex.join(cmd)}` "
                               f"failed to start: {exc}") from exc
        if proc.returncode != 0:
            raise RuntimeError(f"cannot compile the step kernel: `{shlex.join(cmd)}` "
                               f"exited with {proc.returncode}:\n{proc.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _step_kernel():
    """The C function step_pair of _steps.c.  The first call compiles the
    source into __pycache__, under a name that holds the source's sha256,
    unless that library is there already, and loads it.  ctypes releases
    the interpreter lock during each call, so the workers gather at once."""
    global _step_pair
    with _steps_lock:
        if _step_pair is None:
            import hashlib

            with open(_STEPS_SOURCE, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            os.makedirs(_STEPS_DIR, exist_ok=True)
            path = os.path.join(_STEPS_DIR, f"_steps-{digest}.so")
            if not os.path.exists(path):
                _build_steps_library(path)
            fn = ctypes.CDLL(path).step_pair
            fn.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 7 + [ctypes.c_void_p]
            fn.restype = None
            _step_pair = fn
        return _step_pair


def map_blocks(kernel, values: np.ndarray, grid: LatticeGrid, scratch=()) -> tuple:
    """Map a block kernel over the step gathers of values: the one blocked
    gather pass.

    values has shape (..., grid.size): a flat field, or stacked fields such
    as the (4n, N) first differences.  The helper calls
    kernel(blk, steps, scratch) once per block of at most BLOCK_POINTS
    points, the flat slice blk.  steps yields (a, up, um) for the axes
    a = 0 .. 4n-1 in order, where up and um are the S_a^+ values and the
    S_a^- values on blk in contiguous (..., k) buffers; it gathers axis a
    when the kernel asks for it and overwrites the buffers with the next
    axis, so the kernel may work in them.  scratch holds one array of
    shape lead + (k,) per entry lead of `scratch`, the block's work space.
    A kernel starts its block before its axis loop and finishes it after
    the loop; it writes only into its outputs at [blk] (or [..., blk]),
    returns a tuple of its block's sums (np.add.reduce, the reduction of
    np.sum without its wrapper) or nothing, and calls no public qcflow
    function.  One that does per point what a whole-field pass does, in
    the same order, gets its bits whatever thread runs the block.

    The gathers are the C kernel step_pair (_steps.c), which computes each
    vertical fibre's source fibre and roll from the affine step and copies
    the rolled values: the values of a gather through step_permutation,
    bit for bit, with no index table.

    The blocks are the nodes of numpy's pairwise-summation tree over the
    grid.size points that first have at most BLOCK_POINTS points
    (_block_bounds): a run of more points splits at n//2 - (n//2) % 8, as
    numpy's pairwise sum does.  So adding the block sums back up that tree
    (_tree_sum) gives the bits of np.sum of the whole-field integrand: the
    call returns one such total per entry of the kernel's tuple, and a block
    min or max is exact in any order.  The layout depends on grid.size
    alone; the workers split it into one contiguous run of blocks each, the
    runs differing by at most one block.  The runs go to a module thread
    pool of WORKERS threads, made on first use, and the call returns when
    every run has ended.  step_pair and the ufunc loops release the
    interpreter lock, so the runs share the cores.  The gather buffers and
    the scratch are made on the calling thread.  With one worker, or when
    entered from a worker (a kernel must not wait on its own pool), the one
    run is the calling thread's and no pool is used.
    """
    step_pair = _step_kernel()
    src = np.ascontiguousarray(values, dtype=np.float64)
    if src.shape[-1:] != (grid.size,):
        raise ValueError(f"values of shape {values.shape} do not end in the "
                         f"grid size {grid.size}")
    # twist[s][b, a] of each axis a, as the (3, 4n) array step_pair reads.
    # step_pair reads src and cols by address: both live until every run
    # has ended, since this call returns only then
    cols = [np.ascontiguousarray(grid.twist[:, :, a]) for a in range(grid.dim_h)]
    col_at = [col.ctypes.data for col in cols]
    src_at = src.ctypes.data
    lead = values.shape[:-1]
    width = math.prod(lead)
    bounds = _block_bounds(grid.size)
    count = len(bounds) - 1
    workers = 1 if getattr(_in_worker, "active", False) else min(WORKERS, count)

    def steps(blk: slice, up, um):
        up_at, um_at = up.ctypes.data, um.ctypes.data
        for a in range(grid.dim_h):
            step_pair(src_at, up_at, um_at, width, grid.size, blk.start,
                      blk.stop - blk.start, grid.m_x, grid.dim_h, a, col_at[a])
            yield a, up, um

    sums = [()] * count  # each block's sums, in the block's own slot

    def run(first: int, last: int, bufs):
        up_buf, um_buf, *work = bufs
        for i in range(first, last):
            blk, k = slice(bounds[i], bounds[i + 1]), bounds[i + 1] - bounds[i]
            up = up_buf[:width * k].reshape(lead + (k,))
            um = um_buf[:width * k].reshape(lead + (k,))
            sums[i] = kernel(blk, steps(blk, up, um), [w[..., :k] for w in work]) or ()

    most = max(stop - start for start, stop in zip(bounds, bounds[1:]))

    def buffers():
        return ([np.empty(width * most), np.empty(width * most)]
                + [np.empty(tuple(s) + (most,)) for s in scratch])

    if workers == 1:
        run(0, count, buffers())
    else:
        cuts = [count * i // workers for i in range(workers + 1)]
        bufs = [buffers() for _ in range(workers)]

        def run_in_worker(i: int):
            _in_worker.active = True
            try:
                run(cuts[i], cuts[i + 1], bufs[i])
            finally:
                _in_worker.active = False

        futures = [_executor().submit(run_in_worker, i) for i in range(workers)]
        # every run ends before a kernel's error propagates, so no worker is
        # still writing when the caller sees it
        for fut in futures:
            fut.exception()
        for fut in futures:
            fut.result()
    return tuple(_tree_sum(entry, grid.size) for entry in zip(*sums))


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
    torsion: TorsionData                  # identically zero on the model


def frame_data(grid: LatticeGrid) -> FrameData:
    B = twist_matrices(grid.n)
    Q = structure_from_triple(grid.n, B[0], B[1], B[2])
    omega = np.stack([Q.omega(s) for s in range(3)])
    return FrameData(omega=omega, structure=Q, torsion=TorsionData.zero(grid.n))


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
        shifted = tau + k * period
        total += _radial_profile(shifted * shifted, scale, profile)
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
        # the buffer itself, not a tobytes() copy of the field
        fh.write(memoryview(np.ascontiguousarray(f.values, dtype="<f8")))
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
    # "<f8" is float64 on a little-endian host: no second copy of the field
    return ScalarField(grid, raw.astype(float, copy=False).reshape(grid.shape))
