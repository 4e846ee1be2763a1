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
its neighbour along a and rolls it by the twist K(x).  The passes read
the steps with the C functions of _steps.c, compiled on first use, and
keep no step table: a fibre's roll moves each of its planes alike, and
each grid makes one m^4-entry int64 table of the m^2 plane rolls (32 KiB
at m_x = 8), on its first pass, that every worker reads.  There are four
passes, each one C function called per worker run or per block, which
share the point blocks and the worker pool (_share_blocks); none loops
over the axes in Python.  euler_pass (euler_update, the Euler step) and
jet_pass (difference_jet, a field's D_a and compact Laplacian) make one C
call per worker over its run of blocks, with the interpreter lock
released; the jet's first differences are point-major, each point's 4n
of them one run.  grad_sq_pass (the energy's int |Df|^2 weight) makes
one call of grad_sq_block per block, which reads each point's 8n steps
once and writes its weighted |Df|^2.  hessian_pass, the one Hessian
pass, hands a contraction each block's composed differences of a field
or of handed first differences, which hessian_block sums into tr H,
omega_s(H) and |H|^2, reading each neighbour's 4n differences as one run
and omega_s from the twist columns; production's contraction forms its
integrands with one more C call per block, production_block.
The C function of each pass takes its inputs, its outputs, the points
[start, start + len), the grid's constants and its scalars; the jet and
the Hessian read and write a field through a table of the bases of its m
x_0 planes, which a whole field fills with its own planes (_plane_table).
Every C function keeps its scratch on its own stack and does the + - x /
of the whole-field numpy formula in its per-point order, under
-ffp-contract=off (no FMA), so all have the bits of the numpy route on
every machine.

A record holds a window of planes, not a whole jet: hessian_pass, given
a field (the energy production's u^alpha, the P-pairing's u^(1/2)),
makes the field, its jet and its Hessian plane by plane, since x_0 is
the outermost axis and only the steps along axis 0 leave a plane.  Each
round of the sweep is two phases: the transforms and the jet by fibres,
then the Hessians by tree blocks, one worker a block.  At m_x = 8 it
holds five jet planes (3.125 fields), three transform planes and block
arrays; below 2^18 points a plane, the whole field is its one slab, as
handed first differences always are.  Every output of a run (the Euler
pass's new field, the jet's first and lap, ln u, each window plane and
each block's arrays) is placed 2 KiB past its input modulo 4 KiB
(_place, _field_beside), so none of its stores false-aliases the loads
the pass runs ahead of.

Left-invariant frame conventions (validated by the frame-contract tests):
the twist bilinears are Im_s(conj(x) x') = x @ B_s @ x' with B_s minus the
right multiplication by i_s, and the Reeb fields are xi_s = 2 d/dt_s.
algebra.twist_matrices is the frame and the package's one triple, I_s = B_s;
its 2-forms omega_s = g(I_s ., .) are omega_s[a, b] = B_s[b, a].
"""
from __future__ import annotations

import bisect
import ctypes
import functools
import itertools
import json
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .algebra import twist_matrices

XI_SCALE = 2.0  # xi_s = XI_SCALE * d/dt_s

L_X = 1.0  # horizontal period of the lattice quotient

FORMAT_VERSION = "qcflow-field-1"


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

    @functools.cached_property
    def _step_constants(self) -> tuple[np.ndarray, np.ndarray]:
        """What every pass over the grid reads by address, made on its first
        pass and kept, read-only: the (4n, 3, 4n) twist columns, cols[a] =
        twist[s][b, a] of axis a, and the m^4 int64 table of the m^2 plane
        rolls, filled by the C function plane_rolls, which alone knows its
        layout.  cols[a, s] is row a of omega_s, which hessian_block reads
        as one entry +-1: columns without that structure are refused."""
        cols = np.ascontiguousarray(self.twist.transpose(2, 0, 1))
        if not np.all((cols != 0).sum(axis=2) == 1) or np.any(np.abs(cols) > 1):
            raise ValueError("the passes need twist columns with one entry +-1 "
                             "for each axis and s")
        rolls = np.empty(self.m_x ** 4, dtype=np.int64)
        _step_kernel().plane_rolls(rolls.ctypes.data, self.m_x)
        cols.flags.writeable = rolls.flags.writeable = False
        return cols, rolls

    def point_at(self, idx) -> GroupPoint:
        idx = tuple(int(i) for i in idx)
        x = np.array(idx[: self.dim_h], dtype=float) * self.h_x
        t = np.array(idx[self.dim_h:], dtype=float) * self.h_t
        return GroupPoint(x, t)

    def step_permutation(self, a: int, direction: int) -> np.ndarray:
        """Flat index map P with (S f)(g) = f(g * (dir*h_x e_a, 0)) = f.flat[P].

        The reference index map of one step, built on demand as an int64
        table: the tests compare the passes with gathers through it, and
        the geometry suite checks it against the group law.  No run path
        reads one (the passes read the steps with the C functions of
        _steps.c), so nothing keeps it.

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
    """Frame components sigma(e_a) = components[..., a], point-major as a jet: tr H = -div."""

    grid: LatticeGrid
    components: np.ndarray

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float)
        if self.components.shape != self.grid.shape + (self.grid.dim_h,):
            raise ValueError("component shape does not match the grid")


# a float64 block of BLOCK_POINTS values is 256 KiB.  The Euler and jet
# passes hold none: the energy's pass holds one, its weighted |Df|^2, which
# stays in a core's L2 cache (2 MiB a core on the 2-core Xeon of the BENCH
# files).  The largest, F's Hessian pass with production's contraction,
# holds per worker tr, three omega, |H|^2 and production's (5, k) work
# array, 10 blocks: 2.5 MiB, a little over L2; hessian_block keeps no
# buffer.
# It must be at least 128, the run numpy's pairwise sum adds without a cut.
BLOCK_POINTS = 32768


def _tree_cut(n: int) -> int:
    """Where numpy's pairwise sum cuts a run of n > 128 points: at the
    multiple of 8 at or below n // 2."""
    half = n // 2
    return half - half % 8


def _block_bounds(size: int) -> tuple[int, ...]:
    """Bounds of the blocks of a pass over size points: the nodes of
    numpy's pairwise-summation tree over them that have at most
    BLOCK_POINTS points, in order.  Built once per size and cap."""
    return _tree_bounds(size, BLOCK_POINTS)


@functools.cache
def _tree_bounds(size: int, most: int) -> tuple[int, ...]:
    bounds = [0]

    def cut(start: int, n: int):
        if n <= most:
            bounds.append(start + n)
        else:
            half = _tree_cut(n)
            cut(start, half)
            cut(start + half, n - half)

    cut(0, size)
    return tuple(bounds)


@functools.cache
def _largest_node(size: int, most: int) -> int:
    # the largest block of _tree_bounds(size, most)
    if size <= most:
        return size
    half = _tree_cut(size)
    return max(_largest_node(half, most), _largest_node(size - half, most))


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


def _share_blocks(run, count: int, buffers) -> None:
    """The pool helper of every pass: call run(first, last, bufs) on the
    units [first, last) of a pass of count units (its blocks, or a sweep
    round's fibres), one contiguous run of units per worker, the runs
    differing by at most one unit, where bufs = buffers() is the run's work
    space, made on the calling thread.

    The runs go to a module thread pool of WORKERS threads, made on first
    use, and the call returns when every run has ended.  The C functions
    and the ufunc loops release the interpreter lock, so the runs share the
    cores.  With one worker, or when entered from a worker (a kernel must
    not wait on its own pool), the one run is the calling thread's and no
    pool is used."""
    workers = 1 if getattr(_in_worker, "active", False) else min(WORKERS, count)
    if workers == 1:
        run(0, count, buffers())
        return
    cuts = [count * i // workers for i in range(workers + 1)]
    bufs = [buffers() for _ in range(workers)]

    def run_in_worker(i: int):
        _in_worker.active = True
        try:
            run(cuts[i], cuts[i + 1], bufs[i])
        finally:
            _in_worker.active = False

    futures = [_executor().submit(run_in_worker, i) for i in range(workers)]
    # every run ends before a run's error propagates, so no worker is still
    # writing when the caller sees it
    for fut in futures:
        fut.exception()
    for fut in futures:
        fut.result()


_STEPS_SOURCE = os.path.join(os.path.dirname(__file__), "_steps.c")
_STEPS_DIR = os.path.join(os.path.dirname(__file__), "__pycache__")
# -ffp-contract=off keeps each multiply and add of _steps.c two roundings:
# GCC's default in GNU C mode fuses them into an FMA wherever the target
# has one (on aarch64 it always has), which changes the Euler bits
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_steps_lock = threading.Lock()
_steps_lib = None  # the library of _steps.c, loaded on first use, never at import


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
    cmd = _compiler() + list(_CFLAGS) + ["-o", tmp, _STEPS_SOURCE]
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
    """The library of _steps.c, with its functions grad_sq_block,
    difference_jet, euler_update, hessian_block, production_block and
    plane_rolls.  The first call compiles the source into __pycache__,
    under a name that holds the sha256 of the source followed by the
    compile flags, unless that library is there already, and loads it.  So
    a changed flag list builds a library of its own.
    ctypes releases the interpreter lock during each call, so the workers
    gather at once."""
    global _steps_lib
    with _steps_lock:
        if _steps_lib is None:
            import hashlib
            import shlex

            with open(_STEPS_SOURCE, "rb") as fh:
                digest = hashlib.sha256(fh.read() + shlex.join(_CFLAGS).encode())
            os.makedirs(_STEPS_DIR, exist_ok=True)
            path = os.path.join(_STEPS_DIR, f"_steps-{digest.hexdigest()}.so")
            if not os.path.exists(path):
                _build_steps_library(path)
            lib = ctypes.CDLL(path)
            ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
            lib.grad_sq_block.argtypes = [ptr] * 3 + [i64] * 4 + [ptr, ptr, f64]
            lib.difference_jet.argtypes = [ptr] * 3 + [i64] * 4 + [ptr, ptr, f64, f64]
            lib.euler_update.argtypes = [ptr] * 3 + [i64] * 4 + [ptr, ptr, f64]
            lib.hessian_block.argtypes = [ptr] * 4 + [i64] * 5 + [ptr, ptr, f64]
            lib.production_block.argtypes = [ptr] * 7 + [i64] * 2
            lib.plane_rolls.argtypes = [ptr, i64]
            for fn in (lib.grad_sq_block, lib.difference_jet, lib.euler_update,
                       lib.hessian_block, lib.production_block, lib.plane_rolls):
                fn.restype = None
            _steps_lib = lib
        return _steps_lib


def _one_field(values: np.ndarray, grid: LatticeGrid, what: str) -> np.ndarray:
    """values as one flat contiguous float64 field of grid.size points; a
    stack of fields is refused."""
    src = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    if src.size != grid.size:
        raise ValueError(f"the {what} takes one field of {grid.size} points, "
                         f"not values of shape {values.shape}")
    return src


# where a whole-field output starts, past its input, modulo PLACE_SPAN bytes
PLACE_GAP = 2048
PLACE_SPAN = 4096
# the float64 values by which an array is made longer, so that a view of it
# can start anywhere modulo PLACE_SPAN
PLACE_PAD = PLACE_SPAN // 8


def _place(raw: np.ndarray, at: int, count: int) -> np.ndarray:
    """The count values of raw, a flat float64 array at least PLACE_PAD
    values longer, whose first value lies PLACE_GAP = 2 KiB past the address
    at, modulo PLACE_SPAN = 4 KiB.  Every output of a pass or a transform
    (a whole field, a window plane, a block's scratch) is placed by it
    against the first value of the input it is written from."""
    skip = (at + PLACE_GAP - raw.ctypes.data) % PLACE_SPAN // 8
    return raw[skip:skip + count]


def _field_beside(src: np.ndarray, shape: tuple) -> np.ndarray:
    """A new C-contiguous float64 array of shape whose first value lies
    PLACE_GAP = 2 KiB past src's first value, modulo PLACE_SPAN = 4 KiB:
    the output of a whole-field pass or transform over src, which writes it
    with out=.  It is a view into one array PLACE_SPAN bytes longer.

    A store to the output then never shares the low 12 bits of its address
    (so never the low 20) with a load of src a few values ahead.  A core that
    matches a load against the earlier stores by low address bits alone
    stalls the load as if it read the store: with the output 16 B past its
    input modulo 1 MiB, where numpy's allocator puts a 16 MiB field after
    another, the Euler pass, the jet and np.log ran 1.4-3.5x slower on the
    2-core Xeon of the BENCH files."""
    count = math.prod(shape)
    return _place(np.empty(count + PLACE_PAD), src.ctypes.data, count).reshape(shape)


def _plane_table(arr: np.ndarray, grid: LatticeGrid) -> np.ndarray:
    """The m base addresses of the x_0 planes of arr, a whole field or a
    whole jet field, in order: the table through which difference_jet and
    hessian_block read or write every plane of it."""
    return arr.ctypes.data + arr.nbytes // grid.m_x * np.arange(grid.m_x, dtype=np.int64)


def _block_arrays(raws, shapes, at: int, k: int) -> list:
    """One block's arrays of shape lead + (k,) for each lead in shapes, each
    placed in its raw array against the address at of the block's input."""
    return [_place(raw, at, math.prod(shape) * k).reshape(tuple(shape) + (k,))
            for raw, shape in zip(raws, shapes)]


def _pass_blocks(block, grid: LatticeGrid, scratch, src: np.ndarray) -> tuple:
    """The block driver of grad_sq_pass: call block(start, k, blocks) once
    per block [start, start + k), where blocks holds one contiguous float64
    array of shape lead + (k,) per entry lead of scratch, and return the
    whole-field total of each entry of the tuple of block sums that block
    returns (np.add.reduce, the reduction of np.sum without its wrapper).

    The blocks are the nodes of numpy's pairwise-summation tree over the
    grid.size points that first have at most BLOCK_POINTS points
    (_block_bounds): a run of more points splits at n//2 - (n//2) % 8, as
    numpy's pairwise sum does.  So adding the block sums back up that tree
    (_tree_sum) gives the bits of np.sum of the whole-field integrand, and a
    block min or max is exact in any order.  The layout depends on
    grid.size alone; _share_blocks gives each worker one contiguous run of
    blocks and returns when every run has ended.  Each run's scratch is
    made on the calling thread, and each block's arrays are placed 2 KiB
    past the block's first point of src, the flat field the block reads
    (_place)."""
    bounds = _block_bounds(grid.size)
    count = len(bounds) - 1
    most = _largest_node(grid.size, BLOCK_POINTS)
    sums = [()] * count  # each block's sums, in the block's own slot

    def run(first: int, last: int, raws):
        for i in range(first, last):
            start, k = bounds[i], bounds[i + 1] - bounds[i]
            sums[i] = block(start, k, _block_arrays(raws, scratch, src[start:].ctypes.data, k))

    def buffers():
        return [np.empty(math.prod(shape) * most + PLACE_PAD) for shape in scratch]

    _share_blocks(run, count, buffers)
    return tuple(_tree_sum(entry, grid.size) for entry in zip(*sums))


def grad_sq_pass(values: np.ndarray, grid: LatticeGrid, weight: np.ndarray) -> float:
    """int |Df|^2 weight of one field f, |Df|^2 = sum_a (D_a f)^2: the
    energy's pass.

    Per block of _pass_blocks, one call of the C function grad_sq_block
    reads each point's 8n steps once and writes (((D_0 f)^2 + (D_1 f)^2)
    + ...) * weight, D_a f = (S_a^+ f - S_a^- f) / (2 h_x), into the
    block's buffer, whose np.add.reduce is the block's sum.  Those are the
    per-point operations of integrating sum_a (D_a f)^2, added in axis
    order, times the weight, in their order, so the pass has their bits and
    builds no whole field.  A stack of fields, and a weight that is not
    grid.size values, are refused: the C function reads both by address.
    """
    lib = _step_kernel()
    src = _one_field(values, grid, "gradient pass")
    w = _one_field(weight, grid, "gradient pass weight")
    m, dim_h = grid.m_x, grid.dim_h
    two_h = 2.0 * grid.h_x
    # the C function reads src, w and the grid's constants by address: all
    # live until every run has ended, since this call returns only then
    cols, rolls = grid._step_constants
    src_at, w_at = src.ctypes.data, w.ctypes.data
    cols_at, rolls_at = cols.ctypes.data, rolls.ctypes.data

    def block(start: int, k: int, blocks):
        (sq,) = blocks
        lib.grad_sq_block(src_at, w_at, sq.ctypes.data, start, k, m, dim_h, cols_at,
                          rolls_at, two_h)
        return (np.add.reduce(sq),)

    # the block's weighted |Df|^2
    (total,) = _pass_blocks(block, grid, ((),), src)
    return float(grid.cell_volume * total)


def _hessian_own(with_norm: bool) -> tuple:
    # the block arrays of a Hessian pass: tr, om, and with_norm nsq
    return ((), (3,), ()) if with_norm else ((), (3,))


# the fewest points of an x_0 plane that a sweep holds a window of: a round
# over a smaller plane (m_x <= 7 at n = 1) is too little work to share
# between the workers, and such a field is swept as one slab of all its
# planes
WINDOW_PLANE_POINTS = 2 ** 18


def _sweep_rounds(slabs: int, transform: bool) -> list:
    """The rounds of a sweep over slabs slabs: (transforms, jet, hessians),
    the sweep indices of its transforms, of its jet or None, and of its
    Hessians.  Sweep index i is slab (i - 1) mod slabs, so the sweep starts
    at the last slab and its Hessians run from slab 0 to the last, in the
    order of the points.

    Round k makes the jet of index k and the Hessian of index k - 1, which
    reads the jets of k - 2 to k, and the transform of index k + 1, which
    the jet of k reads with those of k - 1 and k.  The Hessians of indices
    slabs - 1 and 0 wait for the jet of index slabs - 1, in a last round,
    so the jets of indices 0 and 1 stay for the whole sweep."""
    first = [([-1, 0], None, [])] if transform else []
    rounds = [([k + 1] if transform else [], k, [k - 1] if 2 <= k < slabs else [])
              for k in range(slabs)]
    return first + rounds + [([], None, list(dict.fromkeys([slabs - 1, 0])))]


def hessian_pass(values: np.ndarray, grid: LatticeGrid, transform, contract,
                 with_norm: bool, scratch=()) -> tuple:
    """The one pass over the composed differences H_ab = D_a D_b g of a
    field g, which builds no Hessian field: g = transform(values), or the
    field values itself when transform is None, or the field whose
    point-major first differences values[..., b] = D_b g are handed, of
    shape grid.shape + (4n,) (a jet's first, or a 1-form's components,
    HorizontalField, whose tr H is minus its divergence).  Values of
    another shape, unless they are grid.size points, and a transform of
    handed differences are refused before any C call.

    Per block, one call of the C function hessian_block goes through the
    block fibre by fibre and axis by axis: at each point it reads the 4n
    differences of each of the two points a step along a reaches as one
    run, forms the row H_a. from them and adds it, in (a, b) order from
    zero as a whole-field pass does, into tr H = sum_a H_aa (of first
    differences, the wide stencil: the compact sub-Laplacian is its
    negative up to an O(h^2) stencil gap), omega_s(H) and, with_norm,
    |H|^2: block arrays tr (k,), om (3, k) and nsq (k,); nsq is None
    without with_norm.  It reads row a of omega_s as the twist column of
    (a, s), one entry +-1, as the grid's constants hold it (they refuse
    columns without that structure).  Then contract(blk, tr, om, nsq,
    work, lap, first) writes the block's share of the caller's outputs and
    returns its block's sums, or nothing; work holds one block array per
    entry of scratch, and lap (k,) and first (k, 4n) are the block's rows
    of g's jet, or None and the rows of the handed differences.  The pass
    returns the whole-field sum of each entry.  The blocks are those of
    _pass_blocks, nodes of numpy's pairwise-summation tree, so adding the
    block sums up the tree gives the bits of one np.sum.  contract runs on
    the pool's threads: it may call no public qcflow function.

    A field is swept over the x_0 planes, so that neither g nor its jet is
    held whole.  The sweep moves by slabs: one x_0 plane when a plane holds
    at least WINDOW_PLANE_POINTS points, else the whole field.  In the
    rounds of _sweep_rounds it fills a window: the transform of a slab, the
    ufunc transform(src, out=dst) written into one of three transform
    slots, its jet (difference_jet, through tables of the planes the window
    holds), then the Hessian of a slab and the contraction of every block
    it completes.  The window holds the jets of sweep indices 0 and 1,
    which the last Hessians read again, and a ring of the three that a
    Hessian reads, with one more for each slab that a block may reach back
    past them: five jet planes when a block is at most a plane.  A slab
    leaves the window when its last reader is done and its slot takes the
    next one; a transform that left is made again where it is read again,
    and a table entry of a plane the window does not hold is 0.  Every slot
    is placed 2 KiB past the plane of its input (_place).  The transform
    slots and the jet slots are one allocation each, which numpy backs with
    huge pages where it can (a few thousand 4 KiB faults cost a third of a
    sweep at m_x = 6), and the transform slots go once the last jet is made.
    Handed differences are read whole, as one slab: the pass runs the last
    round alone, whose only phase is the Hessians.

    Each round is two phases, each split between the workers.  The first
    makes the round's transforms and its jet by fibres of the slab; the
    second forms the round's Hessians, a run of slabs, by tree blocks:
    one worker forms a block's points of the round in one hessian_block
    call, and contracts the block in the round that forms its last point.
    A block's jet rows are views of the window when it lies in one slab,
    copies when it straddles slabs.  A block that the round completes is
    formed in the worker's block arrays, placed 2 KiB past the block's
    first point of the jet; one that runs on past the round's slabs
    (blocks straddle x_0 planes at m_x >= 9 when n = 1) is formed in
    arrays that the calling thread makes before the phase and drops after
    the phase that completes it.  So every block gets the bits of a pass
    over the whole jet, and no worker writes what another reads in the
    same phase.
    """
    lib = _step_kernel()
    m, dim_h = grid.m_x, grid.dim_h
    handed = np.shape(values) == grid.shape + (dim_h,)
    if handed and transform is not None:
        raise ValueError("the Hessian pass transforms a field, not handed differences")
    src = (np.ascontiguousarray(values, dtype=np.float64).reshape(grid.size, dim_h) if handed
           else _one_field(values, grid, "Hessian pass"))
    plane, fibre = grid.size // m, m ** 3
    own = _hessian_own(with_norm)
    slabs, ring, slots, space = _window(grid, own + tuple(scratch), handed)
    span, per = grid.size // slabs, m // slabs  # a slab's points and planes
    cols, rolls = grid._step_constants
    steps = (m, dim_h, cols.ctypes.data, rolls.ctypes.data)
    two_h, h_sq = 2.0 * grid.h_x, grid.h_x * grid.h_x
    bounds = _block_bounds(grid.size)
    if set(range(0, grid.size, span)) <= set(bounds):
        del space[-2:]  # no block straddles slabs
    sums = [()] * (len(bounds) - 1)
    t_raws = _raws([span] * (min(3, slabs) if transform else 0))
    j_raws = _raws([span * dim_h, span] * slots)
    spaces = []
    g_tab = np.zeros(m, dtype=np.int64) if transform else _plane_table(src, grid)
    first_tab, lap_tab = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    tabs = (g_tab.ctypes.data, first_tab.ctypes.data, lap_tab.ctypes.data)
    g_slabs = {}  # transform slot -> (slab, its values of g)
    # slab -> (first (span, 4n), lap (span,)) of g's jet, or the handed rows
    jets = {0: (src, None)} if handed else {}
    opened = {}  # block -> its arrays, for a block that runs on past its round

    def slab(i: int) -> int:
        return (i - 1) % slabs

    def tabulate(tab: np.ndarray, s: int, arr: np.ndarray):
        # the planes of slab s, held in arr
        tab[s * per:s * per + per] = arr.ctypes.data + arr.nbytes // per * np.arange(per)

    def row_at(a: int) -> int:
        # the address of point a's first differences in the window
        return int(first_tab[a // plane]) + a % plane * dim_h * 8

    def jet_rows(start: int, stop: int, at: int, mine) -> tuple:
        # the block's rows of lap and first: views of one slab, or copies
        s, k = start // span, stop - start
        if (stop - 1) // span == s:
            first, lap = jets[s]
            rows = slice(start - s * span, stop - s * span)
            return None if lap is None else lap[rows], first[rows]
        lap_rows = _place(mine[-2], at, k)
        first_rows = _place(mine[-1], at, k * dim_h).reshape(k, dim_h)
        for s in range(s, (stop - 1) // span + 1):
            a, b = max(start, s * span), min(stop, s * span + span)
            first, lap = jets[s]
            lap_rows[a - start:b - start] = lap[a - s * span:b - s * span]
            first_rows[a - start:b - start] = first[a - s * span:b - s * span]
        return lap_rows, first_rows

    def make(fresh, jet, u0: int, u1: int, _):
        # the round's transforms and jet at the fibres [u0, u1) of a slab
        lo, hi = u0 * fibre, u1 * fibre
        for s, g in fresh:
            transform(src[s * span + lo:s * span + hi], out=g[lo:hi])
        if jet is not None:
            lib.difference_jet(*tabs, slab(jet) * span + lo, hi - lo, *steps, two_h, h_sq)

    def hessians(lo: int, hi: int, b0: int, u0: int, u1: int, mine):
        # the round's Hessians of the points [lo, hi) in the blocks
        # b0 + [u0, u1): one call a block, and its contraction once formed
        for i in range(b0 + u0, b0 + u1):
            start, stop = bounds[i], bounds[i + 1]
            k, a, b = stop - start, max(start, lo), min(stop, hi)
            at = row_at(a)
            arrays = opened.get(i) or _block_arrays(mine, own, at, k)
            tr, om = arrays[0], arrays[1]
            nsq = arrays[2] if with_norm else None
            j = 8 * (a - start)
            lib.hessian_block(tabs[1], tr.ctypes.data + j, om.ctypes.data + j,
                              None if nsq is None else nsq.ctypes.data + j, k, a, b - a,
                              *steps, two_h)
            if stop <= hi:
                work = _block_arrays(mine[len(own):], scratch, at, k)
                sums[i] = contract(slice(start, stop), tr, om, nsq, work,
                                   *jet_rows(start, stop, at, mine)) or ()

    def prepare(made, jet) -> list:
        # place the slots of a round and write its tables; the slabs whose
        # transform the round makes, with their slots
        fresh = []
        for j in made:
            if all(s != slab(j) for s, _ in g_slabs.values()):
                g = _place(t_raws[j % len(t_raws)], src[slab(j) * span:].ctypes.data, span)
                g_slabs[j % len(t_raws)] = (slab(j), g)
                fresh.append((slab(j), g))
        if transform is not None and jet is not None:
            # the slabs of indices jet - 1, jet and jet + 1 of g
            held = {s: g for s, g in g_slabs.values()}
            g_tab[:] = 0
            for j in (jet - 1, jet, jet + 1):
                tabulate(g_tab, slab(j), held[slab(j)])
        if jet is not None:
            at = int(g_tab[slab(jet) * per])
            q = jet if jet < 2 else 2 + (jet - 2) % ring
            jets[slab(jet)] = (_place(j_raws[2 * q], at, span * dim_h).reshape(span, dim_h),
                               _place(j_raws[2 * q + 1], at, span))
        # the jets of indices 0 and 1, and the ring's
        newest = slabs if jet is None else jet
        for s in list(jets):
            if 2 <= (s + 1) % slabs <= newest - ring:
                del jets[s]
        first_tab[:] = lap_tab[:] = 0
        for s, (first, lap) in jets.items():
            tabulate(first_tab, s, first)
            if lap is not None:
                tabulate(lap_tab, s, lap)
        return fresh

    rounds = _sweep_rounds(slabs, transform is not None)
    for made, jet, rows in rounds[-1:] if handed else rounds:
        fresh = prepare(made, jet)
        if fresh or jet is not None:
            _share_blocks(functools.partial(make, fresh, jet), span // fibre, lambda: None)
        if rows:
            # the Hessians of a run of slabs, by the blocks that meet it
            lo, hi = slab(rows[0]) * span, slab(rows[-1]) * span + span
            b0, b1 = bisect.bisect_right(bounds, lo) - 1, bisect.bisect_left(bounds, hi)
            if bounds[b1] > hi and b1 - 1 not in opened:
                k = bounds[b1] - bounds[b1 - 1]
                opened[b1 - 1] = _block_arrays(_raws([math.prod(shape) * k for shape in own]),
                                               own, row_at(bounds[b1 - 1]), k)
            if not spaces:
                # made at the first Hessians, so that a one-slab sweep does
                # not hold them beside its transform slot (at m_x = 6 that
                # raised the peak RSS of a theorem run by 1.5 MB)
                spaces = [[np.empty(count + PLACE_PAD) for count in space]
                          for _ in range(WORKERS)]
            _share_blocks(functools.partial(hessians, lo, hi, b0), b1 - b0,
                          iter(spaces).__next__)
            opened = {i: arrays for i, arrays in opened.items() if bounds[i + 1] > hi}
        if jet == slabs - 1:
            # the last jet is made: no transform is read again
            g_slabs.clear()
            t_raws = None
    return tuple(_tree_sum(entry, grid.size) for entry in zip(*sums))


def _window(grid: LatticeGrid, shapes: tuple, handed: bool) -> tuple:
    """The layout of a Hessian pass over grid whose block arrays have the
    leads shapes: (slabs, ring, slots, space), the number of slabs, the
    ring of sliding jets (the three a round's Hessians read and one for
    each slab a block may reach back past them, since a block is
    contracted in the round that forms its last point), the jet slots, and
    the values of one worker's block arrays in a Hessian phase and of the
    jet rows of a block that straddles slabs.  Handed differences are one
    slab, and the pass makes no jet to hold.  It builds no block bounds,
    so a grid too large to run costs nothing to lay out."""
    slabs = grid.m_x if not handed and grid.size // grid.m_x >= WINDOW_PLANE_POINTS else 1
    most = _largest_node(grid.size, BLOCK_POINTS)
    ring = 2 + -(-most // (grid.size // slabs))
    space = [math.prod(shape) * most for shape in shapes] + [most, most * grid.dim_h]
    return slabs, ring, 0 if handed else min(slabs, 2 + ring), space


def sweep_bytes(grid: LatticeGrid) -> int:
    """The bytes of the arrays of F's Hessian sweep (FlowQuantities.production),
    the largest sweep of a record: three transform slots, the jet slots and
    WORKERS sets of block arrays (tr, omega, |H|^2, five integrand rows and
    a straddling block's jet rows), as hessian_pass lays them out."""
    slabs, _, slots, space = _window(grid, _hessian_own(True) + ((5,),), False)
    span = grid.size // slabs
    counts = [span] * min(3, slabs) + [span * grid.dim_h, span] * slots + space * WORKERS
    return 8 * (sum(counts) + PLACE_PAD * len(counts))


def _raws(counts: list) -> list:
    """One flat float64 array for each count, each PLACE_PAD values longer
    so that _place can start a view anywhere in it, all views of one
    allocation."""
    edges = np.cumsum([0] + [count + PLACE_PAD for count in counts])
    arena = np.empty(edges[-1])
    return [arena[lo:hi] for lo, hi in zip(edges, edges[1:])]


def _production_block(tr: np.ndarray, om: np.ndarray, nsq: np.ndarray, lap: np.ndarray,
                     first: np.ndarray, work: np.ndarray) -> float:
    """The integrands of FlowQuantities.production on one block of k points
    of F's Hessian pass, by one call of the C function production_block,
    and the block's minimum of the p-deficit.

    tr, om (3, k) and nsq are the block's contractions, lap its compact
    Laplacian and first (k, 4n) its first differences; work (5, k) holds
    the weights u^(1 - 2 alpha) and u^(1 - 4 alpha) in rows 0 and 1.  Per
    point the call forms the p-deficit |H|^2 - (1/4n)(tr H)^2 -
    (1/4n) sum_s omega_s(H)^2, grouped as written and pointwise
    non-negative by the Bessel inequality for the orthogonal family
    {Id, omega_1, omega_2, omega_3}, and |DF|^2 in axis order, and writes
    into the rows of work the integrands w2 (Delta F)^2, w4 |DF|^4,
    w2 |H|^2, w2 sum_s omega_s^2 and w2 deficit, each with the bits of its
    whole-field numpy formula.  The minimum keeps a NaN, as
    np.minimum.reduce does.  Every array is C-contiguous float64, or the
    call is refused.
    """
    k = tr.shape[0]
    shapes = ((tr, (k,)), (om, (3, k)), (nsq, (k,)), (lap, (k,)),
              (first, (k, first.shape[-1])), (work, (5, k)))
    if any(arr.shape != shape or arr.dtype != np.float64 or not arr.flags.c_contiguous
           for arr, shape in shapes):
        raise ValueError("the production block takes C-contiguous float64 blocks of one size")
    lo = np.empty(1)
    _step_kernel().production_block(tr.ctypes.data, om.ctypes.data, nsq.ctypes.data,
                                    lap.ctypes.data, first.ctypes.data, work.ctypes.data,
                                    lo.ctypes.data, k, first.shape[-1])
    return float(lo[0])


def euler_pass(values: np.ndarray, grid: LatticeGrid, w: float, measure: bool):
    """One Euler update of a field: (new, mass, lo, hi).

    new, of grid.shape, is u + acc * w, acc = sum_a ((S_a^+ u + S_a^- u)
    - u * 2), lo its minimum and, when measure is set, mass its integral
    (the bits of integrate) and hi its maximum; otherwise they are None.
    A NaN in new makes lo and hi NaN, as np.min and np.max do.  Each worker
    makes one call of the C function euler_update over its run of the
    blocks of the passes, which writes the update of every point and the
    minimum and maximum of what it wrote; the mass is one np.add.reduce per
    block, added up by _tree_sum.  The pass makes new itself, beside the
    field (_field_beside).
    """
    lib = _step_kernel()
    src = _one_field(values, grid, "Euler pass")
    cols, rolls = grid._step_constants
    out = _field_beside(src, (grid.size,))
    bounds = _block_bounds(grid.size)
    sums = [None] * (len(bounds) - 1)
    extremes = []

    def buffers():
        ext = np.empty(2)
        extremes.append(ext)
        return ext

    def run(first: int, last: int, ext):
        start, stop = bounds[first], bounds[last]
        lib.euler_update(src.ctypes.data, out.ctypes.data, ext.ctypes.data, start,
                         stop - start, grid.m_x, grid.dim_h, cols.ctypes.data,
                         rolls.ctypes.data, w)
        if measure:
            for i in range(first, last):
                sums[i] = np.add.reduce(out[bounds[i]:bounds[i + 1]])

    _share_blocks(run, len(bounds) - 1, buffers)
    lo = float(np.min([ext[0] for ext in extremes]))
    if not measure:
        return out.reshape(grid.shape), None, lo, None
    return (out.reshape(grid.shape), float(grid.cell_volume * _tree_sum(sums, grid.size)),
            lo, float(np.max([ext[1] for ext in extremes])))


def jet_pass(values: np.ndarray, grid: LatticeGrid) -> tuple[np.ndarray, np.ndarray]:
    """The difference jet of a field: (first, lap), first[..., a] = D_a f
    point-major, of shape grid.shape + (4n,), so each point's 4n
    differences are one run, and the compact Laplacian lap =
    -sum_a ((S_a^+ f - f * 2) + S_a^- f) / h_x^2 of grid.shape.  Each
    worker makes one call of the C function difference_jet over its run of
    the blocks of the passes, which reads each point's 8n steps once.  The
    pass makes first and lap itself, each beside the field (_field_beside)."""
    lib = _step_kernel()
    src = _one_field(values, grid, "jet pass")
    cols, rolls = grid._step_constants
    first = _field_beside(src, grid.shape + (grid.dim_h,))
    lap = _field_beside(src, grid.shape)
    tables = [_plane_table(arr, grid) for arr in (src, first, lap)]
    bounds = _block_bounds(grid.size)

    def run(i0: int, i1: int, _):
        start, stop = bounds[i0], bounds[i1]
        lib.difference_jet(*(table.ctypes.data for table in tables), start, stop - start,
                           grid.m_x, grid.dim_h, cols.ctypes.data, rolls.ctypes.data,
                           2.0 * grid.h_x, grid.h_x * grid.h_x)

    _share_blocks(run, len(bounds) - 1, lambda: None)
    return first, lap


def vertical_shift(values: np.ndarray, grid: LatticeGrid, s: int, direction: int) -> np.ndarray:
    """Sample the field after one vertical step (pure roll of a t-axis)."""
    if s not in (0, 1, 2):
        raise ValueError("vertical axis s must be 0, 1 or 2")
    return np.roll(values, -direction, axis=grid.dim_h + s)


# ---------------------------------------------------------------------------
# periodized bump test data
# ---------------------------------------------------------------------------

SUPPORT_FACTOR = 2.0  # support radius of a profile is SUPPORT_FACTOR * scale

BUMP_PROFILES = ("smooth", "cosine")


def check_bump_params(width: float, profile: str = "smooth",
                      tau_profile: str | None = None, tau_width: float | None = None):
    """Raise ValueError unless periodized_bump accepts these parameters:
    0 < width < L_x/4 keeps the support inside one lattice shell
    horizontally, tau_width is None or finite and > 0, and both profiles
    come from BUMP_PROFILES (a None tau_profile follows profile)."""
    if not 0 < width < L_X / 4:
        raise ValueError(f"bump width must lie in (0, {L_X / 4}) so one "
                         "lattice shell covers the support")
    if tau_width is not None and not (math.isfinite(tau_width) and tau_width > 0):
        raise ValueError(f"tau_width must be finite and > 0, not {tau_width}")
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


def periodized_bump(grid: LatticeGrid, width: float = 0.2, amplitude: float = 1.0,
                    offset: float = 0.0, tau_width: float | None = None,
                    profile: str = "smooth",
                    tau_profile: str | None = None) -> ScalarField:
    """Lattice-periodic smooth bump plus a constant offset.

    The bump is the sum over the lattice of a compactly supported profile of
    the group-relative coordinates: with rel = center^{-1} * (gamma * g) and
    center = default_center(grid),
    psi(rel) = chi(|rel_x| / width) * prod_s chi(|rel_t,s| / tau_width),
    where chi has characteristic scale 1 and support radius SUPPORT_FACTOR.
    width < L_x/4 keeps the support inside one lattice shell horizontally;
    the vertical profile may wrap the short vertical period, in which case
    the overlapping images are summed exactly.
    """
    check_bump_params(width, profile, tau_profile, tau_width)
    if tau_width is None:
        tau_width = default_tau_width(width)
    if tau_profile is None:
        tau_profile = profile

    dh = grid.dim_h
    xs = np.arange(grid.m_x) * grid.h_x
    ts = np.arange(grid.m_t) * grid.h_t
    B = twist_matrices(grid.n)
    center = default_center(grid)
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
    # offset + amplitude * total, in total's own buffer
    np.multiply(amplitude, total, out=total)
    np.add(offset, total, out=total)
    return ScalarField(grid, total)


def vertically_uniform_bump(grid: LatticeGrid, width: float = 0.2, amplitude: float = 1.0,
                            offset: float = 0.0) -> ScalarField:
    """Smooth bump constant along the vertical axes.

    Uses the cosine vertical profile with support equal to twice the
    vertical period: its lattice images sum to an exact partition of unity,
    so the result is the plain horizontal mollifier broadcast vertically,
    still built by the defining lattice sum.
    """
    return periodized_bump(grid, width=width, amplitude=amplitude, offset=offset,
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
