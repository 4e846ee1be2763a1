"""Tests for the group model, grid exactness, and periodized test data."""
import ast
import bisect
import ctypes
import hashlib
import itertools
import re
import shlex
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from qcflow import flow, lattice
from qcflow.lattice import (
    BLOCK_POINTS,
    XI_SCALE,
    GroupPoint,
    HorizontalField,
    ScalarField,
    group_inverse,
    group_multiply,
    imaginary_product,
    integrate,
    load_field,
    make_grid,
    periodized_bump,
    save_field,
    twist_matrices,
    vertical_shift,
)

from oracles import bump_value, kernel_calls, shift

SRC = Path(__file__).resolve().parents[1] / "src" / "qcflow"


def rand_point(rng, n):
    return GroupPoint(rng.normal(size=4 * n), rng.normal(size=3))


def test_group_identity_and_inverse():
    rng = np.random.default_rng(0)
    for n in (1, 2):
        e = GroupPoint(np.zeros(4 * n), np.zeros(3))
        p = rand_point(rng, n)
        q = group_multiply(p, e)
        assert np.allclose(q.x, p.x, atol=1e-15) and np.allclose(q.t, p.t, atol=1e-15)
        r = group_multiply(p, group_inverse(p))
        assert np.max(np.abs(r.x)) <= 1e-12 and np.max(np.abs(r.t)) <= 1e-12


def test_group_associativity():
    rng = np.random.default_rng(1)
    for n in (1, 2):
        for _ in range(20):
            p, q, r = (rand_point(rng, n) for _ in range(3))
            a = group_multiply(group_multiply(p, q), r)
            b = group_multiply(p, group_multiply(q, r))
            assert np.max(np.abs(a.x - b.x)) <= 1e-12
            assert np.max(np.abs(a.t - b.t)) <= 1e-12


def test_group_noncommutativity_center():
    # horizontal unit vectors do not commute; their group commutator is a
    # pure center element with nonzero vertical part
    e1 = GroupPoint(np.array([1.0, 0, 0, 0]), np.zeros(3))
    e2 = GroupPoint(np.array([0.0, 1, 0, 0]), np.zeros(3))
    ab = group_multiply(e1, e2)
    ba = group_multiply(e2, e1)
    assert not np.allclose(ab.t, ba.t)
    comm = group_multiply(ab, group_inverse(ba))
    assert np.max(np.abs(comm.x)) <= 1e-12
    assert np.max(np.abs(comm.t)) > 0
    # matches 4 Im(conj(e1) e2)
    assert np.allclose(comm.t, 4.0 * imaginary_product(e1.x, e2.x), atol=1e-12)


def _step_index(grid, idx, a, direction):
    """Grid index of g * (direction*h_x e_a, 0) for the point g at idx,
    read from the reference table step_permutation."""
    flat = grid.step_permutation(a, direction)[np.ravel_multi_index(idx, grid.shape)]
    return tuple(int(i) for i in np.unravel_index(flat, grid.shape))


def test_step_from_origin_is_pure_x_shift():
    grid = make_grid(1, 4)
    origin = (0,) * 7
    for a in range(4):
        new = _step_index(grid, origin, a, +1)
        expect = [0] * 7
        expect[a] = 1
        assert new == tuple(expect)


def test_step_twist_unit():
    # stepping along axis 0 at a point with x_1-index 1 moves a t-index by
    # exactly one grid unit, since 2 h_x * h_x = h_t
    grid = make_grid(1, 4)
    idx = (0, 1, 0, 0, 0, 0, 0)
    new = _step_index(grid, idx, 0, +1)
    tshift = np.array(new[4:]) - np.array(idx[4:])
    tshift = (tshift + grid.m_t // 2) % grid.m_t - grid.m_t // 2
    assert sorted(np.abs(tshift)) == [0, 0, 1]


def test_step_round_trip_exhaustive_m3():
    # the step back undoes the step forward at every point
    grid = make_grid(1, 3)
    for a in range(4):
        fwd, back = grid.step_permutation(a, +1), grid.step_permutation(a, -1)
        assert np.array_equal(back[fwd], np.arange(grid.size))


def test_step_lands_on_grid_exhaustive_m3():
    # group-law oracle: the stepped index of the table names exactly the
    # group product, up to a lattice translation with integer coefficients
    grid = make_grid(1, 3)
    h = grid.h_x
    steps = {(a, d): GroupPoint(np.eye(4)[a] * d * h, np.zeros(3))
             for a in range(4) for d in (-1, 1)}
    tables = {key: grid.step_permutation(*key) for key in steps}
    for flat, idx in enumerate(itertools.product(range(3), repeat=7)):
        g = grid.point_at(idx)
        for (a, d), stepper in steps.items():
            q = grid.point_at(np.unravel_index(tables[a, d][flat], grid.shape))
            p = group_multiply(g, stepper)
            gamma = group_multiply(q, group_inverse(p))
            kx = gamma.x / grid.L_x
            kt = gamma.t / grid.L_t
            assert np.max(np.abs(kx - np.round(kx))) <= 1e-12
            assert np.max(np.abs(kt - np.round(kt))) <= 1e-12


@pytest.mark.parametrize("m", [3, 4])
def test_step_permutation_bijective(m):
    grid = make_grid(1, m)
    for a in range(4):
        for d in (-1, 1):
            perm = grid.step_permutation(a, d)
            assert np.array_equal(np.sort(perm), np.arange(grid.size))


def test_step_permutation_matches_index_arithmetic():
    # every table, both directions, at every point: the broadcast
    # construction against the group law (x, t) * (x', t') = (x + x',
    # t + t' + 2 x B_s x'), over the whole grid at once.  The landed point
    # q and the product p = g * (d h_x e_a, 0) differ by a lattice element
    # gamma = q * p^-1 with integer coordinates in units of L_x and L_t
    for n, m in ((1, 3), (1, 4), (2, 2)):
        grid = make_grid(n, m)
        dim_h, B = grid.dim_h, twist_matrices(n)
        idx = np.indices(grid.shape).reshape(dim_h + 3, -1).astype(float)
        g_x, g_t = idx[:dim_h] * grid.h_x, idx[dim_h:] * grid.h_t
        for a in range(dim_h):
            for d in (-1, 1):
                perm = grid.step_permutation(a, d)
                assert perm.dtype == np.int64 and perm.shape == (grid.size,)
                landed = np.array(np.unravel_index(perm, grid.shape), dtype=float)
                q_x, q_t = landed[:dim_h] * grid.h_x, landed[dim_h:] * grid.h_t
                p_x = g_x.copy()
                p_x[a] += d * grid.h_x
                p_t = g_t + 2.0 * d * grid.h_x * np.einsum("bp,sb->sp", g_x, B[:, :, a])
                k_x = (q_x - p_x) / grid.L_x
                k_t = (q_t - p_t - 2.0 * np.einsum("bp,sbc,cp->sp", q_x, B, p_x)) / grid.L_t
                for k in (k_x, k_t):
                    assert np.max(np.abs(k - np.round(k))) <= 1e-12, (n, m, a, d)


def _hamilton(p, q):
    """The Hamilton product of two quaternions given by their (1, i, j, k)
    parts."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def test_twist_matrices_are_the_quaternion_product():
    # B_s[a, b] = Im_s(conj(e_a) e_b), block by block, from the Hamilton
    # product itself and not from code that reads B_s; the frame's triple
    # I_s = B_s is quaternionic and antisymmetric, and its 2-forms
    # omega_s = B_s^T are the twist columns every C pass reads
    units = np.eye(4, dtype=np.int64)
    conj = np.array([1, -1, -1, -1])
    block = np.array([[[_hamilton(conj * units[p], units[q])[1 + s] for q in range(4)]
                       for p in range(4)] for s in range(3)])
    for n in (1, 2, 3):
        B = twist_matrices(n)
        assert np.array_equal(B, [np.kron(np.eye(n), block[s]) for s in range(3)])
        I1, I2, I3 = B
        assert np.array_equal(I1 @ I2, I3)
        for s in range(3):
            assert np.array_equal(B[s] @ B[s], -np.eye(4 * n))
            assert np.array_equal(B[s].T, -B[s])
        cols, _ = make_grid(n, 2)._step_constants
        assert np.array_equal(B.transpose(0, 2, 1), cols.transpose(1, 0, 2))


def _first_diff(vals, grid, a):
    return (shift(vals, grid, a, +1) - shift(vals, grid, a, -1)) / (2.0 * grid.h_x)


def _reeb(vals, grid, s):
    return XI_SCALE * (vertical_shift(vals, grid, s, +1)
                       - vertical_shift(vals, grid, s, -1)) / (2.0 * grid.h_t)


def test_commutator_exact_vertical_factorization():
    # The discrete frame bracket is exactly a corner-averaged vertical
    # difference: D_a D_b f - D_b D_a f = 4 v_s CornerAvg(vertical diff),
    # with v = Im(conj(e_a) e_b).  This is the sharp discrete form of the
    # torsion contract and pins every sign in the frame conventions.
    grid = make_grid(1, 4)
    B = twist_matrices(grid.n)
    f = periodized_bump(grid, width=0.2, amplitude=1.0, offset=0.0)
    vals = f.values
    first = [_first_diff(vals, grid, a) for a in range(grid.dim_h)]
    for a in range(grid.dim_h):
        for b in range(a + 1, grid.dim_h):
            comm = _first_diff(first[b], grid, a) - _first_diff(first[a], grid, b)
            v = grid.twist[:, a, b]
            s = int(np.nonzero(v)[0][0])
            vs = int(v[s])
            dvf = (vertical_shift(vals, grid, s, +1)
                   - vertical_shift(vals, grid, s, -1)) / (2.0 * grid.h_t)
            acc = np.zeros(grid.shape)
            for sg in (1, -1):
                for tu in (1, -1):
                    samp = shift(shift(dvf, grid, b, tu), grid, a, sg)
                    acc += vertical_shift(samp, grid, s, -sg * tu * vs)
            ident = vs * acc  # = 4 v_s * corner average
            scale = max(np.max(np.abs(comm)), 1e-30)
            assert np.max(np.abs(comm - ident)) <= 1e-12 * scale
            # the twist term of the contract is exactly -4 v_s (vertical diff)
            twist = sum(2.0 * B[t][b, a] * _reeb(vals, grid, t)
                        for t in range(3))
            assert np.max(np.abs(twist + 4.0 * vs * dvf)) <= 1e-12 * scale


def test_commutator_vanishes_identically_for_x_only_fields():
    grid = make_grid(1, 4)
    rng = np.random.default_rng(5)
    xv = rng.normal(size=(4, 4, 4, 4))
    vals = np.broadcast_to(xv[..., None, None, None], grid.shape).copy()
    for a in range(4):
        for b in range(a + 1, 4):
            fa = _first_diff(_first_diff(vals, grid, b), grid, a)
            fb = _first_diff(_first_diff(vals, grid, a), grid, b)
            assert np.max(np.abs(fa - fb)) <= 1e-14


def test_bump_constant_case():
    grid = make_grid(1, 4)
    f = periodized_bump(grid, width=0.2, amplitude=0.0, offset=1.0)
    assert np.max(np.abs(f.values - 1.0)) == 0.0


def test_bump_positive_with_offset():
    grid = make_grid(1, 4)
    f = periodized_bump(grid, width=0.2, amplitude=0.5, offset=1.0)
    assert f.values.min() > 0.4
    assert f.values.max() > 1.0


def test_bump_rejects_wide_width():
    grid = make_grid(1, 4)
    with pytest.raises(ValueError):
        periodized_bump(grid, width=0.3)
    for tau_width in (float("inf"), float("nan"), 0.0, -0.05):
        with pytest.raises(ValueError, match="tau_width must be finite and > 0"):
            periodized_bump(grid, width=0.2, tau_width=tau_width)


def test_bump_field_matches_pointwise_sum():
    grid = make_grid(1, 4)
    f = periodized_bump(grid, width=0.2, amplitude=1.0, offset=0.1)
    for idx in [(2, 2, 2, 2, 2, 2, 2), (1, 3, 2, 0, 1, 1, 3), (0, 0, 1, 2, 3, 0, 2)]:
        val = bump_value(grid.point_at(idx), grid, width=0.2, amplitude=1.0, offset=0.1)
        assert abs(val - f.values[idx]) <= 1e-12


def test_bump_lattice_invariance():
    grid = make_grid(1, 4)
    rng = np.random.default_rng(9)
    gens = [GroupPoint(np.eye(4)[1] * grid.L_x, np.zeros(3)),
            GroupPoint(np.zeros(4), np.array([0.0, grid.L_t, 0.0]))]
    for _ in range(4):
        g = GroupPoint(rng.uniform(0, 1, size=4), rng.uniform(0, grid.L_t, size=3))
        base = bump_value(g, grid, width=0.2)
        for gen in gens:
            moved = bump_value(group_multiply(gen, g), grid, width=0.2)
            assert abs(moved - base) <= 1e-12 * max(1.0, abs(base))


def test_integrate_constant_and_zero():
    grid = make_grid(1, 4)
    ones = ScalarField(grid, np.ones(grid.shape))
    vol = grid.L_x ** 4 * grid.L_t ** 3
    assert abs(integrate(ones) - vol) <= 1e-12 * vol
    zero = ScalarField(grid, np.zeros(grid.shape))
    assert integrate(zero) == 0.0


def test_bump_integral_stable_under_refinement():
    # the pure bump part unfolds to a fixed group integral, so its values
    # across refinement agree up to quadrature (alias) error; measured
    # capability at this width is ~2% for 4->8 and well under 1% for 6->8
    vals = {}
    for m in (4, 6, 8):
        grid = make_grid(1, m)
        f = periodized_bump(grid, width=0.245, amplitude=1.0, offset=0.0,
                            tau_width=0.3)
        vals[m] = integrate(f)
    assert abs(vals[4] - vals[8]) <= 0.025 * abs(vals[8])
    assert abs(vals[6] - vals[8]) <= 0.01 * abs(vals[8])


def test_field_snapshot_round_trip(tmp_path):
    grid = make_grid(1, 3)
    rng = np.random.default_rng(21)
    f = ScalarField(grid, rng.normal(size=grid.shape))
    base = str(tmp_path / "snap")
    binpath, headerpath = save_field(f, base)
    with open(binpath, "rb") as fh:
        assert fh.read() == f.values.astype("<f8").tobytes()
    g = load_field(base)
    assert np.array_equal(f.values, g.values)
    assert g.grid.m_x == 3 and g.grid.n == 1


def place_gap(out: np.ndarray, src: np.ndarray) -> int:
    """Bytes from src's first value to out's, modulo 4 KiB."""
    return (out.ctypes.data - src.ctypes.data) % 4096


@pytest.mark.parametrize("m", [5, 8])
def test_the_euler_and_jet_passes_place_their_fields_2_kib_past_the_input(m):
    # m_x = 8 fields are 16 MiB, which numpy's allocator places 16 B apart
    # modulo 1 MiB, the placement whose stores stall the loads they run
    # ahead of; m_x = 5 fields are an odd size, 625000 B
    grid = make_grid(1, m)
    u = flow.initial_field(flow.FlowConfig(m_x=m), grid)
    new, *_ = lattice.euler_pass(u.values, grid, 0.01, True)
    first, lap = lattice.jet_pass(u.values, grid)
    assert [place_gap(out, u.values) for out in (new, first, lap)] == [2048] * 3
    # the next step and the next jet place theirs past their own input
    newer, *_ = lattice.euler_pass(new, grid, 0.01, False)
    first2, lap2 = lattice.jet_pass(new, grid)
    assert [place_gap(out, new) for out in (newer, first2, lap2)] == [2048] * 3


@pytest.mark.parametrize("m", [5, 8])
def test_a_placed_field_is_a_whole_field_to_every_reader(m, tmp_path):
    # a placed field is a view into a longer array: it must read as a
    # C-contiguous float64 field of the grid's shape, byte for byte through
    # the buffer protocol (perfbench digests memoryview(values).cast("B")),
    # a snapshot and a copy
    grid = make_grid(1, m)
    rng = np.random.default_rng(m)
    src = rng.random(grid.shape) + 1.0
    placed = lattice._field_beside(src, grid.shape)
    np.log(src, out=placed)
    assert place_gap(placed, src) == 2048
    assert placed.shape == grid.shape and placed.dtype == np.float64
    assert placed.flags.c_contiguous
    assert placed.nbytes <= placed.base.nbytes <= placed.nbytes + 4096
    want = np.log(src).tobytes()
    assert memoryview(placed).cast("B").tobytes() == want
    f = ScalarField(grid, placed)
    assert f.values is placed
    assert f.copy().values.tobytes() == want
    save_field(f, str(tmp_path / "placed"))
    assert (tmp_path / "placed.f64").read_bytes() == want
    assert load_field(str(tmp_path / "placed")).values.tobytes() == want


@pytest.mark.parametrize("m", [5, 8])
def test_block_arrays_sit_2_kib_past_the_block_of_their_input(m, monkeypatch):
    # each block's arrays sit 2 KiB past the block's first point of the
    # field or jet the block reads, modulo 4 KiB: the energy's weighted
    # |Df|^2 past f (_pass_blocks), and tr, omega, |H|^2 and a
    # contraction's rows past the handed point-major jet (hessian_pass).
    # m_x = 5 blocks start at odd offsets
    grid = make_grid(1, m)
    f = np.random.default_rng(m).random(grid.size) + 1.0
    first, _ = lattice.jet_pass(f, grid)
    calls = kernel_calls(monkeypatch)
    lattice.grad_sq_pass(f, grid, f)
    gaps = [(out - src - 8 * start) % 4096
            for name, (src, _, out, start, *_) in calls if name == "grad_sq_block"]
    assert len(gaps) == len(lattice._block_bounds(grid.size)) - 1
    assert set(gaps) == {2048}
    gaps = []

    def contract(blk, tr, om, nsq, work, lap, rows):
        at = first.ctypes.data + 8 * grid.dim_h * blk.start
        assert lap is None and rows.ctypes.data == at
        gaps.extend((arr.ctypes.data - at) % 4096 for arr in (tr, om, nsq, *work))

    lattice.hessian_pass(first, grid, None, contract, with_norm=True, scratch=((5,), ()))
    assert set(gaps) == {2048}


@pytest.mark.parametrize("m, plane_points, block", [(5, 1, 4096), (8, None, None)])
def test_the_sweep_places_its_window_2_kib_past_each_input(m, plane_points, block, monkeypatch):
    # a sweep of one plane at a time (m_x = 8, and m_x = 5 with planes of
    # any size held as a window) places each transform plane 2 KiB past the
    # plane of u it transforms, each jet plane 2 KiB past the transform plane
    # it differentiates, and the arrays of a block 2 KiB past the block's
    # jet, each modulo 4 KiB; a plane the window does not hold has the
    # table entry 0
    monkeypatch.setattr(lattice, "WORKERS", 1)
    if plane_points is not None:
        monkeypatch.setattr(lattice, "WINDOW_PLANE_POINTS", plane_points)
        monkeypatch.setattr(lattice, "BLOCK_POINTS", block)
    grid = make_grid(1, m)
    plane = grid.size // m
    u = flow.initial_field(flow.FlowConfig(m_x=m, tau_profile=None), grid).values.reshape(-1)
    calls = kernel_calls(monkeypatch)
    gaps, blocks = [], 0

    def contract(blk, tr, om, nsq, work, lap, first):
        nonlocal blocks
        if blk.start // plane == (blk.stop - 1) // plane:
            blocks += 1
            gaps.extend((arr.ctypes.data - first.ctypes.data) % 4096 for arr in (tr, om, nsq, *work))

    lattice.hessian_pass(u, grid, np.sqrt, contract, with_norm=True, scratch=((5,),))
    jets = [args for name, args in calls if name == "difference_jet"]
    assert len(jets) == m
    for g_tab, first_tab, lap_tab, start, *_ in jets:
        x = start // plane
        held = np.flatnonzero(g_tab)
        assert len(held) == 3 and x in held and len(np.flatnonzero(first_tab)) <= 5
        assert {(int(g_tab[y]) - u.ctypes.data - 8 * plane * y) % 4096 for y in held} == {2048}
        assert (first_tab[x] - g_tab[x]) % 4096 == (lap_tab[x] - g_tab[x]) % 4096 == 2048
    assert blocks > 0 and set(gaps) == {2048}


def test_the_sweep_keeps_its_bits_on_more_workers_than_cores(monkeypatch):
    # four workers on a pool of four threads, with the interpreter switching
    # threads every microsecond, sweep m_x = 5 plane by plane, where a block
    # (19528 points and more) is longer than a plane (15625), so a block is
    # formed over two or three rounds.  A block contracted before the phase
    # that forms its last point changes the sums against one worker's
    monkeypatch.setattr(lattice, "WINDOW_PLANE_POINTS", 1)
    grid = make_grid(1, 5)
    u = 1.0 + 0.3 * np.random.default_rng(5).random(grid.size)

    def contract(blk, tr, om, nsq, work, lap, first):
        return (np.add.reduce(lap * tr), np.add.reduce(nsq), np.add.reduce(first[:, 0] * om[1]))

    def sweep():
        return lattice.hessian_pass(u, grid, np.sqrt, contract, with_norm=True)

    monkeypatch.setattr(lattice, "WORKERS", 1)
    expect = sweep()
    monkeypatch.setattr(lattice, "WORKERS", 4)
    pool = ThreadPoolExecutor(max_workers=4)
    monkeypatch.setattr(lattice, "_executor", lambda: pool)
    got = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        done = threading.Thread(target=lambda: got.extend(sweep() for _ in range(10)), daemon=True)
        done.start()
        done.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
        pool.shutdown()
    assert not done.is_alive()
    assert got == [expect] * 10


@pytest.mark.parametrize("workers", [2, 4])
def test_a_sweep_forms_a_block_once_for_each_plane_it_touches(workers, monkeypatch):
    # a round's Hessians run by tree blocks, so one worker forms a block's
    # points of that round in one hessian_block call: swept plane by plane
    # at m_x = 5, with blocks of 4096 points that straddle planes and the
    # workers' shares, every point is formed once and no block in more
    # calls than the x_0 planes it touches
    monkeypatch.setattr(lattice, "WORKERS", workers)
    monkeypatch.setattr(lattice, "WINDOW_PLANE_POINTS", 1)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", 4096)
    grid = make_grid(1, 5)
    plane = grid.size // grid.m_x
    bounds = lattice._block_bounds(grid.size)
    u = 1.0 + 0.3 * np.random.default_rng(5).random(grid.size)
    calls = kernel_calls(monkeypatch)
    lattice.hessian_pass(u, grid, np.sqrt, lambda *block: None, with_norm=False)
    pieces = [args[5:7] for name, args in calls if name == "hessian_block"]
    assert sum(length for _, length in pieces) == grid.size
    formed = [0] * (len(bounds) - 1)
    for start, length in pieces:
        i = bisect.bisect_right(bounds, start) - 1
        assert start + length <= bounds[i + 1]
        formed[i] += 1
    touched = [(stop - 1) // plane - start // plane + 1 for start, stop in zip(bounds, bounds[1:])]
    assert all(1 <= count <= planes for count, planes in zip(formed, touched))


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_a_transform_in_a_window_slot_has_the_bits_of_the_whole_field(m):
    # np.log, np.power(., alpha) and np.sqrt, the transforms of a record,
    # give each x_0 plane, and the whole field as one slab, written in each
    # worker's share of its fibres into a slot placed 2 KiB past it, the
    # bits they give the whole field; so do slots at the other offsets
    # modulo 64 B
    grid = make_grid(1, m)
    u = flow.initial_field(flow.FlowConfig(m_x=m, tau_profile=None), grid).values.reshape(-1)
    plane, fibre = grid.size // m, m ** 3
    raw = np.empty(grid.size + lattice.PLACE_PAD)

    def power(values, out):
        return np.power(values, -0.05, out=out)

    for transform in (np.log, power, np.sqrt):
        whole = transform(u, out=np.empty_like(u)).tobytes()
        for span in (plane, grid.size):
            for start in range(0, grid.size, span):
                src = u[start:start + span]
                for shift in range(0, 64, 8):
                    slot = lattice._place(raw, src.ctypes.data + shift, span)
                    for workers in (1, 2, 3):
                        cuts = [span // fibre * i // workers * fibre for i in range(workers + 1)]
                        for lo, hi in zip(cuts, cuts[1:]):
                            transform(src[lo:hi], out=slot[lo:hi])
                        assert slot.tobytes() == whole[8 * start:8 * (start + span)], (span, start)


def test_vertical_shift_round_trip():
    grid = make_grid(1, 3)
    rng = np.random.default_rng(2)
    vals = rng.normal(size=grid.shape)
    for s in range(3):
        assert np.array_equal(
            vertical_shift(vertical_shift(vals, grid, s, +1), grid, s, -1), vals)


def _tree_nodes(start, n, cap):
    """The nodes of numpy's pairwise-summation tree over n points from start
    that first have at most cap points: a run of more than 128 points
    splits at n//2 - (n//2) % 8."""
    if n <= cap:
        return [(start, start + n)]
    half = n // 2 - (n // 2) % 8
    return _tree_nodes(start, half, cap) + _tree_nodes(start + half, n - half, cap)


def _grad_sq_block(values, weight, grid, start, k):
    """The weighted |Df|^2 of a flat field on the points [start, start + k),
    by one call of grad_sq_block."""
    cols, rolls = grid._step_constants
    out = np.empty(k)
    lattice._step_kernel().grad_sq_block(
        values.ctypes.data, weight.ctypes.data, out.ctypes.data, start, k, grid.m_x,
        grid.dim_h, cols.ctypes.data, rolls.ctypes.data, 2.0 * grid.h_x)
    return out


def _weighted_grad_sq(diffs, weight):
    """(((D_0 f)^2 + (D_1 f)^2) + ...) * weight, in the order of the energy's
    pass, from the differences D_a f."""
    acc = diffs[0] * diffs[0]
    for d in diffs[1:]:
        acc = acc + d * d
    return acc * weight


def _stack_hessian(first, grid, diff):
    """(|H|^2, tr H, omega_s(H)) of the composed differences H_ab =
    diff(D_b, a) of point-major first differences first[..., b] = D_b,
    flat, each summed from zero in (a, b) order as hessian_block sums
    them."""
    omega = twist_matrices(grid.n).transpose(0, 2, 1)
    rows = np.moveaxis(first, -1, 0).reshape(grid.dim_h, grid.size)
    norm_sq, trace, om = np.zeros(grid.size), np.zeros(grid.size), np.zeros((3, grid.size))
    for a in range(grid.dim_h):
        for b in range(grid.dim_h):
            hab = diff(rows[b], a)
            norm_sq += hab * hab
            if a == b:
                trace += hab
            for s in range(3):
                if omega[s, a, b] != 0.0:
                    om[s] += omega[s, a, b] * hab
    return norm_sq, trace, om


def _collect_hessian(first, grid):
    """(|H|^2, tr H, omega_s(H)) of point-major first differences, flat,
    from the blocks of lattice.hessian_pass over them, handed."""
    norm_sq, trace = np.full(grid.size, np.nan), np.full(grid.size, np.nan)
    om = np.full((3, grid.size), np.nan)

    def collect(blk, tr, o, nsq, work, lap, rows):
        trace[blk], om[:, blk], norm_sq[blk] = tr, o, nsq

    lattice.hessian_pass(first, grid, None, collect, with_norm=True)
    return norm_sq, trace, om


@pytest.mark.parametrize("m", [4, 5])
def test_step_gathers_match_shift(m, monkeypatch):
    # m_x = 4 is one point block, m_x = 5 four tree nodes of 19528 to 19541
    # points; one worker, so the contraction calls arrive in block order
    monkeypatch.setattr(lattice, "WORKERS", 1)
    grid = make_grid(1, m)
    rng = np.random.default_rng(m)
    flat = rng.normal(size=grid.size)
    stacked = rng.normal(size=grid.shape + (grid.dim_h,))
    weight = rng.random(grid.size)
    starts = [start for start, _ in _tree_nodes(0, grid.size, BLOCK_POINTS)]
    assert len(starts) == (1 if m == 4 else 4)
    assert lattice._block_bounds(grid.size)[:-1] == tuple(starts)

    def diff(values, a):
        return ((shift(values, grid, a, +1) - shift(values, grid, a, -1))
                / (2.0 * grid.h_x)).reshape(-1)

    # the energy's weighted |Df|^2 on each block of the passes
    expect_sq = _weighted_grad_sq([diff(flat, a) for a in range(grid.dim_h)], weight)
    for start, stop in _tree_nodes(0, grid.size, BLOCK_POINTS):
        got = _grad_sq_block(flat, weight, grid, start, stop - start)
        assert np.array_equal(got, expect_sq[start:stop])
    # the Hessian pass over point-major differences: H_ab = D_a of D_b,
    # whose sums each block's contraction receives
    expect = _stack_hessian(stacked, grid, diff)
    seen = []

    def contract(blk, tr, om, nsq, work, lap, rows):
        seen.append(blk.start)
        assert tr.shape == nsq.shape == (blk.stop - blk.start,)
        assert om.shape == (3, blk.stop - blk.start)
        for got, want in zip((nsq, tr, om), expect):
            assert np.array_equal(got, want[..., blk])

    lattice.hessian_pass(stacked, grid, None, contract, with_norm=True)
    assert seen == starts


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3),
                                  (3, 2)])
def test_step_kernel_gathers_what_the_step_tables_give(n, m, workers, monkeypatch):
    # grad_sq_block against the weighted sum of squares of (S^+ - S^-) / 2h
    # through np.take of step_permutation, called by hand over the blocks;
    # the Hessian pass over point-major random differences against the
    # Hessian of the step tables; and the point-major jet of a field and
    # the Hessian pass over it against the composed np.take references D_b f
    # and D_a D_b f.
    # Blocks of a little over two vertical fibres cut fibres at every odd m
    # and at m = 6, so both whole fibres and the runs of cut ones are read.
    # (3, 2) on 2 workers runs hessian_block, with its dim_h = 12 runs, on
    # the pool's threads
    monkeypatch.setattr(lattice, "WORKERS", workers)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", max(128, 2 * m ** 3 + 1))
    grid = make_grid(n, m)
    bounds = lattice._block_bounds(grid.size)
    if m in (3, 5, 6):
        assert any(b % m ** 3 for b in bounds)
    rng = np.random.default_rng(m)

    perms = [(grid.step_permutation(a, 1), grid.step_permutation(a, -1))
             for a in range(grid.dim_h)]

    def diff(values, a):
        up, down = perms[a]
        return (np.take(values, up, axis=-1) - np.take(values, down, axis=-1)) / (2.0 * grid.h_x)

    flat = rng.normal(size=grid.size)
    weight = rng.random(grid.size)
    expect = _weighted_grad_sq([diff(flat, a) for a in range(grid.dim_h)], weight)
    for start, stop in zip(bounds, bounds[1:]):
        got = _grad_sq_block(flat, weight, grid, start, stop - start)
        assert got.tobytes() == expect[start:stop].tobytes(), start
    stacked = rng.normal(size=grid.shape + (grid.dim_h,))
    for got, want in zip(_collect_hessian(stacked, grid), _stack_hessian(stacked, grid, diff)):
        assert got.tobytes() == want.tobytes()
    first, _ = lattice.jet_pass(flat, grid)
    expect = np.stack([diff(flat, b) for b in range(grid.dim_h)], axis=-1)
    assert first.shape == grid.shape + (grid.dim_h,)
    assert first.reshape(-1, grid.dim_h).tobytes() == expect.tobytes()
    for got, want in zip(_collect_hessian(first, grid), _stack_hessian(expect, grid, diff)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3),
                                  (3, 2)])
def test_grad_sq_pass_has_the_bits_of_the_step_tables(n, m, workers, monkeypatch):
    # the energy's pass against vol * np.sum(np.sum(D ** 2, axis=0) * w),
    # D_a = (S^+ - S^-) / 2h through np.take of step_permutation, with ==,
    # on the blocks of the gather test above, which cut fibres
    monkeypatch.setattr(lattice, "WORKERS", workers)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", max(128, 2 * m ** 3 + 1))
    grid = make_grid(n, m)
    rng = np.random.default_rng(m)
    f = rng.normal(size=grid.shape)
    w = rng.random(grid.shape)
    D = np.stack([(np.take(f, grid.step_permutation(a, 1))
                   - np.take(f, grid.step_permutation(a, -1))) / (2.0 * grid.h_x)
                  for a in range(grid.dim_h)])
    expect = grid.cell_volume * np.sum(np.sum(D ** 2, axis=0) * w.reshape(-1))
    assert lattice.grad_sq_pass(f, grid, w) == expect


def test_runtime_dim_h_bodies_keep_the_numpy_order(monkeypatch):
    # n = 3 (dim_h 12) runs the jet and Euler bodies of _steps.c at a
    # runtime dim_h, and m_x = 2 is the one such grid small enough to test.
    # There S^+ = S^-, so on values in [1, 1.3] every regrouping of
    # (S^+ + S^-) - 2u rounds alike; on signed values of wide magnitude it
    # shows in the bits
    monkeypatch.setattr(lattice, "BLOCK_POINTS", 128)
    grid = make_grid(3, 2)
    rng = np.random.default_rng(3)
    f = rng.normal(size=grid.size) * 10.0 ** rng.uniform(-3, 3, size=grid.size)
    ups = [np.take(f, grid.step_permutation(a, 1)) for a in range(grid.dim_h)]
    ums = [np.take(f, grid.step_permutation(a, -1)) for a in range(grid.dim_h)]
    two_f, acc, lap_acc = f * 2.0, None, np.zeros(grid.size)
    for up, um in zip(ups, ums):
        term = (up + um) - two_f
        acc = term if acc is None else acc + term
        lap_acc += (up - two_f) + um
    w = 0.1
    first, lap = lattice.jet_pass(f, grid)
    new = lattice.euler_pass(f, grid, w, False)[0]
    assert first.tobytes() == np.stack([(up - um) / (2.0 * grid.h_x)
                                        for up, um in zip(ups, ums)]).tobytes()
    assert lap.tobytes() == (-lap_acc / (grid.h_x * grid.h_x)).tobytes()
    assert new.tobytes() == (f + acc * w).tobytes()


@pytest.mark.parametrize("m", [3, 8])
def test_step_kernels_write_only_their_outputs(m):
    # each C function, called by hand on the roll table that the passes
    # size (m^4 int64) and on canary-filled outputs, each with a canary
    # tail: the table tail, the output tails and every output point outside
    # the block keep their canaries.
    # The blocks cut fibres at both ends, or run to the field's end, or
    # span sixteen whole fibres
    lib = lattice._step_kernel()
    grid = make_grid(1, m)
    dim_h, size, fibre, tail = grid.dim_h, grid.size, m ** 3, 64
    two_h, h_sq = 2.0 * grid.h_x, grid.h_x * grid.h_x
    cols = np.ascontiguousarray(grid.twist.transpose(2, 0, 1))
    canary, table_canary = -1.25e300, -0x5EED
    # plane_rolls fills m^4 entries, each run of m^2 a permutation of the
    # plane's points
    table = np.full(m ** 4 + tail, table_canary, dtype=np.int64)
    lib.plane_rolls(table.ctypes.data, m)
    assert np.all(table[m ** 4:] == table_canary)
    assert np.all(np.sort(table[:m ** 4].reshape(m * m, m * m), axis=1) == np.arange(m * m))
    # a (4n, N) stack: its first row is the field of the energy's block,
    # the jet and the Euler update; its point-major copy is what the
    # Hessian reads
    src = np.random.default_rng(m).normal(size=(dim_h, size))
    flat = src[0]
    by_point = np.ascontiguousarray(src.T)
    weight = 1.0 + np.arange(size) / size
    omega = twist_matrices(grid.n).transpose(0, 2, 1)
    # the references read the steps through np.take of the step tables,
    # which share no code with _steps.c
    perms = [(grid.step_permutation(a, 1), grid.step_permutation(a, -1))
             for a in range(dim_h)]

    def canaries(n):
        return np.full(n + tail, canary)

    def kept(arr, written):
        # the canaries outside the points in written are intact, and every
        # point in written was written
        arr = arr.copy()
        assert np.all(arr[written] != canary)
        arr[written] = canary
        return np.all(arr == canary)

    for start, k in ((fibre + 5, 2 * fibre + 7), (size - fibre - 3, fibre + 3),
                     (fibre, min(size - fibre, 16 * fibre))):
        args = (start, k, m, dim_h)
        # d[a][b] = D_a of row b of the stack, on the block's points
        d = [(np.take(src, up[start:start + k], axis=-1)
              - np.take(src, um[start:start + k], axis=-1)) / two_h for up, um in perms]
        # the energy's block writes out[0:len] alone: the weighted |Df|^2 of
        # the block's points
        out = canaries(k)
        lib.grad_sq_block(flat.ctypes.data, weight.ctypes.data, out.ctypes.data, *args,
                          cols.ctypes.data, table.ctypes.data, two_h)
        assert kept(out, slice(0, k))
        want = _weighted_grad_sq([da[0] for da in d], weight[start:start + k])
        assert out[:k].tobytes() == want.tobytes()
        # the jet writes its points' runs of dim_h differences, each field
        # read or written through the table of its planes
        first, lap = canaries(dim_h * size), canaries(size)
        planes = [lattice._plane_table(arr, grid)
                  for arr in (flat, first[:dim_h * size], lap[:size])]
        lib.difference_jet(*(t.ctypes.data for t in planes), *args,
                           cols.ctypes.data, table.ctypes.data, two_h, h_sq)
        assert kept(first, slice(dim_h * start, dim_h * (start + k)))
        assert kept(lap, slice(start, start + k))
        # the Euler update writes its points of out, and their min and max
        # into ext
        out, ext = canaries(size), canaries(2)
        lib.euler_update(flat.ctypes.data, out.ctypes.data, ext.ctypes.data, start, k, m,
                         dim_h, cols.ctypes.data, table.ctypes.data, 0.1)
        assert kept(out, slice(start, start + k))
        assert kept(ext, slice(0, 2))
        assert (ext[0], ext[1]) == (out[start:start + k].min(), out[start:start + k].max())
        # the Hessian writes tr, om and nsq of the block; its sums are
        # those of the rows d[a], axis by axis from zero, with or without
        # nsq, omega_s's one entry +-1 of row a read from the twist
        tr, om, nsq = canaries(k), canaries(3 * k), canaries(k)
        hess_args = (k, *args, cols.ctypes.data, table.ctypes.data, two_h)
        by_plane = lattice._plane_table(by_point, grid)
        lib.hessian_block(by_plane.ctypes.data, tr.ctypes.data, om.ctypes.data,
                          nsq.ctypes.data, *hess_args)
        assert kept(tr, slice(0, k)) and kept(om, slice(0, 3 * k)) and kept(nsq, slice(0, k))
        want_tr, want_om, want_nsq = np.zeros(k), np.zeros((3, k)), np.zeros(k)
        for a in range(dim_h):
            want_tr += d[a][a]
            for s in range(3):
                (b,) = np.flatnonzero(omega[s, a])
                if omega[s, a, b] > 0:
                    want_om[s] += d[a][b]
                else:
                    want_om[s] -= d[a][b]
            for row in d[a]:
                want_nsq += row * row
        assert tr[:k].tobytes() == want_tr.tobytes()
        assert om[:3 * k].tobytes() == want_om.tobytes()
        assert nsq[:k].tobytes() == want_nsq.tobytes()
        tr2, om2 = canaries(k), canaries(3 * k)
        lib.hessian_block(by_plane.ctypes.data, tr2.ctypes.data, om2.ctypes.data, None,
                          *hess_args)
        assert tr2.tobytes() == tr.tobytes() and om2.tobytes() == om.tobytes()
        # the production block writes the five rows of work, in place of
        # the weights in its first two, and the deficit minimum into lo
        work, lo = canaries(5 * k), canaries(1)
        work[:2 * k] = 1.0 + np.arange(2 * k) / k
        lib.production_block(tr.ctypes.data, om.ctypes.data, nsq.ctypes.data,
                             flat[start:].ctypes.data, by_point[start:].ctypes.data,
                             work.ctypes.data, lo.ctypes.data, k, dim_h)
        assert kept(work, slice(0, 5 * k)) and kept(lo, slice(0, 1))


@pytest.mark.parametrize("dim_h", [4, 8])
def test_production_block_has_the_bits_of_the_numpy_formulas(dim_h):
    # the one C call of production's contraction against the per-point
    # numpy formulas it replaces, with ==, on signed contractions of wide
    # magnitude: the p-deficit grouped as written, |DF|^2 in axis order and
    # the five weighted integrands.  Its minimum is the deficit's, and keeps
    # a NaN as np.minimum.reduce does, at the first point, the last or
    # between them; misshapen or strided blocks are refused
    rng = np.random.default_rng(dim_h)
    k = 1000

    def wide(*shape):
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)

    tr, om, lap, first = wide(k), wide(3, k), wide(k), wide(k, dim_h)
    w2, w4 = rng.random(k) + 0.5, rng.random(k) + 0.5
    quarter = 1.0 / dim_h
    for nan_at in (None, 0, k // 3, k - 1):
        nsq = np.abs(wide(k))
        if nan_at is not None:
            nsq[nan_at] = np.nan
        work = np.zeros((5, k))
        work[0], work[1] = w2, w4
        lo = lattice._production_block(tr, om, nsq, lap, first, work)
        deficit = nsq - quarter * tr * tr
        for s in range(3):
            deficit = deficit - quarter * om[s] * om[s]
        grad_sq = np.sum(np.ascontiguousarray(first.T) ** 2, axis=0)
        expect = (w2 * lap ** 2, w4 * grad_sq ** 2, w2 * nsq,
                  w2 * sum(om[s] ** 2 for s in range(3)), w2 * deficit)
        for row, want in zip(work, expect):
            assert row.tobytes() == want.tobytes()
        want_lo = np.minimum.reduce(deficit)
        assert lo == want_lo or (np.isnan(lo) and np.isnan(want_lo))
        assert np.isnan(lo) == (nan_at is not None)
    for bad in (first[:, ::-1], first[:-1]):
        with pytest.raises(ValueError, match="production block takes"):
            lattice._production_block(tr, om, nsq, lap, bad, np.zeros((5, k)))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_euler_pass_measures_the_new_field_like_numpy(workers, monkeypatch):
    # lo and hi are np.min and np.max of the new field, whatever the runs:
    # a NaN anywhere makes both NaN, and a -0.0 reads as a zero.  78125
    # points in 16 blocks of at most 5000, in 1, 2 or 3 runs
    monkeypatch.setattr(lattice, "WORKERS", workers)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", 5000)
    grid = make_grid(1, 5)
    rng = np.random.default_rng(workers)
    u = 1.0 + 0.3 * rng.random(grid.size)
    with_zero = u.copy()
    with_zero[::7] = -0.0
    with_nan = u.copy()
    with_nan[70000] = np.nan
    for values in (u, with_zero, -u, with_nan):
        for w in (0.0, 0.05):
            new, mass, lo, hi = lattice.euler_pass(values, grid, w, True)
            assert new.shape == grid.shape
            for got, want in ((lo, np.min(new)), (hi, np.max(new))):
                assert got == want or (np.isnan(got) and np.isnan(want))
            assert np.isnan(lo) == np.isnan(values).any()
            assert mass == integrate(ScalarField(grid, new)) or np.isnan(mass)
            assert lattice.euler_pass(values, grid, w, False)[1:] == (None, lo, None) \
                or np.isnan(lo)
    assert np.min(lattice.euler_pass(with_zero, grid, 0.0, False)[0]) == 0.0


def test_frame_omega_is_the_twist_columns_and_the_grid_refuses_others():
    # hessian_block reads row a of omega_s as the twist column of (a, s),
    # omega_s[a, b] = twist[s][b, a] (omega_s = g(I_s ., .), I_s = B_s, as
    # test_twist_matrices_are_the_quaternion_product checks), with one
    # entry +-1: for every n the columns have that structure, and a grid
    # whose twist breaks it is refused before any block
    for n in (1, 2, 3):
        cols, _ = make_grid(n, 2)._step_constants
        nonzero = cols != 0
        assert np.all(nonzero.sum(axis=2) == 1)
        assert set(np.abs(cols[nonzero])) == {1}
    twist = make_grid(1, 3).twist
    two_entries = twist.copy()
    two_entries[tuple(np.argwhere(twist == 0)[0])] = 1
    for broken in (two_entries, 2 * twist, np.zeros_like(twist)):
        grid = make_grid(1, 3)
        grid.twist = broken

        def contract(blk, tr, om, nsq, work, lap, first):
            raise AssertionError("a block was contracted")

        with pytest.raises(ValueError, match="one entry"):
            lattice.hessian_pass(np.ones(grid.shape + (grid.dim_h,)), grid, None, contract,
                                 with_norm=False)


def test_fused_euler_update_refuses_what_it_cannot_write():
    # the Euler pass writes one field's update: a stack of fields is
    # refused, and left as it was
    grid = make_grid(1, 3)
    stacked = np.ones((2, grid.size))
    with pytest.raises(ValueError, match="Euler pass takes one field"):
        lattice.euler_pass(stacked, grid, 0.1, True)
    assert np.array_equal(stacked, np.ones((2, grid.size)))


def test_fused_jet_refuses_what_it_cannot_write():
    # the jet pass writes one field's jet: a stack of fields is refused,
    # and left as it was
    grid = make_grid(1, 3)
    stacked = np.ones((2, grid.size))
    with pytest.raises(ValueError, match="jet pass takes one field"):
        lattice.jet_pass(stacked, grid)
    assert np.array_equal(stacked, np.ones((2, grid.size)))


def test_block_passes_refuse_what_they_cannot_read(monkeypatch):
    # grad_sq_pass differentiates one field with a weight of one field;
    # hessian_pass takes one field, or handed differences in a jet's
    # grid.shape + (4n,) layout, which a HorizontalField takes alone.  A
    # stack, a flat field, a stack of other rows and the component-major
    # layout are refused by the 1-form, and the stacks, a jet of the wrong
    # width and a transform of handed differences by the pass, before any C
    # call, all left as they were.  The energy's C function reads the
    # weight by address, so a weight with a point too few or too many is
    # refused too
    grid = make_grid(1, 3)

    def kernel(blk, *args):
        raise AssertionError("a block was run")

    stacked = np.ones((grid.dim_h, grid.size))
    with pytest.raises(ValueError, match="gradient pass takes one field"):
        lattice.grad_sq_pass(stacked, grid, np.ones(grid.size))
    assert np.array_equal(stacked, np.ones((grid.dim_h, grid.size)))
    for weight in (np.ones(grid.size - 1), np.ones(grid.size + 1), stacked):
        with pytest.raises(ValueError, match="gradient pass weight takes one field"):
            lattice.grad_sq_pass(np.ones(grid.size), grid, weight)
    calls = kernel_calls(monkeypatch)
    for values, transform, match in (
            (np.ones((grid.dim_h - 1,) + grid.shape), None, "Hessian pass takes one field"),
            (np.ones((grid.dim_h,) + grid.shape), None, "Hessian pass takes one field"),
            (np.ones(grid.shape + (grid.dim_h - 1,)), None, "Hessian pass takes one field"),
            (np.ones(grid.shape + (grid.dim_h,)), np.sqrt, "transforms a field")):
        before = values.copy()
        with pytest.raises(ValueError, match=match):
            lattice.hessian_pass(values, grid, transform, kernel, with_norm=True)
        assert np.array_equal(values, before)
    assert calls == []
    for values in (np.ones(grid.size), np.ones(grid.shape),
                   np.ones((grid.dim_h - 1,) + grid.shape),
                   np.ones((grid.dim_h,) + grid.shape), np.ones(grid.shape + (grid.dim_h,))):
        before = values.copy()
        if values.shape != grid.shape + (grid.dim_h,):
            with pytest.raises(ValueError, match="component shape does not match"):
                HorizontalField(grid, values)
        assert np.array_equal(values, before)
    # a flat field and one of grid.shape are the fields the pass sweeps
    for values in (np.ones(grid.size), np.ones(grid.shape)):
        with pytest.raises(AssertionError, match="a block was run"):
            lattice.hessian_pass(values, grid, None, kernel, with_norm=True)


def _library_name(flags):
    source = Path(lattice._STEPS_SOURCE).read_bytes()
    return f"_steps-{hashlib.sha256(source + shlex.join(flags).encode()).hexdigest()}.so"


def test_step_kernel_is_compiled_once_per_source(tmp_path, monkeypatch):
    # the library is built into the cache directory under the sha256 of its
    # source followed by its compile flags, with no temporary file left,
    # and loaded from there afterwards; a changed flag list builds a second
    # library instead of loading one built with other flags
    monkeypatch.setattr(lattice, "_STEPS_DIR", str(tmp_path))
    monkeypatch.setattr(lattice, "_steps_lib", None)
    first = lattice._step_kernel()
    shipped = _library_name(lattice._CFLAGS)
    assert [p.name for p in tmp_path.iterdir()] == [shipped]
    assert lattice._step_kernel() is first
    compiler = lattice._compiler
    monkeypatch.setattr(lattice, "_steps_lib", None)
    monkeypatch.setattr(lattice, "_compiler", lambda: ["qcflow-no-such-cc"])
    lattice._step_kernel()  # the library is there: nothing is compiled
    monkeypatch.setattr(lattice, "_compiler", compiler)
    flags = ("-O1",) + lattice._CFLAGS[1:]
    monkeypatch.setattr(lattice, "_CFLAGS", flags)
    monkeypatch.setattr(lattice, "_steps_lib", None)
    lattice._step_kernel()
    assert shipped != _library_name(flags)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([shipped, _library_name(flags)])


def test_step_kernel_source_is_portable_c99(tmp_path):
    # the kernel source is plain C99: no GNU extension, and no warning
    cmd = lattice._compiler() + ["-std=c99", "-Wall", "-Wextra", "-Werror", "-pedantic",
                                 "-c", "-o", str(tmp_path / "_steps.o"), lattice._STEPS_SOURCE]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_step_kernel_builds_without_warnings_at_the_shipped_flags(tmp_path):
    # at -O3 the compiler's flow analysis sees more than at -O0: no value
    # may be read unset, not even omega_row's for a column without a +-1
    cmd = lattice._compiler() + list(lattice._CFLAGS) + [
        "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "_steps.so"), lattice._STEPS_SOURCE]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_a_missing_compiler_stops_the_first_pass(tmp_path, monkeypatch):
    # one gather route: without a compiler the pass raises, naming the
    # command, and shows the compiler's stderr when it ran and failed; so
    # does the first step of a flow, after the initial state
    grid = make_grid(1, 3)
    monkeypatch.setattr(lattice, "_STEPS_DIR", str(tmp_path))
    for command, shown in ((["qcflow-no-such-cc"], "qcflow-no-such-cc"),
                           ([sys.executable, "-c",
                             "import sys; sys.exit('qcflow: no compiler here')"],
                            "qcflow: no compiler here")):
        monkeypatch.setattr(lattice, "_steps_lib", None)
        monkeypatch.setattr(lattice, "_compiler", lambda: command)
        with pytest.raises(RuntimeError) as err:
            lattice.grad_sq_pass(np.zeros(grid.size), grid, np.ones(grid.size))
        assert command[0] in str(err.value) and shown in str(err.value)
        states = flow.stream(flow.FlowConfig(m_x=3))
        assert next(states).step == 0
        with pytest.raises(RuntimeError) as err:
            next(states)
        assert command[0] in str(err.value) and shown in str(err.value)
        assert lattice._steps_lib is None and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", [2, 3])
def test_pass_blocks_gives_each_worker_one_run_of_tree_blocks(workers, monkeypatch):
    # the blocks are the same tree nodes for any worker count: 78125 points
    # make 16 nodes of at most 5000 points, and the workers take one
    # contiguous run of them each, 8 + 8 or 5 + 5 + 6.  A pool of exactly
    # `workers` threads, each waiting at its first block for the others,
    # makes every run visible as one thread's blocks
    monkeypatch.setattr(lattice, "WORKERS", workers)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", 5000)
    grid = make_grid(1, 5)
    pool = ThreadPoolExecutor(max_workers=workers)
    monkeypatch.setattr(lattice, "_executor", lambda: pool)
    meet = threading.Barrier(workers, timeout=60)
    runs = {}

    def block(start, k, blocks):
        ident = threading.get_ident()
        if ident not in runs:
            runs[ident] = []
            meet.wait()
        runs[ident].append((start, start + k))
        return ()

    try:
        lattice._pass_blocks(block, grid, (), np.zeros(grid.size))
    finally:
        pool.shutdown()
    tree = _tree_nodes(0, grid.size, 5000)
    assert len(tree) == 16 and max(stop - start for start, stop in tree) <= 5000
    ordered = sorted(runs.values())
    assert [blk for run in ordered for blk in run] == tree
    sizes = [len(run) for run in ordered]
    assert len(sizes) == workers and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("cap", [None, 5000, 1000])
def test_tree_sum_gives_the_bits_of_np_sum(cap, monkeypatch):
    # wide-magnitude data, where the order of the additions shows in the
    # bits: a block that returns its np.add.reduce gets np.sum of the whole
    # field back from _pass_blocks on every grid, and adding the
    # same block sums left to right does not on some grid (so the test can
    # fail, and a numpy that sums another way fails it)
    if cap is not None:
        monkeypatch.setattr(lattice, "BLOCK_POINTS", cap)
    rng = np.random.default_rng(10)
    left_to_right_differs = False
    for m in range(3, 9):
        grid = make_grid(1, m)
        values = rng.standard_normal(grid.size) * 2.0 ** rng.integers(-40, 40, grid.size)

        def block(start, k, blocks):
            return (np.add.reduce(values[start:start + k]),)

        whole = np.sum(values)
        assert lattice._pass_blocks(block, grid, (), values) == (whole,), m
        left_to_right = 0.0
        for start, stop in _tree_nodes(0, grid.size, lattice.BLOCK_POINTS):
            left_to_right += np.sum(values[start:stop])
        left_to_right_differs |= left_to_right != whole
    assert left_to_right_differs


def test_step_tables_are_gathered_only_in_lattice():
    # every horizontal difference is a pass of lattice (the whole-field
    # shift, the tests' reference, lives in tests/oracles.py): no other
    # module takes a gather, reaches a shift, owns a thread, reads an
    # address (.ctypes) or calls the C functions (_step_kernel).  The block
    # layout is lattice's alone: a kernel returns its block's sums and the
    # pass adds them up, so no other module names the layout or reads a
    # block's bounds
    banned = {"shift", "point_blocks"}
    layout = {"tree_sum", "_tree_sum", "_block_bounds", "BLOCK_POINTS"}
    concurrency = {"threading", "concurrent"}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "lattice.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr not in {"take", "ctypes", "_step_kernel"}, \
                    f"{path.name}:{node.lineno}"
                assert node.attr not in layout | {"start", "stop"}, f"{path.name}:{node.lineno}"
                if isinstance(node.value, ast.Name) and node.value.id == "lattice":
                    assert node.attr not in banned, f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Name):
                assert node.id not in layout | {"ctypes", "_step_kernel"}, \
                    f"{path.name}:{node.lineno}"
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("lattice"):
                names = {alias.name for alias in node.names}
                assert not names & (banned | layout), f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            for mod in modules:
                assert mod.split(".")[0] not in concurrency | {"ctypes"}, \
                    f"{path.name}:{node.lineno}"


# public functions that no code of the package calls, kept on purpose: the
# snapshot reader perfbench uses
KEPT_UNCALLED = ("lattice.load_field",)


def _names(node):
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def test_every_public_function_has_a_caller_in_the_package():
    # code whose only caller is its own test goes: a public module-level
    # function or class, or a public method of a package class (dunder
    # methods are exempt), must be referenced (by name or as an attribute)
    # somewhere in src/qcflow outside its own definition, __init__.py and
    # the kept uncalled functions (a function that only those reach has no
    # caller).  A class's own body does not reference it, so a class with
    # no methods is held to the rule too
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    public, referenced = {}, set()
    for name, tree in modules.items():
        for top in tree.body:
            owner, defs, own = name, [top], set()
            if isinstance(top, ast.ClassDef):
                owner, defs, own = f"{name}.{top.name}", top.body, {top.name}
                if not top.name.startswith("_"):
                    public[owner] = top.name
                referenced |= set().union(*(_names(node) for node in top.bases
                                            + top.decorator_list))
            for node in defs:
                if not isinstance(node, ast.FunctionDef):
                    referenced |= _names(node) - own
                    continue
                qual = f"{owner}.{node.name}"
                if not node.name.startswith("_"):
                    public[qual] = node.name
                if qual not in KEPT_UNCALLED:
                    # a definition does not call itself
                    referenced |= _names(node) - {node.name} - own
    assert set(KEPT_UNCALLED) <= public.keys()
    uncalled = sorted(qual for qual, fn in public.items()
                      if fn not in referenced and qual not in KEPT_UNCALLED)
    assert uncalled == []


def test_every_parameter_is_read_in_its_body():
    # a value the code never reads should not be passed: every parameter of
    # a module-level function, and of a method of a module-level class, is
    # read (loaded by name) somewhere in its body.  Nested functions are
    # exempt, since a caller such as hessian_pass fixes their signature
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            defs = top.body if isinstance(top, ast.ClassDef) else [top]
            for node in defs:
                if not isinstance(node, ast.FunctionDef):
                    continue
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [
                    arg for arg in (args.vararg, args.kwarg) if arg is not None]
                read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
                unread += [f"{path.stem}.{node.name}({p.arg})" for p in params
                           if p.arg not in read]
    assert unread == []


def _c_parameter_kinds(source):
    """The ctypes kind of each parameter of each non-static function of a C
    source, by name: a pointer is c_void_p, int64_t c_int64, double
    c_double, and anything else stays its C text, which no kind matches."""
    kinds = {}
    for name, params in re.findall(r"^(?!static\b)\w[\w \t*]*?\b(\w+)\s*\(([^)]*)\)",
                                   source, re.M):
        kinds[name] = [ctypes.c_void_p if "*" in p
                       else {"int64_t": ctypes.c_int64, "double": ctypes.c_double}.get(
                           p.split()[0], p.strip())
                       for p in params.split(",")]
    return kinds


def test_the_c_exports_are_the_bound_functions_and_each_has_a_caller():
    # the non-static functions of _steps.c are exactly those that
    # _step_kernel gives argtypes, each with one argtype of the kind of each
    # C parameter, in order (a mismatch is not an error ctypes reports: the
    # call reads or writes the wrong memory), and lattice calls each of them
    source = Path(lattice._STEPS_SOURCE).read_text()
    kinds = _c_parameter_kinds(source)
    exported = set(kinds)
    lib = lattice._step_kernel()
    for name, want in kinds.items():
        assert list(getattr(lib, name).argtypes) == want, name
    # the check sees one more C parameter in any function
    for name in kinds:
        grown = re.sub(rf"^(void {name}\()", r"\1int64_t extra, ", source, flags=re.M)
        assert list(getattr(lib, name).argtypes) != _c_parameter_kinds(grown)[name], name
    tree = ast.parse((SRC / "lattice.py").read_text())
    bound = {node.targets[0].value.attr for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Attribute)
             and node.targets[0].attr == "argtypes"}
    called = {node.func.attr for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert exported == bound == {"grad_sq_block", "difference_jet", "euler_update",
                                 "hessian_block", "production_block", "plane_rolls"}
    assert exported <= called
