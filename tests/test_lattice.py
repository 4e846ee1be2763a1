"""Tests for the group model, grid exactness, and periodized test data."""
import ast
import hashlib
import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from qcflow import lattice
from qcflow.lattice import (
    BLOCK_POINTS,
    XI_SCALE,
    GroupPoint,
    ScalarField,
    frame_data,
    group_inverse,
    group_multiply,
    horizontal_step_index,
    imaginary_product,
    integrate,
    load_field,
    make_grid,
    map_blocks,
    periodized_bump,
    save_field,
    shift,
    vertical_shift,
)

from oracles import bump_value

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


def test_step_from_origin_is_pure_x_shift():
    grid = make_grid(1, 4)
    origin = (0,) * 7
    for a in range(4):
        new = horizontal_step_index(grid, origin, a, +1)
        expect = [0] * 7
        expect[a] = 1
        assert new == tuple(expect)


def test_step_twist_unit():
    # stepping along axis 0 at a point with x_1-index 1 moves a t-index by
    # exactly one grid unit, since 2 h_x * h_x = h_t
    grid = make_grid(1, 4)
    idx = (0, 1, 0, 0, 0, 0, 0)
    new = horizontal_step_index(grid, idx, 0, +1)
    tshift = np.array(new[4:]) - np.array(idx[4:])
    tshift = (tshift + grid.m_t // 2) % grid.m_t - grid.m_t // 2
    assert sorted(np.abs(tshift)) == [0, 0, 1]


def test_step_round_trip_exhaustive_m3():
    grid = make_grid(1, 3)
    for idx in itertools.product(range(3), repeat=7):
        for a in range(4):
            fwd = horizontal_step_index(grid, idx, a, +1)
            back = horizontal_step_index(grid, fwd, a, -1)
            assert back == idx


def test_step_lands_on_grid_exhaustive_m3():
    # group-law oracle: the stepped index names exactly the group product,
    # up to a lattice translation with integer coefficients
    grid = make_grid(1, 3)
    h = grid.h_x
    steps = {(a, d): GroupPoint(np.eye(4)[a] * d * h, np.zeros(3))
             for a in range(4) for d in (-1, 1)}
    for idx in itertools.product(range(3), repeat=7):
        g = grid.point_at(idx)
        for (a, d), stepper in steps.items():
            new_idx = horizontal_step_index(grid, idx, a, d)
            q = grid.point_at(new_idx)
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
    # construction against the point-by-point group step
    for n, m in ((1, 3), (1, 4), (2, 2)):
        grid = make_grid(n, m)
        points = list(np.ndindex(*grid.shape))
        for a in range(grid.dim_h):
            for d in (-1, 1):
                perm = grid.step_permutation(a, d)
                assert perm.dtype == np.int64 and perm.shape == (grid.size,)
                expect = np.ravel_multi_index(
                    np.array([horizontal_step_index(grid, idx, a, d)
                              for idx in points]).T, grid.shape)
                assert np.array_equal(perm, expect), (n, m, a, d)


def test_frame_structure():
    grid = make_grid(1, 4)
    fd = frame_data(grid)
    I1, I2, I3 = fd.structure.I
    assert np.max(np.abs(I1 @ I2 - I3)) == 0.0
    for s in range(3):
        Is = fd.structure.I[s]
        assert np.max(np.abs(Is @ Is + np.eye(4))) == 0.0
        assert np.max(np.abs(fd.omega[s] + fd.omega[s].T)) == 0.0
    assert fd.torsion.S == 0.0
    assert np.max(np.abs(fd.torsion.T0)) == 0.0


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
    fd = frame_data(grid)
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
            twist = sum(2.0 * fd.omega[t][a, b] * _reeb(vals, grid, t)
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


@pytest.mark.parametrize("m", [4, 5])
def test_step_gathers_match_shift(m, monkeypatch):
    # m_x = 4 is one point block, m_x = 5 four tree nodes of 19528 to 19541
    # points; one worker, so the kernel calls arrive in block order
    monkeypatch.setattr(lattice, "WORKERS", 1)
    grid = make_grid(1, m)
    rng = np.random.default_rng(m)
    flat = rng.normal(size=grid.size)
    stacked = rng.normal(size=(grid.dim_h, grid.size))
    order = [(start, a) for start, _ in _tree_nodes(0, grid.size, BLOCK_POINTS)
             for a in range(grid.dim_h)]
    assert len(order) == grid.dim_h * (1 if m == 4 else 4)
    for values in (flat, stacked):
        seen = []

        def kernel(blk, steps, scratch):
            for a, up, um in steps:
                seen.append((blk.start, a))
                for got, direction in ((up, +1), (um, -1)):
                    assert got.shape == values.shape[:-1] + (blk.stop - blk.start,)
                    ref = [shift(row, grid, a, direction).reshape(-1)[blk]
                           for row in values.reshape(-1, grid.size)]
                    assert np.array_equal(got.reshape(-1, got.shape[-1]), np.stack(ref))

        map_blocks(kernel, values, grid)
        assert seen == order


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3)])
def test_step_kernel_gathers_what_the_step_tables_give(n, m, workers, monkeypatch):
    # step_pair against np.take through step_permutation, for every (a, +-1),
    # on a flat field and a (3, N) stack; blocks of a little over two
    # vertical fibres cut fibres at every odd m and at m = 6, so both the
    # whole-fibre copies and the point-by-point edges are read
    monkeypatch.setattr(lattice, "WORKERS", workers)
    monkeypatch.setattr(lattice, "BLOCK_POINTS", max(128, 2 * m ** 3 + 1))
    grid = make_grid(n, m)
    if m in (3, 5, 6):
        assert any(b % m ** 3 for b in lattice._block_bounds(grid.size))
    rng = np.random.default_rng(m)
    for values in (rng.normal(size=grid.size), rng.normal(size=(3, grid.size))):
        expect = [[np.take(values, grid.step_permutation(a, d), axis=-1) for d in (1, -1)]
                  for a in range(grid.dim_h)]
        seen, wrong = [], []

        def kernel(blk, steps, scratch):
            for a, up, um in steps:
                seen.append((blk.start, a))
                if not (np.array_equal(up, expect[a][0][..., blk])
                        and np.array_equal(um, expect[a][1][..., blk])):
                    wrong.append((blk.start, a))

        map_blocks(kernel, values, grid)
        assert sorted(seen) == [(start, a) for start in lattice._block_bounds(grid.size)[:-1]
                                for a in range(grid.dim_h)]
        assert wrong == []


def test_step_kernel_is_compiled_once_per_source(tmp_path, monkeypatch):
    # the library is built into the cache directory under the sha256 of its
    # source, with no temporary file left, and loaded from there afterwards
    monkeypatch.setattr(lattice, "_STEPS_DIR", str(tmp_path))
    monkeypatch.setattr(lattice, "_step_pair", None)
    first = lattice._step_kernel()
    digest = hashlib.sha256(Path(lattice._STEPS_SOURCE).read_bytes()).hexdigest()
    assert [p.name for p in tmp_path.iterdir()] == [f"_steps-{digest}.so"]
    assert lattice._step_kernel() is first
    monkeypatch.setattr(lattice, "_step_pair", None)
    monkeypatch.setattr(lattice, "_compiler", lambda: ["qcflow-no-such-cc"])
    lattice._step_kernel()  # the library is there: nothing is compiled


def test_a_missing_compiler_stops_the_first_pass(tmp_path, monkeypatch):
    # one gather route: without a compiler the pass raises, naming the
    # command, and shows the compiler's stderr when it ran and failed
    grid = make_grid(1, 3)
    monkeypatch.setattr(lattice, "_STEPS_DIR", str(tmp_path))
    for command, shown in ((["qcflow-no-such-cc"], "qcflow-no-such-cc"),
                           ([sys.executable, "-c",
                             "import sys; sys.exit('qcflow: no compiler here')"],
                            "qcflow: no compiler here")):
        monkeypatch.setattr(lattice, "_step_pair", None)
        monkeypatch.setattr(lattice, "_compiler", lambda: command)
        with pytest.raises(RuntimeError) as err:
            map_blocks(lambda blk, steps, scratch: None, np.zeros(grid.size), grid)
        assert command[0] in str(err.value) and shown in str(err.value)
        assert lattice._step_pair is None and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", [2, 3])
def test_map_blocks_gives_each_worker_one_run_of_tree_blocks(workers, monkeypatch):
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

    def kernel(blk, steps, scratch):
        ident = threading.get_ident()
        if ident not in runs:
            runs[ident] = []
            meet.wait()
        runs[ident].append((blk.start, blk.stop))

    try:
        map_blocks(kernel, np.zeros(grid.size), grid)
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
    # bits: a kernel that returns its block's np.add.reduce gets np.sum of
    # the whole field back from map_blocks on every grid, and adding the
    # same block sums left to right does not on some grid (so the test can
    # fail, and a numpy that sums another way fails it)
    if cap is not None:
        monkeypatch.setattr(lattice, "BLOCK_POINTS", cap)
    rng = np.random.default_rng(10)
    left_to_right_differs = False
    for m in range(3, 9):
        grid = make_grid(1, m)
        values = rng.standard_normal(grid.size) * 2.0 ** rng.integers(-40, 40, grid.size)

        def kernel(blk, steps, scratch):
            return (np.add.reduce(values[blk]),)

        whole = np.sum(values)
        assert map_blocks(kernel, values, grid) == (whole,), m
        left_to_right = 0.0
        for start, stop in _tree_nodes(0, grid.size, lattice.BLOCK_POINTS):
            left_to_right += np.sum(values[start:stop])
        left_to_right_differs |= left_to_right != whole
    assert left_to_right_differs


def test_step_tables_are_gathered_only_in_lattice():
    # every horizontal difference is a kernel of lattice.map_blocks
    # (lattice.shift stays as the whole-field reference): no other module
    # takes a gather, reaches the whole-field shift, or owns a thread.  The
    # block layout is lattice's alone: a kernel returns its block's sums and
    # map_blocks adds them up, so no other module names the layout or reads
    # a block's bounds
    banned = {"shift", "point_blocks"}
    layout = {"tree_sum", "_tree_sum", "_block_bounds", "BLOCK_POINTS"}
    concurrency = {"threading", "concurrent"}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "lattice.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr != "take", f"{path.name}:{node.lineno}"
                assert node.attr not in layout | {"start", "stop"}, f"{path.name}:{node.lineno}"
                if isinstance(node.value, ast.Name) and node.value.id == "lattice":
                    assert node.attr not in banned, f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Name):
                assert node.id not in layout, f"{path.name}:{node.lineno}"
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
                assert mod.split(".")[0] not in concurrency, f"{path.name}:{node.lineno}"


# public functions that no code of the package calls, kept on purpose: the
# whole-field gather the tests compare every block kernel with, and the
# snapshot reader perfbench uses
KEPT_UNCALLED = ("lattice.shift", "lattice.load_field")


def test_every_public_function_has_a_caller_in_the_package():
    # code whose only caller is its own test goes: a public module-level
    # function must be referenced (by name or as an attribute) somewhere in
    # src/qcflow outside its own definition, __init__.py and the kept
    # uncalled functions (a function that only those reach has no caller)
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    referenced = set()
    for name, tree in modules.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and f"{name}.{top.name}" in KEPT_UNCALLED:
                continue
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(top, ast.FunctionDef):
                names.discard(top.name)
            referenced |= names
    public = {f"{name}.{top.name}": top.name for name, tree in modules.items()
              for top in tree.body
              if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")}
    assert set(KEPT_UNCALLED) <= public.keys()
    uncalled = sorted(qual for qual, fn in public.items()
                      if fn not in referenced and qual not in KEPT_UNCALLED)
    assert uncalled == []
