"""Explicit time integration of the sub-Laplacian heat equation.

The Euler update with dt below the CFL bound is a convex combination of
neighbor values, which gives exact mass conservation (summation by parts)
and an exact discrete maximum principle: the per-axis second differences
are computed in a form whose floating-point rounding is monotone, so the
range of u never expands, not even by an ulp.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    BLOCK_POINTS,
    LatticeGrid,
    ScalarField,
    check_bump_params,
    make_grid,
    periodized_bump,
    point_blocks,
    vertically_uniform_bump,
)

@dataclass
class FlowConfig:
    """Every setting of a heat-flow run; `qcflow run` reads the same fields
    from its config file.  seed, snapshots and out only concern the CLI."""
    n: int = 1
    m_x: int = 8
    alpha: float = -0.05
    cfl_safety: float = 0.5
    t_end: float = 0.01
    record_every: int = 8
    width: float = 0.22
    amplitude: float = 0.3
    offset: float = 1.0
    tau_width: float | None = None
    tau_profile: str | None = "uniform"  # None, "smooth", "cosine", or "uniform"
    profile: str = "smooth"
    seed: int = 1
    snapshots: bool = False
    out: str = "out"

    def __post_init__(self):
        if self.alpha in (0.0, 0.5):
            raise ValueError("alpha must avoid 0 and 1/2")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")
        if self.offset <= self.amplitude or self.amplitude < 0.0:
            raise ValueError("need offset > amplitude >= 0 so u stays positive")
        # "uniform" picks vertically_uniform_bump, whose vertical profile is fixed
        check_bump_params(self.width, self.profile,
                          None if self.tau_profile == "uniform" else self.tau_profile)


@dataclass
class FlowState:
    u: ScalarField
    time: float
    step: int


def cfl_timestep(grid: LatticeGrid, safety: float) -> float:
    """Largest step keeping the Euler update a convex combination."""
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    return safety * grid.h_x ** 2 / (4.0 * grid.dim_h)


def _euler_update(values: np.ndarray, grid: LatticeGrid, w: float) -> np.ndarray:
    # u + w * acc, where acc sums per axis (u+ + u-) - 2u: each per-axis sum
    # is <= 0 at a grid maximum even in floating point (u+ + u- <= 2u and
    # rounding is monotone), which makes the max principle exact; acc is h^2
    # times the negative sub-Laplacian.  It runs over cache-sized blocks of
    # points (lattice.point_blocks), with the arithmetic of a whole-field
    # pass, and adds w * acc to u in the same block.
    flat = values.reshape(-1)
    perms = [(grid.step_permutation(a, +1), grid.step_permutation(a, -1))
             for a in range(grid.dim_h)]
    out = np.empty_like(flat)
    acc, up, um, two_u = (np.empty(BLOCK_POINTS) for _ in range(4))
    for blk in point_blocks(flat.size):
        k = blk.stop - blk.start
        acc_b, up_b, um_b, two_u_b = acc[:k], up[:k], um[:k], two_u[:k]
        np.multiply(flat[blk], 2.0, out=two_u_b)
        for a, (p_up, p_dn) in enumerate(perms):
            # the first axis sums straight into acc
            dst = acc_b if a == 0 else up_b
            np.take(flat, p_up[blk], out=dst, mode="clip")
            np.take(flat, p_dn[blk], out=um_b, mode="clip")
            dst += um_b
            dst -= two_u_b
            if a > 0:
                acc_b += up_b
        acc_b *= w
        np.add(flat[blk], acc_b, out=out[blk])
    return out.reshape(grid.shape)


def heat_step(u: ScalarField, dt: float) -> ScalarField:
    """One explicit Euler step of du/dt = -Delta u.

    Refuses a dt above the CFL bound and data that is not strictly positive.
    """
    grid = u.grid
    bound = cfl_timestep(grid, 1.0)
    if dt > bound * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} violates the CFL bound {bound}")
    if float(u.values.min()) <= 0.0:
        raise ValueError("the heat flow needs strictly positive data")
    w = dt / (grid.h_x * grid.h_x)
    return ScalarField(grid, _euler_update(u.values, grid, w))


def initial_field(config: FlowConfig, grid: LatticeGrid | None = None) -> ScalarField:
    """Initial data offset + amplitude * (bump normalized to unit peak).

    Normalizing the bump keeps the configured range bounds valid even when
    vertical periodization overlaps (which inflates the raw lattice sum).
    """
    if grid is None:
        grid = make_grid(config.n, config.m_x)
    if config.tau_profile == "uniform":
        bump = vertically_uniform_bump(grid, width=config.width)
    else:
        bump = periodized_bump(grid, width=config.width, amplitude=1.0, offset=0.0,
                               tau_width=config.tau_width, profile=config.profile,
                               tau_profile=config.tau_profile)
    peak = float(np.max(np.abs(bump.values)))
    if peak == 0.0:
        return ScalarField(grid, np.full(grid.shape, config.offset))
    values = config.offset + config.amplitude * (bump.values / peak)
    return ScalarField(grid, values)


def evolve(config: FlowConfig, u0: ScalarField | None = None) -> list[FlowState]:
    """Run the flow to t_end, recording every record_every steps.

    Deterministic: identical configuration yields bit-identical records.
    Aborts if positivity is lost (CFL or initial-data problem).
    """
    if u0 is None:
        u = initial_field(config)
    else:
        u = u0.copy()
    grid = u.grid
    dt = cfl_timestep(grid, config.cfl_safety)

    records = [FlowState(u=u.copy(), time=0.0, step=0)]
    n_steps = int(np.ceil(config.t_end / dt - 1e-12)) if config.t_end > 0 else 0
    for k in range(1, n_steps + 1):
        u = heat_step(u, dt)
        if float(u.values.min()) <= 0.0:
            raise RuntimeError(
                f"positivity lost at step {k}: check the CFL bound and that "
                f"the initial data is strictly positive")
        if k % config.record_every == 0 or k == n_steps:
            records.append(FlowState(u=u.copy(), time=k * dt, step=k))
    return records


def phi_of(u: ScalarField) -> ScalarField:
    """phi = -ln u (requires positive u)."""
    if float(u.values.min()) <= 0.0:
        raise ValueError("phi_of needs strictly positive data")
    return ScalarField(u.grid, -np.log(u.values))


def F_of(u: ScalarField, alpha: float) -> ScalarField:
    """F = u^alpha (requires positive u and alpha outside {0, 1/2})."""
    if alpha in (0.0, 0.5):
        raise ValueError("alpha must avoid 0 and 1/2")
    if float(u.values.min()) <= 0.0:
        raise ValueError("F_of needs strictly positive data")
    return ScalarField(u.grid, np.power(u.values, alpha))
