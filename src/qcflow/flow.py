"""Explicit time integration of the sub-Laplacian heat equation.

The Euler update with dt below the CFL bound is a convex combination of
neighbor values, which gives exact mass conservation (summation by parts)
and an exact discrete maximum principle: the per-axis second differences
are computed in a form whose floating-point rounding is monotone, so the
range of u never expands, not even by an ulp.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .identities import check_alpha
from .lattice import (
    LatticeGrid,
    ScalarField,
    check_bump_params,
    euler_pass,
    integrate,
    make_grid,
    periodized_bump,
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
        check_alpha(self.alpha)
        for name in ("amplitude", "offset", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)}")
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be >= 0, not {self.t_end}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")
        if self.offset <= self.amplitude or self.amplitude < 0.0:
            raise ValueError("need offset > amplitude >= 0 so u stays positive")
        uniform = self.tau_profile == "uniform"
        check_bump_params(self.width, self.profile, None if uniform else self.tau_profile,
                          self.tau_width)
        # vertically_uniform_bump fixes a smooth horizontal profile and
        # tau_width = L_t, so a run would silently ignore other settings
        if uniform and (self.profile != "smooth" or self.tau_width is not None):
            raise ValueError('tau_profile "uniform" needs profile = smooth '
                             "and tau_width = none")


@dataclass
class FlowState:
    """The field after `step` Euler steps; `record` marks the steps that
    `evolve` keeps (every record_every-th, the first and the last).  In a
    stream, lo is the minimum of u, which every step measures for the next
    step's positivity guard, and mass (the bits of integrate(u)) and hi,
    the maximum, are measured when the stream is asked to; otherwise they
    are None."""
    u: ScalarField
    time: float
    step: int
    record: bool = True
    mass: float | None = None
    lo: float | None = None
    hi: float | None = None


def cfl_timestep(grid: LatticeGrid, safety: float) -> float:
    """Largest step keeping the Euler update a convex combination."""
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    return safety * grid.h_x ** 2 / (4.0 * grid.dim_h)


def euler_step(u: ScalarField, dt: float, u_min: float, measure: bool = False):
    """One explicit Euler step of du/dt = -Delta u, for a field whose
    minimum u_min is known, as the stream knows it from the step that made
    the field.  Refuses a dt that is not positive or lies above the CFL
    bound (NaN among them), and data that is not strictly positive.

    Returns (field, mass, lo, hi): the new field with its minimum lo, and
    with its mass (the bits of integrate) and maximum hi when measure is
    set, else None.  The update measures the extremes as it writes the
    field and the mass block by block, so the step scans no whole field
    besides the one it computes.
    """
    grid = u.grid
    bound = cfl_timestep(grid, 1.0)
    if not 0.0 < dt <= bound * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} must be positive and within the CFL bound {bound}")
    if not u_min > 0.0:
        raise ValueError("the heat flow needs strictly positive data")
    w = dt / (grid.h_x * grid.h_x)
    # u + w * acc, where acc sums per axis (u+ + u-) - 2u: each per-axis sum
    # is <= 0 at a grid maximum even in floating point (u+ + u- <= 2u and
    # rounding is monotone), which makes the max principle exact; acc is h^2
    # times the negative sub-Laplacian.  euler_pass makes one call of the C
    # function euler_update per worker, which gathers the steps and does the
    # + - x of a whole-field numpy pass in its per-point order, each rounded
    # on its own (no FMA: -ffp-contract=off), and measures the new values.
    values, mass, lo, hi = euler_pass(u.values, grid, w, measure)
    return ScalarField(grid, values), mass, lo, hi


def initial_field(config: FlowConfig, grid: LatticeGrid | None = None) -> ScalarField:
    """Initial data offset + amplitude * (bump normalized to unit peak).

    Normalizing the bump keeps the configured range bounds valid even when
    vertical periodization overlaps (which inflates the raw lattice sum).
    A bump that is zero on every grid point, with no peak, is refused.
    """
    if grid is None:
        grid = make_grid(config.n, config.m_x)
    if config.tau_profile == "uniform":
        bump = vertically_uniform_bump(grid, width=config.width)
    else:
        bump = periodized_bump(grid, width=config.width, amplitude=1.0, offset=0.0,
                               tau_width=config.tau_width, profile=config.profile,
                               tau_profile=config.tau_profile)
    v = bump.values
    # the largest |v|, exactly, without a field of |v|
    peak = max(float(v.max()), -float(v.min()))
    if peak == 0.0:
        raise ValueError(f"the bump of width {config.width} is zero on every point "
                         f"of the grid at n={grid.n}, m_x={grid.m_x}")
    # offset + amplitude * (v / peak), in the bump's own buffer
    np.divide(v, peak, out=v)
    np.multiply(config.amplitude, v, out=v)
    np.add(config.offset, v, out=v)
    return ScalarField(grid, v)


def stream(config: FlowConfig, u0: ScalarField | None = None,
           measure: bool = False) -> Iterator[FlowState]:
    """Run the flow to t_end and yield the state after every step, step 0
    (the initial field) included.

    Each step is euler_step from the minimum the previous step measured,
    and each state carries that minimum, and with measure also the mass
    and the maximum, as its step measured them: the stream scans a whole
    field only for the initial state.  A step returns a fresh field and
    never mutates its input, so a yielded state stays valid after the next
    one; a consumer that drops it holds one field at a time.  Aborts if
    positivity is lost (CFL or initial-data problem).
    """
    if u0 is None:
        u = initial_field(config)
    else:
        u = u0.copy()
    grid = u.grid
    dt = cfl_timestep(grid, config.cfl_safety)
    # state is always the latest state: the stream keeps no older field
    state = FlowState(u=u, time=0.0, step=0, lo=float(u.values.min()))
    if measure:
        state.mass, state.hi = integrate(u), float(u.values.max())
    yield state
    n_steps = int(np.ceil(config.t_end / dt - 1e-12)) if config.t_end > 0 else 0
    for k in range(1, n_steps + 1):
        u, mass, lo, hi = euler_step(u, dt, state.lo, measure)
        if not lo > 0.0:
            raise RuntimeError(
                f"positivity lost at step {k}: check the CFL bound and that "
                f"the initial data is strictly positive")
        state = FlowState(u=u, time=k * dt, step=k,
                          record=k % config.record_every == 0 or k == n_steps,
                          mass=mass, lo=lo, hi=hi)
        yield state


def evolve(config: FlowConfig) -> list[FlowState]:
    """The records of `stream`: every record_every-th state, the first and
    the last.

    Deterministic: identical configuration yields bit-identical records.
    """
    return [st for st in stream(config) if st.record]

