"""Time integrators: explicit finite-volume BGK scheme and the D1Q3 LBM.

A stepper is any object with ``step(values, out=None) -> out`` on (N, q)
arrays: the output depends only on the input values and is written to
``out`` (a fresh array when None), which must not overlap ``values``; that
is all the constrained-runs machinery needs.  The finite-volume
step follows the integrated form
f_i(x_j, t+dt) = f_i - (dt/dx)(phi_{i,j+1/2} - phi_{i,j-1/2}) + dt w (f_eq - f_i)
with first-order upwind fluxes and equilibrium ghost cells; upwind is the one
flux, as forward Euler with a centred flux is unstable for advection.

The step is local and translation invariant: output row j is one and the same
function of rows j - 1, j and j + 1 at every cell, where row -1 and row N are
the ghost rows (or, on a periodic ring, rows N - 1 and 0).  A cell whose three
rows equal its left neighbour's therefore has its neighbour's output, so a run
of equal rows, such as the undisturbed ambient gas ahead of an expansion, is
stepped once.  The three-speed diffusive lattice Boltzmann model is kept as a
small exact oracle for the constrained-runs machinery.
"""

from __future__ import annotations

import numpy as np

from .errors import KliftError, NumericalError
from .kinetic import (
    GasParams,
    SpatialGrid,
    VelocityGrid,
    discrete_equilibrium,
    relaxation_frequency,
    restrict,
)

# A step computes only the kept cells when more than this share of the grid
# drops; otherwise the row compare, gather and scatter cost more than the
# cells they save.  On helium_L30000 states (N = 1600, Nv = 56, 2 vCPUs) the
# two paths broke even between 21 % and 27 % of the cells dropped (the
# 7,000- and 6,500-step states; packed over full 1.01 and 0.96).
MIN_DROPPED_SHARE = 0.25
# The explicit step's share of its stability bound (see ``stable_dt``).
CFL_SAFETY = 0.9


def _step_output(values: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The array a step from ``values`` writes to: ``out``, checked, or a fresh one."""
    if out is None:
        return np.empty(values.shape)
    if out.shape != values.shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {values.shape}, "
                         f"got {out.dtype} {out.shape}")
    if np.may_share_memory(out, values):
        raise ValueError("out must not overlap the values it is stepped from")
    return out


def equal_neighbours(rows: np.ndarray, most: float = -1) -> np.ndarray | None:
    """Whether each row of the (N, q) ``rows`` equals the next, as N - 1 flags.

    Rows are equal when every entry is, so a row holding a NaN equals none,
    and -0.0 equals +0.0.  Neighbouring rows with equal middle entries are
    the candidates, which an exact compare of the rows confirms.  None when
    no more than ``most`` pairs are candidates, at the cost of that test only.
    """
    middle = rows[:, rows.shape[1] // 2]
    same = middle[1:] == middle[:-1]
    if np.count_nonzero(same) <= most:
        return None
    # a candidate whose rows differ in any entry is no pair; flagging the
    # unequal entries costs less than a per-row reduction
    differ = rows[1:] != rows[:-1]
    differ[~same] = False
    same[np.flatnonzero(differ) // rows.shape[1]] = False
    return same


def _kept_cells(values: np.ndarray) -> np.ndarray | None:
    """The cells a step must compute, as a mask, or None to compute them all.

    Cell c (2 <= c <= N - 2) is dropped when its rows c - 2 .. c + 1 are
    equal (``equal_neighbours``): its stencil c - 1 .. c + 1 is then its left
    neighbour's, and so is its output.  Cells 0, 1 and N - 1 are always kept,
    as their stencils or their left neighbour's hold a ghost (or periodic)
    row.  None unless more than MIN_DROPPED_SHARE of the cells drop.
    """
    most = MIN_DROPPED_SHARE * len(values)
    same = equal_neighbours(values, most)
    if same is None:
        return None
    drop = same[:-2] & same[1:-1] & same[2:]
    if np.count_nonzero(drop) <= most:
        return None
    keep = np.ones(len(values), dtype=bool)
    keep[2:-1] = ~drop
    return keep


def stable_dt(vgrid: VelocityGrid, dx: float, omega0: np.ndarray) -> float:
    """dt = CFL_SAFETY / (max|v|/dx + max omega), the explicit stability bound."""
    if dx <= 0.0:
        raise ValueError("dx must be positive")
    return CFL_SAFETY / (vgrid.max_speed / dx + float(np.max(omega0)))


class BGKStepper:
    """Explicit finite-volume BGK integrator on (N, Nv) value arrays.

    ``inflow`` gives the (n, u, T) of the left (surface) and right (ambient)
    ghost cells, whose discrete equilibria are built once here; ``None``
    closes the grid into a periodic ring.  ``step`` is a pure map, local and
    translation invariant (see the module notes).  Its ``restrict`` raises
    NumericalError, naming the cell, when a cell of the input has a
    non-positive or non-finite density or temperature, which is also what a
    NaN or +-inf entry gives; a step whose output overflows raises it naming
    the first cell with a non-finite output.

    Identical stencils are stepped once: when more than MIN_DROPPED_SHARE of
    the cells sit inside runs of equal rows, restriction, flux, equilibrium
    and update run on the kept rows only (see ``_kept_cells``), packed
    together, and each dropped cell copies the output of the last kept cell
    before it.  Packing the kept rows is exact: two kept cells with only
    dropped cells between them sit in one run of equal rows, so the face
    between them carries the flux of either of their own faces into the run.
    No unphysical input cell is dropped, as a dropped row equals the kept
    row before it.  An error in the packed arithmetic, restriction included,
    reruns the full grid, so it names the cell of the input.  Restriction
    gives a row the same (n, u, T) at any row position; the result agrees
    with the full grid's to the rounding of the equilibrium's moment
    product, which may round a cell differently at another position.

    The stepper owns the face-flux scratch every step reuses, and the
    relaxation source dt omega f_eq is built in the output itself, so a step
    given ``out`` allocates nothing the size of the grid: the packed step's
    two arrays hold the kept rows only, fewer than (1 - MIN_DROPPED_SHARE) N.
    One stepper must not step from two threads at once.
    """

    def __init__(
        self,
        grid: SpatialGrid,
        vgrid: VelocityGrid,
        gas: GasParams,
        dt: float,
        *,
        inflow: tuple[tuple[float, float, float], tuple[float, float, float]] | None = None,
        scale: float = 1.0,
    ):
        self.grid = grid
        self.vgrid = vgrid
        self.gas = gas
        self.dt = dt
        self.scale = scale
        # (Nv,) ghost rows, or None for the periodic ring
        self._ghosts = None if inflow is None else tuple(
            scale * discrete_equilibrium(n, u, T, vgrid, gas)[0] for n, u, T in inflow
        )
        # upwind: v >= 0 carries the left cell's value across a face, v < 0 the
        # right one's; the face flux is v+ f_left + v- f_right, and the term
        # whose speed is zero adds +-0, so each face flux is v times one value.
        # The speeds carry dt/dx, so the fluxes are the update's own terms.
        v = (dt / grid.dx) * vgrid.velocities
        self._v_plus = np.where(v >= 0.0, v, 0.0)
        self._v_minus = v - self._v_plus
        self._flux = np.empty((grid.n_cells + 1, vgrid.n_velocities))

    def step(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        shape = (self.grid.n_cells, self.vgrid.n_velocities)
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} != {shape}")
        new = _step_output(values, out)
        keep = _kept_cells(values)
        if keep is not None:
            # the packed row holding each cell's output: its own, or that of
            # the last kept cell before it
            rows = np.cumsum(keep) - 1
            try:
                result = self._update(values[keep], np.empty((rows[-1] + 1, shape[1])))
            except KliftError:
                pass  # the full grid fails the same way and names the cell of ``values``
            else:
                # mode="raise" would buffer ``out``; every row index is in range
                return np.take(result, rows, axis=0, out=new, mode="clip")
        return self._update(values, new)

    def _update(self, values: np.ndarray, new: np.ndarray) -> np.ndarray:
        """The step's arithmetic from rows ``values`` into ``new``."""
        macro = restrict(values, self.gas, vgrid=self.vgrid, scale=self.scale)
        left, right = (values[-1], values[0]) if self._ghosts is None else self._ghosts
        # flux[j] is (dt/dx) times the flux on face j - 1/2, between rows j - 1
        # and j; faces 0 and N take the ghost (or periodic) rows.  ``new`` holds
        # v- f_right until the equilibrium overwrites it.
        vp, vm, flux = self._v_plus, self._v_minus, self._flux[:len(values) + 1]
        np.multiply(values[:-1], vp, out=flux[1:-1])
        flux[1:-1] += np.multiply(values[1:], vm, out=new[:-1])
        flux[0] = vp * left + vm * values[0]
        flux[-1] = vp * values[-1] + vm * right

        # dt omega f_eq + (dt/dx)(flux_{j-1/2} - flux_{j+1/2}) + (1 - dt omega) values
        dt_omega = self.dt * relaxation_frequency(macro, self.gas)
        discrete_equilibrium(
            macro.number_density, macro.velocity, macro.temperature, self.vgrid, self.gas,
            out=new, weight=self.scale * dt_omega,
        )
        new += flux[:-1]
        new -= flux[1:]
        # flux[1:] is spent, so it holds the last term
        new += np.multiply(values, (1.0 - dt_omega)[:, None], out=flux[1:])
        if not np.all(np.isfinite(new)):
            cell = int(np.flatnonzero(~np.isfinite(new).all(axis=1))[0])
            raise NumericalError(
                f"finite-volume step produced non-finite values, first in cell {cell}")
        return new


class D1Q3Stepper:
    """Three-speed diffusive LBM on (N, 3) populations ordered (f_+1, f_0, f_-1).

    One step relaxes toward rho/3, then streams periodically.
    """

    def __init__(self, omega: float):
        if not 0.0 < omega < 2.0:
            raise ValueError("omega must lie in (0, 2)")
        self.omega = omega

    def step(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if values.ndim != 2 or values.shape[1] != 3:
            raise ValueError("populations must have shape (N, 3)")
        out = _step_output(values, out)
        rho = values.sum(axis=1)
        post = (1.0 - self.omega) * values + self.omega * (rho[:, None] / 3.0)
        out[:, 0] = np.roll(post[:, 0], 1)   # speed +1
        out[:, 1] = post[:, 1]               # rest
        out[:, 2] = np.roll(post[:, 2], -1)  # speed -1
        return out
