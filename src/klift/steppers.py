"""Time integrators: explicit finite-volume BGK scheme and the D1Q3 LBM.

A stepper is any object with ``step(values, out=None) -> out`` on (N, q)
arrays: the output depends only on the input values and is written to
``out`` (a fresh array when None), which must not overlap ``values``; that
is all the constrained-runs machinery needs.  A stepper whose class sets
``steps_runs`` declares that ``step(rows, out, runs=runs)`` steps the rows
it is given as one row sequence between its boundary rows, however few,
with no compare, as both steppers here do; the lift then keeps every state
stored by its runs (``Runs``) and steps their layout.  The flag is a class
attribute, so a wrapper of ``step`` keeps it.  The finite-volume
step follows the integrated form
f_i(x_j, t+dt) = f_i - (dt/dx)(phi_{i,j+1/2} - phi_{i,j-1/2}) + dt w (f_eq - f_i)
with first-order upwind fluxes and equilibrium ghost cells; upwind is the one
flux, as forward Euler with a centred flux is unstable for advection.

The step is local and translation invariant: output row j is one and the same
function of rows j - 1, j and j + 1 at every cell, where row -1 and row N are
the ghost rows (or, on a periodic ring, rows N - 1 and 0).  So after s steps
a run of L equal consecutive rows, such as the undisturbed ambient gas ahead
of an expansion, differs from its interior only in its s first and s last
rows, and every path that skips equal rows steps min(L, 2s + 1) rows per
run, side by side as on the grid (``Runs.layout``), s times with no compare.
A grid array's step (s = 1) and ``advance`` (blocks of BLOCK_STEPS steps)
compare the rows first (``Runs``) and spread the result to the grid
(``Runs.spread``); a CR map of a run-stored state cuts the runs once, from
its sum (``Runs.refine``).  Every one of these compares rows by one rule,
equal bit for bit (``equal_neighbours``), and a stored row weighs in a norm
by its run's integer length.  At a layout's size, a few to a few hundred
rows, a step costs mostly its count of numpy calls, so a grid array's step
pads its gather of the layout to whole ``kinetic.ROW_BLOCK``s, which makes
each product of restriction and of the equilibrium one matmul.  The
three-speed diffusive lattice Boltzmann model is kept as a small exact
oracle for the constrained-runs machinery.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import KliftError, NumericalError
from .kinetic import (
    ROW_BLOCK,
    GasParams,
    SpatialGrid,
    VelocityGrid,
    discrete_equilibrium,
    relaxation_frequency,
    restrict,
)

# Rows are stepped by their runs (``Runs``) only when more than this share of
# the neighbouring pairs are equal; otherwise every row is a run of its own,
# as the compare, gathers, cuts and weighted norms would cost more than the
# rows they save.  Lifted by runs over by the grid, at m = 0..3 with the
# shipped settings (helium_L30000 reference states, one BLAS thread, the
# median of 5 alternating lifts each, in two passes between 18 % and 32 %):
# 1.05-1.31 at 2-12 % equal pairs (steps 8,950-8,000), 0.93-1.34 at 18 %,
# 0.97-1.16 at 21 %, 0.88-1.07 at 24 %, 0.95-1.08 at 26 %, 0.88-1.07 at
# 29 %, 0.88-1.01 at 32 % and 0.78-0.96 at 41 % (steps 7,500 to 6,250 by
# 250, and 5,500); the medians over m cross 1 between 24 % and 26 %.  A grid
# step of the layout over one of the grid array (2 vCPUs, medians of 15
# alternating rounds): 1.33 at 17 %, 1.11 at 21 %, 0.91-1.10 at 23-25 %,
# 1.01 at 28 %, 0.96-0.97 at 31-34 % and 0.94 at 40 %.
MIN_DROPPED_SHARE = 0.25
# The explicit step's share of its stability bound (see ``stable_dt``).
CFL_SAFETY = 0.9
# Steps ``advance`` takes on one layout between row compares; it divides the
# 100 steps between ``klift run-reference``'s reports.  On helium_L30000
# (2 vCPUs, medians of 5 rounds) blocks of 4, 5, 10 and 20 steps took 0.251,
# 0.244, 0.228 and 0.251 ms a step over steps 0-1,000 and 0.86, 0.86, 0.89
# and 0.79 ms over 6,000-7,000; a compare at every step, 0.368 and 1.30 ms.
BLOCK_STEPS = 10


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

    Rows are equal when they are equal bit for bit, so two rows of the same
    NaNs are equal and -0.0 differs from +0.0: one stored row then stands
    for every cell of a run, bit for bit, whatever the cells' values.
    Neighbouring rows with equal middle entries are the candidates; None
    when no more than ``most`` pairs are candidates, at the cost of that
    test only.  Otherwise every pair is compared entry by entry, and a row's
    unequal-entry flags, padded to whole 8-byte words, are OR-ed as words,
    which costs about the same whether few or most pairs are candidates.
    This is the one row compare: ``Runs`` finds its runs, and
    ``Runs.refine`` its cuts, by it.
    """
    bits = rows.view(f"u{rows.itemsize}")  # float or bool rows alike
    middle = bits[:, bits.shape[1] // 2]
    same = middle[1:] == middle[:-1]
    if np.count_nonzero(same) <= most:
        return None
    q = bits.shape[1]
    flags = np.zeros((len(same), -(-q // 8) * 8), dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=flags[:, :q])
    # one row per word, so that the OR runs over whole rows of pairs
    words = flags.view(np.uint64).T.copy()
    return np.bitwise_or.reduce(words, axis=0) == 0


class Runs:
    """A partition of the N rows of an (N, q) grid into runs of equal
    consecutive rows, and the layout of the states stored by it.

    A run-stored state is an (N, q) array whose row j, for j < ``count``,
    holds the row every cell of run j shares; the rows past ``count`` are
    spare.  Run j covers ``lengths[j]`` rows from row ``first[j]``, and
    ``order`` lists the run numbers from the first row to the last; the
    integer lengths are also the weights of a stored row in the norms.  Rows
    are equal when they are equal bit for bit (``equal_neighbours``), both
    where the runs are found and where ``refine`` cuts them.  Runs are only
    ever cut, once per CR map (``layout``, ``refine``), and never joined
    across a cut: a cut run keeps its number on its first part and each new
    run takes the next free number, so every state stored by the coarser
    runs stays exact once ``fill`` has copied each parent's row into its new
    runs.  ``cells`` is true when every run is one row in grid order, so
    that a stored state is the grid's own array.
    """

    def __init__(self, *arrays: np.ndarray):
        """The runs of rows equal in every one of ``arrays`` (``equal_neighbours``),
        numbered from the first row; every row is a run of its own when no
        more than MIN_DROPPED_SHARE of the neighbouring pairs are equal.
        """
        n = len(arrays[0])
        most = MIN_DROPPED_SHARE * (n - 1)
        same = equal_neighbours(arrays[0], most)  # None when too few are candidates
        for rows in arrays[1:]:
            equal = equal_neighbours(rows, most)
            same = None if same is None or equal is None else same & equal
        start = np.ones(n, dtype=bool)  # whether each row starts a run
        if same is not None and np.count_nonzero(same) > most:
            np.logical_not(same, out=start[1:])
        self._number(start.nonzero()[0], n)

    @classmethod
    def each_row(cls, n: int) -> Runs:
        """Every one of n rows a run of its own (``cells``), found without a compare."""
        runs = cls.__new__(cls)
        runs._number(np.arange(n), n)
        return runs

    def _number(self, starts: np.ndarray, n: int) -> None:
        """Runs from the first rows ``starts`` of n, numbered from the first row."""
        if not n:
            raise ValueError("no runs in a grid of no cells (N = 0)")
        self.count = len(starts)
        self.cells = self.count == n
        self.order = np.arange(self.count)
        # ``parent`` holds the run each run that ``refine`` appends was cut from
        self.first, self.lengths, self.parent = np.zeros((3, n), np.intp)
        self.first[: self.count] = starts
        np.subtract(starts[1:], starts[:-1], out=self.lengths[: self.count - 1])
        self.lengths[self.count - 1] = n - starts[-1]

    def store(self, rows: np.ndarray) -> np.ndarray:
        """The run-stored form of the (N, q) ``rows``, which must be equal within each run."""
        out = np.empty(rows.shape)
        np.take(rows, self.first[: self.count], axis=0, out=out[: self.count])
        return out

    def expand(self, stored: np.ndarray) -> np.ndarray:
        """The (N, q) grid array of a run-stored state (``stored`` itself when ``cells``)."""
        if self.cells:
            return stored
        return np.repeat(stored[self.order], self.lengths[self.order], axis=0)

    def norm(self, stored: np.ndarray) -> float:
        """The two-norm of the grid array of a run-stored state."""
        rows = stored[: self.count]
        if self.cells:  # lengths of one: the plain norm, with no multiply
            return float(np.linalg.norm(rows))
        return math.sqrt(float(np.dot(self.lengths[: self.count],
                                      np.einsum("ij,ij->i", rows, rows))))

    def fill(self, since: int, *stores: np.ndarray) -> None:
        """Copy into the runs numbered ``since`` and above, in each store (an
        array with one row per run in its last two axes), the row of the run
        they were cut from when the count was ``since``."""
        if since == self.count:
            return
        source = self.parent[since: self.count].copy()
        late = source >= since
        while late.any():  # cut from a run that was itself cut since then
            source[late] = self.parent[source[late]]
            late = source >= since
        for store in stores:
            store[..., since: self.count, :] = store[..., source, :]

    def layout(self, steps: int) -> np.ndarray:
        """The stored row of each row a map of ``steps`` steps computes, in grid order.

        A step's output row depends only on its input rows j - 1, j and
        j + 1, so after s steps a run of L equal rows differs from its
        interior only in its s first and s last rows.  The layout holds
        min(L, 2s + 1) copies of each run's row: its s first rows, one
        interior row and its s last rows, or all L.  These stand side by
        side as the grid's rows do, and the s rows on either side of each
        hold what the s rows on either side of its grid cell hold, so s steps
        of the layout as one row sequence compute each of its rows as s grid
        steps compute that cell.  The layout has at most N rows.  ``refine``
        takes the map's result, and ``spread`` gives the grid its rows.
        """
        lengths = self.lengths[self.order]
        self._steps = steps
        self._reps = np.minimum(lengths, 2 * steps + 1)
        self._drop = lengths - self._reps  # the middle rows of each run it leaves out
        self._heads = self._reps.cumsum() - self._reps  # each run's first row there
        return self.order.repeat(self._reps)

    def spread(self) -> np.ndarray:
        """The row of the last ``layout(s)`` that holds each grid cell after
        up to s steps of it, as N row numbers: a run's interior row for its
        L - 2s middle cells, each other row for its own cell.
        """
        counts = np.ones(self._heads[-1] + self._reps[-1], np.intp)
        counts[self._heads + self._reps // 2] = self._drop + 1  # a run's interior row
        return np.arange(len(counts)).repeat(counts)

    def refine(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Cut the runs for a map's result ``rows``, computed on the
        ``layout`` rows, and store that result in ``out``.

        A layout row stands for one cell of its run, its interior row for
        all L - 2s cells between the s first and s last.  Neighbouring
        layout rows of one run stay in one run when they are equal
        (``equal_neighbours``), and are cut apart otherwise, so each output
        run is the coarsest that holds equal rows: a difference that the
        steps in between round away does not cut.
        """
        order, heads = self.order, self._heads
        differ = np.zeros(len(rows), dtype=bool)  # from the row before
        np.logical_not(equal_neighbours(rows), out=differ[1:])
        differ[heads] = False  # a run's first row starts it already
        cuts = np.flatnonzero(differ)  # the rows that start a new run
        position = np.empty(self.count + cuts.size, np.intp)  # each run's output row
        position[order] = heads
        if cuts.size:
            new = np.arange(self.count, len(position))
            position[new] = cuts
            at = np.searchsorted(heads, cuts, side="right") - 1
            cut = self.parent[new] = order[at]
            # a part past the interior row stands for a row counted from the run's end
            part = cuts - heads[at]
            self.first[new] = self.first[cut] + part + np.where(
                part > self._steps, self._drop[at], 0)
            self.count = len(position)
            self.order = order = np.argsort(self.first[: self.count])
            first = self.first[order]
            self.lengths[order] = np.append(first[1:], len(self.first)) - first
        # mode="raise" would buffer ``out``; every index is in range
        np.take(rows, position, axis=0, out=out[: self.count], mode="clip")
        return out


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

    Identical stencils are stepped once: ``step(values)`` finds the runs of
    equal rows of ``values`` (``Runs``) and, unless every row is a run of its
    own, runs restriction, flux, equilibrium and update on the rows of
    ``layout(1)`` alone (the first, one interior and the last row of each
    run) and spreads them to the grid with one take (``Runs.spread``).  Its
    gather of the layout is padded to whole ``ROW_BLOCK``s with copies of
    the last row, so restriction's and the equilibrium's products are one
    matmul each; the flux and the update use the layout's own rows only.
    No unphysical input cell is skipped, as a skipped row equals the layout
    row before it.  An error on the layout, restriction included, reruns
    the full grid, so it names the cell of the input.  Restriction and the
    equilibrium give a row the same bits at any row position
    (``kinetic.row_product``), so the result is the full grid's bit for bit.

    The stepper owns the face-flux scratch every step reuses, and the
    relaxation source dt omega f_eq is built in the output itself, so a step
    given ``out`` allocates nothing the size of the grid but a layout's two
    arrays, which hold its padded rows only.
    One stepper must not step from two threads at once.

    ``step(rows, out, runs=runs)`` steps the rows of the layout of ``runs``
    (``Runs.layout``), at most N of them, as one row sequence between the
    ghost rows (or as a ring of their own): restriction, flux, equilibrium
    and update run on those rows alone, with no share to reach and no
    compare of the input, and ``out`` holds as many rows.  With every row a
    run of its own the rows are the grid array, stepped as it is.  An error
    names the row of the layout; ``cr.cr_map`` and ``advance`` rerun the
    grid to name the cell.
    """

    steps_runs = True  # ``step(rows, out, runs=runs)`` steps a layout (see the module notes)

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

    def step(self, values: np.ndarray, out: np.ndarray | None = None,
             runs: Runs | None = None) -> np.ndarray:
        shape = (self.grid.n_cells, self.vgrid.n_velocities)
        # the rows of a layout (``Runs.layout``) are at most N
        n_rows = shape[0] if runs is None else min(len(values), shape[0])
        if values.shape != (n_rows, shape[1]):
            raise ValueError(f"values shape {values.shape} != {shape}")
        new = _step_output(values, out)
        if runs is None:
            runs = Runs(values)
            if not runs.cells:
                # a run's first row stands for all of its rows; the gather is
                # padded to whole ROW_BLOCKs with copies of the last row, so
                # restriction's and the equilibrium's products are one matmul
                index = runs.first[runs.layout(1)]
                padded = np.arange(-(-len(index) // ROW_BLOCK) * ROW_BLOCK)
                rows = values.take(index.take(padded, mode="clip"), axis=0)
                try:
                    result = self._update(rows, np.empty(rows.shape), len(index))
                except KliftError:
                    pass  # the full grid fails the same way and names the cell of ``values``
                else:
                    # mode="raise" would buffer ``out``; every row index is in range
                    return result.take(runs.spread(), axis=0, out=new, mode="clip")
        return self._update(values, new, len(values))

    def _update(self, values: np.ndarray, new: np.ndarray, n: int) -> np.ndarray:
        """The step's arithmetic from the first n rows of ``values`` into those
        of ``new``.  Restriction and the equilibrium run on every row, so rows
        past n pad their products to whole row blocks."""
        macro = restrict(values, self.gas, vgrid=self.vgrid, scale=self.scale)
        dt_omega = self.dt * relaxation_frequency(macro, self.gas)
        rows = values[:n]
        left, right = (rows[-1], rows[0]) if self._ghosts is None else self._ghosts
        # flux[j] is (dt/dx) times the flux on face j - 1/2, v+ f_{j-1} + v- f_j;
        # faces 0 and n take the ghost (or periodic) rows.  ``new`` holds v- f
        # of every row until the equilibrium overwrites it.
        vp, vm, flux = self._v_plus, self._v_minus, self._flux[:n + 1]
        np.multiply(rows, vp, out=flux[1:])
        np.multiply(rows, vm, out=new[:n])
        flux[1:-1] += new[1:n]
        np.add(vp * left, new[0], out=flux[0])
        flux[-1] += vm * right

        # dt omega f_eq + (dt/dx)(flux_{j-1/2} - flux_{j+1/2}) + (1 - dt omega) values
        discrete_equilibrium(
            macro.number_density, macro.velocity, macro.temperature, self.vgrid, self.gas,
            out=new, weight=self.scale * dt_omega,
        )
        result = new[:n]
        result += flux[:-1]
        result -= flux[1:]
        # flux[1:] is spent, so it holds the last term
        result += np.multiply(rows, (1.0 - dt_omega[:n])[:, None], out=flux[1:])
        if not np.isfinite(result).all():
            cell = int(np.flatnonzero(~np.isfinite(result).all(axis=1))[0])
            raise NumericalError(
                f"finite-volume step produced non-finite values, first in cell {cell}")
        return new


class D1Q3Stepper:
    """Three-speed diffusive LBM on (N, 3) populations ordered (f_+1, f_0, f_-1).

    One step relaxes toward rho/3, then streams periodically over the rows
    it is given, so ``step(rows, out, runs=runs)`` steps the rows of a
    layout as it steps a grid.
    """

    steps_runs = True

    def __init__(self, omega: float):
        if not 0.0 < omega < 2.0:
            raise ValueError("omega must lie in (0, 2)")
        self.omega = omega

    def step(self, values: np.ndarray, out: np.ndarray | None = None,
             runs: Runs | None = None) -> np.ndarray:
        if values.ndim != 2 or values.shape[1] != 3:
            raise ValueError("populations must have shape (N, 3)")
        out = _step_output(values, out)
        rho = values.sum(axis=1)
        post = (1.0 - self.omega) * values + self.omega * (rho[:, None] / 3.0)
        out[:, 0] = np.roll(post[:, 0], 1)   # speed +1
        out[:, 1] = post[:, 1]               # rest
        out[:, 2] = np.roll(post[:, 2], -1)  # speed -1
        return out


def advance(stepper, values: np.ndarray, steps: int) -> np.ndarray:
    """The grid array ``steps`` steps after ``values``, in blocks of BLOCK_STEPS.

    Each block of s steps compares the rows once (``Runs``), so runs that
    became equal join again, steps the rows of ``layout(s)`` s times with
    ``step(rows, runs=runs)`` and spreads them to the grid (``Runs.spread``).
    An error on a layout reruns the block by plain steps, which name the
    cell of the grid.  The result is the grid steps' bit for bit (see the
    module notes).  A stepper that does not set ``steps_runs`` takes plain
    steps of the grid array throughout, as it need not be local.
    """
    steps_runs = getattr(stepper, "steps_runs", False)
    for done in range(0, steps, BLOCK_STEPS):
        s = min(BLOCK_STEPS, steps - done)
        if steps_runs:
            runs = Runs(values)
            rows = np.take(values, runs.first[runs.layout(s)], axis=0)
            try:
                for _ in range(s):
                    rows = stepper.step(rows, runs=runs)
            except KliftError:
                pass  # the grid fails the same way and names the cell
            else:
                values = np.take(rows, runs.spread(), axis=0)
                continue
        for _ in range(s):
            values = stepper.step(values)
    return values
