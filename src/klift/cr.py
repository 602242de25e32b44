"""Constrained-runs lifting: the one-step CR map and the solve of
s - C_m(r0, s) = 0 by Picard iteration or matrix-free Newton-GMRES.

A microscopic stepper is anything with the ``step(values, out=None) -> out``
of ``klift.steppers``.  One CR map applies ``step`` m+1 times to the guess,
backward-extrapolates with the order-m weights, and resets the conserved
moments to those of the target state f0.

The lift carries every state stored by one ``steppers.Runs``.  With a
stepper that sets ``steps_runs``, that is one row per run of consecutive
cell rows equal bit for bit, found once by comparing the rows of f0; with
any other, every row is a run of its own and a stored state is the grid
array.  ``cr_map`` has one body: it steps the rows of the runs' layout for
m + 1 steps m + 1 times with no compare, builds the extrapolation sum on
them and cuts the runs once, where neighbouring rows of that sum differ
(``Runs.layout``, ``Runs.refine``); a grid array takes the same steps with
no gather and no cut.  Every call that maps (``cr_map``, ``cr_jvp``,
``gmres``) then brings the other states it was given onto the cut runs
(``Runs.fill``).  The reset, the JVP, GMRES and the norms (which weigh a
row by its run's integer length) work on the stored rows alone, and the
lifted state is expanded to the grid once.  The lift allocates every
grid-sized array of its inner loop once and passes it down as ``out=``,
and a CR map's three buffers (step, step, sum) as ``work=``; a stored
state uses the first ``runs.count`` rows of such an array, a layout its
first rows.  A call with ``None`` for them does the same arithmetic in
fresh arrays.  ``cr_map``, ``cr_jvp`` and ``gmres`` take run-stored states
only, each row a run of its own when ``runs`` is None.
"""

from __future__ import annotations

import errno
import math
import mmap
import time as _time
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, KliftError, NumericalError
from .kinetic import (
    DistributionField,
    GasParams,
    MacroFields,
    equilibrium_field,
)
from .moments import MomentBasis, conserved_drift, reset_conserved
from .steppers import Runs

MAX_ORDER = 8
MAX_NEWTON_ITERS = 20
# Picard's budget of corrections, far above what a contractive map needs:
# the slowest in the tests, criterion 5 at m = 3 and eps = 0.01, takes 186.
MAX_PICARD_ITERS = 2000
SOLVERS = ("picard", "newton")
# Relative forward-difference step: the square root of machine epsilon
# balances truncation against rounding for a smooth map.
FD_EPSILON = math.sqrt(np.finfo(float).eps)
# ||f - C f|| cannot fall below the rounding of C f: residuals within this
# multiple of eps ||f|| are at that floor (desk lifts at m = 0..3 stall at
# 0.3-4.1 eps ||f||), and rising there is noise, not divergence.
ROUNDING_FLOOR = 100.0
# GMRES gives an Arnoldi vector a second Gram-Schmidt pass once the loss of
# orthogonality one pass would leave it may exceed this fraction of the
# solve's tolerance (see ``gmres``).  Long solves (n = 200 and 300, tol 1e-6
# to 1e-13) kept scipy's counts at margins up to 10; 1e-3 leaves 1e4 to spare.
ORTHOGONALITY_MARGIN = 1e-3


def cr_weights(order_m: int) -> np.ndarray:
    """Backward-extrapolation weights w_j = (-1)^(j+1) C(m+1, j), j = 1..m+1.

    Row m of the forward-difference table; the weights always sum to one.
    """
    if not 0 <= order_m <= MAX_ORDER:
        raise ValueError(f"order_m must lie in [0, {MAX_ORDER}]")
    return np.array(
        [(-1.0) ** (j + 1) * math.comb(order_m + 1, j) for j in range(1, order_m + 2)]
    )


@dataclass(frozen=True)
class GMRESParams:
    tol: float = 1e-6
    max_iters: int = 200
    restart: int | None = None  # inner iterations per cycle; None = max_iters

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"GMRESParams.tol must be positive, got {self.tol!r}")
        if self.max_iters < 1:
            raise ValueError(f"GMRESParams.max_iters must be at least 1, got {self.max_iters!r}")
        if self.restart is not None and not (isinstance(self.restart, int) and self.restart >= 1):
            raise ValueError(
                f"GMRESParams.restart must be None or an integer of at least 1, got {self.restart!r}")


class GMRESResult(NamedTuple):
    x: np.ndarray
    info: int          # 0 converged; otherwise the number of restart cycles run
    iterations: int    # inner (Arnoldi) iterations over all cycles
    estimate: float    # the last Givens residual estimate over ||b||
    residual: float    # the true residual ||b - A x|| over ||b||
    reorthogonalized: int = 0  # Arnoldi vectors given a second Gram-Schmidt pass
    runs: int = 0      # runs the vectors were stored by at the end (see ``gmres``)


def gmres(matvec, b: np.ndarray, params: GMRESParams, runs: Runs | None = None) -> GMRESResult:
    """Restarted GMRES (Saad & Schultz 1986) for A x = b from x = 0; A v = matvec(v).

    The stopping rule is scipy.sparse.linalg.gmres's with rtol = params.tol,
    atol = 0 and no preconditioner: a cycle ends when its Givens residual
    estimate reaches ptol (rtol ||b||, then scipy's adaptation) or Arnoldi
    breaks down, and the true residual b - A x decides convergence after
    every cycle.  The budget is params.max_iters inner iterations in
    ceil(max_iters / restart) cycles, each of at most min(restart, remaining);
    restart=None means max_iters, and restart is capped at n, the largest
    Krylov space.  A cycle that ends early still counts, as in scipy.

    b, x and every Arnoldi vector are states stored by ``runs``
    (``steppers.Runs``), one row per run, and inner products weigh each row
    by its run's integer length: c = V (w * lengths) and
    ||w||^2 = w . (w * lengths).  A matvec may cut the runs, as a CR map
    does, and returns A v stored by the cut runs; every vector of the basis,
    x and b (which is written to) then copy each parent run's row into its
    new runs (``Runs.fill``), so each stays exact and nothing is expanded.
    With runs of one row each, the products are the plain ones.
    Without ``runs``, each row of b (the one row of a 1-D b) is a run of its
    own, so b of any shape is one vector.  ``runs`` is the number of runs at
    the end.

    Each Arnoldi vector w is orthogonalized by one pass of classical
    Gram-Schmidt, one product with the stacked basis rows, and by a second
    pass only when the basis may have drifted too far from orthogonal.  A
    pass that takes w of norm h0 to a remainder of norm h1 leaves the
    remainder about h0 / h1 times the basis's loss of orthogonality away
    from orthogonal (the cancellation test of Daniel, Gragg, Kaufman &
    Stewart 1976), and a second pass brings it back to rounding (Giraud,
    Langou & Rozloznik 2005).  ``growth`` estimates, in units of eps, the
    loss a vector given one pass carries: the loss the last second pass
    measured, times h0 / h1 of every vector given one pass since.  A vector
    whose one pass takes growth above ORTHOGONALITY_MARGIN tol / eps, or
    leaves h1 = 0, gets the second pass, whose coefficients c2 measure what
    the first pass left, max|c2| / h1; growth restarts from that.  A second
    pass mends only its own vector, so growth does not restart from 1: the
    vectors given one pass keep their loss and pass it on.  At tol below
    about 2e-13 the limit is under 1 and every vector gets both passes
    (CGS2); at the shipped 1e-6 it is 4.5e6, and the full-scale lifts take
    the second pass on 40 of 534 vectors with every count unchanged.
    ``reorthogonalized`` counts the second passes.

    The basis V holds restart + 1 vectors of b's shape, each using its
    first k rows, in a mapping of its own in 4 KiB pages (``_scratch``): a
    vector's rows fault in only the pages they fill, where numpy's huge
    pages would fault in most of 2 MiB per vector, and all go back to the
    kernel when the solve returns.

    Each ``matvec`` result is used up before the next call, so ``matvec``
    may return the same buffer every time.  Its argument is one scratch
    buffer of b's shape, refilled from V or from x before every call.
    """
    n = b.size
    rows = b.reshape(len(b) if b.ndim > 1 else 1, -1)
    runs = Runs.each_row(len(rows)) if runs is None else runs

    def weigh(v):
        """v times its run lengths (in tmp) as one row, and v's weighted norm."""
        flat = v.reshape(-1)
        if runs.cells:  # lengths of one: no multiply
            return flat, math.sqrt(float(np.dot(flat, flat)))
        wv = np.multiply(v, runs.lengths[: len(v), None], out=tmp[: v.size].reshape(v.shape))
        return wv.reshape(-1), math.sqrt(float(np.dot(flat, wv.reshape(-1))))

    k = runs.count
    bnrm2 = runs.norm(rows)
    atol = params.tol * bnrm2
    if bnrm2 == 0.0 or bnrm2 < atol:  # b = 0, or rtol > 1 accepts x = 0
        rel = 1.0 if bnrm2 else 0.0
        return GMRESResult(np.zeros(b.shape), 0, 0, rel, rel, 0, k)
    eps = np.finfo(float).eps
    limit = ORTHOGONALITY_MARGIN * params.tol / eps
    restart = min(params.restart or params.max_iters, params.max_iters, n)
    V = _scratch((restart + 1,) + rows.shape)
    R = np.zeros((restart, restart))  # R[j, :j+1] = rotated Hessenberg column j
    x = np.zeros(rows.shape)
    arg = np.empty(rows.shape)  # the matvec argument, and b - A x
    tmp = np.empty(n)  # each vector times its run lengths, c @ basis, and y @ V

    def apply(v, vectors, *stores):
        """A v (in the matvec's buffer) from ``arg``, holding v; the first
        ``vectors`` of V and each store are brought onto the runs the matvec
        leaves."""
        arg[:k] = v
        w = np.reshape(matvec(arg.reshape(b.shape)), rows.shape)
        runs.fill(k, V[:vectors], *stores)
        return w

    r, rnorm = rows[:k], bnrm2
    ptol, ptol_max_factor = atol, 1.0
    used = reorthogonalized = 0
    for cycles in range(1, math.ceil(params.max_iters / restart) + 1):
        beta = rnorm
        np.multiply(r, 1.0 / beta, out=V[0, :k])
        S = [beta] + [0.0] * restart
        rotations = []
        breakdown = False
        growth = 1.0
        for col in range(min(restart, params.max_iters - used)):
            w = apply(V[col, :k], col + 1, x, rows)
            k = runs.count
            basis, v_new = V[: col + 1, :k].reshape(col + 1, -1), V[col + 1, :k]
            v_flat = v_new.reshape(-1)
            w = w[:k]
            wv, h0 = weigh(w)
            c = basis @ wv
            np.subtract(w.reshape(-1), np.matmul(c, basis, out=tmp[: v_flat.size]), out=v_flat)
            wv, h1 = weigh(v_new)
            growth *= h0 / h1 if h1 else math.inf
            if growth > limit:
                c2 = basis @ wv
                v_flat -= np.matmul(c2, basis, out=tmp[: v_flat.size])
                c += c2
                growth = max(1.0, float(np.abs(c2).max()) / (eps * h1)) if h1 else 1.0
                _, h1 = weigh(v_new)
                reorthogonalized += 1
            h = c.tolist()
            if h1 <= eps * h0:  # the Krylov space is invariant: x is exact
                h1, breakdown = 0.0, True
            else:
                v_new *= 1.0 / h1
            for j, (cs, sn) in enumerate(rotations):
                h[j], h[j + 1] = cs * h[j] + sn * h[j + 1], -sn * h[j] + cs * h[j + 1]
            mag = math.hypot(h[col], h1)
            cs, sn = (h[col] / mag, h1 / mag) if mag else (1.0, 0.0)
            rotations.append((cs, sn))
            h[col] = mag
            R[col, : col + 1] = h
            S[col], S[col + 1] = cs * S[col], -sn * S[col]
            presid = abs(S[col + 1])
            if presid <= ptol or breakdown:
                break
        used += col + 1
        # back substitution on the triangle, zeroing a singular last pivot
        if R[col, col] == 0.0:
            S[col] = 0.0
        y = np.array(S[: col + 1])
        for j in range(col, 0, -1):
            if y[j] != 0.0:
                y[j] /= R[j, j]
                y[:j] -= y[j] * R[j, :j]
        if y[0] != 0.0:
            y[0] /= R[0, 0]
        x[:k] += np.matmul(y, basis, out=tmp[: basis.shape[1]]).reshape(k, -1)
        w = apply(x[:k], 0, x, rows)
        k = runs.count
        r = np.subtract(rows[:k], w[:k], out=arg[:k])
        rnorm = runs.norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:  # the estimate passed but the true residual did not
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    info = 0 if rnorm <= atol else cycles
    return GMRESResult(x.reshape(b.shape), info, used, presid / bnrm2, rnorm / bnrm2,
                       reorthogonalized, k)


def _scratch(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of ``shape`` in a private anonymous mapping of its own,
    advised to 4 KiB pages where the platform allows: only the pages written
    become resident (numpy advises 2 MiB pages from 4 MiB up), and they go
    back to the kernel when the array is freed.  It reads as zeros, as every
    fresh anonymous mapping does (POSIX ``MAP_ANONYMOUS``, and Windows'
    pagefile-backed mappings); an array of no entries, which mmap refuses,
    is a plain empty one."""
    size = math.prod(shape) * 8
    if not size:
        return np.empty(shape)
    flags = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}
             if hasattr(mmap, "MAP_ANONYMOUS") else {})  # mmap.mmap(-1, n) alone is shared
    try:
        buf = mmap.mmap(-1, size, **flags)
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"Unable to allocate {size / 2**20:.3g} MiB for an array with "
                          f"shape {shape} and data type float64") from None
    try:
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    except (AttributeError, OSError):  # no such advice here, or a kernel without THP
        pass
    return np.ndarray(shape, buffer=buf)


@dataclass(frozen=True)
class CRConfig:
    order_m: int = 0
    solver: str = "newton"          # one of SOLVERS
    picard_tol: float = 1e-12
    newton_tol: float = 1e-10
    gmres: GMRESParams = field(default_factory=GMRESParams)

    def __post_init__(self):
        cr_weights(self.order_m)  # validates the order
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        for name in ("picard_tol", "newton_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"CRConfig.{name} must be positive, got {getattr(self, name)!r}")


@dataclass
class LiftReport:
    solver: str
    iterations: int
    residual_history: list[float]
    conserved_drift: float
    wall_time: float
    gmres_iterations: int = 0
    runs: int = 0  # stored rows of the lifted state: its runs of equal cell rows


def cr_map(
    stepper,
    basis: MomentBasis,
    f0: np.ndarray,
    f_guess: np.ndarray,
    order_m: int,
    *,
    naive_P: np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    runs: Runs | None = None,
) -> np.ndarray:
    """One CR step C_m: m+1 micro-steps, backward extrapolation, moment reset.

    Every state is stored by ``runs`` (``steppers.Runs``; every row a run of
    its own when None).  The map gathers the rows of ``runs.layout(m + 1)``
    into the second of the three ``work`` buffers (step, step, sum), steps
    them m + 1 times into the two step buffers in turn, with ``step(rows,
    out, runs=runs)`` and no compare, and builds the extrapolation sum in
    the third; ``Runs.refine`` then cuts the runs where the sum's rows
    differ and stores it in ``out``, and f0 and, unless it is ``out``,
    f_guess are brought onto the cut runs (``Runs.fill``).  The reset works
    in place on the stored rows, with the first step buffer as scratch.
    ``work`` and ``out`` are allocated when None.  With every row a run of
    its own (``cells``) the stored state is the grid array: the same steps
    run on it with no gather, and the sum is built in ``out``, with no cut.
    Unless every row is a run of its own, the stepper must set
    ``steps_runs``; with it, ``runs`` goes to every step, so no step
    compares rows.

    The first step has read ``f_guess`` before ``out`` is written, so
    ``out`` may be ``f_guess`` itself; it must be neither ``f0``, which the
    reset reads after the sum is built, nor a work buffer.  A non-finite sum
    raises NumericalError naming its first such row.  An error on a layout
    reruns the map on the expanded grid arrays, which fail the same way and
    name the cell of the grid; were the grid map to pass, NumericalError
    says that the layout alone failed.

    ``naive_P`` switches the reset to the inverse-based projector P of
    ``naive_projector`` (failure-study mode); by default the QR projector is
    applied without ever materializing a q x q matrix.  For a monomial basis
    that P is the noise of an unequilibrated float solve: it breaks the
    conserved moments, and the CR spectrum built on it depends on the LAPACK
    build.
    """
    if f0.shape != f_guess.shape:
        raise ValueError("f0 and f_guess must share shapes")
    runs = Runs.each_row(len(f0)) if runs is None else runs
    a, b, total = np.empty((3,) + f_guess.shape) if work is None else work
    f_pre = np.empty_like(f_guess) if out is None else out
    steps_runs = getattr(stepper, "steps_runs", False)  # see the ``steppers`` module notes
    step = partial(stepper.step, runs=runs) if steps_runs else stepper.step
    since = n = runs.count
    if runs.cells:  # the stored state is the grid array: no gather, and no cut
        start, total = f_guess, f_pre
    else:
        index = runs.layout(order_m + 1)
        n = len(index)
        # mode="raise" would buffer ``out``; every index is in range
        start = np.take(f_guess, index, axis=0, out=b[:n], mode="clip")
    try:
        _extrapolate(step, start, order_m, a[:n], b[:n], total[:n])
    except KliftError as exc:
        if runs.cells:
            raise
        # the grid map fails the same way and names the cell of the grid
        cr_map(stepper, basis, runs.expand(f0), runs.expand(f_guess), order_m, naive_P=naive_P)
        raise NumericalError(
            f"CR map (order {order_m}) failed on the layout of its runs but not on the "
            f"grid: {exc} (a row of the layout, not a cell)") from exc
    if not runs.cells:
        runs.refine(total[:n], f_pre)
        runs.fill(since, f0, *(() if f_guess is out else (f_guess,)))
    k = runs.count
    _reset(basis, f_pre[:k], f0[:k], a[:k], naive_P)
    return f_pre


def _extrapolate(step, start, order_m, a, b, pre):
    """Build the extrapolation sum of order_m + 1 steps from ``start`` in
    ``pre``, stepping into the buffers ``a`` and ``b`` in turn.  A
    non-finite sum raises NumericalError naming its first such row."""
    w = cr_weights(order_m)
    cur = step(start, out=a)
    np.multiply(cur, w[0], out=pre)
    for wj in w[1:]:
        # the step reads the last output and writes the other buffer, which
        # then holds wj times the new state until the next step overwrites it
        a, b = b, a
        cur = step(cur, out=a)
        pre += np.multiply(cur, wj, out=b)
    if not np.all(np.isfinite(pre)):
        cell = int(np.flatnonzero(~np.isfinite(pre).all(axis=1))[0])
        raise NumericalError(
            f"non-finite extrapolation in CR map (order {order_m}), first in cell {cell}")


def _reset(basis, pre, target, scratch, naive_P):
    """Reset the conserved moments of ``pre`` in place to those of ``target``."""
    if naive_P is None:
        reset_conserved(basis, pre, target, out=pre, work=scratch)
    else:
        np.matmul(pre, naive_P.T, out=scratch)
        np.add(scratch, target @ (np.eye(basis.q) - naive_P).T, out=pre)


def fd_step(f: np.ndarray, runs: Runs, vnorm: float = 1.0) -> float:
    """Forward-difference step FD_EPSILON (1 + ||f||) / vnorm for the state f
    stored by ``runs`` and a direction of norm vnorm."""
    return FD_EPSILON * (1.0 + runs.norm(f)) / vnorm


def cr_jvp(
    apply_map,
    f: np.ndarray,
    Cf: np.ndarray,
    v: np.ndarray,
    *,
    out: np.ndarray | None = None,
    runs: Runs | None = None,
) -> np.ndarray:
    """Forward difference (apply_map(f + h v) - Cf) / h: the CR-map Jacobian along v.

    ``Cf`` is apply_map(f), and ``apply_map(state, out)`` writes the map of
    state to ``out``, which may be the state itself (as ``cr_map`` allows).
    The step h = fd_step(f, runs, ||v||) makes the perturbation h v of norm
    FD_EPSILON (1 + ||f||) whatever the length of v.  A zero direction
    returns zeros without running the map.  f + h v is formed in ``out``,
    allocated when None, and mapped in place; ``out`` must not be f or Cf.
    The states are stored by ``runs`` (every row a run of its own when
    None), and f, Cf and v are brought onto the runs the map leaves.
    """
    runs = Runs.each_row(len(f)) if runs is None else runs
    out = np.empty_like(v) if out is None else out
    vnorm = runs.norm(v)
    if vnorm == 0.0:
        out.fill(0.0)
        return out
    h = fd_step(f, runs, vnorm)
    since = runs.count
    state = np.multiply(v[:since], h, out=out[:since])
    state += f[:since]
    apply_map(out, out)
    runs.fill(since, f, Cf, v)
    state = out[: runs.count]
    state -= Cf[: runs.count]
    state /= h
    return out


def cr_lift(
    stepper,
    basis: MomentBasis,
    f0: np.ndarray,
    cfg: CRConfig,
    *,
    f_guess: np.ndarray | None = None,
) -> tuple[np.ndarray, LiftReport]:
    """Solve g(f) = f - C_m(r0, f) = 0 from f0, or from ``f_guess`` when given.

    Each iteration maps f and stops once ||g|| is below the solver's
    tolerance (``newton_tol`` or ``picard_tol``); a final reset then removes
    the last rounding-level drift of the conserved moments, which every CR
    map pins.  Otherwise f moves by the correction x of (I - J) x = -g:
    Newton solves it by GMRES with J the matrix-free ``cr_jvp``, a forward
    difference of the CR map; Picard takes J = 0, so f <- C_m(r0, f).

    Every state is stored by one ``steppers.Runs``.  For a stepper that sets
    ``steps_runs``, the rows of f0 (and of ``f_guess``) are compared once,
    bit for bit, every CR map steps the runs' layout and cuts the runs once,
    from its sum, the norms weigh each row by its run's integer length, and
    the lifted state is expanded once, at the end.  Any other stepper steps
    the (N, q) grid arrays, each row a run of its own.  ``LiftReport.runs``
    is the number of stored rows.

    Every failure raises ConvergenceError with the residual history: a CR
    map that fails (also inside a GMRES matvec), GMRES stagnation, a stall
    (the last three residuals lie within ROUNDING_FLOOR eps ||f|| and none
    is below the smallest before them, so the tolerance lies below what
    rounding allows), divergence (three rising residuals above that floor),
    and a budget of MAX_NEWTON_ITERS or MAX_PICARD_ITERS corrections spent.
    Every grid-sized array of the loop is allocated once per lift, as one
    block: the CR map's three ``work`` buffers (step, step, sum), C(f), the
    residual, and the JVP, which forms the perturbed state in its own
    output.  A map allocates no grid-sized array.
    """
    t0 = _time.perf_counter()
    newton = cfg.solver == "newton"
    name = cfg.solver.capitalize()
    tol, budget = (cfg.newton_tol, MAX_NEWTON_ITERS) if newton else (cfg.picard_tol, MAX_PICARD_ITERS)
    if not getattr(stepper, "steps_runs", False):
        runs = Runs.each_row(len(f0))
    else:
        runs = Runs(f0) if f_guess is None else Runs(f0, f_guess)
    f = runs.store(f0 if f_guess is None else f_guess)
    target = runs.store(f0)
    # one block for all six, in 4 KiB pages: each buffer uses its first
    # runs.count rows, and huge pages would fault in most of 2 MiB for them
    a, b, total, Cf, g, jvp = _scratch((6,) + f0.shape)
    work = (a, b, total)
    history: list[float] = []
    before = math.inf  # the smallest residual before the last three
    gmres_total = 0

    def held(a):
        """The rows of ``a`` that hold its state: one per run."""
        return a[: runs.count]

    def failure(message):
        return ConvergenceError(message, residual=history[-1] if history else None, history=history)

    def apply_map(state, out=None):
        try:
            return cr_map(stepper, basis, target, state, cfg.order_m, out=out, work=work,
                          runs=runs)
        except KliftError as exc:
            last = f"{history[-1]:.3e}" if history else "none"
            raise failure(
                f"{name} CR iteration {it} failed in its CR map (last residual {last}, "
                f"m = {cfg.order_m}): {exc}") from exc

    def matvec(v):
        cr_jvp(apply_map, f, Cf, v, out=jvp, runs=runs)
        np.subtract(held(v), held(jvp), out=held(jvp))
        return jvp

    for it in range(budget + 1):
        apply_map(f, Cf)
        np.subtract(held(f), held(Cf), out=held(g))
        resid = runs.norm(g)
        history.append(resid)
        if resid < tol:
            state, f0_rows = held(f), held(target)
            reset_conserved(basis, state, f0_rows, out=state, work=held(g))
            drift = conserved_drift(basis, state, f0_rows)
            lifted = runs.expand(f)
            return lifted, LiftReport(
                solver=cfg.solver,
                iterations=it,
                residual_history=history,
                conserved_drift=drift,
                wall_time=_time.perf_counter() - t0,
                gmres_iterations=gmres_total,
                runs=len(state),
            )
        if it == budget:
            break
        if len(history) > 3:
            before = min(before, history[-4])
        last = history[-3:]
        stalled = len(history) > 3 and min(last) >= before  # no new minimum
        rising = len(last) == 3 and last[0] < last[1] < resid
        if stalled or rising:
            residuals = "residuals " + ", ".join(f"{r:.3e}" for r in last)
            floor = ROUNDING_FLOOR * np.finfo(float).eps * runs.norm(f)
            if stalled and max(last) <= floor:
                raise failure(
                    f"{name} CR iteration stalled at the rounding floor: {residuals} lie "
                    f"within {ROUNDING_FLOOR:g} eps ||f|| = {floor:.3e}, so the tolerance "
                    f"{tol:g} lies below it (m = {cfg.order_m})")
            if rising and resid > floor:
                raise failure(f"{name} CR iteration diverging: {residuals} (m = {cfg.order_m})")
        if not newton:
            np.copyto(held(f), held(Cf))
            continue

        np.negative(held(g), out=held(g))
        solve = gmres(matvec, g, cfg.gmres, runs)
        gmres_total += solve.iterations
        if solve.info != 0:
            raise failure(
                f"GMRES stagnated in Newton step {it} (info={solve.info}): "
                f"{solve.iterations} inner iterations, estimated relative residual "
                f"{solve.estimate:.3e} and true relative residual {solve.residual:.3e} "
                f"against rtol {cfg.gmres.tol:g}")
        np.add(held(f), held(solve.x), out=held(f))

    raise failure(
        f"{name} CR iteration did not reach {tol:g} "
        f"in {budget} iterations (last residual {history[-1]:.3e})")


def lift_macro(
    stepper,
    basis: MomentBasis,
    macro: MacroFields,
    gas: GasParams,
    cfg: CRConfig,
    *,
    grid,
    vgrid,
    scale: float = 1.0,
    time: float = 0.0,
    f_guess: np.ndarray | None = None,
) -> tuple[DistributionField, LiftReport]:
    """Lift (n, u, T) to a distribution field.

    The conserved-moment target is the per-cell discrete equilibrium of the
    macro fields; it also serves as the initial iterate unless ``f_guess``
    provides one (e.g. the solution at a lower extrapolation order, which
    keeps high-order iterates close to the slow manifold).
    """
    f0 = equilibrium_field(macro, grid, vgrid, gas, scale=scale, time=time)
    values, report = cr_lift(stepper, basis, f0.values, cfg, f_guess=f_guess)
    return f0.with_values(values), report


@dataclass
class RestrictLiftError:
    """Diagnostics comparing a lifted field against a reference field."""

    two_norm: float                # flattened vector two-norm of the difference
    spectral_norm: float           # largest singular value (Matlab matrix norm)
    cell_abs_sums: np.ndarray      # (N,): sum_i |f_i - fc_i| per cell
    relative_error: np.ndarray     # (N, Nv): |f - fc| / |fc|
    exact_zero: np.ndarray         # (N, Nv) bool: where f - fc == 0 exactly


def restrict_lift_error(reference: DistributionField, lifted: DistributionField) -> RestrictLiftError:
    """Two-norm, per-cell absolute sums, and the relative-error field."""
    if reference.values.shape != lifted.values.shape:
        raise ValueError("reference and lifted fields have mismatched grids")
    if not np.allclose(reference.vgrid.velocities, lifted.vgrid.velocities):
        raise ValueError("reference and lifted fields have mismatched velocity grids")
    diff = lifted.values - reference.values
    zero = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(diff) / np.abs(reference.values)
    rel[zero] = 0.0
    return RestrictLiftError(
        two_norm=float(np.linalg.norm(diff.ravel())),
        spectral_norm=float(np.linalg.norm(diff, 2)),
        cell_abs_sums=np.abs(diff).sum(axis=1),
        relative_error=rel,
        exact_zero=zero,
    )
