"""Constrained-runs lifting: the one-step CR map and the solve of
s - C_m(r0, s) = 0 by Picard iteration or matrix-free Newton-GMRES.

A microscopic stepper is anything with ``step(values, out=None) -> out``
acting on (N, q) arrays: the output depends on the input values alone and is
written to ``out`` (a fresh array when None).  One CR map applies ``step``
m+1 times to the guess, backward-extrapolates with the order-m weights, and
resets the conserved moments to those of the target state f0.  The lift
allocates every grid-sized array of its inner loop once and passes it down
as ``out=`` (and the CR map's two step buffers as ``work=``); a call with
``None`` for them does the same arithmetic in fresh arrays.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
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


def gmres(matvec, b: np.ndarray, params: GMRESParams) -> GMRESResult:
    """Restarted GMRES (Saad & Schultz 1986) for A x = b from x = 0; A v = matvec(v).

    The stopping rule is scipy.sparse.linalg.gmres's with rtol = params.tol,
    atol = 0 and no preconditioner: a cycle ends when its Givens residual
    estimate reaches ptol (rtol ||b||, then scipy's adaptation) or Arnoldi
    breaks down, and the true residual b - A x decides convergence after
    every cycle.  The budget is params.max_iters inner iterations in
    ceil(max_iters / restart) cycles, each of at most min(restart, remaining);
    restart=None means max_iters, and restart is capped at n, the largest
    Krylov space.  A cycle that ends early still counts, as in scipy.

    Each Arnoldi vector is orthogonalized by classical Gram-Schmidt done
    twice, each pass one product with the stacked basis rows; twice is enough
    to keep the basis as orthogonal as modified Gram-Schmidt does (Giraud,
    Langou & Rozloznik 2005).

    Each ``matvec`` result is used up before the next call, so ``matvec``
    may return the same buffer every time.
    """
    n = b.size
    bnrm2 = float(np.linalg.norm(b))
    atol = params.tol * bnrm2
    if bnrm2 == 0.0 or bnrm2 < atol:  # b = 0, or rtol > 1 accepts x = 0
        rel = 1.0 if bnrm2 else 0.0
        return GMRESResult(np.zeros(n), 0, 0, rel, rel)
    eps = np.finfo(float).eps
    restart = min(params.restart or params.max_iters, params.max_iters, n)
    V = np.empty((restart + 1, n))  # rows never reached are never touched
    R = np.zeros((restart, restart))  # R[j, :j+1] = rotated Hessenberg column j
    x = np.zeros(n)
    r = b.copy()
    tmp = np.empty(n)  # each Gram-Schmidt pass's c @ basis, and y @ V
    ptol, ptol_max_factor = atol, 1.0
    used = 0
    for cycles in range(1, math.ceil(params.max_iters / restart) + 1):
        beta = float(np.linalg.norm(r))
        V[0] = r
        V[0] *= 1.0 / beta
        S = [beta] + [0.0] * restart
        rotations = []
        breakdown = False
        for col in range(min(restart, params.max_iters - used)):
            w = matvec(V[col])
            h0 = np.linalg.norm(w)
            basis, v_new = V[: col + 1], V[col + 1]
            c = basis @ w
            np.subtract(w, np.matmul(c, basis, out=tmp), out=v_new)
            c2 = basis @ v_new
            v_new -= np.matmul(c2, basis, out=tmp)
            h = (c + c2).tolist()
            h1 = float(np.linalg.norm(v_new))
            if h1 <= eps * h0:  # the Krylov space is invariant: x is exact
                h1, breakdown = 0.0, True
            else:
                v_new *= 1.0 / h1
            for k, (cs, sn) in enumerate(rotations):
                h[k], h[k + 1] = cs * h[k] + sn * h[k + 1], -sn * h[k] + cs * h[k + 1]
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
        for k in range(col, 0, -1):
            if y[k] != 0.0:
                y[k] /= R[k, k]
                y[:k] -= y[k] * R[k, :k]
        if y[0] != 0.0:
            y[0] /= R[0, 0]
        x += np.matmul(y, V[: col + 1], out=tmp)
        np.subtract(b, matvec(x), out=r)
        rnorm = float(np.linalg.norm(r))
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:  # the estimate passed but the true residual did not
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    info = 0 if rnorm <= atol else cycles
    return GMRESResult(x, info, used, presid / bnrm2, rnorm / bnrm2)


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


def cr_buffers(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scratch for ``cr_map(work=)`` on states like f: the two step outputs,
    used in turn."""
    return np.empty_like(f), np.empty_like(f)


def cr_map(
    stepper,
    basis: MomentBasis,
    f0: np.ndarray,
    f_guess: np.ndarray,
    order_m: int,
    *,
    naive_P: np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """One CR step C_m: m+1 micro-steps, backward extrapolation, moment reset.

    The steps run in the two ``work`` buffers from ``cr_buffers``; the
    extrapolation sum is built in ``out`` and reset in place, with the step
    buffer that does not hold the last state as scratch.  Either is
    allocated when None.  The first step has read ``f_guess`` before ``out``
    is written, so ``out`` may be ``f_guess`` itself; it must be neither
    ``f0``, which the reset reads after the sum is built, nor a work buffer.
    A non-finite sum raises NumericalError naming its first such cell.

    ``naive_P`` switches the reset to the inverse-based projector P of
    ``naive_projector`` (failure-study mode); by default the QR projector is
    applied without ever materializing a q x q matrix.  For a monomial basis
    that P is the noise of an unequilibrated float solve: it breaks the
    conserved moments, and the CR spectrum built on it depends on the LAPACK
    build.
    """
    if f0.shape != f_guess.shape:
        raise ValueError("f0 and f_guess must share shapes")
    w = cr_weights(order_m)
    a, b = cr_buffers(f_guess) if work is None else work
    cur = stepper.step(f_guess, out=a)
    f_pre = np.multiply(cur, w[0], out=out)
    for wj in w[1:]:
        # the step reads the last output and writes the other buffer, which
        # then holds wj times the new state until the next step overwrites it
        a, b = b, a
        cur = stepper.step(cur, out=a)
        f_pre += np.multiply(cur, wj, out=b)
    if not np.all(np.isfinite(f_pre)):
        cell = int(np.flatnonzero(~np.isfinite(f_pre).all(axis=1))[0])
        raise NumericalError(
            f"non-finite extrapolation in CR map (order {order_m}), first in cell {cell}")
    if naive_P is None:
        return reset_conserved(basis, f_pre, f0, out=f_pre, work=b)
    np.matmul(f_pre, naive_P.T, out=b)
    return np.add(b, f0 @ (np.eye(basis.q) - naive_P).T, out=f_pre)


def fd_step(f: np.ndarray, vnorm: float = 1.0) -> float:
    """Forward-difference step FD_EPSILON (1 + ||f||) / vnorm for a direction of norm vnorm."""
    return FD_EPSILON * (1.0 + float(np.linalg.norm(f))) / vnorm


def cr_jvp(
    apply_map,
    f: np.ndarray,
    Cf: np.ndarray,
    v: np.ndarray,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Forward difference (apply_map(f + h v) - Cf) / h: the CR-map Jacobian along v.

    ``Cf`` is apply_map(f), and ``apply_map(state, out)`` writes the map of
    state to ``out``, which may be the state itself (as ``cr_map`` allows).
    The step h = fd_step(f, ||v||) makes the perturbation h v of norm
    FD_EPSILON (1 + ||f||) whatever the length of v.  A zero direction
    returns zeros without running the map.  f + h v is formed in ``out``,
    allocated when None, and mapped in place; ``out`` must not be f or Cf.
    """
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        out = np.empty_like(v) if out is None else out
        out.fill(0.0)
        return out
    h = fd_step(f, vnorm)
    out = np.multiply(v, h, out=out)
    out += f
    out = apply_map(out, out)
    out -= Cf
    out /= h
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

    Every failure raises ConvergenceError with the residual history: a CR
    map that fails (also inside a GMRES matvec), GMRES stagnation, three
    rising residuals (a stall when all three lie within ROUNDING_FLOOR
    eps ||f||, since the tolerance then lies below what rounding allows, and
    divergence otherwise), and a budget of MAX_NEWTON_ITERS or
    MAX_PICARD_ITERS corrections spent.  Every grid-sized array of the loop
    is allocated once per lift: the CR map's two step buffers, C(f), the
    residual, and the JVP, which forms the perturbed state in its own output.
    """
    t0 = _time.perf_counter()
    shape = f0.shape
    newton = cfg.solver == "newton"
    name = cfg.solver.capitalize()
    tol, budget = (cfg.newton_tol, MAX_NEWTON_ITERS) if newton else (cfg.picard_tol, MAX_PICARD_ITERS)
    f = f0.copy() if f_guess is None else f_guess.copy()
    # one block for all five: glibc's trim threshold follows the largest
    # block freed, so the next lift reuses this one, where separate arrays
    # may be trimmed and faulted in again (median minor faults per
    # full-scale lift: the block 368 in each of 11 runs, five arrays 368 or
    # 516 from run to run, seven arrays 516)
    a, b, Cf, g, jvp = np.empty((5,) + shape)
    work = (a, b)
    history: list[float] = []
    gmres_total = 0

    def failure(message):
        return ConvergenceError(message, residual=history[-1] if history else None, history=history)

    def apply_map(state, out=None):
        try:
            return cr_map(stepper, basis, f0, state, cfg.order_m, out=out, work=work)
        except KliftError as exc:
            last = f"{history[-1]:.3e}" if history else "none"
            raise failure(
                f"{name} CR iteration {it} failed in its CR map (last residual {last}, "
                f"m = {cfg.order_m}): {exc}") from exc

    def matvec(v):
        cr_jvp(apply_map, f, Cf, v.reshape(shape), out=jvp)
        return np.subtract(v, jvp.reshape(-1), out=jvp.reshape(-1))

    for it in range(budget + 1):
        apply_map(f, Cf)
        np.subtract(f, Cf, out=g)
        resid = float(np.linalg.norm(g))
        history.append(resid)
        if resid < tol:
            reset_conserved(basis, f, f0, out=f, work=g)
            report = LiftReport(
                solver=cfg.solver,
                iterations=it,
                residual_history=history,
                conserved_drift=conserved_drift(basis, f, f0),
                wall_time=_time.perf_counter() - t0,
                gmres_iterations=gmres_total,
            )
            return f, report
        if it == budget:
            break
        if len(history) >= 3 and history[-1] > history[-2] > history[-3]:
            rising = f"residuals {history[-3]:.3e}, {history[-2]:.3e}, {resid:.3e}"
            floor = ROUNDING_FLOOR * np.finfo(float).eps * float(np.linalg.norm(f))
            if resid <= floor:
                raise failure(
                    f"{name} CR iteration stalled at the rounding floor: {rising} lie "
                    f"within {ROUNDING_FLOOR:g} eps ||f|| = {floor:.3e}, so the tolerance "
                    f"{tol:g} lies below it (m = {cfg.order_m})")
            raise failure(f"{name} CR iteration diverging: {rising} (m = {cfg.order_m})")
        if not newton:
            np.copyto(f, Cf)
            continue

        solve = gmres(matvec, np.negative(g, out=g).reshape(-1), cfg.gmres)
        gmres_total += solve.iterations
        if solve.info != 0:
            raise failure(
                f"GMRES stagnated in Newton step {it} (info={solve.info}): "
                f"{solve.iterations} inner iterations, estimated relative residual "
                f"{solve.estimate:.3e} and true relative residual {solve.residual:.3e} "
                f"against rtol {cfg.gmres.tol:g}")
        f += solve.x.reshape(shape)

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
