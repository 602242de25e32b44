"""Velocity grids, field containers, discrete equilibrium, and restriction.

All quantities are SI.  Distribution values are number density per velocity,
1/(m^3 (m/s)), optionally multiplied by a scale factor (typically the
molecular mass) that is carried on the field so restriction stays
scale-aware.  The discrete equilibrium is exp(c0 + c1 x + c2 x^2) in
x = v - v_mid, scaled to the cell's density; Newton solves for (c1, c2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, NumericalError

BOLTZMANN = 1.380649e-23  # J/K
# Relative residual tolerance and iteration cap of the equilibrium Newton solve.
EQUILIBRIUM_TOL = 1e-13
EQUILIBRIUM_MAX_ITER = 50
EPS = np.finfo(float).eps
# Restriction multiplies whole blocks of this many rows.  OpenBLAS's matrix
# product rounds a row of a partial block at the end of a product unlike one
# of a whole block (Nehalem, Prescott, SkylakeX); in whole blocks a row's
# moments do not depend on where the row sits, which on Prescott, Nehalem,
# Sandybridge, Haswell and SkylakeX takes 8 rows.
ROW_BLOCK = 8


@dataclass(frozen=True)
class GasParams:
    """Physical constants of the simulated gas."""

    molecular_mass: float       # kg
    mu_ref: float               # Pa s, reference viscosity
    T_ref: float                # K, reference temperature
    viscosity_index: float      # dimensionless exponent of the viscosity law
    molecular_diameter: float   # m, gas-kinetic diameter (mean free path)

    def __post_init__(self):
        for name in ("molecular_mass", "mu_ref", "T_ref",
                     "molecular_diameter"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"GasParams.{name} must be positive")
        if self.viscosity_index < 0.0:
            raise ValueError("GasParams.viscosity_index must be nonnegative")


@dataclass(frozen=True, eq=False)
class VelocityGrid:
    """Cell-centered discrete velocity set.

    ``moments`` is the (Nv, 5) matrix dv (v - v_mid)^p, p = 0..4, about the
    grid midpoint v_mid: ``values @ moments`` gives every velocity moment
    restriction and the equilibrium solve need.  Centring keeps the
    rounding of moments shifted to a mean u at |u - v_mid| / v_th, not at
    |u| / v_th.  ``basis`` is the (3, Nv) matrix [1; x; x^2], x = v - v_mid,
    that turns the equilibrium exponent's coefficients into its values.
    """

    n_velocities: int
    v_min: float
    v_max: float
    dv: float
    velocities: np.ndarray  # (Nv,), strictly increasing
    moments: np.ndarray     # (Nv, 5)
    basis: np.ndarray       # (3, Nv)

    @property
    def v_mid(self) -> float:
        return 0.5 * (self.v_min + self.v_max)

    @property
    def max_speed(self) -> float:
        return float(np.abs(self.velocities).max())


def build_velocity_grid(v_min: float, v_max: float, n_velocities: int) -> VelocityGrid:
    """Cell-centered grid: v_i = v_min + dv/2 + i dv, dv = (v_max - v_min)/Nv."""
    if n_velocities < 2:
        raise ValueError("n_velocities must be at least 2")
    v_min, v_max = float(v_min), float(v_max)
    if not v_min < v_max:
        raise ValueError("v_min must be smaller than v_max")
    dv = (v_max - v_min) / n_velocities
    # the moments dv x^p, p = 0..4, must be normal numbers out to the edge x = +-h
    h = 0.5 * (v_max - v_min)
    if not all(sys.float_info.min <= x <= sys.float_info.max for x in (dv, dv * h * h * h * h)):
        raise ValueError(f"the velocity grid [{v_min:.3e}, {v_max:.3e}] m/s is too wide or too "
                         f"narrow for its moments dv (v - v_mid)^p, p <= 4, to be normal numbers")
    v = v_min + dv / 2.0 + dv * np.arange(n_velocities)
    powers = np.vander(v - 0.5 * (v_min + v_max), 5, increasing=True)
    return VelocityGrid(n_velocities, v_min, v_max, dv, v, dv * powers,
                        np.ascontiguousarray(powers[:, :3].T))


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """Uniform cell-centered spatial grid on [0, L)."""

    n_cells: int
    dx: float
    length: float
    centers: np.ndarray  # (N,)


def build_spatial_grid(length: float, n_cells: int) -> SpatialGrid:
    if n_cells < 1:
        raise ValueError("n_cells must be positive")
    if length <= 0.0:
        raise ValueError("length must be positive")
    dx = length / n_cells
    x = dx / 2.0 + dx * np.arange(n_cells)
    return SpatialGrid(n_cells, dx, float(length), x)


@dataclass
class DistributionField:
    """f(x_j, v_i) on a spatial x velocity grid.

    ``values`` holds scale * f; ``scale`` is 1 for physical values or the
    molecular mass when fields are mass-rescaled for conditioning.
    """

    grid: SpatialGrid
    vgrid: VelocityGrid
    values: np.ndarray  # (N, Nv)
    time: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        expected = (self.grid.n_cells, self.vgrid.n_velocities)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        if not np.all(np.isfinite(self.values)):
            raise NumericalError("distribution field contains non-finite entries")

    def with_values(self, values: np.ndarray, time: float | None = None) -> "DistributionField":
        return replace(self, values=values, time=self.time if time is None else time)


@dataclass
class MacroFields:
    """Per-cell conserved macroscopic state (n, u, T)."""

    number_density: np.ndarray  # 1/m^3
    velocity: np.ndarray        # m/s
    temperature: np.ndarray     # K


def discrete_equilibrium(
    n,
    u,
    T,
    vgrid: VelocityGrid,
    gas: GasParams,
    *,
    out: np.ndarray | None = None,
    weight: np.ndarray | None = None,
) -> np.ndarray:
    """Discrete Maxwell-Boltzmann equilibrium f_eq = A exp(c0 + c1 x + c2 x^2) per cell.

    Returns f_eq of shape (N, Nv) (or (1, Nv) for scalars; a scalar among
    (N,) arrays stands for every cell), whose three dv-weighted sums
    reproduce n, n u and n k_B T / m to the Newton tolerance.  With
    x = v - v_mid, the exponent's coefficients (c1, c2) come from Newton on
    the pair F1 = dv sum (v - u) E = 0,
    F2 = dv sum ((v - u)^2 - k_B T / m) E = 0, and c0 = c1^2 / (4 c2) puts
    the exponent's peak at 0; then A = n / R0 with R0 = dv sum E.  Each
    iteration builds E in (cells, Nv) row layout by one product of the
    (cells, 3) coefficients (c0, c1, c2) with the grid's (3, Nv) basis
    [1; x; x^2], and takes its moments about the grid midpoint from one
    ``vgrid.moments.T @ E.T``.  With b = u - v_mid, those give the
    (v - u)-weighted moments G_p = dv sum x^p (v - u) E and
    H_p = dv sum x^p ((v - u)^2 - k_B T / m) E, so F1 = G_0, F2 = H_0 and
    the 2x2 Jacobian in (c1, c2) is [[G_1, G_2], [H_1, H_2]], all
    arithmetic on (cells,) arrays.  F is homogeneous in E, so holding c0
    within an evaluation leaves the root where it is.  Residuals are
    nondimensionalized with the thermal speed so ``EQUILIBRIUM_TOL`` is a
    relative tolerance.  Newton starts from the continuous Maxwellian's
    c2 = -m / (2 k_B T), c1 = -2 c2 b.  Vectorized over cells: a cell whose
    residual is below the tolerance has its A E written to f_eq and leaves
    the iteration, so the 2x2 update and later iterations see only the
    unconverged cells.  A cell whose E sums on the grid to less than eps of
    its peak, such as a Gaussian colder than the grid resolves or an
    iterate that left the grid, raises ConvergenceError naming the cell, as
    does one whose |u - v_mid| or k_B T / m reaches the grid's half-width h
    or h^2, which no distribution on the grid has, or whose k_B T / m is at
    most eps h^2, a Gaussian too narrow for a grid of fewer than a million
    velocities to resolve; n <= 0, T <= 0 or a non-finite n, u or T raises
    ValueError.

    The product form rounds the exponent to about (|u - v_mid| / v_th)^2 eps
    absolute, the same law as the moment shift; on a grid centred near the
    flow it is a few eps.

    f_eq is written to ``out``, an (N, Nv) array allocated when None; the
    first evaluation builds E in it.  ``weight``, an (N,) array, scales each
    cell's row: the result is then weight * f_eq, at no extra pass.
    """
    n = np.atleast_1d(np.asarray(n, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    T = np.atleast_1d(np.asarray(T, dtype=float))
    if not n.ndim == u.ndim == T.ndim == 1:
        raise ValueError(f"n, u and T must be scalars or 1-D arrays over the cells, got shapes "
                         f"{n.shape}, {u.shape} and {T.shape}")
    if not n.shape == u.shape == T.shape:
        try:
            n, u, T = np.broadcast_arrays(n, u, T)
        except ValueError:
            raise ValueError(
                f"n, u and T must share one shape or be scalars, got shapes "
                f"{n.shape}, {u.shape} and {T.shape}") from None

    def state(j: int) -> str:
        return f"cell {j}: n {n[j]:.3e} 1/m^3, u {u[j]:.3e} m/s, T {T[j]:.3e} K"

    kB, m = BOLTZMANN, gas.molecular_mass
    b = u - vgrid.v_mid
    # no distribution on the grid has |u - v_mid| or k_B T / m reaching its
    # half-width h or h^2, and at k_B T / m <= eps h^2 the starting Gaussian
    # is zero at every velocity but the one nearest u, so the solve cannot
    # fit T; such a cell is named here, before a hot, cold or fast state can
    # overflow the solve's arithmetic
    h = 0.5 * (vgrid.v_max - vgrid.v_min)
    T_max = h * h * m / kB
    T_min = EPS * T_max
    ok = (n > 0.0) & np.isfinite(n) & (T > T_min) & (T < T_max) & (np.abs(b) < h)
    if not ok.all():
        valid = (n > 0.0) & (T > 0.0) & np.isfinite(n) & np.isfinite(u) & np.isfinite(T)
        if not valid.all():
            j = int(np.flatnonzero(~valid)[0])
            raise ValueError(
                f"the equilibrium needs positive finite n and T and finite u: cell {j} has "
                f"n {n[j]:.3e} 1/m^3, u {u[j]:.3e} m/s, T {T[j]:.3e} K")
        j = int(np.flatnonzero(~ok)[0])
        raise ConvergenceError(
            f"no discrete equilibrium on the velocity grid in {state(j)} (the grid "
            f"[{vgrid.v_min:.3e}, {vgrid.v_max:.3e}] m/s holds no distribution with "
            f"|u - v_mid| >= {h:.3e} m/s or T >= {T_max:.3e} K, and resolves none with "
            f"T <= {T_min:.3e} K)")

    feq = np.empty((n.size, vgrid.n_velocities)) if out is None else out
    if feq.shape != (n.size, vgrid.n_velocities):
        raise ValueError(f"out has shape {feq.shape}, the equilibrium needs "
                         f"{(n.size, vgrid.n_velocities)}")
    nw = n
    if weight is not None:
        weight = np.atleast_1d(np.asarray(weight, dtype=float))
        if weight.shape != n.shape:
            raise ValueError(f"weight has shape {weight.shape}, the equilibrium needs {n.shape}")
        nw = n * weight
    # per unconverged cell: its index into feq, its (n w, u - v_mid, T) and Newton unknowns
    idx = np.arange(n.size)
    theta = kB * T / m
    vt = np.sqrt(theta)  # thermal speed scale
    c2 = -m / (2.0 * kB * T)
    c1 = -2.0 * c2 * b

    for _ in range(EQUILIBRIUM_MAX_ITER):
        coef = np.array((c1 * c1 / (4.0 * c2), c1, c2))
        # (cells, Nv); while every cell is active, E is f_eq itself
        E = np.matmul(coef.T, vgrid.basis, out=feq if idx.size == n.size else None)
        np.exp(E, out=E)
        M = vgrid.moments.T @ E.T  # (5, cells): dv sum x^p E
        R0 = M[0]
        # a Gaussian whose values on the grid sum to less than eps of its
        # peak of 1 has left the grid, and any 2x2 step from it is rounding
        lost = ~((R0 > EPS * vgrid.dv) & (R0 < np.inf))
        if lost.any():
            k = int(np.flatnonzero(lost)[0])
            raise ConvergenceError(
                f"equilibrium Newton solve lost the discrete Gaussian in {state(int(idx[k]))} "
                f"(its values on the velocity grid sum to {R0[k] / vgrid.dv:.3e} of its peak)")
        G = M[1:] - b * M[:-1]  # G_p = dv sum x^p (v - u) E
        H = G[1:] - b * G[:-1] - theta * M[:-2]  # H_p = dv sum x^p ((v - u)^2 - theta) E
        F1, F2 = G[0], H[0]
        res = np.maximum(np.abs(F1) / (R0 * vt), np.abs(F2) / (R0 * theta))
        active = res > EQUILIBRIUM_TOL
        # every evaluated cell is written; an active one is overwritten later
        E *= (nw / R0)[:, None]
        if E is not feq:
            feq[idx] = E
        if not active.any():
            return feq

        G1, G2, H1, H2 = G[1], G[2], H[1], H[2]
        if not active.all():
            keep = np.flatnonzero(active)
            idx, nw, b, theta, vt, c1, c2, res, F1, F2, G1, G2, H1, H2 = (
                x[keep] for x in (idx, nw, b, theta, vt, c1, c2, res, F1, F2, G1, G2, H1, H2)
            )
        det = G1 * H2 - G2 * H1
        singular = np.flatnonzero(det == 0.0)
        if singular.size:
            raise NumericalError(
                f"singular Jacobian in equilibrium Newton solve in {state(int(idx[singular[0]]))}")
        c1 = c1 - (F1 * H2 - F2 * G2) / det
        c2n = c2 - (G1 * F2 - H1 * F1) / det
        # keep c2 negative; halve it instead of crossing zero
        bad = c2n >= 0.0
        c2n[bad] = 0.5 * c2[bad]
        c2 = c2n

    k = int(np.argmax(res))  # the worst unconverged cell
    raise ConvergenceError(
        f"equilibrium Newton solve did not converge in {state(int(idx[k]))} "
        f"(residual {res[k]:.3e})",
        residual=float(res[k]),
    )


def equilibrium_field(
    macro: MacroFields,
    grid: SpatialGrid,
    vgrid: VelocityGrid,
    gas: GasParams,
    *,
    scale: float = 1.0,
    time: float = 0.0,
) -> DistributionField:
    """Equilibrium DistributionField matching per-cell (n, u, T)."""
    feq = discrete_equilibrium(
        macro.number_density, macro.velocity, macro.temperature, vgrid, gas
    )
    return DistributionField(grid, vgrid, scale * feq, time=time, scale=scale)


def restrict(
    f: DistributionField | np.ndarray,
    gas: GasParams,
    *,
    vgrid: VelocityGrid | None = None,
    scale: float = 1.0,
) -> MacroFields:
    """Velocity moments of the field: per-cell (n, u, T), scale-aware.

    n = dv sum f, u = dv sum v f / n, T = (m / (k_B n)) dv sum (v - u)^2 f
    with the one-dimensional normalization, from the moments about the grid
    midpoint ``values @ vgrid.moments[:, :3] / scale``.  The product runs on
    whole blocks of ROW_BLOCK rows, the last one filled up with copies of the
    last row, so a row's moments are the same bits at every row position and
    restricting some rows of an array gives those rows of its restriction.
    ``f`` is a field, or the (N, Nv) array of scale * f on ``vgrid``, such as
    a step's input.

    This is the one check that a state is physical: NumericalError names the
    first cell whose n or T is not positive and finite, which is also where
    a non-finite value lands.
    """
    if isinstance(f, DistributionField):
        f, vgrid, scale = f.values, f.vgrid, f.scale
    elif vgrid is None:
        raise ValueError("restricting an array of values needs its velocity grid as vgrid=")
    W = vgrid.moments[:, :3]
    rows = len(f)
    whole = rows - rows % ROW_BLOCK
    with np.errstate(all="ignore"):  # a bad cell is named below instead
        M = np.empty((rows, 3))
        np.matmul(f[:whole], W, out=M[:whole])
        if whole < rows:  # the last block, filled up with copies of the last row
            last = f[np.minimum(np.arange(whole, whole + ROW_BLOCK), rows - 1)]
            M[whole:] = (last @ W)[:rows - whole]
        M /= scale
        n = M[:, 0]
        c = M[:, 1] / n  # u - v_mid
        T = (gas.molecular_mass / (BOLTZMANN * n)) * (M[:, 2] - c * M[:, 1])
    bad = np.flatnonzero(~((n > 0.0) & (T > 0.0) & np.isfinite(n) & np.isfinite(T)))
    if bad.size:
        j = int(bad[0])
        raise NumericalError(
            f"unphysical state: cell {j} has density {n[j]:.3e} 1/m^3 "
            f"and temperature {T[j]:.3e} K")
    return MacroFields(number_density=n, velocity=vgrid.v_mid + c, temperature=T)


def relaxation_frequency(macro: MacroFields, gas: GasParams) -> np.ndarray:
    """BGK relaxation frequency omega = n k_B T / mu(T), per cell."""
    T = macro.temperature
    mu = gas.mu_ref * (T / gas.T_ref) ** gas.viscosity_index
    return macro.number_density * BOLTZMANN * T / mu


def mean_free_path(gas: GasParams, n: float) -> float:
    """lambda = 1 / (sqrt(2) pi d^2 n)."""
    if n <= 0.0:
        raise ValueError("number density must be positive")
    d = gas.molecular_diameter
    inverse = math.sqrt(2.0) * math.pi * d * d * n  # inf on overflow, 0 on underflow
    return 1.0 / inverse if inverse > 0.0 else math.inf
