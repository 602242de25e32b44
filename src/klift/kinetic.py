"""Velocity grids, field containers, discrete equilibrium, and restriction.

All quantities are SI.  Distribution values are number density per velocity,
1/(m^3 (m/s)), optionally multiplied by a scale factor (typically the
molecular mass) that is carried on the field so restriction stays
scale-aware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, NumericalError, ZeroDensityError

BOLTZMANN = 1.380649e-23  # J/K
# Relative residual tolerance and iteration cap of the equilibrium Newton solve.
EQUILIBRIUM_TOL = 1e-13
EQUILIBRIUM_MAX_ITER = 50


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
    |u| / v_th.
    """

    n_velocities: int
    v_min: float
    v_max: float
    dv: float
    velocities: np.ndarray  # (Nv,), strictly increasing
    moments: np.ndarray     # (Nv, 5)

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
    if not v_min < v_max:
        raise ValueError("v_min must be smaller than v_max")
    dv = (v_max - v_min) / n_velocities
    v = v_min + dv / 2.0 + dv * np.arange(n_velocities)
    moments = dv * np.vander(v - 0.5 * (v_min + v_max), 5, increasing=True)
    return VelocityGrid(n_velocities, float(v_min), float(v_max), dv, v, moments)


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


def _shift(M: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Moments (k, N) of x^p g -> moments (k - 1, N) of x^p (x - s) g, per cell."""
    return M[1:] - s * M[:-1]


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
    """Discrete Maxwell-Boltzmann equilibrium f_eq = A exp(-B^2 (v - D)^2) per cell.

    Returns f_eq of shape (N, Nv) (or (1, Nv) for scalars), whose three
    dv-weighted sums reproduce n, n u and n k_B T / m to the Newton
    tolerance.  (B, D) come from Newton on the pair R_1 = 0,
    R_2 - R_0 k_B T / m = 0 with R_j = dv sum_i (v_i - u)^j exp(-B^2 (v_i - D)^2),
    then A = n / R_0.  Each iteration builds E = exp(-B^2 (v - D)^2) in
    (cells, Nv) row layout by one product: with x = v - v_mid and
    a = D - v_mid, the exponent -B^2 (x - a)^2 is the (cells, 3) coefficients
    (-B^2 a^2, 2 B^2 a, -B^2) times the (3, Nv) basis [1; x; x^2].  Its
    moments about the grid midpoint come from one ``vgrid.moments.T @ E.T``,
    are shifted to central moments C_p about D and then to (v - u)-weighted
    sums, so the residual and the closed-form 2x2 Jacobian are arithmetic on
    (cells,) arrays.  Residuals are nondimensionalized with the thermal speed
    so ``EQUILIBRIUM_TOL`` is a relative tolerance.  Newton starts from the
    continuous Maxwellian's B = sqrt(m / (2 k_B T)), D = u.  Vectorized over
    cells: a cell whose residual is below the tolerance has its A E written
    to f_eq and leaves the iteration, so the 2x2 update and later iterations
    see only the unconverged cells.

    The product form rounds the exponent to about (|D - v_mid| / v_th)^2 eps
    absolute, the same law as the moment shift; on a grid centred near the
    flow it is a few eps.

    f_eq is written to ``out``, an (N, Nv) array allocated when None; the
    first evaluation builds E in it.  ``weight``, an (N,) array, scales each
    cell's row: the result is then weight * f_eq, at no extra pass.
    """
    n = np.atleast_1d(np.asarray(n, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    T = np.atleast_1d(np.asarray(T, dtype=float))
    if np.any(n <= 0.0):
        raise ValueError("number density must be positive")
    if np.any(T <= 0.0):
        raise ValueError("temperature must be positive")

    kB, m = BOLTZMANN, gas.molecular_mass
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
    # per unconverged cell: its index into feq, its (n w, u, T) and Newton unknowns
    idx = np.arange(n.size)
    u_a = u
    theta = kB * T / m
    vt = np.sqrt(theta)  # thermal speed scale
    B = np.sqrt(m / (2.0 * kB * T))
    D = u.copy()

    X = np.vander(vgrid.velocities - vgrid.v_mid, 3, increasing=True).T  # [1; x; x^2]
    for _ in range(EQUILIBRIUM_MAX_ITER):
        a = D - vgrid.v_mid
        B2 = B * B
        coef = np.array((-B2 * a * a, 2.0 * B2 * a, -B2))
        # (cells, Nv); while every cell is active, E is f_eq itself
        E = np.matmul(coef.T, X, out=feq if idx.size == n.size else None)
        np.exp(E, out=E)
        M = vgrid.moments.T @ E.T  # (5, cells): dv sum (v - v_mid)^p E
        C = [M[0]]  # central moments C_p = dv sum (v - D)^p E
        for _ in range(4):
            M = _shift(M, a)
            C.append(M[0])
        # with w = v - u = (v - D) + (D - u): W1[p] = dv sum w (v - D)^p E,
        # W2[p] = dv sum w^2 (v - D)^p E
        W1 = _shift(np.array(C), u_a - D)
        W2 = _shift(W1, u_a - D)
        R0 = C[0]
        F1 = W1[0]
        F2 = W2[0] - R0 * theta
        res = np.maximum(np.abs(F1) / (R0 * vt), np.abs(F2) / (R0 * theta))
        active = res > EQUILIBRIUM_TOL
        # every evaluated cell is written; an active one is overwritten later
        E *= (nw / R0)[:, None]
        if E is not feq:
            feq[idx] = E
        if not active.any():
            return feq

        W1_1, W1_2, W2_1, W2_2, C_1, C_2 = W1[1], W1[2], W2[1], W2[2], C[1], C[2]
        if not active.all():
            keep = np.flatnonzero(active)
            (idx, nw, u_a, theta, vt, B, D, res, F1, F2,
             W1_1, W1_2, W2_1, W2_2, C_1, C_2) = (
                x[keep] for x in (idx, nw, u_a, theta, vt, B, D, res, F1, F2,
                                  W1_1, W1_2, W2_1, W2_2, C_1, C_2)
            )
        # dE/dB = -2 B (v - D)^2 E,  dE/dD = 2 B^2 (v - D) E
        J11 = -2.0 * B * W1_2
        J12 = 2.0 * B * B * W1_1
        J21 = -2.0 * B * (W2_2 - C_2 * theta)
        J22 = 2.0 * B * B * (W2_1 - C_1 * theta)
        det = J11 * J22 - J12 * J21
        singular = np.flatnonzero(det == 0.0)
        if singular.size:
            j = int(idx[singular[0]])
            raise NumericalError(
                f"singular Jacobian in equilibrium Newton solve in cell {j}: n {n[j]:.3e} 1/m^3, "
                f"u {u[j]:.3e} m/s, T {T[j]:.3e} K"
            )
        dB = -(F1 * J22 - F2 * J12) / det
        dD = -(J11 * F2 - J21 * F1) / det

        Bn = B + dB
        # keep B positive; halve instead of crossing zero
        bad = Bn <= 0.0
        Bn[bad] = 0.5 * B[bad]
        B = Bn
        D = D + dD

    k = int(np.argmax(res))  # the worst unconverged cell
    j = int(idx[k])
    raise ConvergenceError(
        f"equilibrium Newton solve did not converge in cell {j}: n {n[j]:.3e} 1/m^3, "
        f"u {u[j]:.3e} m/s, T {T[j]:.3e} K (residual {res[k]:.3e})",
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


def restrict(f: DistributionField, gas: GasParams) -> MacroFields:
    """Velocity moments of the field: per-cell (n, u, T), scale-aware.

    n = dv sum f, u = dv sum v f / n, T = (m / (k_B n)) dv sum (v - u)^2 f
    with the one-dimensional normalization, from the moments about the grid
    midpoint ``f.values @ vgrid.moments[:, :3] / scale``.
    """
    vg = f.vgrid
    M = f.values @ vg.moments[:, :3]
    M /= f.scale
    n = M[:, 0]
    bad = np.nonzero(n == 0.0)[0]
    if bad.size:
        raise ZeroDensityError(int(bad[0]))
    c = M[:, 1] / n  # u - v_mid
    T = (gas.molecular_mass / (BOLTZMANN * n)) * (M[:, 2] - c * M[:, 1])
    return MacroFields(number_density=n, velocity=vg.v_mid + c, temperature=T)


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
