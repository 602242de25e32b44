"""Scenario assembly and the flat key=value config format.

A scenario bundles gas constants, surface/ambient boundary parameters, and
the discretization rules (velocity bounds as multiples of the surface
thermal speed, domain length as a multiple of the mean free path, the
stability time step).  Derived quantities are always recomputed from the
primary parameters, never stored.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .kinetic import (
    GasParams,
    MacroFields,
    SpatialGrid,
    VelocityGrid,
    build_spatial_grid,
    build_velocity_grid,
    equilibrium_field,
    mean_free_path,
    relaxation_frequency,
)
from .steppers import (
    BGKStepper,
    BoundaryMode,
    BoundarySpec,
    FluxScheme,
    StepConfig,
    stable_dt,
)

_BOOL_WORDS = {"true": True, "false": False}


@dataclass(frozen=True)
class Scenario:
    """Primary parameters of a laser-ablation run."""

    # gas
    molecular_mass: float
    molecular_diameter: float
    mu_ref: float
    T_ref: float
    viscosity_index: float
    # boundary states, given as pressure/temperature/flow velocity
    ambient_p: float
    ambient_T: float
    ambient_u: float
    surface_p: float
    surface_T: float
    surface_u: float
    # discretization
    n_cells: int
    n_velocities: int
    lambda_multiple: float
    bound_multiple: float = 4.0
    flux: FluxScheme = FluxScheme.UPWIND
    reference_steps: int = 10000
    # lifting defaults
    order_m: int = 0
    solver: str = "newton"
    newton_tol: float = 1e-10
    picard_tol: float = 1e-12
    gmres_tol: float = 1e-6
    gmres_max_iters: int = 200
    mass_rescaled: bool = True
    cfl_safety: float = 0.9

    # ---- derived quantities -------------------------------------------------

    @property
    def gas(self) -> GasParams:
        return GasParams(
            molecular_mass=self.molecular_mass,
            mu_ref=self.mu_ref,
            T_ref=self.T_ref,
            viscosity_index=self.viscosity_index,
            molecular_diameter=self.molecular_diameter,
        )

    @property
    def scale(self) -> float:
        return self.molecular_mass if self.mass_rescaled else 1.0

    def _triple(self, p: float, T: float, u: float) -> tuple[float, float, float]:
        n = p / (self.gas.boltzmann_const * T)
        return n, u, T

    @property
    def ambient(self) -> tuple[float, float, float]:
        return self._triple(self.ambient_p, self.ambient_T, self.ambient_u)

    @property
    def surface(self) -> tuple[float, float, float]:
        return self._triple(self.surface_p, self.surface_T, self.surface_u)

    @property
    def u0(self) -> float:
        """Surface thermal speed sqrt(2 k_B T_s / m): sets the velocity bounds."""
        return float(np.sqrt(2.0 * self.gas.boltzmann_const * self.surface_T / self.molecular_mass))

    @property
    def vgrid(self) -> VelocityGrid:
        b = self.bound_multiple * self.u0
        return build_velocity_grid(-b, b, self.n_velocities)

    @property
    def mean_free_path(self) -> float:
        n_s, _, _ = self.surface
        return mean_free_path(self.gas, n_s)

    @property
    def length(self) -> float:
        return self.lambda_multiple * self.mean_free_path

    @property
    def grid(self) -> SpatialGrid:
        return build_spatial_grid(self.length, self.n_cells)

    def initial_macro(self) -> MacroFields:
        n_a, u_a, T_a = self.ambient
        N = self.n_cells
        return MacroFields(
            number_density=np.full(N, n_a),
            velocity=np.full(N, u_a),
            temperature=np.full(N, T_a),
        )

    @property
    def dt(self) -> float:
        """Stability time step from the initial (ambient) relaxation rate."""
        omega0 = relaxation_frequency(self.initial_macro(), self.gas)
        return stable_dt(self.vgrid, self.grid.dx, omega0, safety=self.cfl_safety)

    def boundary(self) -> BoundarySpec:
        return BoundarySpec(
            mode=BoundaryMode.EQUILIBRIUM_INFLOW,
            left=self.surface,
            right=self.ambient,
        )

    def step_config(self) -> StepConfig:
        return StepConfig(dt=self.dt, scheme=self.flux, boundary=self.boundary())

    def make_stepper(self, *, warm_start: bool = False) -> BGKStepper:
        """The scenario's BGK stepper.

        ``warm_start`` does nothing.  It is kept so that callers which still
        pass it (the benchmark's workloads) keep working; the stepper is a
        pure map and has no equilibrium state to carry between steps.
        """
        return BGKStepper(self.grid, self.vgrid, self.gas, self.step_config(), scale=self.scale)

    def initial_field(self):
        """Ambient-equilibrium initial state."""
        return equilibrium_field(
            self.initial_macro(), self.grid, self.vgrid, self.gas, scale=self.scale
        )

    def with_overrides(self, **kwargs) -> "Scenario":
        return replace(self, **kwargs)

    # ---- config round trip --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "gas.molecular_mass": self.molecular_mass,
            "gas.molecular_diameter": self.molecular_diameter,
            "gas.mu_ref": self.mu_ref,
            "gas.T_ref": self.T_ref,
            "gas.viscosity_index": self.viscosity_index,
            "ambient.p": self.ambient_p,
            "ambient.T": self.ambient_T,
            "ambient.u": self.ambient_u,
            "surface.p": self.surface_p,
            "surface.T": self.surface_T,
            "surface.u": self.surface_u,
            "grid.N": self.n_cells,
            "grid.Nv": self.n_velocities,
            "domain.lambda_multiple": self.lambda_multiple,
            "velocity.bound_multiple": self.bound_multiple,
            "flux.scheme": self.flux.value,
            "run.steps": self.reference_steps,
            "cr.order_m": self.order_m,
            "cr.solver": self.solver,
            "cr.newton_tol": self.newton_tol,
            "cr.picard_tol": self.picard_tol,
            "gmres.tol": self.gmres_tol,
            "gmres.max_iters": self.gmres_max_iters,
            "field.mass_rescaled": self.mass_rescaled,
            "run.cfl_safety": self.cfl_safety,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        d = dict(d)

        def take(key, default=None):
            if key in d:
                return d.pop(key)
            if default is None:
                raise ValueError(f"missing config key {key!r}")
            return default

        sc = cls(
            molecular_mass=float(take("gas.molecular_mass")),
            molecular_diameter=float(take("gas.molecular_diameter")),
            mu_ref=float(take("gas.mu_ref")),
            T_ref=float(take("gas.T_ref")),
            viscosity_index=float(take("gas.viscosity_index")),
            ambient_p=float(take("ambient.p")),
            ambient_T=float(take("ambient.T")),
            ambient_u=float(take("ambient.u", 0.0)),
            surface_p=float(take("surface.p")),
            surface_T=float(take("surface.T")),
            surface_u=float(take("surface.u", 0.0)),
            n_cells=_integer("grid.N", take("grid.N")),
            n_velocities=_integer("grid.Nv", take("grid.Nv")),
            lambda_multiple=float(take("domain.lambda_multiple")),
            bound_multiple=float(take("velocity.bound_multiple", 4.0)),
            flux=FluxScheme(take("flux.scheme", "upwind")),
            reference_steps=_integer("run.steps", take("run.steps", 10000)),
            order_m=_integer("cr.order_m", take("cr.order_m", 0)),
            solver=str(take("cr.solver", "newton")),
            newton_tol=float(take("cr.newton_tol", 1e-10)),
            picard_tol=float(take("cr.picard_tol", 1e-12)),
            gmres_tol=float(take("gmres.tol", 1e-6)),
            gmres_max_iters=_integer("gmres.max_iters", take("gmres.max_iters", 200)),
            mass_rescaled=_boolean("field.mass_rescaled", take("field.mass_rescaled", True)),
            cfl_safety=float(take("run.cfl_safety", 0.9)),
        )
        if d:
            raise ValueError(f"unrecognized config keys: {sorted(d)}")
        return sc


def _integer(key: str, val) -> int:
    """An integral config value; booleans and fractional numbers are rejected."""
    if isinstance(val, numbers.Integral) and not isinstance(val, bool):
        return int(val)
    if isinstance(val, float) and val.is_integer():
        return int(val)
    raise ValueError(f"config key {key!r} must be an integer, got {val!r}")


def _boolean(key: str, val) -> bool:
    if isinstance(val, bool):
        return val
    raise ValueError(f"config key {key!r} must be true or false, got {val!r}")


def parse_config(text: str) -> dict:
    """Flat key=value lines; '#' starts a comment; values typed on parse."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        low = val.lower()
        if low in _BOOL_WORDS:
            out[key] = _BOOL_WORDS[low]
            continue
        try:
            out[key] = int(val)
        except ValueError:
            try:
                out[key] = float(val)
            except ValueError:
                out[key] = val
    return out


def serialize_config(d: dict) -> str:
    lines = []
    for key in sorted(d):
        val = d[key]
        if isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def config_hash(scenario: Scenario) -> str:
    return hashlib.sha256(serialize_config(scenario.to_dict()).encode()).hexdigest()[:16]


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return Scenario.from_dict(parse_config(fh.read()))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(scenario.to_dict()))
