"""Scenario assembly and the flat key=value config format.

A scenario bundles gas constants, surface/ambient boundary parameters, and
the discretization rules (velocity bounds as multiples of the surface
thermal speed, domain length as a multiple of the mean free path, the
stability time step).  The discretization itself is fixed: upwind fluxes on
mass-rescaled fields.  Derived quantities come from the primary parameters
alone; the gas, the two grids and the time step are built once per scenario,
at first use, and kept.
"""

import math
from functools import cached_property
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .cr import CRConfig, GMRESParams
from .errors import KliftError
from .kinetic import (
    BOLTZMANN,
    GasParams,
    MacroFields,
    SpatialGrid,
    VelocityGrid,
    build_spatial_grid,
    build_velocity_grid,
    discrete_equilibrium,
    equilibrium_field,
    mean_free_path,
    relaxation_frequency,
)
from .steppers import BGKStepper, stable_dt

# The velocity grid spans +-VELOCITY_BOUND_MULTIPLE surface thermal speeds,
# the paper's truncation for every scenario.
VELOCITY_BOUND_MULTIPLE = 4.0


def _key(key: str, *, above=None, **kwargs):
    """A Scenario field stored under ``key`` in the flat config.

    ``above`` is the bound the value must exceed, checked at load.
    """
    return field(metadata={"key": key, "above": above}, **kwargs)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Primary parameters of a laser-ablation run.

    The fields are the config schema: each names its flat config key and
    any lower bound, and a field with a default may be left out of a config
    file.  The gas keys are checked by ``GasParams``, the CR and GMRES keys by
    ``CRConfig``, the domain and the boundary states by building the spatial
    grid and each state's discrete equilibrium.
    """

    # gas
    molecular_mass: float = _key("gas.molecular_mass")
    molecular_diameter: float = _key("gas.molecular_diameter")
    mu_ref: float = _key("gas.mu_ref")
    T_ref: float = _key("gas.T_ref")
    viscosity_index: float = _key("gas.viscosity_index")
    # boundary states, given as pressure/temperature/flow velocity
    ambient_p: float = _key("ambient.p", above=0.0)
    ambient_T: float = _key("ambient.T", above=0.0)
    ambient_u: float = _key("ambient.u", default=0.0)
    surface_p: float = _key("surface.p", above=0.0)
    surface_T: float = _key("surface.T", above=0.0)
    surface_u: float = _key("surface.u", default=0.0)
    # discretization
    n_cells: int = _key("grid.N", above=0)
    n_velocities: int = _key("grid.Nv", above=1)
    lambda_multiple: float = _key("domain.lambda_multiple", above=0.0)
    reference_steps: int = _key("run.steps", above=-1, default=10000)
    # lifting defaults
    solver: str = _key("cr.solver", default=CRConfig.solver)
    newton_tol: float = _key("cr.newton_tol", default=CRConfig.newton_tol)
    picard_tol: float = _key("cr.picard_tol", default=CRConfig.picard_tol)
    gmres_tol: float = _key("gmres.tol", default=GMRESParams.tol)
    gmres_max_iters: int = _key("gmres.max_iters", default=GMRESParams.max_iters)

    def __post_init__(self):
        for f in fields(self):
            above, val = f.metadata["above"], getattr(self, f.name)
            if above is not None and not val > above:
                raise ValueError(
                    f"config key {f.metadata['key']!r} must be greater than {above}, got {val!r}"
                )
        self.gas  # checks the gas.* keys
        self.cr_config()  # checks the cr.* and gmres.* keys
        # a config loads when the run's spatial grid and boundary equilibria (the
        # ghost rows) build and the gas relaxes both states at a positive finite rate
        try:
            self.grid
        except ValueError as exc:
            raise ValueError(
                f"{exc}; the domain is domain.lambda_multiple mean free paths, set by "
                "gas.molecular_diameter and the surface state, in grid.N cells") from None
        vgrid = self.vgrid
        for name, (n, u, T) in (("ambient", self.ambient), ("surface", self.surface)):
            try:
                discrete_equilibrium(n, u, T, vgrid, self.gas)
            except (ValueError, KliftError) as exc:
                raise ValueError(f"the {name} state: {exc}; the velocity grid is set by the "
                                 "surface state and grid.Nv") from None
        with np.errstate(all="ignore"):  # an overflow is reported below
            omega = relaxation_frequency(
                MacroFields(*np.array([self.ambient, self.surface]).T), self.gas)
        if not np.all((omega > 0.0) & (omega < math.inf)):
            raise ValueError(
                f"the relaxation frequency at the ambient and surface states is {omega[0]:.3e} "
                f"and {omega[1]:.3e} 1/s, not positive and finite; it is set by gas.mu_ref, "
                "gas.T_ref and gas.viscosity_index")

    def cr_config(self, order: int = 0) -> CRConfig:
        """The lifting configuration at order ``order``."""
        return CRConfig(
            order_m=order,
            solver=self.solver,
            picard_tol=self.picard_tol,
            newton_tol=self.newton_tol,
            gmres=GMRESParams(tol=self.gmres_tol, max_iters=self.gmres_max_iters),
        )

    # ---- derived quantities -------------------------------------------------

    @cached_property
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
        """Fields hold m f; mass-rescaled values keep the absolute CR tolerances above rounding."""
        return self.molecular_mass

    @property
    def ambient(self) -> tuple[float, float, float]:
        return self.ambient_p / (BOLTZMANN * self.ambient_T), self.ambient_u, self.ambient_T

    @property
    def surface(self) -> tuple[float, float, float]:
        return self.surface_p / (BOLTZMANN * self.surface_T), self.surface_u, self.surface_T

    @property
    def u0(self) -> float:
        """Surface thermal speed sqrt(2 k_B T_s / m): sets the velocity bounds."""
        return float(np.sqrt(2.0 * BOLTZMANN * self.surface_T / self.molecular_mass))

    @cached_property
    def vgrid(self) -> VelocityGrid:
        b = VELOCITY_BOUND_MULTIPLE * self.u0
        return build_velocity_grid(-b, b, self.n_velocities)

    @property
    def mean_free_path(self) -> float:
        n_s, _, _ = self.surface
        return mean_free_path(self.gas, n_s)

    @property
    def length(self) -> float:
        return self.lambda_multiple * self.mean_free_path

    @cached_property
    def grid(self) -> SpatialGrid:
        return build_spatial_grid(self.length, self.n_cells)

    @cached_property
    def dt(self) -> float:
        """Stability time step from the initial (ambient) relaxation rate."""
        omega0 = relaxation_frequency(MacroFields(*np.array([self.ambient]).T), self.gas)
        return stable_dt(self.vgrid, self.grid.dx, omega0)

    def make_stepper(self, *, warm_start: bool = False) -> BGKStepper:
        """The scenario's BGK stepper.

        ``warm_start`` does nothing.  It is kept so that callers which still
        pass it (the benchmark's workloads) keep working; the stepper is a
        pure map and has no equilibrium state to carry between steps.
        """
        return BGKStepper(
            self.grid, self.vgrid, self.gas, self.dt,
            inflow=(self.surface, self.ambient), scale=self.scale,
        )

    def initial_field(self):
        """Ambient-equilibrium initial state."""
        macro = MacroFields(*(np.full(self.n_cells, x) for x in self.ambient))
        return equilibrium_field(macro, self.grid, self.vgrid, self.gas, scale=self.scale)

    def with_overrides(self, **kwargs) -> "Scenario":
        return replace(self, **kwargs)

    # ---- config round trip --------------------------------------------------

    def to_dict(self) -> dict:
        return {f.metadata["key"]: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        d = dict(d)
        kwargs = {}
        for f in fields(cls):
            key = f.metadata["key"]
            if key in d:
                kwargs[f.name] = _parse_value(key, f.type, d.pop(key))
            elif f.default is MISSING:
                raise ValueError(f"missing config key {key!r}")
        if d:
            raise ValueError(f"unrecognized config keys: {sorted(d)}")
        return cls(**kwargs)


_KINDS = {float: "a finite number", int: "an integer"}


def _parse_value(key: str, typ: type, val):
    """``val`` as a value of the field type ``typ``.

    Numbers are never read from booleans or strings: an int must be integral
    (20.0 reads as 20) and a float finite.
    """
    if typ not in _KINDS:
        return typ(val)
    number = isinstance(val, numbers.Real) and not isinstance(val, bool)
    if typ is int and number and (isinstance(val, numbers.Integral) or float(val).is_integer()):
        return int(val)
    if typ is float and number and abs(val) <= sys.float_info.max:
        return float(val)
    raise ValueError(f"config key {key!r} must be {_KINDS[typ]}, got {val!r}")


def parse_config(text: str) -> dict:
    """Flat key=value lines, each key once; '#' starts a comment; values typed on parse."""
    out: dict = {}
    lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise ValueError(f"config key {key!r} is given twice, on lines {lines[key]} and "
                             f"{lineno}")
        lines[key] = lineno
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
        if isinstance(val, float):
            val = repr(val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def config_hash(scenario: Scenario) -> str:
    """The first 16 hex digits of the SHA-256 of the scenario's serialized config."""
    import hashlib  # here, not at import: hashlib loads OpenSSL's libcrypto

    return hashlib.sha256(serialize_config(scenario.to_dict()).encode()).hexdigest()[:16]


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return Scenario.from_dict(parse_config(fh.read()))
