"""Shared fixtures and oracle helpers for the test suite."""

import importlib.resources
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from klift import GasParams, build_velocity_grid, load_scenario

KB = 1.380649e-23


def helium_gas() -> GasParams:
    return GasParams(
        molecular_mass=6.6464731e-27,
        mu_ref=1.9e-5,
        T_ref=273.15,
        viscosity_index=0.66,
        molecular_diameter=2.19e-10,
    )


def reference_vgrid(nv: int):
    """The shipped scenario's velocity bounds at a chosen resolution."""
    return build_velocity_grid(-9987.5, 9987.5, nv)


def scenario_path(name: str):
    return importlib.resources.files("klift") / "scenarios" / name


def load_shipped(name: str):
    return load_scenario(scenario_path(name))


@pytest.fixture
def gas():
    return helium_gas()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def exact_naive_projector(basis) -> np.ndarray:
    """P = I - M^{-1} M0 in exact rational arithmetic, rounded once to float.

    Solves M Y = [I_k; 0] by Gauss-Jordan elimination over ``Fraction`` on
    the float entries of M, so Y is the exact first k columns of M^{-1} and
    P = I - Y M[:k] differs from the true projector only by the final
    rounding: the oracle for what the naive reset would do without the
    ill-conditioned float solve.
    """
    q, k = basis.q, basis.k
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
         for i, row in enumerate(basis.M.tolist())]
    for c in range(q):
        p = next(r for r in range(c, q) if A[r][c] != 0)
        A[c], A[p] = A[p], A[c]
        pivot = A[c][c]
        A[c] = [x / pivot for x in A[c]]
        for r in range(q):
            if r != c and A[r][c] != 0:
                f = A[r][c]
                A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    Y = [row[q:] for row in A]
    Mk = [[Fraction(x) for x in row] for row in basis.M[:k].tolist()]
    return np.array([
        [float(int(i == j) - sum(Y[i][l] * Mk[l][j] for l in range(k))) for j in range(q)]
        for i in range(q)
    ])


class LinearODEStepper:
    """Exact flow of r' = s, s' = (r - s)/eps on (N, 2) states.

    The slow manifold is s = a r with a = (-1 + sqrt(1 + 4 eps))/(2 eps);
    the exact propagator over dt makes the stepper free of time-integration
    error, isolating the constrained-runs extrapolation error.
    """

    def __init__(self, eps: float, dt: float):
        self.eps = eps
        A = np.array([[0.0, 1.0], [1.0 / eps, -1.0 / eps]])
        self._phi = scipy.linalg.expm(dt * A)

    @property
    def slow_slope(self) -> float:
        return (-1.0 + np.sqrt(1.0 + 4.0 * self.eps)) / (2.0 * self.eps)

    def step(self, values):
        return values @ self._phi.T


class IdentityStepper:
    """step = no-op; turns the CR map into reset_conserved alone."""

    def step(self, values):
        return values.copy()
