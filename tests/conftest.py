"""Shared fixtures and oracle helpers for the test suite."""

import importlib.resources
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from klift import GasParams, build_velocity_grid, load_scenario
from klift.kinetic import EQUILIBRIUM_MAX_ITER, EQUILIBRIUM_TOL

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


SHIPPED = ("helium_desk.cfg", "helium_L30.cfg", "helium_L30000.cfg")


@pytest.fixture(scope="session")
def shipped_states():
    """{name: (scenario, values)} after 300 steps of each shipped scenario."""
    states = {}
    for name in SHIPPED:
        sc = load_shipped(name)
        stepper = sc.make_stepper()
        values = sc.initial_field().values
        for _ in range(300):
            values = stepper.step(values)
        states[name] = (sc, values)
    return states


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


def weighted_sum_equilibrium(n, u, T, vgrid, gas) -> np.ndarray:
    """Discrete equilibrium by Newton on weighted sums over the full grid.

    Newton on the Gaussian's width and centre (B, D) in
    E = exp(-B^2 (v - D)^2), with every sum formed directly as
    dv sum_i (v_i - u)^j d^k E / dB^a dD^b on (N, Nv) arrays: the oracle for
    the moment-matrix solve, which iterates on the exponent's coefficients
    instead.  Both start from the continuous Maxwellian and stop at the same
    relative residual, so they reach the same root.
    """
    n, u, T = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (n, u, T))
    m = gas.molecular_mass
    v, dv = vgrid.velocities, vgrid.dv
    vt = np.sqrt(KB * T / m)
    B = np.sqrt(m / (2.0 * KB * T))
    D = u.copy()
    w = v[None, :] - u[:, None]
    w2 = w * w
    for _ in range(EQUILIBRIUM_MAX_ITER):
        S = v[None, :] - D[:, None]
        E = np.exp(-((B[:, None] * S) ** 2))
        R0 = dv * E.sum(axis=1)
        F1 = dv * (w * E).sum(axis=1)
        F2 = dv * (w2 * E).sum(axis=1) - R0 * KB * T / m
        res = np.maximum(np.abs(F1) / (R0 * vt), np.abs(F2) / (R0 * vt * vt))
        active = res > EQUILIBRIUM_TOL
        if not active.any():
            return (n / R0)[:, None] * E
        dE_dB = -2.0 * B[:, None] * S * S * E
        dE_dD = 2.0 * (B * B)[:, None] * S * E
        J11 = dv * (w * dE_dB).sum(axis=1)
        J12 = dv * (w * dE_dD).sum(axis=1)
        J21 = dv * (w2 * dE_dB).sum(axis=1) - dv * dE_dB.sum(axis=1) * KB * T / m
        J22 = dv * (w2 * dE_dD).sum(axis=1) - dv * dE_dD.sum(axis=1) * KB * T / m
        det = J11 * J22 - J12 * J21
        dB = -(F1 * J22 - F2 * J12) / det
        dD = -(J11 * F2 - J21 * F1) / det
        Bn = B + np.where(active, dB, 0.0)
        bad = active & (Bn <= 0.0)
        Bn[bad] = 0.5 * B[bad]
        B = Bn
        D = D + np.where(active, dD, 0.0)
    raise AssertionError("weighted-sum equilibrium oracle did not converge")


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

    def step(self, values, out=None):
        return np.matmul(values, self._phi.T, out=out)


class IdentityStepper:
    """step = no-op; turns the CR map into reset_conserved alone."""

    def step(self, values, out=None):
        if out is None:
            return values.copy()
        out[...] = values
        return out
