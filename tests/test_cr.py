"""Constrained-runs weights, the CR map, and the Picard/Newton lifts."""

import math

import re

import numpy as np
import pytest
import scipy.sparse.linalg

import klift.cr
from klift import steppers
from klift import (
    BasisKind,
    ConvergenceError,
    CRConfig,
    GMRESParams,
    build_moment_basis,
    build_spatial_grid,
    build_velocity_grid,
    cr_lift,
    cr_map,
    cr_weights,
    lift_macro,
    restrict,
    restrict_lift_error,
)
from klift.cli import lift_report_rows
from klift.cr import GMRESResult, conserved_drift, cr_jvp, gmres
from klift.errors import NumericalError
from klift.kinetic import DistributionField, discrete_equilibrium, equilibrium_field
from klift.moments import basis_from_matrix, naive_projector, reset_conserved
from klift.steppers import BGKStepper, D1Q3Stepper, Runs

from conftest import IdentityStepper, LinearODEStepper, load_shipped


class PolyStepper:
    """Jordan-block stepper: trajectories are exactly polynomial in the step
    index, with degree set by the highest nonzero state component."""

    def __init__(self, q: int):
        self.J = np.eye(q) + np.diag(np.ones(q - 1), 1)

    def step(self, values, out=None):
        return np.matmul(values, self.J.T, out=out)


class TestWeights:
    def test_table_rows(self):
        np.testing.assert_array_equal(cr_weights(0), [1.0])
        np.testing.assert_array_equal(cr_weights(2), [3.0, -3.0, 1.0])
        np.testing.assert_array_equal(cr_weights(3), [4.0, -6.0, 4.0, -1.0])
        np.testing.assert_array_equal(cr_weights(4), [5.0, -10.0, 10.0, -5.0, 1.0])

    def test_sum_to_one(self):
        for m in range(9):
            assert cr_weights(m).sum() == pytest.approx(1.0, abs=1e-14)

    def test_binomial_form(self):
        for m in range(9):
            w = cr_weights(m)
            for j in range(1, m + 2):
                assert w[j - 1] == (-1.0) ** (j + 1) * math.comb(m + 1, j)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            cr_weights(9)
        with pytest.raises(ValueError):
            cr_weights(-1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CRConfig(order_m=12)
        with pytest.raises(ValueError):
            CRConfig(solver="bisection")
        for name in ("newton_tol", "picard_tol"):
            for bad in (0.0, -1e-10, math.nan):
                with pytest.raises(ValueError, match=name):
                    CRConfig(**{name: bad})
        for bad in (0.0, -1e-6, math.nan):
            with pytest.raises(ValueError, match="tol"):
                GMRESParams(tol=bad)
        for bad in (0, -5):
            with pytest.raises(ValueError, match="max_iters"):
                GMRESParams(max_iters=bad)
        for bad in (0, -1, 2.5):
            with pytest.raises(ValueError, match="restart"):
                GMRESParams(restart=bad)
        assert GMRESParams(restart=1).restart == 1
        assert GMRESParams(restart=None).restart is None


class TestCRMap:
    def test_steady_state_is_fixed_point(self):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        st = D1Q3Stepper(omega=1.2)
        f0 = np.full((8, 3), 0.4)
        for m in range(4):
            np.testing.assert_allclose(cr_map(st, basis, f0, f0, m), f0, atol=1e-14)

    def test_polynomial_trajectory_exactness(self, rng):
        q = 4
        basis = basis_from_matrix(np.eye(q), 1)
        st = PolyStepper(q)
        for m in range(4):
            f0 = np.zeros((5, q))
            f0[:, : m + 1] = rng.random((5, m + 1))
            out = cr_map(st, basis, f0, f0, m)
            np.testing.assert_allclose(out, f0, atol=1e-13)

    def test_d1q3_conserved_moments_match_inverse_form(self, rng):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        st = D1Q3Stepper(omega=1.3)
        P_naive, _ = naive_projector(basis)
        for m in range(4):
            f0 = rng.random((10, 3))
            guess = rng.random((10, 3))
            out_qr = cr_map(st, basis, f0, guess, m)
            out_inv = cr_map(st, basis, f0, guess, m, naive_P=P_naive)
            mom_qr = out_qr @ basis.M.T
            mom_inv = out_inv @ basis.M.T
            # density (conserved) and momentum moments agree exactly
            np.testing.assert_allclose(mom_qr[:, 0], mom_inv[:, 0], atol=1e-13)
            np.testing.assert_allclose(mom_qr[:, 1], mom_inv[:, 1], atol=1e-13)

    def test_d1q3_energy_moment_offset_is_analytic(self, rng):
        # the orthogonal and inverse-based resets are different projectors:
        # their outputs share density and momentum but the energy moments
        # differ by exactly (rho_target - rho_pre) / 3
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        st = D1Q3Stepper(omega=1.3)
        P_naive, _ = naive_projector(basis)
        w = cr_weights(2)
        f0 = rng.random((10, 3))
        guess = rng.random((10, 3))
        f_pre = np.zeros_like(guess)
        cur = guess
        for wj in w:
            cur = st.step(cur)
            f_pre += wj * cur
        out_qr = cr_map(st, basis, f0, guess, 2)
        out_inv = cr_map(st, basis, f0, guess, 2, naive_P=P_naive)
        got = (out_qr - out_inv) @ basis.M[2]
        predicted = (f0.sum(axis=1) - f_pre.sum(axis=1)) / 3.0
        np.testing.assert_allclose(got, predicted, atol=1e-13)

    def test_helium_conserved_drift(self, rng):
        sc = load_shipped("helium_L30000.cfg").with_overrides(n_cells=16)
        stepper = sc.make_stepper()
        basis = build_moment_basis(BasisKind.MONOMIAL, sc.vgrid, 3)
        f0 = sc.initial_field().values
        guess = f0 * (1.0 + 0.05 * rng.random(f0.shape))
        for m in range(4):
            out = cr_map(stepper, basis, f0, guess, m)
            assert conserved_drift(basis, out, f0) < 1e-10

    def test_shape_mismatch(self):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        with pytest.raises(ValueError):
            cr_map(D1Q3Stepper(1.0), basis, np.zeros((2, 3)), np.zeros((3, 3)), 0)

    def test_non_finite_extrapolation_names_the_first_cell(self):
        # the second step multiplies by 1e10, which overflows cells 3 and 5 only
        class OverflowingStepper:
            steps = 0

            def step(self, values, out=None):
                self.steps += 1
                with np.errstate(over="ignore"):
                    return np.multiply(values, 1e10 if self.steps == 2 else 1.0, out=out)

        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        f0 = np.ones((6, 3))
        guess = f0.copy()
        guess[3, 1] = guess[5, 0] = 1e300
        with pytest.raises(NumericalError, match=r"^non-finite extrapolation in CR map "
                                                 r"\(order 1\), first in cell 3$"):
            cr_map(OverflowingStepper(), basis, f0, guess, 1)


def reference_lift(name, steps, order, solver, *, tiled=False, **overrides):
    """Lift the (n, u, T) of a reference state after ``steps`` steps at one order.

    The reference starts from the ambient equilibrium solved in every cell,
    or, ``tiled``, from one cell's solve repeated on every cell.
    """
    sc = load_shipped(name).with_overrides(solver=solver, **overrides)
    stepper = sc.make_stepper()
    values = sc.initial_field().values
    if tiled:
        row = sc.scale * discrete_equilibrium(*sc.ambient, sc.vgrid, sc.gas)
        values = np.tile(row, (sc.n_cells, 1))
    for _ in range(steps):
        values = stepper.step(values)
    reference = sc.initial_field().with_values(values)
    basis = build_moment_basis(BasisKind.MONOMIAL, sc.vgrid, 3)
    return lift_macro(stepper, basis, restrict(reference, sc.gas), sc.gas, sc.cr_config(order),
                      grid=sc.grid, vgrid=sc.vgrid, scale=sc.scale)


class TestPicard:
    def test_steady_state_one_iteration(self):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        st = D1Q3Stepper(omega=1.2)
        f0 = np.full((6, 3), 0.5)
        # the first map already passes: no correction, and f0 comes back reset
        out, report = cr_lift(st, basis, f0, CRConfig(order_m=0, solver="picard"))
        assert report.iterations == 0
        assert len(report.residual_history) == 1
        np.testing.assert_allclose(out, f0, atol=1e-14)

    def test_ode_slow_manifold(self):
        eps = 0.01
        st = LinearODEStepper(eps, dt=eps)
        basis = basis_from_matrix(np.eye(2), 1)
        r0 = 2.0
        f0 = np.array([[r0, 0.0]])
        cfg = CRConfig(order_m=0, solver="picard", picard_tol=1e-14)
        out, report = cr_lift(st, basis, f0, cfg)
        a = st.slow_slope
        assert out[0, 0] == pytest.approx(r0, abs=1e-13)
        assert abs(out[0, 1] - a * r0) <= 10.0 * eps * abs(r0)
        assert report.residual_history[-1] < 1e-14

    def test_non_convergence_raises_with_history(self, rng, monkeypatch):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        st = D1Q3Stepper(omega=1.9)
        f0 = rng.random((6, 3))
        monkeypatch.setattr(klift.cr, "MAX_PICARD_ITERS", 3)
        cfg = CRConfig(order_m=0, solver="picard", picard_tol=1e-16)
        with pytest.raises(ConvergenceError, match="did not reach") as exc:
            cr_lift(st, basis, f0, cfg)
        # three corrections: the residual of f0 and of each corrected iterate
        assert len(exc.value.history) == 4
        assert exc.value.residual == exc.value.history[-1]

    @staticmethod
    def _check_failed_map(rng, solver, iteration, residuals):
        # a step that fails ends in ConvergenceError, not in the step's own
        # NumericalError
        class FailingStepper(D1Q3Stepper):
            steps = 0

            def step(self, values, out=None, **runs):
                self.steps += 1
                if self.steps > 4:
                    raise NumericalError("unphysical state entering a step")
                return super().step(values, out, **runs)

        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        cfg = CRConfig(order_m=0, solver=solver, picard_tol=1e-16, newton_tol=1e-16)
        name = solver.capitalize()
        with pytest.raises(ConvergenceError, match=f"^{name} CR iteration {iteration} failed") as exc:
            cr_lift(FailingStepper(omega=1.9), basis, rng.random((6, 3)), cfg)
        assert len(exc.value.history) == residuals
        assert exc.value.residual == exc.value.history[-1]
        assert isinstance(exc.value.__cause__, NumericalError)
        assert "unphysical state entering a step" in str(exc.value)

    def test_failed_map_raises_with_history(self, rng):
        # Picard fails in the fifth map of f, after four corrections
        self._check_failed_map(rng, "picard", 4, 4)

    def test_failed_gmres_matvec_map_raises_with_history(self, rng):
        # Newton fails in a GMRES matvec of its first step
        self._check_failed_map(rng, "newton", 0, 1)

    def test_diverging_lift_stops_with_history(self):
        # the CR map at m = 2 is unstable on this 50-step state: three rising
        # residuals end the lift before an iterate leaves the physical states
        with pytest.raises(ConvergenceError, match=r"^Picard CR iteration diverging: ") as exc:
            reference_lift("helium_L30.cfg", 50, 2, "picard", n_cells=20, n_velocities=16)
        history = exc.value.history
        assert len(history) == 3 and history[0] < history[1] < history[2]
        assert exc.value.residual == history[-1]


class TestRisingResiduals:
    @pytest.mark.parametrize("solver", ["newton", "picard"])
    def test_tolerance_below_the_rounding_floor_stalls(self, solver):
        # 1e-30 lies far below the rounding of ||f - C f|| (eps ||f|| = 5.4e-20
        # on this state): the residuals settle and wander at that floor, which
        # is a stall, not a divergence.  Picard also lifts from a reference
        # started from one ambient row on every cell, whose tails differ from
        # the N-cell solve's by up to 101 ulp: how the residuals wander there
        # depends on such last bits, and the verdict must not
        name = solver.capitalize()
        for tiled in (False, True) if solver == "picard" else (False,):
            with pytest.raises(ConvergenceError, match=(
                    rf"^{name} CR iteration stalled at the rounding floor: residuals .* lie "
                    r"within 100 eps \|\|f\|\| = \S+, so the tolerance 1e-30 lies below it "
                    r"\(m = 0\)$")) as exc:
                reference_lift("helium_desk.cfg", 5, 0, solver, tiled=tiled, n_cells=8,
                               n_velocities=16, newton_tol=1e-30, picard_tol=1e-30)
            history = exc.value.history
            # the last three stay at the floor without a new minimum
            assert max(history[-3:]) < 1e-18
            assert min(history[-3:]) >= min(history[:-3])
            assert exc.value.residual == history[-1]

    @pytest.mark.parametrize("order", [2, 3])
    def test_full_scale_picard_still_diverges(self, order):
        # the CR-map Jacobian's radius exceeds 1 at m = 2 and 3 on the
        # full-scale states (1.73 and 2.84 at 300 steps): Picard diverges far
        # above the rounding floor
        with pytest.raises(ConvergenceError, match=(
                rf"^Picard CR iteration diverging: residuals \S+, \S+, \S+ \(m = {order}\)$")) as exc:
            reference_lift("helium_L30000.cfg", 200, order, "picard")
        history = exc.value.history
        assert history[-3] < history[-2] < history[-1]
        assert history[-3] > 1e-9


class TestNewton:
    def test_affine_model_single_newton_step(self, rng):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        st = D1Q3Stepper(omega=1.3)
        f0 = rng.random((8, 3)) + 0.5
        # the FD matvec of a linear map is accurate to ~sqrt(eps), so the
        # inner solve is asked for 1e-8 and one Newton step lands below 1e-6
        cfg = CRConfig(
            order_m=0, solver="newton", newton_tol=1e-6,
            gmres=GMRESParams(tol=1e-8, max_iters=200),
        )
        out, report = cr_lift(st, basis, f0, cfg)
        assert report.iterations == 1
        assert report.residual_history[-1] < 1e-6
        assert conserved_drift(basis, out, f0) < 1e-12

    def test_cross_solver_agreement(self):
        sc = load_shipped("helium_desk.cfg").with_overrides(n_cells=20)
        stepper = sc.make_stepper()
        basis = build_moment_basis(BasisKind.MONOMIAL, sc.vgrid, 3)
        reference = sc.initial_field().values
        for _ in range(50):
            reference = stepper.step(reference)
        field = sc.initial_field().with_values(reference)
        macro = restrict(field, sc.gas)
        common = dict(grid=sc.grid, vgrid=sc.vgrid, scale=sc.scale)
        f_p, _ = lift_macro(stepper, basis, macro, sc.gas, CRConfig(order_m=0, solver="picard"), **common)
        f_n, _ = lift_macro(stepper, basis, macro, sc.gas, CRConfig(order_m=0, solver="newton"), **common)
        scale = np.abs(f_p.values).max()
        np.testing.assert_allclose(f_n.values, f_p.values, atol=1e-8 * scale)

    def test_residual_history_logged(self, rng):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        st = D1Q3Stepper(omega=1.3)
        f0 = rng.random((4, 3)) + 0.5
        _, report = cr_lift(st, basis, f0, CRConfig(order_m=1, solver="newton"))
        assert all(np.isfinite(report.residual_history))
        assert report.gmres_iterations > 0
        rows = lift_report_rows(report.residual_history)
        assert len(rows) == len(report.residual_history)

    def test_report_rows_fill_drift_and_seconds_on_final_row(self):
        assert lift_report_rows([1e-3, 1e-7, 1e-11], 2e-16, 0.5) == [
            (1, 1e-3, "", ""), (2, 1e-7, "", ""), (3, 1e-11, 2e-16, 0.5)]


class TestErrorDiagnostics:
    def _pair(self, rng):
        vg = build_velocity_grid(-2.0, 2.0, 8)
        grid = build_spatial_grid(1.0, 4)
        a = DistributionField(grid, vg, rng.random((4, 8)) + 0.2)
        b = DistributionField(grid, vg, rng.random((4, 8)) + 0.2)
        return a, b

    def test_identical_fields(self, rng):
        a, _ = self._pair(rng)
        err = restrict_lift_error(a, a)
        assert err.two_norm == 0.0
        assert err.spectral_norm == 0.0
        assert err.exact_zero.all()
        np.testing.assert_array_equal(err.relative_error, 0.0)

    def test_double_loop_oracle(self, rng):
        ref, lifted = self._pair(rng)
        err = restrict_lift_error(ref, lifted)
        sq = 0.0
        for j in range(4):
            row = 0.0
            for i in range(8):
                d = lifted.values[j, i] - ref.values[j, i]
                sq += d * d
                row += abs(d)
                assert err.relative_error[j, i] == pytest.approx(
                    abs(d) / abs(ref.values[j, i]), rel=1e-14
                )
            assert err.cell_abs_sums[j] == pytest.approx(row, rel=1e-14)
        assert err.two_norm == pytest.approx(math.sqrt(sq), rel=1e-14)

    def test_spectral_norm_is_largest_singular_value(self, rng):
        ref, lifted = self._pair(rng)
        err = restrict_lift_error(ref, lifted)
        s = np.linalg.svd(lifted.values - ref.values, compute_uv=False)
        assert err.spectral_norm == pytest.approx(s[0], rel=1e-12)
        assert err.spectral_norm <= err.two_norm + 1e-15

    def test_grid_mismatch(self, rng):
        vg = build_velocity_grid(-2.0, 2.0, 8)
        grid = build_spatial_grid(1.0, 4)
        a = DistributionField(grid, vg, rng.random((4, 8)) + 0.2)
        vg2 = build_velocity_grid(-3.0, 3.0, 8)
        b = DistributionField(grid, vg2, rng.random((4, 8)) + 0.2)
        with pytest.raises(ValueError, match="mismatched velocity grids"):
            restrict_lift_error(a, b)
        c = DistributionField(build_spatial_grid(1.0, 5), vg, rng.random((5, 8)) + 0.2)
        with pytest.raises(ValueError, match="mismatched grids"):
            restrict_lift_error(a, c)


class TestConservedDrift:
    def test_zero_for_identical(self, rng):
        basis = build_moment_basis(BasisKind.MONOMIAL, np.sort(rng.normal(size=8)), 3)
        f = rng.random((5, 8))
        assert conserved_drift(basis, f, f) == 0.0

    def test_insensitive_to_zero_momentum(self):
        # a symmetric state has momentum ~ 0; drift must not divide by it
        basis = build_moment_basis(BasisKind.MONOMIAL, np.array([-2.0, -1.0, 1.0, 2.0]), 3)
        f0 = np.array([[1.0, 2.0, 2.0, 1.0]])
        f = f0 + 1e-14
        assert conserved_drift(basis, f, f0) < 1e-12

    def test_identity_stepper_reduces_to_reset(self, rng):
        basis = build_moment_basis(BasisKind.MONOMIAL, np.sort(rng.normal(size=6)), 3)
        f0, guess = rng.random((4, 6)), rng.random((4, 6))
        out = cr_map(IdentityStepper(), basis, f0, guess, 0)
        np.testing.assert_allclose(  # a reset to zero moments strips the conserved components
            reset_conserved(basis, out, np.zeros_like(out)),
            reset_conserved(basis, guess, np.zeros_like(guess)), atol=1e-13
        )
        assert conserved_drift(basis, out, f0) < 1e-12


def desk_lift_problem():
    """A desk-scale reference 20 steps in, its macro fields, stepper and basis."""
    sc = load_shipped("helium_desk.cfg")
    stepper = sc.make_stepper()
    values = sc.initial_field().values
    for _ in range(20):
        values = stepper.step(values)
    reference = sc.initial_field().with_values(values, time=20 * sc.dt)
    basis = build_moment_basis(BasisKind.MONOMIAL, sc.vgrid, 3)
    common = dict(grid=sc.grid, vgrid=sc.vgrid, scale=sc.scale, time=reference.time)
    return sc, stepper, basis, restrict(reference, sc.gas), common


def scipy_gmres(matvec, b, params, runs=None):
    """scipy.sparse.linalg.gmres called as the Newton lift called it before klift.cr.gmres.

    restart=None meant min(n, max_iters); the iteration count is the number
    of pr_norm callbacks.  The true residual is not computed (NaN).  A b of
    any shape is solved flattened, with matvec seeing and x taking b's shape.
    With ``runs``, b is stored by them and scipy solves the grid's system:
    each product stores its argument by the runs, which the matvec may cut,
    and expands the result.
    """
    if runs is not None:
        solve = scipy_gmres(lambda v: runs.expand(matvec(runs.store(v))).copy(),
                            runs.expand(b).copy(), params)
        return solve._replace(x=runs.store(solve.x))
    n = b.size
    restart = params.restart if params.restart is not None else min(n, params.max_iters)
    estimates = []
    x, info = scipy.sparse.linalg.gmres(
        scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=lambda v: np.reshape(matvec(v.reshape(b.shape)), -1), dtype=float),
        b.reshape(-1), rtol=params.tol, atol=0.0, restart=restart,
        maxiter=max(1, params.max_iters // restart),
        callback=estimates.append, callback_type="pr_norm",
    )
    return GMRESResult(x.reshape(b.shape), info, len(estimates),
                       estimates[-1] if estimates else 0.0, math.nan)


def shift_matvec(v):
    """The cyclic shift: GMRES from x = 0 on b = e_0 makes no progress before n iterations."""
    return np.roll(v, 1)


def unit(n, i=0):
    e = np.zeros(n)
    e[i] = 1.0
    return e


class TestGMRES:
    N = 40

    def _systems(self):
        """(name, matvec, b, params) for the oracle comparison; all nonsymmetric."""
        rng = np.random.default_rng(7)
        n = self.N
        g = rng.standard_normal((n, n)) / math.sqrt(n)
        nilpotent = np.zeros((n, n))
        nilpotent[1, 0], nilpotent[2, 1] = 2.0, 3.0  # rank 2: the Krylov space of e_0 has dimension 3
        shifted = np.eye(n) + 0.9 * g + np.diag(np.linspace(0.0, 3.0, n))
        cases = [
            ("one cycle", np.eye(n) + 0.5 * g, rng.standard_normal(n),
             GMRESParams(tol=1e-10, max_iters=n)),
            ("restart cycles", shifted, rng.standard_normal(n),
             GMRESParams(tol=1e-10, max_iters=400, restart=8)),
            ("info = maxiter", np.diag(np.linspace(1.0, 100.0, n)) + 3.0 * g,
             rng.standard_normal(n), GMRESParams(tol=1e-12, max_iters=12, restart=4)),
            ("happy breakdown", np.eye(n) + nilpotent, unit(n),
             GMRESParams(tol=1e-14, max_iters=n)),
            # breakdown on a singular pivot: e_0 is not in the range, x stays 0
            ("singular", nilpotent, unit(n), GMRESParams(tol=1e-14, max_iters=n)),
            ("zero rhs", np.eye(n) + 0.5 * g, np.zeros(n), GMRESParams(tol=1e-10, max_iters=n)),
        ]
        systems = [(name, lambda v, A=A: A @ v, b, params) for name, A, b, params in cases]
        # a matvec that is not quite linear, as a forward difference is not: the
        # estimate and the true residual part, and later cycles adapt ptol
        systems.append(("inexact matvec", lambda v: shifted @ v + 1e-6 * np.sin(1e3 * v),
                        rng.standard_normal(n), GMRESParams(tol=1e-9, max_iters=200, restart=20)))
        return systems

    def test_matches_scipy(self):
        outcomes = {}
        for name, matvec, b, params in self._systems():
            ours = gmres(matvec, b, params)
            ref = scipy_gmres(matvec, b, params)
            assert ours.info == ref.info, name
            assert ours.iterations == ref.iterations, name
            assert np.linalg.norm(ours.x - ref.x) <= 1e-12 * np.linalg.norm(ref.x), name
            assert ours.estimate == pytest.approx(ref.estimate, rel=1e-6, abs=1e-300), name
            norm_b = np.linalg.norm(b)
            true = np.linalg.norm(b - matvec(ours.x)) / norm_b if norm_b else 0.0
            assert ours.residual == pytest.approx(true, rel=1e-12), name
            outcomes[name] = (ours.info, ours.iterations)
        # each case reaches the path it is named for
        assert outcomes["one cycle"][0] == 0 and outcomes["one cycle"][1] < self.N
        assert outcomes["restart cycles"][0] == 0 and outcomes["restart cycles"][1] > 3 * 8
        assert outcomes["info = maxiter"] == (3, 12)
        assert outcomes["happy breakdown"] == (0, 3)
        assert outcomes["singular"] == (1, 3)
        assert outcomes["zero rhs"] == (0, 0)
        assert outcomes["inexact matvec"][0] == 0 and outcomes["inexact matvec"][1] > 20

    @staticmethod
    def _long_systems():
        """Two long nonsymmetric systems, n = 200 and 300, condition ~1e2 and ~1e3."""
        rng = np.random.default_rng(3)
        systems = {}
        for n, decades in ((200, 2), (300, 3)):
            A = np.diag(np.logspace(0.0, decades, n)) + rng.standard_normal((n, n)) / math.sqrt(n)
            systems[n] = (A, rng.standard_normal(n))
        return systems

    @pytest.mark.parametrize("n, tol, iterations", [
        # the shipped tolerance: most vectors take one pass
        (200, 1e-6, 73),
        # fails if growth restarts from 1 after a second pass: (info, iterations) = (1, 106)
        (200, 1e-10, 107),
        (200, 1e-12, 119),
        # the limit is under 1, so every vector takes both passes; fails
        # under Rutishauser's test alone (h1 < 0.1 h0): (1, 291)
        (300, 1e-13, 216),
    ])
    def test_long_solves_match_scipy(self, n, tol, iterations):
        A, b = self._long_systems()[n]
        params = GMRESParams(tol=tol, max_iters=n)
        ours = gmres(lambda v: A @ v, b, params)
        ref = scipy_gmres(lambda v: A @ v, b, params)
        assert (ours.info, ours.iterations) == (ref.info, ref.iterations) == (0, iterations)
        assert ours.residual <= tol
        if tol < 2e-13:
            assert ours.reorthogonalized == ours.iterations
        else:
            assert 0 < ours.reorthogonalized < ours.iterations

    def test_ill_conditioned_basis_stays_orthogonal(self):
        # condition ~1e12: one Gram-Schmidt pass per vector loses orthogonality
        # and stops 6x above the residual that modified Gram-Schmidt reaches;
        # at tol 1e-14 the rule takes the second pass on every vector instead
        rng = np.random.default_rng(7)
        n = self.N
        A = np.diag(np.logspace(0.0, 12.0, n)) + rng.standard_normal((n, n)) / math.sqrt(n)
        b = rng.standard_normal(n)
        params = GMRESParams(tol=1e-14, max_iters=n - 1)
        ours = gmres(lambda v: A @ v, b, params)
        ref = scipy_gmres(lambda v: A @ v, b, params)
        assert (ours.info, ours.iterations) == (ref.info, ref.iterations) == (1, n - 1)
        assert ours.reorthogonalized == n - 1
        ref_residual = np.linalg.norm(b - A @ ref.x) / np.linalg.norm(b)
        assert ours.residual == pytest.approx(ref_residual, rel=1e-2)

    def test_restart_longer_than_budget_runs_the_budget(self):
        out = gmres(shift_matvec, unit(400), GMRESParams(tol=1e-8, max_iters=200, restart=300))
        assert (out.info, out.iterations) == (1, 200)
        assert out.estimate == out.residual == 1.0

    def test_last_cycle_takes_what_is_left(self):
        out = gmres(shift_matvec, unit(400), GMRESParams(tol=1e-8, max_iters=20, restart=7))
        assert (out.info, out.iterations) == (3, 20)  # 7 + 7 + 6

    def test_shipped_and_criterion_7_budgets(self):
        # restart=None: one cycle of max_iters
        out = gmres(shift_matvec, unit(400), GMRESParams(tol=1e-6, max_iters=200))
        assert (out.info, out.iterations) == (1, 200)
        # criterion 7's m = 3 solve: ten cycles of 300
        out = gmres(shift_matvec, unit(400), GMRESParams(tol=1e-3, max_iters=3000, restart=300))
        assert (out.info, out.iterations) == (10, 3000)
        # a cycle of n iterations solves the shift exactly
        out = gmres(shift_matvec, unit(400), GMRESParams(tol=1e-6, max_iters=3000, restart=400))
        assert (out.info, out.iterations) == (0, 400)
        np.testing.assert_allclose(out.x, unit(400, 399), atol=1e-12)

    def test_stagnation_message_reports_iterations_and_residuals(self):
        sc, stepper, basis, macro, common = desk_lift_problem()
        # the FD matvec cannot take the true residual below ~3e-9 here
        cfg = CRConfig(order_m=1, gmres=GMRESParams(tol=1e-10, max_iters=30))
        with pytest.raises(ConvergenceError) as exc:
            lift_macro(stepper, basis, macro, sc.gas, cfg, **common)
        msg = str(exc.value)
        assert msg.startswith("GMRES stagnated in Newton step 0 (info=1): ")
        found = re.search(
            r"(\d+) inner iterations, estimated relative residual (\S+) and true "
            r"relative residual (\S+) against rtol (\S+)$", msg)
        assert found, msg
        iters, estimate, true, rtol = int(found[1]), float(found[2]), float(found[3]), float(found[4])

        # the same first Newton system, solved again outside the lift
        f0 = equilibrium_field(macro, sc.grid, sc.vgrid, sc.gas, scale=sc.scale).values

        def apply_map(s, out=None):
            return cr_map(stepper, basis, f0, s, 1, out=out)

        Cf = apply_map(f0)
        b = (Cf - f0).ravel()

        def matvec(v):
            return v - cr_jvp(apply_map, f0, Cf, v.reshape(f0.shape)).ravel()

        solve = gmres(matvec, b, cfg.gmres)
        assert iters == solve.iterations < cfg.gmres.max_iters  # the estimate ended the cycle
        assert rtol == cfg.gmres.tol
        assert estimate == pytest.approx(solve.estimate, rel=1e-3) and estimate <= rtol
        true_residual = np.linalg.norm(b - matvec(solve.x)) / np.linalg.norm(b)
        assert true == pytest.approx(true_residual, rel=1e-3)
        assert true > 10.0 * rtol

    @staticmethod
    def _spreading_system(N=200, q=3):
        """A translation-invariant block-tridiagonal operator on (N, q) arrays
        (zero beyond the ends), and a b nonzero on rows 0-2 and constant on
        rows 100-179, zero elsewhere: each product spreads a vector one row
        further and wears the constant block down by a row at each end, so
        runs are cut on every iteration, and runs longer than one row are not
        all zero."""
        rng = np.random.default_rng(11)
        D = 3.0 * np.eye(q) + rng.standard_normal((q, q)) / math.sqrt(q)
        L, U = 0.6 * rng.standard_normal((2, q, q)) / math.sqrt(q)

        def matvec(v):
            out = v @ D.T
            out[1:] += v[:-1] @ L.T
            out[:-1] += v[1:] @ U.T
            return out

        b = np.zeros((N, q))
        b[:3] = rng.standard_normal((3, q))
        b[100:180] = rng.standard_normal(q)
        return matvec, b

    @pytest.mark.parametrize("restart, norm_term", [(None, 0.0), (7, 0.0), (7, 0.01)])
    def test_runs_that_split_match_scipy(self, restart, norm_term):
        linear, b = self._spreading_system()
        # a term that is zero on the unit Arnoldi vectors but not on x, and
        # differs between rows 149 and 150, where the runs start cut
        upper = (np.arange(len(b)) >= 150)[:, None]
        runs = Runs(b, upper)

        def matvec(v):
            return linear(v) + norm_term * max(0.0, float(np.linalg.norm(v)) - 2.0) * upper

        def stored_matvec(v):
            # the operator is one step's stencil: it acts on the rows of a
            # one-step layout, and its result is stored by the runs it cuts
            term = norm_term * max(0.0, runs.norm(v) - 2.0)
            out = runs.refine(linear(np.take(v, runs.layout(1), axis=0)), np.empty_like(v))
            out[: runs.count] += term * (runs.first[: runs.count] >= 150)[:, None]
            return out

        params = GMRESParams(tol=1e-10, max_iters=200, restart=restart)
        ours = gmres(stored_matvec, runs.store(b), params, runs)
        ref = scipy_gmres(matvec, b, params)
        assert (ours.info, ours.iterations) == (ref.info, ref.iterations)
        assert ours.info == 0 and ours.iterations > (7 if restart else 10)
        x = runs.expand(ours.x)
        assert x.shape == b.shape
        assert np.linalg.norm(x - ref.x) <= 1e-12 * np.linalg.norm(ref.x)
        true = np.linalg.norm(b - matvec(x)) / np.linalg.norm(b)
        assert ours.residual == pytest.approx(true, rel=1e-12)
        # b's 6 runs are cut as the vectors spread, but the far rows never differ
        assert ours.runs == runs.count and 6 < ours.runs < len(b)

    @pytest.mark.parametrize("restart", [None, 7])
    def test_runs_that_outgrow_the_basis_match_scipy(self, restart):
        # the basis holds twice b's runs per vector at first and grows as the
        # matvecs cut the runs: past that inside the first cycle, and at its
        # true-residual matvec up to every row a run, through a term that is
        # zero on the unit Arnoldi vectors, nonzero on x and different on
        # every row
        linear, b = self._spreading_system()
        ramp = (np.arange(len(b)) / len(b))[:, None]
        runs = Runs(b)
        k0, log = runs.count, []

        def matvec(v):
            return linear(v) + 0.01 * max(0.0, float(np.linalg.norm(v)) - 2.0) * ramp

        def stored_matvec(v):
            # a layout of len(v) steps holds every row of the grid, in order
            vnorm = runs.norm(v)
            rows = linear(np.take(v, runs.layout(len(v)), axis=0))
            out = runs.refine(rows + 0.01 * max(0.0, vnorm - 2.0) * ramp, np.empty_like(v))
            log.append((runs.count, abs(vnorm - 1.0) > 1e-9))  # the runs it leaves; v is x
            return out

        params = GMRESParams(tol=1e-10, max_iters=200, restart=restart)
        ours = gmres(stored_matvec, runs.store(b), params, runs)
        ref = scipy_gmres(matvec, b, params)
        assert (ours.info, ours.iterations) == (ref.info, ref.iterations)
        x = runs.expand(ours.x)
        assert np.linalg.norm(x - ref.x) <= 1e-12 * np.linalg.norm(ref.x)
        # the rows per vector after each matvec: 2 k0 at first, doubled, at
        # most N, until the runs fit
        caps = [2 * k0]
        for count, _ in log:
            caps.append(caps[-1])
            while caps[-1] < count:
                caps[-1] = min(2 * caps[-1], len(b))
        first = next(i for i, (_, is_x) in enumerate(log) if is_x)
        assert len(set(caps[: first + 1])) >= 3  # grown twice or more in the first cycle
        assert caps[first] < caps[first + 1] == ours.runs == len(b)  # and at its x, to N

    def test_rows_without_runs_solve_bit_for_bit_as_one_row(self, rng):
        N, q = 30, 4
        A = np.eye(N * q) + rng.standard_normal((N * q, N * q)) / math.sqrt(N * q)
        b = rng.standard_normal((N, q))
        assert (b[1:] != b[:-1]).any(axis=1).all()
        params = GMRESParams(tol=1e-10, max_iters=200, restart=20)
        rows = gmres(lambda v: (A @ v.reshape(-1)).reshape(N, q), b, params)
        flat = gmres(lambda v: A @ v, b.reshape(-1), params)
        assert rows.iterations > 20  # the restart path runs too
        assert (rows.runs, flat.runs) == (N, 1)
        assert rows.x.shape == (N, q)
        assert rows.x.tobytes() == flat.x.tobytes()
        assert (rows.info, rows.iterations, rows.estimate, rows.residual) == (
            flat.info, flat.iterations, flat.estimate, flat.residual)

    def test_lift_matches_scipy_solver(self, monkeypatch):
        sc, stepper, basis, macro, common = desk_lift_problem()
        for m in (0, 1, 3):
            cfg = sc.cr_config(m)
            solves = []

            def recording_gmres(*args):
                solves.append(gmres(*args))
                return solves[-1]

            with monkeypatch.context() as patch:
                patch.setattr(klift.cr, "gmres", recording_gmres)
                ours, ours_report = lift_macro(stepper, basis, macro, sc.gas, cfg, **common)
            if m == 3:  # the shipped tolerance: most vectors take one pass
                assert sum(s.reorthogonalized for s in solves) <= sum(s.iterations for s in solves) // 2
            # the state's undisturbed cells share rows, so the basis is stored by runs
            assert solves and all(s.runs < sc.n_cells for s in solves)
            with monkeypatch.context() as patch:
                patch.setattr(klift.cr, "gmres", scipy_gmres)
                ref, ref_report = lift_macro(stepper, basis, macro, sc.gas, cfg, **common)
            assert ours_report.gmres_iterations == ref_report.gmres_iterations > 0
            assert ours_report.iterations == ref_report.iterations
            np.testing.assert_allclose(ours.values, ref.values, rtol=0.0,
                                       atol=1e-12 * np.abs(ref.values).max())


def count_grid_compares(patch):
    """The rows of each grid array compared to find runs (``Runs(*arrays)``),
    one tuple per partition; a CR map's cut compares a layout, not a grid."""
    compares, init = [], Runs.__init__

    def counting(self, *arrays):
        compares.append(tuple(map(len, arrays)))
        init(self, *arrays)

    patch.setattr(Runs, "__init__", counting)
    return compares


class TestRunStoredLift:
    """The lift carries every state stored by one set of runs, which only its steps cut."""

    @staticmethod
    def _no_equal_rows(rows, most=-1):
        return None

    def test_rows_without_runs_lift_alike(self, monkeypatch):
        # the desk state lifted from its runs, and with every row its own run:
        # the same counts, and states within rounding; with runs of one row the
        # lift is the grid arrays' own, bit for bit
        sc, stepper, basis, macro, common = desk_lift_problem()
        for m in (0, 1, 3):
            cfg = sc.cr_config(m)
            with monkeypatch.context() as patch:
                compares = count_grid_compares(patch)
                stored, report = lift_macro(stepper, basis, macro, sc.gas, cfg, **common)
            assert compares == [(sc.n_cells,)]  # f0's rows, once
            with monkeypatch.context() as patch:
                patch.setattr(steppers, "equal_neighbours", self._no_equal_rows)
                free, free_report = lift_macro(stepper, basis, macro, sc.gas, cfg, **common)
                grid, grid_report = lift_macro(FreshCopyStepper(stepper), basis, macro, sc.gas,
                                               cfg, **common)
            assert report.gmres_iterations > 0
            assert (report.iterations, report.gmres_iterations) == (
                free_report.iterations, free_report.gmres_iterations)
            assert report.runs < sc.n_cells == free_report.runs == grid_report.runs
            scale = np.max(np.abs(free.values))
            assert np.max(np.abs(stored.values - free.values)) <= 1e-12 * scale
            assert free.values.tobytes() == grid.values.tobytes()
            assert free_report.residual_history == grid_report.residual_history

    def test_guess_runs_refine_the_target_runs(self, monkeypatch):
        # a guess is compared once too, and the lift stores both by the runs
        # of rows equal in each
        sc, stepper, basis, macro, common = desk_lift_problem()
        f0 = equilibrium_field(macro, sc.grid, sc.vgrid, sc.gas, scale=sc.scale).values
        guess = f0.copy()
        guess[60] *= 1.0 + 1e-9  # inside f0's undisturbed run
        compares = count_grid_compares(monkeypatch)
        cfg = sc.cr_config(1)
        _, report = cr_lift(stepper, basis, f0, cfg, f_guess=guess)
        _, plain = cr_lift(stepper, basis, f0, cfg)
        assert compares == [(sc.n_cells, sc.n_cells), (sc.n_cells,)]
        assert report.runs > plain.runs


    def test_a_wrapped_step_still_steps_runs(self, monkeypatch):
        # the lift reads ``steps_runs`` from the stepper, so a wrapper of
        # ``step`` that hides its signature keeps the run-stored path: each
        # CR map takes m + 1 steps, each of its layout's rows (min(L, 2m + 3)
        # per run) into a row block of the lift's one scratch block
        sc, stepper, basis, macro, common = desk_lift_problem()
        cfg = sc.cr_config(1)
        _, plain = lift_macro(stepper, basis, macro, sc.gas, cfg, **common)
        given, maps = [], []

        def wrapped(self, *args, step=BGKStepper.step, **kwargs):
            given.append((len(args[0]), kwargs.get("out"), kwargs.get("runs")))
            return step(self, *args, **kwargs)

        def counted(*args, cr_map=klift.cr.cr_map, **kwargs):
            runs, first = kwargs["runs"], len(given)
            rows = int(np.minimum(runs.lengths[: runs.count], 2 * cfg.order_m + 3).sum())
            result = cr_map(*args, **kwargs)
            maps.append((rows, given[first:]))
            return result

        monkeypatch.setattr(BGKStepper, "step", wrapped)
        monkeypatch.setattr(klift.cr, "cr_map", counted)
        _, report = lift_macro(stepper, basis, macro, sc.gas, cfg, **common)
        assert maps and len(given) == (cfg.order_m + 1) * len(maps)
        block = given[0][1].base
        assert block.shape == (6, sc.n_cells, sc.vgrid.n_velocities)
        for rows, steps in maps:
            assert len(steps) == cfg.order_m + 1 and rows < sc.n_cells
            assert all(n == rows and out.base is block and not runs.cells
                       for n, out, runs in steps)
        assert report.runs == plain.runs < sc.n_cells
        assert report.residual_history == plain.residual_history

    @pytest.mark.parametrize("order_m", [0, 3])
    def test_an_error_on_the_layout_names_the_grid_cell(self, order_m):
        # an unphysical row behind a long run sits at a layout row before its
        # cell; the map then reruns the grid, so the lift fails with the grid
        # map's own message, naming the cell
        sc, stepper, basis, macro, _ = desk_lift_problem()
        f0 = equilibrium_field(macro, sc.grid, sc.vgrid, sc.gas, scale=sc.scale).values
        guess = f0.copy()
        guess[60] *= -1.0  # a negative density inside f0's undisturbed run
        runs = Runs(f0, guess)
        planted = int(np.flatnonzero(runs.first[: runs.count] == 60)[0])
        assert np.flatnonzero(runs.layout(order_m + 1) == planted)[0] < 60
        with pytest.raises(NumericalError, match="cell 60 ") as grid:
            cr_map(stepper, basis, f0, guess, order_m)
        with pytest.raises(ConvergenceError) as lift:
            cr_lift(stepper, basis, f0, sc.cr_config(order_m), f_guess=guess)
        assert str(lift.value).endswith(f"(last residual none, m = {order_m}): {grid.value}")
        assert type(lift.value.__cause__) is NumericalError
        # a map in place, as the JVP's, leaves the state as it was
        state, target = runs.store(guess), runs.store(f0)
        kept = state.copy()
        with pytest.raises(NumericalError) as stored:
            cr_map(stepper, basis, target, state, order_m, out=state, runs=runs)
        assert str(stored.value) == str(grid.value)
        assert state[: runs.count].tobytes() == kept[: runs.count].tobytes()


class RecordingStepper:
    """Steps with ``inner`` and records the ``out`` of every step."""

    def __init__(self, inner):
        self.inner = inner
        self.outs = []

    def step(self, values, out=None):
        self.outs.append(out)
        return self.inner.step(values, out=out)


class FreshCopyStepper:
    """Ignores ``out`` for the step itself and copies a fresh step into it."""

    def __init__(self, inner):
        self.inner = inner

    def step(self, values, out=None):
        fresh = self.inner.step(values)
        if out is None:
            return fresh
        out[...] = fresh
        return out


def data_address(a):
    return a.__array_interface__["data"][0]


class TestLiftBuffers:
    def test_newton_lift_steps_into_two_buffers(self):
        sc, stepper, basis, macro, common = desk_lift_problem()
        cfg = sc.cr_config(1)
        recorder = RecordingStepper(stepper)
        lifted, report = lift_macro(recorder, basis, macro, sc.gas, cfg, **common)
        assert report.gmres_iterations >= 4
        outs = recorder.outs
        # two steps per map: one map per Newton iterate and at least one per GMRES iteration
        assert len(outs) >= 2 * (report.iterations + 1 + report.gmres_iterations)
        assert all(out is not None for out in outs)
        # the first CR map (two steps at m = 1) already uses every buffer
        first_map = {data_address(out) for out in outs[:2]}
        assert len(first_map) == 2
        assert {data_address(out) for out in outs} == first_map
        # both are rows of the lift's one (6, N, Nv) scratch block: freed as one
        # block, it is reused by the next lift instead of trimmed and faulted in again
        block = outs[0].base
        assert block is not None and outs[1].base is block
        assert block.shape == (6,) + lifted.values.shape

        ref, ref_report = lift_macro(FreshCopyStepper(stepper), basis, macro, sc.gas, cfg,
                                     **common)
        assert (report.iterations, report.gmres_iterations, report.residual_history,
                report.conserved_drift) == (
            ref_report.iterations, ref_report.gmres_iterations, ref_report.residual_history,
            ref_report.conserved_drift)
        assert lifted.values.tobytes() == ref.values.tobytes()

    @pytest.mark.parametrize("order_m", [0, 2])
    def test_buffered_map_jvp_and_reset_equal_fresh_ones(self, rng, order_m):
        sc, stepper, basis, macro, _ = desk_lift_problem()
        f0 = equilibrium_field(macro, sc.grid, sc.vgrid, sc.gas, scale=sc.scale).values
        guess = f0 * (1 + 1e-3 * rng.random(f0.shape))
        work = np.empty((3,) + f0.shape)  # step, step and sum
        out = np.full_like(f0, np.nan)
        got = cr_map(stepper, basis, f0, guess, order_m, out=out, work=work)
        assert got is out
        Cf = cr_map(stepper, basis, f0, guess, order_m)
        assert got.tobytes() == Cf.tobytes()
        # the first step has read the state, so the map may overwrite it
        state = guess.copy()
        got = cr_map(stepper, basis, f0, state, order_m, out=state, work=work)
        assert got is state
        assert got.tobytes() == Cf.tobytes()

        def apply_map(state, out=None):
            return cr_map(stepper, basis, f0, state, order_m, out=out, work=work)

        v = rng.standard_normal(f0.shape) * f0
        jvp = np.full_like(f0, np.nan)
        got = cr_jvp(apply_map, guess, Cf, v, out=jvp)
        assert got is jvp
        assert got.tobytes() == cr_jvp(apply_map, guess, Cf, v).tobytes()

        reset_out, scratch = np.full_like(f0, np.nan), np.full_like(f0, np.nan)
        got = reset_conserved(basis, guess, f0, out=reset_out, work=scratch)
        assert got is reset_out
        assert got.tobytes() == reset_conserved(basis, guess, f0).tobytes()

    def test_gmres_accepts_a_matvec_that_reuses_its_buffer(self, rng):
        n = 40
        A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
        b = rng.standard_normal(n)
        buf = np.empty(n)
        params = GMRESParams(tol=1e-10, max_iters=30, restart=10)
        reused = gmres(lambda v: np.matmul(A, v, out=buf), b, params)
        fresh = gmres(lambda v: A @ v, b, params)
        assert (reused.info, reused.iterations) == (fresh.info, fresh.iterations)
        assert reused.x.tobytes() == fresh.x.tobytes()
