"""Constrained-runs weights, the CR map, and the Picard/Newton lifts."""

import math

import numpy as np
import pytest

from klift import (
    BasisKind,
    ConvergenceError,
    CRConfig,
    GMRESParams,
    build_moment_basis,
    build_spatial_grid,
    build_velocity_grid,
    cr_map,
    cr_weights,
    lift_macro,
    lift_newton,
    lift_picard,
    restrict,
    restrict_lift_error,
)
from klift.cli import lift_report_rows
from klift.cr import conserved_drift
from klift.kinetic import DistributionField
from klift.moments import basis_from_matrix, naive_projector, project_complement
from klift.steppers import D1Q3Stepper

from conftest import IdentityStepper, LinearODEStepper, load_shipped


class PolyStepper:
    """Jordan-block stepper: trajectories are exactly polynomial in the step
    index, with degree set by the highest nonzero state component."""

    def __init__(self, q: int):
        self.J = np.eye(q) + np.diag(np.ones(q - 1), 1)

    def step(self, values):
        return values @ self.J.T


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


class TestPicard:
    def test_steady_state_one_iteration(self):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        st = D1Q3Stepper(omega=1.2)
        f0 = np.full((6, 3), 0.5)
        out, report = lift_picard(st, basis, f0, CRConfig(order_m=0, solver="picard"))
        assert report.iterations == 1
        np.testing.assert_allclose(out, f0, atol=1e-14)

    def test_ode_slow_manifold(self):
        eps = 0.01
        st = LinearODEStepper(eps, dt=eps)
        basis = basis_from_matrix(np.eye(2), 1)
        r0 = 2.0
        f0 = np.array([[r0, 0.0]])
        cfg = CRConfig(order_m=0, solver="picard", picard_tol=1e-14)
        out, report = lift_picard(st, basis, f0, cfg)
        a = st.slow_slope
        assert out[0, 0] == pytest.approx(r0, abs=1e-13)
        assert abs(out[0, 1] - a * r0) <= 10.0 * eps * abs(r0)
        assert report.residual_history[-1] < 1e-14

    def test_non_convergence_raises_with_history(self, rng):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        st = D1Q3Stepper(omega=1.9)
        f0 = rng.random((6, 3))
        cfg = CRConfig(order_m=0, solver="picard", picard_tol=1e-16, max_picard_iters=3)
        with pytest.raises(ConvergenceError) as exc:
            lift_picard(st, basis, f0, cfg)
        assert len(exc.value.history) == 3
        assert exc.value.residual == exc.value.history[-1]


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
        out, report = lift_newton(st, basis, f0, cfg)
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
        _, report = lift_newton(st, basis, f0, CRConfig(order_m=1, solver="newton"))
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
        with pytest.raises(ValueError):
            restrict_lift_error(a, b)


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
        np.testing.assert_allclose(
            project_complement(basis, out), project_complement(basis, guess), atol=1e-13
        )
        assert conserved_drift(basis, out, f0) < 1e-12
