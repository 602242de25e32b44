"""Projector and CR-Jacobian spectra and FD Jacobian assembly."""

import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from klift import BasisKind, CRConfig, build_moment_basis, cr_lift
from klift import diagnostics
from klift.cr import cr_jvp, cr_map, fd_step
from klift.diagnostics import (
    cr_jacobian_matrix,
    cr_jacobian_spectrum,
    projector_spectrum,
    ring_colors,
)
from klift.errors import NumericalError
from klift.moments import basis_from_matrix, naive_projector
from klift.steppers import D1Q3Stepper, Runs

from conftest import IdentityStepper, load_shipped, reference_vgrid


def spectrum_distance(a, b):
    """Largest distance between two spectra matched as multisets."""
    rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
    return float(np.abs(a[rows] - b[cols]).max())


class TestProjectorSpectrum:
    def test_qr_eigenvalues_binary(self):
        for nv in (8, 24, 56):
            basis = build_moment_basis(BasisKind.MONOMIAL, reference_vgrid(nv), 3)
            rep = projector_spectrum(basis, "qr")
            ev = np.sort(rep.eigenvalues.real)
            assert rep.eigenvalues.size == nv
            np.testing.assert_allclose(ev[:3], 0.0, atol=1e-10)
            np.testing.assert_allclose(ev[3:], 1.0, atol=1e-10)
            assert rep.spectral_radius == pytest.approx(1.0, abs=1e-10)

    def test_naive_d1q3_exact(self):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        rep = projector_spectrum(basis, "naive")
        ev = np.sort(rep.eigenvalues.real)
        np.testing.assert_allclose(ev, [0.0, 1.0, 1.0], atol=1e-12)
        assert rep.params["cond_1"] < 100

    def test_naive_monomial_degrades(self):
        # The eigenvalues of the float P are rounding noise that varies with
        # the LAPACK build; that P is no projector to within the rounding of
        # its own square does not.
        basis = build_moment_basis(BasisKind.MONOMIAL, reference_vgrid(56), 3)
        P, _ = naive_projector(basis)
        rounding = basis.q * np.finfo(float).eps * (np.abs(P) @ np.abs(P)).max()
        assert np.abs(P @ P - P).max() > rounding

    def test_trace_matches_eigenvalue_sum(self):
        basis = build_moment_basis(BasisKind.MONOMIAL, reference_vgrid(24), 3)
        rep = projector_spectrum(basis, "qr")
        trace = 24 - 3  # tr(I - QQ^T) = q - k
        assert rep.eigenvalues.sum().real == pytest.approx(trace, rel=1e-8)

    def test_bad_selector(self):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        with pytest.raises(ValueError):
            projector_spectrum(basis, "oblique")

    def test_dimension_cap(self):
        basis = basis_from_matrix(np.eye(513), 1)
        with pytest.raises(ValueError, match="capped at q=512"):
            projector_spectrum(basis, "qr")


def fd_reference_jacobian(stepper, basis, f0, order_m):
    """Per-column forward differences with the step cr_jacobian_matrix uses."""
    U = basis.U
    n_cells, r = f0.shape[0], U.shape[1]
    h = fd_step(f0, Runs.each_row(n_cells))
    base = cr_map(stepper, basis, f0, f0, order_m)
    J = np.empty((n_cells * r, n_cells * r))
    for j in range(n_cells):
        for l in range(r):
            pert = f0.copy()
            pert[j] += h * U[:, l]
            out = cr_map(stepper, basis, f0, pert, order_m)
            J[:, j * r + l] = ((out - base) @ U).reshape(-1) / h
    return J


class RaisingStepper:
    def step(self, values, out=None):
        raise AssertionError("the stepper ran")


class MeanCoupledStepper(D1Q3Stepper):
    """D1Q3 plus a tenth of the cell mean: every cell couples to every other."""

    steps_runs = False  # not local, so it cannot step a layout

    def step(self, values, out=None):
        out = super().step(values, out)
        out += 0.1 * values.mean(axis=0)
        return out


def d1q3_exact_jacobian(basis, n_cells, omega, order_m):
    """Analytic CR-map Jacobian in unconserved coordinates.

    The LBM update is linear, so its matrix is recovered exactly from unit
    vectors; the extrapolation and orthogonal reset are composed explicitly.
    """
    from klift.cr import cr_weights

    dim = 3 * n_cells
    stepper = D1Q3Stepper(omega)
    A = np.empty((dim, dim))
    for col in range(dim):
        e = np.zeros(dim)
        e[col] = 1.0
        A[:, col] = stepper.step(e.reshape(n_cells, 3)).ravel()
    w = cr_weights(order_m)
    total = np.zeros((dim, dim))
    Ak = np.eye(dim)
    for wj in w:
        Ak = A @ Ak
        total += wj * Ak
    Pfull = np.kron(np.eye(n_cells), np.eye(3) - basis.Q @ basis.Q.T)
    J_full = Pfull @ total
    U = basis.U
    Ub = np.kron(np.eye(n_cells), U)
    return Ub.T @ J_full @ Ub


class TestCRJacobian:
    def test_identity_stepper_gives_identity(self, rng):
        basis = build_moment_basis(BasisKind.MONOMIAL, np.sort(rng.normal(size=6)), 3)
        f0 = rng.random((5, 6))
        rep = cr_jacobian_spectrum(IdentityStepper(), basis, f0, CRConfig(order_m=0))
        np.testing.assert_allclose(np.abs(rep.eigenvalues), 1.0, atol=1e-6)
        assert rep.params["projector"] == "qr"

    @pytest.mark.parametrize("order_m", [0, 1, 2])
    def test_fd_matches_analytic_on_d1q3(self, order_m, rng):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        n_cells, omega = 8, 1.3
        st = D1Q3Stepper(omega=omega)
        f0 = rng.random((n_cells, 3)) + 0.5
        J_fd = cr_jacobian_matrix(st, basis, f0, CRConfig(order_m=order_m))
        J_exact = d1q3_exact_jacobian(basis, n_cells, omega, order_m)
        assert np.abs(J_fd - J_exact).max() < 1e-6

    @pytest.mark.parametrize("order_m", [0, 1, 2])
    def test_colored_matches_columns_bgk_ghosts(self, order_m, rng):
        sc = load_shipped("helium_L30000.cfg").with_overrides(n_cells=14, n_velocities=16)
        basis = build_moment_basis(BasisKind.MONOMIAL, sc.vgrid, 3)
        st = sc.make_stepper()
        f0 = sc.initial_field().values * (1.0 + 0.05 * rng.random((14, 16)))
        J = cr_jacobian_matrix(st, basis, f0, CRConfig(order_m=order_m))
        J_ref = fd_reference_jacobian(st, basis, f0, order_m)
        np.testing.assert_allclose(J, J_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_cells, order_m", [(11, 0), (11, 1), (16, 2), (3, 0), (5, 2)])
    def test_colored_matches_columns_d1q3_ring(self, n_cells, order_m, rng):
        # 11 and 16 are no multiple of 2b + 1, so colours meet across the
        # wrap; 3 and 5 cells are too few to share a colour.
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        st = D1Q3Stepper(omega=1.3)
        f0 = rng.random((n_cells, 3)) + 0.5
        J = cr_jacobian_matrix(st, basis, f0, CRConfig(order_m=order_m))
        J_ref = fd_reference_jacobian(st, basis, f0, order_m)
        np.testing.assert_allclose(J, J_ref, rtol=0, atol=1e-12)

    def test_every_map_goes_through_the_traced_name(self, monkeypatch, rng):
        # the benchmark's tracer patches ``diagnostics.cr_map``, where the
        # assembly looks it up: every map of the Jacobian goes through it and
        # steps the grid arrays, each row a run of its own
        calls = []

        def counted(*args, cr_map=diagnostics.cr_map, **kwargs):
            calls.append(kwargs["runs"].count)
            return cr_map(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "cr_map", counted)
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        f0 = rng.random((12, 3)) + 0.5
        cr_jacobian_matrix(D1Q3Stepper(omega=1.3), basis, f0, CRConfig(order_m=0))
        colours = ring_colors(12, 1).max() + 1
        assert calls == [12] * (colours * (basis.q - basis.k) + 2)

    @pytest.mark.parametrize("half_band", [1, 2, 3])
    def test_ring_colors_keep_distance(self, half_band):
        for n_cells in range(1, 40):
            colors = ring_colors(n_cells, half_band)
            if n_cells <= 2 * half_band + 1:
                np.testing.assert_array_equal(colors, np.arange(n_cells))
            else:
                assert colors.max() < 4 * half_band + 1
            for i in range(n_cells):
                for j in range(i + 1, n_cells):
                    if colors[i] == colors[j]:
                        assert min(j - i, n_cells - (j - i)) > 2 * half_band

    @pytest.mark.parametrize("order_m", [0, 1])
    def test_coupling_beyond_band_raises(self, order_m, rng):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        f0 = rng.random((12, 3)) + 0.5
        with pytest.raises(NumericalError, match="misses couplings"):
            cr_jacobian_matrix(MeanCoupledStepper(omega=1.3), basis, f0,
                               CRConfig(order_m=order_m))

    def test_trace_and_eigenpair_sanity(self, rng):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        st = D1Q3Stepper(omega=1.3)
        f0 = rng.random((8, 3)) + 0.5
        J = cr_jacobian_matrix(st, basis, f0, CRConfig(order_m=0))
        ev = np.linalg.eigvals(J)
        assert ev.sum().real == pytest.approx(np.trace(J), rel=1e-8, abs=1e-10)

    def test_dimension_cap(self, rng):
        # N (q - k) = 1001 * 2 = 2002 > 2000: the cap fires before any map runs
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        f0 = rng.random((1001, 3))
        with pytest.raises(ValueError, match="dense cap"):
            cr_jacobian_matrix(RaisingStepper(), basis, f0, CRConfig(order_m=0))

    def test_a_grid_of_no_cells_is_named(self):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        with pytest.raises(ValueError, match=r"grid of no cells \(N = 0\)"):
            cr_jacobian_matrix(D1Q3Stepper(omega=1.3), basis, np.empty((0, 3)),
                               CRConfig(order_m=0))

    def test_jacobian_at_the_cap_holds_only_its_band(self, rng):
        # N (q - k) = 1000 * 2 = 2000: J is 32 MB, of which the colouring
        # writes a band of 6 entries a row, about one 4 KiB page; zeroed numpy
        # memory in 2 MiB pages raised RSS by 30.9 MB, the band's pages by 9.3 MB
        statm = Path("/proc/self/statm")
        if not statm.exists():
            pytest.skip("no /proc/self/statm")
        page = os.sysconf("SC_PAGE_SIZE")
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        f0 = rng.random((1000, 3)) + 0.5
        before = int(statm.read_text().split()[1]) * page
        J = cr_jacobian_matrix(D1Q3Stepper(omega=1.3), basis, f0, CRConfig(order_m=0))
        rise = int(statm.read_text().split()[1]) * page - before
        assert J.shape == (2000, 2000)
        assert rise < J.nbytes / 2, rise

    def test_picard_rate_bounded_by_radius(self, rng):
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        omega = 1.5
        st = D1Q3Stepper(omega=omega)
        f0 = rng.random((10, 3)) + 0.5
        cfg_spec = CRConfig(order_m=0)
        rho = cr_jacobian_spectrum(st, basis, f0, cfg_spec).spectral_radius
        assert rho < 0.95  # this configuration is comfortably contractive
        theta = 1e-12
        budget = math.ceil(math.log(theta) / math.log(rho)) + 20
        cfg = CRConfig(order_m=0, solver="picard", picard_tol=theta)
        _, report = cr_lift(st, basis, f0, cfg)
        assert report.iterations <= budget


class TestReflectionSplit:
    # A well-conditioned eigenvalue agrees to rounding; the worst
    # ill-conditioned one of the criterion-8 short domain moved 1.2e-6, and
    # the dense solve alone moves it 1.5e-6 when J is given in another
    # orthonormal basis, so the split adds no error of its own beyond that.
    EIG_ATOL = 1e-5

    @staticmethod
    def criterion_8(**overrides):
        sc = load_shipped("helium_L30000.cfg").with_overrides(n_cells=50, n_velocities=24)
        sc = sc.with_overrides(**overrides)
        return (sc.make_stepper(), build_moment_basis(BasisKind.MONOMIAL, sc.vgrid, 3),
                sc.initial_field().values)

    def assert_split_matches_dense(self, stepper, basis, f0, cfg, blocks, radius_rtol=1e-12):
        rep = cr_jacobian_spectrum(stepper, basis, f0, cfg)
        dense = np.linalg.eigvals(cr_jacobian_matrix(stepper, basis, f0, cfg))
        assert rep.params["reflection_blocks"] == blocks
        assert rep.eigenvalues.size == dense.size
        assert spectrum_distance(rep.eigenvalues, dense) <= self.EIG_ATOL
        assert rep.spectral_radius == pytest.approx(np.abs(dense).max(), rel=radius_rtol)

    @pytest.mark.parametrize("overrides, blocks", [
        ({}, [525, 525]),
        ({"lambda_multiple": 30.0}, [525, 525]),
        ({"n_cells": 49}, [514, 515]),   # the middle cell holds 10 even and 11 odd directions
    ], ids=["long", "short", "odd-N"])
    def test_criterion_8_grid(self, overrides, blocks):
        self.assert_split_matches_dense(*self.criterion_8(**overrides), CRConfig(order_m=0),
                                        blocks)

    @pytest.mark.parametrize("n_cells, order_m", [(8, 0), (7, 0), (8, 2), (2, 1)])
    def test_d1q3_ring(self, n_cells, order_m):
        # The D1Q3 CR map is linear and mirror-symmetric on the ring at every
        # m.  Its forward-difference columns round to eps |C(f)| / h, about
        # 1e-11 of max|J| at populations of 1e-4; at populations of order 1
        # that rounding alone reads 1e-9 to 3e-8, around REFLECTION_RTOL.
        # The radius is a double eigenvalue, one symmetric and one
        # antisymmetric Fourier mode, so the dropped 1e-11 coupling moves it
        # by about as much.
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        f0 = np.full((n_cells, 3), 1e-4)
        self.assert_split_matches_dense(D1Q3Stepper(omega=1.3), basis, f0,
                                        CRConfig(order_m=order_m), [n_cells, n_cells],
                                        radius_rtol=1e-10)

    @staticmethod
    def fallback(case, rng):
        """(stepper, basis, f0, cfg, naive_P) of a Jacobian that does not commute with R."""
        sc = load_shipped("helium_L30000.cfg").with_overrides(n_cells=10, n_velocities=24)
        stepper, f0, naive_P = sc.make_stepper(), sc.initial_field().values, None
        basis = build_moment_basis(BasisKind.MONOMIAL, sc.vgrid, 3)
        cfg = CRConfig(order_m=1 if case == "order-1" else 0)
        if case == "float-naive-P":
            naive_P = naive_projector(basis)[0]
        elif case == "random-f0":
            f0 = f0 * (1.0 + 0.05 * rng.random(f0.shape))
        elif case == "one-cell-f0":
            f0 = f0 * np.where(np.arange(10) == 4, 1.05, 1.0)[:, None]
        elif case == "asymmetric-grid":
            stepper, f0 = IdentityStepper(), rng.random((6, 6))
            basis = build_moment_basis(BasisKind.MONOMIAL, np.sort(rng.normal(size=6)), 3)
        return stepper, basis, f0, cfg, naive_P

    @pytest.mark.parametrize("case", ["order-1", "float-naive-P", "random-f0", "one-cell-f0",
                                      "asymmetric-grid"])
    def test_dense_fallback(self, case, rng):
        # none of these Jacobians commutes with the reflection: a row block
        # differs from its mirror image by up to 1.5e-4, 1.1 and 0.2 of
        # max|J| for the first three; cell 4 of 10 raised by 5 % breaks the
        # symmetry of row blocks 3 to 6 only; the last velocity grid is not
        # symmetric
        stepper, basis, f0, cfg, naive_P = self.fallback(case, rng)
        rep = cr_jacobian_spectrum(stepper, basis, f0, cfg, naive_P=naive_P)
        assert "reflection_blocks" not in rep.params
        J = cr_jacobian_matrix(stepper, basis, f0, cfg, naive_P=naive_P)
        np.testing.assert_array_equal(rep.eigenvalues, np.linalg.eigvals(J))

    @pytest.mark.parametrize("hook", [sys.settrace, sys.setprofile], ids=["settrace", "setprofile"])
    @pytest.mark.parametrize("case", ["long", "odd-N", "float-naive-P"])
    def test_same_spectrum_under_a_hook(self, case, hook, rng):
        # A trace or profile hook keeps references to the frames' arrays, as
        # debuggers, profilers and coverage runs do; the spectrum must not
        # depend on who else holds a view of J.
        if case == "float-naive-P":
            stepper, basis, f0, cfg, naive_P = self.fallback(case, rng)
        else:
            overrides = {"n_cells": 49} if case == "odd-N" else {}
            (stepper, basis, f0), cfg, naive_P = (
                self.criterion_8(**overrides), CRConfig(order_m=0), None)
        plain = cr_jacobian_spectrum(stepper, basis, f0, cfg, naive_P=naive_P)
        previous = sys.gettrace() if hook is sys.settrace else sys.getprofile()
        hook(lambda frame, event, arg: None)
        try:
            hooked = cr_jacobian_spectrum(stepper, basis, f0, cfg, naive_P=naive_P)
        finally:
            hook(previous)
        assert hooked.params == plain.params
        np.testing.assert_array_equal(hooked.eigenvalues, plain.eigenvalues)


class TestCRJvp:
    @pytest.mark.parametrize("order_m", [0, 2])
    def test_matches_colored_jacobian_on_d1q3(self, order_m, rng):
        # the D1Q3 CR map is linear, so the forward difference along any
        # direction is J z up to FD rounding
        basis = build_moment_basis(BasisKind.D1Q3, None, 1)
        st = D1Q3Stepper(omega=1.3)
        f0 = rng.random((9, 3)) + 0.5
        J = cr_jacobian_matrix(st, basis, f0, CRConfig(order_m=order_m))
        U = basis.U

        def apply_map(state, out=None):
            return cr_map(st, basis, f0, state, order_m, out=out)

        z = rng.standard_normal(J.shape[1])
        jvp = cr_jvp(apply_map, f0, apply_map(f0), z.reshape(9, -1) @ U.T)
        Jz = J @ z
        assert np.linalg.norm((jvp @ U).ravel() - Jz) <= 1e-6 * np.linalg.norm(Jz)

    def test_zero_direction_gives_zeros(self, rng):
        f = rng.random((4, 3))

        def apply_map(state, out=None):
            raise AssertionError("the map ran")

        out = cr_jvp(apply_map, f, f, np.zeros((4, 3)))
        np.testing.assert_array_equal(out, 0.0)
        assert out.shape == (4, 3)
