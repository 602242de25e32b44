"""Moment matrices, the QR projector, and the naive inverse-based projector."""

import numpy as np
import pytest

from klift import (
    BasisKind,
    build_moment_basis,
    naive_projector,
    reset_conserved,
)
from klift.errors import NumericalError
from klift.moments import D1Q3_MOMENT_MATRIX, basis_from_matrix

from conftest import reference_vgrid


def strip_conserved(b, f):
    """I - Q Q^T along the last axis: the reset to zero conserved moments."""
    return reset_conserved(b, f, np.zeros_like(f))


class TestBasisConstruction:
    def test_d1q3_k1(self):
        b = build_moment_basis(BasisKind.D1Q3, None, 1)
        np.testing.assert_array_equal(b.M, D1Q3_MOMENT_MATRIX)
        # the one conserved moment is the density, row 0 of M
        np.testing.assert_array_equal(b.conserved_moments(np.eye(3)), D1Q3_MOMENT_MATRIX[:1].T)
        # Q spans (1,1,1)/sqrt(3); sign is QR-dependent, compare the projector
        np.testing.assert_allclose(b.Q @ b.Q.T, np.full((3, 3), 1.0 / 3.0), atol=1e-14)

    def test_two_velocity_monomial(self):
        b = build_moment_basis(BasisKind.MONOMIAL, np.array([-1.0, 1.0]), 1)
        np.testing.assert_allclose(b.Q @ b.Q.T, np.full((2, 2), 0.5), atol=1e-14)

    def test_orthonormality_reference_grid(self):
        b = build_moment_basis(BasisKind.MONOMIAL, reference_vgrid(56), 3)
        np.testing.assert_allclose(b.Q.T @ b.Q, np.eye(3), atol=1e-12)

    def test_reconstruction_invariant(self):
        for kind in (BasisKind.MONOMIAL, BasisKind.CHEBYSHEV):
            b = build_moment_basis(kind, reference_vgrid(24), 3)
            recon = (b.Q @ (b.Q.T @ b.M[:3].T)).T
            scale = np.abs(b.M[:3]).max()
            np.testing.assert_allclose(recon, b.M[:3], atol=1e-10 * scale)

    def test_monomial_rows_are_powers(self):
        v = np.array([-2.0, -0.5, 1.0, 3.0])
        b = build_moment_basis(BasisKind.MONOMIAL, v, 2)
        for r in range(4):
            np.testing.assert_allclose(b.M[r], v**r, rtol=1e-14)

    def test_chebyshev_rows_follow_the_recurrence(self):
        v = reference_vgrid(24).velocities
        b = build_moment_basis(BasisKind.CHEBYSHEV, v, 3)
        vt = 2.0 * (v - v.min()) / (v.max() - v.min()) - 1.0
        rows = [np.ones_like(vt), vt]
        for _ in range(2, 24):
            rows.append(2.0 * vt * rows[-1] - rows[-2])
        np.testing.assert_array_equal(b.M, rows)

    def test_chebyshev_rows_bounded(self):
        b = build_moment_basis(BasisKind.CHEBYSHEV, reference_vgrid(16), 3)
        assert np.abs(b.M).max() <= 1.0 + 1e-12

    def test_orthonormality_large(self, rng):
        v = np.sort(rng.uniform(-1.0, 1.0, size=256))
        b = build_moment_basis(BasisKind.MONOMIAL, v, 3)
        assert np.abs(b.Q.T @ b.Q - np.eye(3)).max() < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            build_moment_basis(BasisKind.MONOMIAL, np.array([1.0, 1.0, 2.0]), 1)
        with pytest.raises(ValueError, match="at least two velocities"):
            build_moment_basis(BasisKind.MONOMIAL, np.array([1.0]), 1)
        with pytest.raises(ValueError, match="basis_from_matrix"):
            build_moment_basis(BasisKind.CUSTOM, np.array([-1.0, 0.0, 1.0]), 1)
        with pytest.raises(ValueError, match="square"):
            basis_from_matrix(np.ones((3, 4)), 1)
        with pytest.raises(NumericalError, match="not all finite"):
            basis_from_matrix(np.array([[1.0, np.inf, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]]), 1)
        with pytest.raises(ValueError):
            basis_from_matrix(np.eye(3), 0)
        with pytest.raises(ValueError):
            basis_from_matrix(np.eye(3), 3)
        with pytest.raises(NumericalError):
            # first two moment rows linearly dependent: rank-deficient QR
            basis_from_matrix(np.array([[1.0, 1.0, 1.0],
                                        [2.0, 2.0, 2.0],
                                        [0.0, 0.0, 1.0]]), 2)


class TestProjector:
    def test_kernel(self, rng):
        b = build_moment_basis(BasisKind.MONOMIAL, reference_vgrid(8), 3)
        f = b.Q @ rng.random(3)
        assert np.linalg.norm(strip_conserved(b, f)) < 1e-12 * np.linalg.norm(f)

    def test_idempotent(self, rng):
        b = build_moment_basis(BasisKind.MONOMIAL, np.sort(rng.normal(size=8)), 3)
        f = rng.random((10, 8))
        once = strip_conserved(b, f)
        twice = strip_conserved(b, once)
        np.testing.assert_allclose(twice, once, atol=1e-12 * np.abs(once).max())

    def test_annihilates_conserved_rows(self, rng):
        b = build_moment_basis(BasisKind.MONOMIAL, reference_vgrid(16), 3)
        f = rng.random(16)
        out = b.M[:3] @ strip_conserved(b, f)
        assert np.abs(out).max() < 1e-10 * np.abs(b.M[:3] @ f).max()

    def test_eigenvalues_reference_grid(self):
        b = build_moment_basis(BasisKind.MONOMIAL, reference_vgrid(56), 3)
        ev = np.linalg.eigvalsh(np.eye(56) - b.Q @ b.Q.T)
        ev.sort()
        np.testing.assert_allclose(ev[:3], 0.0, atol=1e-10)
        np.testing.assert_allclose(ev[3:], 1.0, atol=1e-10)

    def test_unconserved_basis_complements(self):
        b = build_moment_basis(BasisKind.MONOMIAL, reference_vgrid(8), 3)
        U = b.U
        assert U.shape == (8, 5)
        np.testing.assert_allclose(U.T @ U, np.eye(5), atol=1e-12)
        assert np.abs(U.T @ b.Q).max() < 1e-12


class TestResetConserved:
    def test_identity_when_equal(self, rng):
        b = build_moment_basis(BasisKind.MONOMIAL, reference_vgrid(8), 3)
        f0 = rng.random((4, 8))
        np.testing.assert_allclose(reset_conserved(b, f0, f0), f0, rtol=1e-14)

    def test_moments_match_target(self, rng):
        v = np.sort(rng.normal(size=16))
        b = build_moment_basis(BasisKind.MONOMIAL, v, 3)
        f_pre, f0 = rng.random((5, 16)), rng.random((5, 16))
        out = reset_conserved(b, f_pre, f0)
        m_out, m0 = b.conserved_moments(out), b.conserved_moments(f0)
        np.testing.assert_allclose(m_out, m0, atol=1e-10 * np.abs(m0).max())
        # higher-order (Q-orthogonal) content of f_pre untouched
        np.testing.assert_allclose(
            strip_conserved(b, out), strip_conserved(b, f_pre), atol=1e-13
        )

    def test_d1q3_density_matches_inverse_form(self, rng):
        b = build_moment_basis(BasisKind.D1Q3, None, 1)
        M0 = np.zeros_like(b.M)
        M0[0] = b.M[0]
        proj = np.linalg.inv(b.M) @ M0
        for _ in range(50):
            f_pre, f0 = rng.random(3), rng.random(3)
            out_qr = reset_conserved(b, f_pre, f0)
            out_inv = (np.eye(3) - proj) @ f_pre + proj @ f0
            assert abs(out_qr.sum() - f0.sum()) < 1e-13
            assert abs(out_inv.sum() - f0.sum()) < 1e-13

    def test_shape_mismatch(self):
        b = build_moment_basis(BasisKind.D1Q3, None, 1)
        with pytest.raises(ValueError):
            reset_conserved(b, np.zeros(3), np.zeros((2, 3)))

    def test_basis_kind_independence(self, rng):
        vg = reference_vgrid(24)
        mono = build_moment_basis(BasisKind.MONOMIAL, vg, 3)
        cheb = build_moment_basis(BasisKind.CHEBYSHEV, vg, 3)
        # both conserved blocks span {1, v, v^2}: principal angles ~ 0
        s = np.linalg.svd(mono.Q.T @ cheb.Q, compute_uv=False)
        assert np.abs(s - 1.0).max() < 1e-10
        f_pre, f0 = rng.random((6, 24)), rng.random((6, 24))
        out_m = reset_conserved(mono, f_pre, f0)
        out_c = reset_conserved(cheb, f_pre, f0)
        np.testing.assert_allclose(out_m, out_c, atol=1e-10)


class TestFineVelocityGrid:
    # on the shipped bounds the monomial rows v^r overflow from Nv = 79 on
    @pytest.mark.parametrize("nv", [78, 79, 96])
    def test_conserved_rows_stay_finite(self, nv):
        # any RuntimeWarning fails the test (pyproject's filterwarnings)
        b = build_moment_basis(BasisKind.MONOMIAL, reference_vgrid(nv), 3)
        assert np.all(np.isfinite(b.M[:3])) and np.all(np.isfinite(b.Q))
        assert np.all(np.isfinite(b.M)) == (nv == 78)
        np.testing.assert_allclose(b.Q.T @ b.Q, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("nv", [79, 96])
    def test_naive_projector_refuses_overflowing_rows(self, nv):
        b = build_moment_basis(BasisKind.MONOMIAL, reference_vgrid(nv), 3)
        with pytest.raises(NumericalError, match=f"moment matrix of q = {nv} velocities overflows"):
            naive_projector(b)


class TestNaiveProjector:
    def test_d1q3_exact(self):
        b = build_moment_basis(BasisKind.D1Q3, None, 1)
        P, cond = naive_projector(b)
        np.testing.assert_allclose(P @ P, P, atol=1e-13)
        ev = np.sort(np.linalg.eigvals(P).real)
        np.testing.assert_allclose(ev, [0.0, 1.0, 1.0], atol=1e-12)
        assert cond < 100

    def test_singular_matrix_is_numerical_error(self):
        b = basis_from_matrix(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]), 1)
        with pytest.raises(NumericalError, match="moment matrix is singular"):
            naive_projector(b)

    @pytest.mark.parametrize("kind", [BasisKind.MONOMIAL, BasisKind.CHEBYSHEV])
    def test_large_basis_degrades(self, kind):
        # How far the float P's eigenvalues lie from {0, 1} is rounding noise
        # of the BLAS kernel (monomial: 0.41 on Haswell, 3.77 on SkylakeX);
        # that P misses being a projector by more than the rounding of its own
        # square is not.
        b = build_moment_basis(kind, reference_vgrid(56), 3)
        P, _ = naive_projector(b)
        rounding = b.q * np.finfo(float).eps * (np.abs(P) @ np.abs(P)).max()
        assert np.abs(P @ P - P).max() > rounding
