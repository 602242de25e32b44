"""Grids, discrete equilibrium, restriction, and the gas relations."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from klift import (
    ConvergenceError,
    GasParams,
    MacroFields,
    NumericalError,
    build_spatial_grid,
    build_velocity_grid,
    discrete_equilibrium,
    mean_free_path,
    relaxation_frequency,
    restrict,
)
from klift import kinetic
from klift.kinetic import DistributionField

from conftest import (
    KB, SHIPPED, helium_gas, load_shipped, reference_vgrid, weighted_sum_equilibrium,
)


class TestVelocityGrid:
    def test_reference_bounds(self):
        vg = build_velocity_grid(-9987.5, 9987.5, 56)
        assert vg.dv == pytest.approx(356.69642857142856, rel=1e-12)
        assert vg.velocities[0] == pytest.approx(-9809.151785714286, rel=1e-12)
        assert vg.n_velocities == 56
        assert np.all(np.diff(vg.velocities) > 0)

    def test_two_point_symmetry(self):
        vg = build_velocity_grid(-1.0, 1.0, 2)
        np.testing.assert_allclose(vg.velocities, [-0.5, 0.5])

    def test_cell_centering(self):
        vg = build_velocity_grid(-3.0, 5.0, 7)
        expected = -3.0 + vg.dv / 2 + vg.dv * np.arange(7)
        np.testing.assert_allclose(vg.velocities, expected, rtol=1e-14)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_velocity_grid(1.0, -1.0, 8)
        with pytest.raises(ValueError):
            build_velocity_grid(-1.0, 1.0, 1)

    @pytest.mark.parametrize("bound", [1e-300, 1e-75, 1e62, 1e300])
    def test_moments_out_of_float_range(self, bound):
        # dv (v - v_mid)^4 at the edge overflows or underflows; no warning on the way
        with pytest.raises(ValueError, match="too wide or too narrow"):
            build_velocity_grid(-bound, bound, 24)


class TestDistributionField:
    def test_values_must_match_the_grids(self):
        with pytest.raises(ValueError, match=re.escape("values shape (4, 7) != (4, 8)")):
            DistributionField(build_spatial_grid(1.0, 4), build_velocity_grid(-2.0, 2.0, 8),
                              np.ones((4, 7)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_are_numerical_error(self, bad):
        values = np.ones((4, 8))
        values[2, 3] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            DistributionField(build_spatial_grid(1.0, 4), build_velocity_grid(-2.0, 2.0, 8),
                              values)


class TestSpatialGrid:
    def test_centers(self):
        g = build_spatial_grid(2.0, 4)
        assert g.dx == pytest.approx(0.5)
        np.testing.assert_allclose(g.centers, [0.25, 0.75, 1.25, 1.75])

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_spatial_grid(-1.0, 4)
        with pytest.raises(ValueError):
            build_spatial_grid(1.0, 0)

    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_length_must_be_positive_and_finite(self, length):
        # either would make dx and every cell centre NaN or inf
        with pytest.raises(ValueError, match="is no positive finite dx"):
            build_spatial_grid(length, 4)


class TestDiscreteEquilibrium:
    def test_ambient_conservation_sums(self):
        gas = helium_gas()
        vg = reference_vgrid(56)
        n, u, T = 2.4462492816029477e25, 0.0, 300.00785
        feq = discrete_equilibrium(n, u, T, vg, gas)
        assert isinstance(feq, np.ndarray) and feq.shape == (1, 56)
        dv, v = vg.dv, vg.velocities
        mass = dv * feq.sum()
        mom = dv * (feq * v).sum()
        en = dv * (feq * (v - u) ** 2).sum()
        assert mass == pytest.approx(n, rel=1e-10)
        assert abs(mom) <= 1e-10 * n * math.sqrt(KB * T / gas.molecular_mass)
        assert en == pytest.approx(n * KB * T / gas.molecular_mass, rel=1e-10)
        assert np.all(feq > 0)

    def test_initial_guess_converges_and_symmetric(self):
        gas = helium_gas()
        vg = reference_vgrid(56)
        feq = discrete_equilibrium(1e25, 0.0, 400.0, vg, gas)
        # u = 0 on a symmetric grid: f_eq palindromic
        np.testing.assert_allclose(feq[0], feq[0, ::-1], rtol=1e-12)

    def test_vectorized_matches_scalar(self):
        gas = helium_gas()
        vg = reference_vgrid(24)
        n = np.array([1e25, 3e25, 2e24])
        u = np.array([0.0, 500.0, -800.0])
        T = np.array([300.0, 900.0, 1500.0])
        feq = discrete_equilibrium(n, u, T, vg, gas)
        for j in range(3):
            fj = discrete_equilibrium(n[j], u[j], T[j], vg, gas)
            np.testing.assert_allclose(feq[j], fj[0], rtol=1e-12)

    def test_a_scalar_stands_for_every_cell(self):
        gas = helium_gas()
        vg = reference_vgrid(24)
        n = np.array([1e25, 3e25, 2e24])
        u = np.array([0.0, 500.0, -800.0])
        want = discrete_equilibrium(n, np.full(3, 500.0), np.full(3, 900.0), vg, gas)
        assert discrete_equilibrium(n, 500.0, 900.0, vg, gas).tobytes() == want.tobytes()
        want = discrete_equilibrium(np.full(3, 1e25), u, np.full(3, 900.0), vg, gas)
        assert discrete_equilibrium(1e25, u, 900.0, vg, gas).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match=re.escape("got shapes (2,), (3,) and (1,)")):
            discrete_equilibrium(n[:2], u, 900.0, vg, gas)

    def test_two_dimensional_input_names_the_shapes(self):
        gas = helium_gas()
        vg = reference_vgrid(24)
        with pytest.raises(ValueError, match=re.escape("got shapes (3, 1), (1,) and (1,)")):
            discrete_equilibrium(np.full((3, 1), 1e25), 0.0, 300.0, vg, gas)
        square = np.ones((2, 2))
        with pytest.raises(ValueError, match=re.escape("got shapes (2, 2), (2, 2) and (2, 2)")):
            discrete_equilibrium(1e25 * square, 0.0 * square, 300.0 * square, vg, gas)

    def test_out_is_the_fresh_result_and_weight_scales_rows(self):
        gas = helium_gas()
        vg = reference_vgrid(24)
        n = np.array([1e25, 3e25, 2e24])
        u = np.array([0.0, 500.0, -800.0])
        T = np.array([300.0, 900.0, 1500.0])
        want = discrete_equilibrium(n, u, T, vg, gas)
        out = np.full_like(want, np.nan)
        got = discrete_equilibrium(n, u, T, vg, gas, out=out)
        assert got is out
        assert got.tobytes() == want.tobytes()
        # the weight folds into A = n w / R0, so it differs from w f_eq by rounding only
        w = np.array([3.7e-9, 0.25, 1.3e4])
        weighted = discrete_equilibrium(n, u, T, vg, gas, weight=w)
        np.testing.assert_allclose(weighted, w[:, None] * want, rtol=2 * np.finfo(float).eps, atol=0)
        with pytest.raises(ValueError, match="shape"):
            discrete_equilibrium(n, u, T, vg, gas, out=np.empty((4, 24)))
        for bad in (np.ones(2), np.ones((3, 1)), np.ones(4)):
            with pytest.raises(ValueError, match="weight"):
                discrete_equilibrium(n, u, T, vg, gas, weight=bad)

    def test_continuum_limit_monotone(self):
        gas = helium_gas()
        n, u, T = 1e25, 300.0, 500.0
        b = math.sqrt(gas.molecular_mass / (2 * KB * T))
        bound = 6.0 / b  # wide enough that truncation is negligible
        errs = []
        for nv in (10, 20, 40):
            vg = build_velocity_grid(u - bound, u + bound, nv)
            feq = discrete_equilibrium(n, u, T, vg, gas)
            maxwell = n * b / math.sqrt(math.pi) * np.exp(-(b * (vg.velocities - u)) ** 2)
            errs.append(np.abs(feq[0] - maxwell).max() / maxwell.max())
        assert errs[0] > errs[1] > errs[2]

    def test_invalid_macro(self):
        gas = helium_gas()
        vg = reference_vgrid(8)
        for n, u, T in ((-1.0, 0.0, 300.0), (1e25, 0.0, -5.0), (math.nan, 0.0, 300.0),
                        (1e25, math.nan, 300.0), (1e25, 0.0, math.nan), (math.inf, 0.0, 300.0),
                        (1e25, 0.0, math.inf)):
            with pytest.raises(ValueError, match="cell 0 has"):
                discrete_equilibrium(n, u, T, vg, gas)
        # the first bad cell is named, also where a scalar is broadcast
        with pytest.raises(ValueError, match="cell 2 has"):
            discrete_equilibrium(np.full(4, 1e25), 0.0, [300.0, 300.0, math.nan, -1.0], vg, gas)

    def test_nonconvergence_names_the_cell(self):
        # a 300 K Maxwellian centred at 0.9 v_max has no discrete
        # equilibrium on the desk grid; the error says which cell it was
        sc = load_shipped("helium_desk.cfg").with_overrides(n_velocities=16)
        vg = sc.vgrid
        u = np.array([0.0, 0.9 * vg.v_max])
        with pytest.raises(ConvergenceError, match=r"cell 1: n 1\.000e\+25 .* T 3\.000e\+02 K"):
            discrete_equilibrium(np.full(2, 1e25), u, np.full(2, 300.0), vg, sc.gas)

    def test_cells_leaving_at_different_iterations(self, monkeypatch):
        # on the desk grid at 600 K a cell at rest converges on the first
        # evaluation, one at 0.2 v_max on the second and one at 0.4 v_max on
        # the third; each must be written from its own last evaluation
        sc = load_shipped("helium_desk.cfg")
        vg, gas = sc.vgrid, sc.gas
        n, u, T = np.full(5, 1e25), vg.v_max * np.array([0.0, 0.4, 0.2, 0.0, 0.4]), np.full(5, 600.0)

        def evaluations(j):
            for k in range(1, 10):
                monkeypatch.setattr(kinetic, "EQUILIBRIUM_MAX_ITER", k)
                try:
                    discrete_equilibrium(n[j], u[j], T[j], vg, gas)
                    return k
                except ConvergenceError:
                    pass

        assert [evaluations(j) for j in range(5)] == [1, 3, 2, 1, 3]
        monkeypatch.undo()
        feq, want = discrete_equilibrium(n, u, T, vg, gas), weighted_sum_equilibrium(n, u, T, vg, gas)
        assert np.max(np.abs(feq - want)) <= 1e-14 * np.max(want)

    def test_singular_jacobian_names_the_cell(self):
        # a moment matrix that keeps only dv sum E sees every cell as a point
        # mass at the grid midpoint, whose 2x2 Jacobian is singular; the error
        # names the first such cell and its state
        gas = helium_gas()
        vg = reference_vgrid(16)
        point = replace(vg, moments=vg.moments * np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        n, u, T = np.array([1e25, 2e25]), np.zeros(2), np.array([300.0, 450.0])
        want = re.escape("singular Jacobian in equilibrium Newton solve in cell 0: "
                         "n 1.000e+25 1/m^3, u 0.000e+00 m/s, T 3.000e+02 K")
        with pytest.raises(NumericalError, match=want):
            discrete_equilibrium(n, u, T, point, gas)

    def test_nonconvergence_names_the_cell_after_others_left(self):
        # cells 0, 2 and 1 leave the iteration after one, two and three
        # evaluations; the error still names cell 3 by its index in the input
        sc = load_shipped("helium_desk.cfg")
        vg = sc.vgrid
        n = np.array([1e25, 1e25, 1e25, 2e25, 1e25])
        u = vg.v_max * np.array([0.0, 0.4, 0.2, 0.9, 0.0])
        T = np.array([600.0, 600.0, 600.0, 650.0, 600.0])
        want = re.escape(f"cell 3: n 2.000e+25 1/m^3, u {u[3]:.3e} m/s, T 6.500e+02 K")
        with pytest.raises(ConvergenceError, match=want):
            discrete_equilibrium(n, u, T, vg, sc.gas)

    def test_gaussian_lost_from_the_grid_names_the_cell(self):
        # a 0.01 K Maxwellian centred between two desk velocities underflows
        # at every velocity of the grid: its E sums to 0, which the solve
        # reports for the cell before it divides by the sum
        sc = load_shipped("helium_desk.cfg").with_overrides(n_velocities=16)
        vg = sc.vgrid
        u = 0.5 * (vg.velocities[10] + vg.velocities[11])
        want = re.escape(f"lost the discrete Gaussian in cell 1: n 2.000e+25 1/m^3, u {u:.3e} m/s, "
                         "T 1.000e-02 K (its values on the velocity grid sum to 0.000e+00 of its "
                         "peak)")
        with pytest.raises(ConvergenceError, match=want):
            discrete_equilibrium(np.array([1e25, 2e25]), np.array([0.0, u]),
                                 np.array([300.0, 0.01]), vg, sc.gas)

    @pytest.mark.parametrize("u, T", [(0.0, 1e300), (1e300, 300.0), (1e4, 300.0)] + [
        (u, T) for u in (0.0, 300.0, -9990.0, 9990.0) for T in (1e-200, 1e-300, 1e-308, 5e-324)])
    def test_state_off_the_grid_names_the_cell(self, u, T):
        # no distribution on a +-1e4 m/s grid has |u - v_mid| or k_B T / m
        # reaching 1e4 m/s or its square, and at k_B T / m <= eps h^2 the
        # starting Gaussian is zero at every velocity but the one nearest u;
        # the cell is named before any arithmetic, such as the starting
        # exponent m (u - v_mid)^2 / (2 k_B T), can overflow, also with every
        # warning an error
        vg = build_velocity_grid(-1e4, 1e4, 24)
        want = re.escape(f"no discrete equilibrium on the velocity grid in cell 1: n 2.000e+25 "
                         f"1/m^3, u {u:.3e} m/s, T {T:.3e} K")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=want):
                discrete_equilibrium(np.array([1e25, 2e25]), np.array([0.0, u]),
                                     np.array([300.0, T]), vg, helium_gas())

    def test_hot_truncated_maxwellian_takes_a_second_evaluation(self, monkeypatch):
        # the full-scale surface cells: at 1,265 K and 410 m/s the 56-velocity
        # grid truncates the Maxwellian's tail, so the first evaluation leaves a
        # residual of 6e-8 and the second converges to the oracle's root
        sc = load_shipped("helium_L30000.cfg")
        args = (sc.surface[0], 410.0, 1265.0, sc.vgrid, sc.gas)
        monkeypatch.setattr(kinetic, "EQUILIBRIUM_MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as first:
            discrete_equilibrium(*args)
        assert 1e-8 < first.value.residual < 1e-7
        monkeypatch.setattr(kinetic, "EQUILIBRIUM_MAX_ITER", 2)
        feq, want = discrete_equilibrium(*args), weighted_sum_equilibrium(*args)
        assert np.max(np.abs(feq - want)) <= 1e-14 * np.max(want)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_matches_weighted_sum_oracle(self, shipped_states, name):
        sc, values = shipped_states[name]
        macro = restrict(DistributionField(sc.grid, sc.vgrid, values, scale=sc.scale), sc.gas)
        args = (macro.number_density, macro.velocity, macro.temperature, sc.vgrid, sc.gas)
        feq, want = discrete_equilibrium(*args), weighted_sum_equilibrium(*args)
        assert np.max(np.abs(feq - want)) <= 1e-14 * np.max(want)

    def test_far_from_zero_on_a_centred_grid(self):
        # u = 100 v_th: the moment matrix is centred on the grid, so shifting
        # its moments to u costs no more rounding than at u = 0
        gas = helium_gas()
        n, T = 1e25, 300.0
        vt = math.sqrt(KB * T / gas.molecular_mass)
        u = 100.0 * vt
        vg = build_velocity_grid(u - 8.0 * vt, u + 8.0 * vt, 40)
        feq = discrete_equilibrium(n, u, T, vg, gas)
        macro = restrict(DistributionField(build_spatial_grid(1.0, 1), vg, feq), gas)
        assert macro.number_density[0] == pytest.approx(n, rel=1e-12)
        assert abs(macro.velocity[0] - u) <= 1e-12 * vt
        assert macro.temperature[0] == pytest.approx(T, rel=1e-12)

    def test_cold_off_centre_exponent_rounding(self):
        # the product-form exponent rounds as (|u - v_mid| / v_th)^2 eps: a
        # 30 K Maxwellian at 10 v_th(300 K) is 32 of its own v_th off centre
        gas = helium_gas()
        vt300 = math.sqrt(KB * 300.0 / gas.molecular_mass)
        vg = build_velocity_grid(-20.0 * vt300, 20.0 * vt300, 200)
        args = (1e25, 10.0 * vt300, 30.0, vg, gas)
        feq, want = discrete_equilibrium(*args), weighted_sum_equilibrium(*args)
        assert np.max(np.abs(feq - want)) <= 1e-12 * np.max(want)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_a_cell_is_alike_at_every_position(self, shipped_states, rng, name):
        # a grid step and a CR map on a run layout build the equilibrium of
        # their layout's rows only and must get the grid's f_eq for them, bit for bit,
        # wherever a cell sits, however many cells there are and whichever of
        # them the later Newton iterations still carry
        sc, values = shipped_states[name]
        macro = restrict(values, sc.gas, vgrid=sc.vgrid, scale=sc.scale)
        fields = np.stack((macro.number_density, macro.velocity, macro.temperature))
        for n_rows in (len(values), 37, 8, 3):
            cells = fields[:, rng.permutation(len(values))[:n_rows]]
            full = discrete_equilibrium(*cells, sc.vgrid, sc.gas)
            for _ in range(10):
                keep = np.sort(rng.choice(n_rows, rng.integers(1, n_rows + 1), replace=False))
                some = discrete_equilibrium(*cells[:, keep], sc.vgrid, sc.gas)
                assert some.tobytes() == full[keep].tobytes()


class TestRowProduct:
    @pytest.mark.parametrize("caller", ["equilibrium basis", "equilibrium moments", "restrict"])
    def test_every_row_has_its_bits_from_a_whole_block(self, rng, caller):
        # a partial last block is taken as a whole block overlapping the one
        # before it, and fewer rows than a block are filled up to one: either
        # way each row gets the bits one matmul of whole blocks gives it.
        # The rows and matrices are laid out as each caller's are.
        block, vgrid = kinetic.ROW_BLOCK, reference_vgrid(56)
        if caller == "equilibrium basis":  # the (cells, 3) coefficients, transposed
            pool, matrix = rng.standard_normal((3, 5 * block)).T, vgrid.basis
        else:
            pool = rng.standard_normal((5 * block, vgrid.n_velocities))
            matrix = vgrid.moments if caller == "equilibrium moments" else vgrid.moments[:, :3]
        whole = np.matmul(pool, matrix)
        for n in range(1, 3 * block + 2):
            for start in range(len(pool) - n + 1):
                rows, want = pool[start: start + n], whole[start: start + n].tobytes()
                assert kinetic.row_product(rows, matrix).tobytes() == want, (n, start)
                out = np.full((n, matrix.shape[1]), np.nan)
                assert kinetic.row_product(rows, matrix, out=out) is out
                assert out.tobytes() == want, (n, start)


class TestRestrict:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_matches_weighted_sums(self, shipped_states, name):
        sc, values = shipped_states[name]
        macro = restrict(DistributionField(sc.grid, sc.vgrid, values, scale=sc.scale), sc.gas)
        f, v, dv = values / sc.scale, sc.vgrid.velocities, sc.vgrid.dv
        n = dv * f.sum(axis=1)
        u = dv * (f * v).sum(axis=1) / n
        T = sc.gas.molecular_mass / (KB * n) * dv * (f * (v[None, :] - u[:, None]) ** 2).sum(axis=1)
        np.testing.assert_allclose(macro.number_density, n, rtol=1e-14)
        assert np.max(np.abs(macro.velocity - u)) <= 1e-14 * np.max(np.sqrt(KB * T / sc.gas.molecular_mass))
        np.testing.assert_allclose(macro.temperature, T, rtol=1e-14)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_a_row_restricts_alike_at_every_position(self, shipped_states, rng, name):
        # a step of a run layout restricts its rows only and must get the full
        # grid's (n, u, T) for them, bit for bit, wherever a row sits in
        # either array and however many rows each has
        sc, values = shipped_states[name]

        def moments(rows):
            macro = restrict(rows, sc.gas, vgrid=sc.vgrid, scale=sc.scale)
            return np.stack((macro.number_density, macro.velocity, macro.temperature))

        for n_rows in (len(values), 37, 8, 3):
            rows = values[rng.permutation(len(values))[:n_rows]]
            full = moments(rows)
            for _ in range(10):
                keep = np.sort(rng.choice(n_rows, rng.integers(1, n_rows + 1), replace=False))
                assert moments(rows[keep]).tobytes() == full[:, keep].tobytes()

    def test_round_trip(self):
        gas = helium_gas()
        vg = reference_vgrid(32)
        grid = build_spatial_grid(1.0, 3)
        n = np.array([1e25, 5e24, 2e25])
        u = np.array([0.0, 700.0, -300.0])
        T = np.array([300.0, 1200.0, 600.0])
        feq = discrete_equilibrium(n, u, T, vg, gas)
        f = DistributionField(grid, vg, feq)
        macro = restrict(f, gas)
        np.testing.assert_allclose(macro.number_density, n, rtol=1e-10)
        vt_max = float(np.sqrt(KB * T / gas.molecular_mass).max())
        np.testing.assert_allclose(macro.velocity, u, atol=1e-10 * vt_max)
        np.testing.assert_allclose(macro.temperature, T, rtol=1e-10)

    def test_against_double_loop_oracle(self, rng):
        gas = helium_gas()
        vg = build_velocity_grid(-2.0, 2.0, 8)
        grid = build_spatial_grid(1.0, 4)
        vals = rng.random((4, 8)) + 0.1
        macro = restrict(DistributionField(grid, vg, vals), gas)
        for j in range(4):
            n = u = 0.0
            for i in range(8):
                n += vg.dv * vals[j, i]
                u += vg.dv * vg.velocities[i] * vals[j, i]
            u /= n
            t = 0.0
            for i in range(8):
                t += vg.dv * (vg.velocities[i] - u) ** 2 * vals[j, i]
            t *= gas.molecular_mass / (KB * n)
            assert macro.number_density[j] == pytest.approx(n, rel=1e-13)
            assert macro.velocity[j] == pytest.approx(u, rel=1e-13)
            assert macro.temperature[j] == pytest.approx(t, rel=1e-13)

    def test_scale_aware(self, rng):
        gas = helium_gas()
        vg = reference_vgrid(16)
        grid = build_spatial_grid(1.0, 2)
        feq = discrete_equilibrium(np.full(2, 1e25), np.zeros(2), np.full(2, 300.0), vg, gas)
        plain = restrict(DistributionField(grid, vg, feq), gas)
        scaled = restrict(
            DistributionField(grid, vg, gas.molecular_mass * feq, scale=gas.molecular_mass), gas
        )
        np.testing.assert_allclose(scaled.number_density, plain.number_density, rtol=1e-14)
        np.testing.assert_allclose(scaled.temperature, plain.temperature, rtol=1e-14)
        # the value-array form, as a step reads it, is the same computation
        rows = restrict(gas.molecular_mass * feq, gas, vgrid=vg, scale=gas.molecular_mass)
        for a, b in ((rows.number_density, scaled.number_density),
                     (rows.velocity, scaled.velocity), (rows.temperature, scaled.temperature)):
            assert a.tobytes() == b.tobytes()

    def test_zero_density_error(self):
        gas = helium_gas()
        vg = build_velocity_grid(-1.0, 1.0, 4)
        grid = build_spatial_grid(1.0, 3)
        with pytest.raises(NumericalError, match=r"^unphysical state: cell 0 has density 0\.000e\+00 "):
            restrict(DistributionField(grid, vg, np.zeros((3, 4))), gas)
        # a negative density, in a value array as a step reads it
        values = np.ones((3, 4))
        values[1] *= -1.0
        with pytest.raises(NumericalError, match=r"^unphysical state: cell 1 has density -2\.000e\+00 "):
            restrict(values, gas, vgrid=vg)

    def test_value_array_needs_vgrid(self):
        with pytest.raises(ValueError, match="vgrid="):
            restrict(np.ones((3, 4)), helium_gas())


# The first, a middle, a tail-block and the last of 19 cells: two whole row
# blocks and a tail of three (cells 16-18) that the products take in a last
# block overlapping the one before.
BAD_CELLS = (0, 9, 17, 18)
NAN, INF = math.nan, math.inf


def raised(call, *args, **kwargs):
    """The exception ``call`` raises, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as got:
            call(*args, **kwargs)
    return got.value


def cells(j, bad, good=(1e25, 0.0, 300.0)):
    """(n, u, T) over 19 cells, all ``good`` but cell j, which is ``bad``."""
    n, u, T = (np.full(19, x) for x in good)
    n[j], u[j], T[j] = bad
    return n, u, T


class TestFailuresAreNamed:
    """Restriction and the equilibrium name each failure by its cell and
    state, with one message wherever the cell sits among the others: first,
    in the middle, in the overlapping last block or last.  The checks'
    whole-array reductions pass a valid input and send any other to the
    per-cell test."""

    @pytest.mark.parametrize("j", BAD_CELLS)
    @pytest.mark.parametrize("row, density, temperature", [
        ([0.0, 0.0, 0.0, 0.0], 0.0, NAN),
        ([-1.0, -1.0, -1.0, -1.0], -2.0, None),  # the temperature of a row of ones
        # n = 0.5 and a negative energy: T = (m / (k_B n)) (-0.21875), exactly
        ([-0.5, 1.0, 1.0, -0.5], 0.5, 6.6464731e-27 / (KB * 0.5) * -0.21875),
        ([1.0, NAN, 1.0, 1.0], NAN, NAN),
        ([1.0, INF, 1.0, 1.0], INF, NAN),
        ([1.0, -INF, 1.0, 1.0], -INF, NAN),
    ], ids=["zero", "negative", "negative-energy", "nan", "inf", "-inf"])
    def test_restrict(self, j, row, density, temperature):
        gas = helium_gas()
        vg = build_velocity_grid(-1.0, 1.0, 4)
        values = np.ones((19, 4))
        if temperature is None:
            temperature = restrict(values[:1], gas, vgrid=vg).temperature[0]
        values[j] = row
        error = raised(restrict, values, gas, vgrid=vg)
        assert type(error) is NumericalError
        assert str(error) == (f"unphysical state: cell {j} has density {density:.3e} 1/m^3 "
                              f"and temperature {temperature:.3e} K")

    @pytest.mark.parametrize("j", BAD_CELLS)
    @pytest.mark.parametrize("bad", [
        (0.0, 0.0, 300.0), (-1e25, 0.0, 300.0), (1e25, 0.0, 0.0), (1e25, 0.0, -5.0),
        (NAN, 0.0, 300.0), (1e25, NAN, 300.0), (1e25, 0.0, NAN),
        (INF, 0.0, 300.0), (-INF, 0.0, 300.0), (1e25, INF, 300.0), (1e25, -INF, 300.0),
        (1e25, 0.0, INF),
    ])
    def test_equilibrium_input(self, j, bad):
        error = raised(discrete_equilibrium, *cells(j, bad), reference_vgrid(24), helium_gas())
        assert type(error) is ValueError
        n, u, T = bad
        assert str(error) == (f"the equilibrium needs positive finite n and T and finite u: "
                              f"cell {j} has n {n:.3e} 1/m^3, u {u:.3e} m/s, T {T:.3e} K")

    @pytest.mark.parametrize("j", BAD_CELLS)
    @pytest.mark.parametrize("where", ["u = v_max", "u = v_min", "T = T_max", "T = T_min"])
    def test_equilibrium_off_the_grid(self, j, where):
        gas, vg = helium_gas(), reference_vgrid(24)
        h = 0.5 * (vg.v_max - vg.v_min)
        T_max = h * h * gas.molecular_mass / KB
        T_min = np.finfo(float).eps * T_max
        bad = {"u = v_max": (1e25, vg.v_max, 300.0), "u = v_min": (1e25, vg.v_min, 300.0),
               "T = T_max": (1e25, 0.0, T_max), "T = T_min": (1e25, 0.0, T_min)}[where]
        error = raised(discrete_equilibrium, *cells(j, bad), vg, gas)
        assert type(error) is ConvergenceError
        n, u, T = bad
        assert str(error) == (
            f"no discrete equilibrium on the velocity grid in cell {j}: n {n:.3e} 1/m^3, "
            f"u {u:.3e} m/s, T {T:.3e} K (the grid [{vg.v_min:.3e}, {vg.v_max:.3e}] m/s "
            f"holds no distribution with |u - v_mid| >= {h:.3e} m/s or T >= {T_max:.3e} K, "
            f"and resolves none with T <= {T_min:.3e} K)")

    @pytest.mark.parametrize("j", BAD_CELLS)
    @pytest.mark.parametrize("case", ["lost at once", "lost later", "unconverged"])
    def test_equilibrium_newton(self, j, case):
        # on the 16-velocity desk grid, among cells at rest at 300 K that
        # converge in a few evaluations: a 0.01 K Gaussian between two
        # velocities underflows in the first evaluation, a 600 K one at
        # -0.99 v_max after its first 2x2 step, and a 300 K one at 0.9 v_max
        # has no discrete equilibrium to converge to
        sc = load_shipped("helium_desk.cfg").with_overrides(n_velocities=16)
        vg = sc.vgrid
        between = 0.5 * (vg.velocities[10] + vg.velocities[11])
        bad, tail = {
            "lost at once": ((2e25, between, 0.01), "(its values on the velocity grid sum to "
                                                    "0.000e+00 of its peak)"),
            "lost later": ((1e25, -0.99 * vg.v_max, 600.0), "(its values on the velocity grid "
                                                            "sum to 2.700e-285 of its peak)"),
            "unconverged": ((1e25, 0.9 * vg.v_max, 300.0), "(residual 7.595e-02)"),
        }[case]
        error = raised(discrete_equilibrium, *cells(j, bad), vg, sc.gas)
        assert type(error) is ConvergenceError
        n, u, T = bad
        what = "did not converge" if case == "unconverged" else "lost the discrete Gaussian"
        assert str(error) == (f"equilibrium Newton solve {what} in cell {j}: n {n:.3e} 1/m^3, "
                              f"u {u:.3e} m/s, T {T:.3e} K {tail}")
        if case == "unconverged":  # its last digits differ between BLAS kernels
            assert error.residual == pytest.approx(0.0759476609151, rel=1e-10)

    def test_equilibrium_weight_and_out_shapes(self):
        gas, vg = helium_gas(), reference_vgrid(24)
        n, u, T = cells(0, (1e25, 0.0, 300.0))
        error = raised(discrete_equilibrium, n, u, T, vg, gas, weight=np.ones(2))
        assert type(error) is ValueError
        assert str(error) == "weight has shape (2,), the equilibrium needs (19,)"
        error = raised(discrete_equilibrium, n, u, T, vg, gas, out=np.empty((16, 24)))
        assert type(error) is ValueError
        assert str(error) == "out has shape (16, 24), the equilibrium needs (19, 24)"

    def test_no_cells(self):
        # an empty input passes every check and has an empty equilibrium
        gas = helium_gas()
        vg = reference_vgrid(24)
        assert discrete_equilibrium(np.empty(0), 0.0, 300.0, vg, gas).shape == (0, 24)
        macro = restrict(np.empty((0, 24)), gas, vgrid=vg)
        assert macro.number_density.shape == macro.temperature.shape == (0,)


class TestGasRelations:
    def test_relaxation_at_reference_temperature(self):
        gas = helium_gas()
        macro = MacroFields(np.array([1e25]), np.array([0.0]), np.array([gas.T_ref]))
        omega = relaxation_frequency(macro, gas)
        assert omega[0] == pytest.approx(1e25 * KB * gas.T_ref / gas.mu_ref, rel=1e-14)

    def test_relaxation_ambient_value(self):
        gas = helium_gas()
        p, T = 101325.0, 300.00785
        macro = MacroFields(np.array([p / (KB * T)]), np.array([0.0]), np.array([T]))
        assert relaxation_frequency(macro, gas)[0] == pytest.approx(5012798855.48, rel=1e-9)

    def test_constant_viscosity_exponent(self):
        gas = GasParams(
            molecular_mass=6.6464731e-27, mu_ref=1.9e-5, T_ref=273.15,
            viscosity_index=0.0, molecular_diameter=2.19e-10,
        )
        p, T = 2e5, 750.0
        macro = MacroFields(np.array([p / (KB * T)]), np.array([0.0]), np.array([T]))
        assert relaxation_frequency(macro, gas)[0] == pytest.approx(p / gas.mu_ref, rel=1e-14)

    def test_mean_free_path_scaling(self):
        gas = helium_gas()
        big = GasParams(
            molecular_mass=gas.molecular_mass, mu_ref=gas.mu_ref, T_ref=gas.T_ref,
            viscosity_index=gas.viscosity_index, molecular_diameter=2 * gas.molecular_diameter,
        )
        assert mean_free_path(big, 1e25) == pytest.approx(mean_free_path(gas, 1e25) / 4, rel=1e-14)

    def test_mean_free_path_value(self):
        assert mean_free_path(helium_gas(), 1e25) == pytest.approx(4.692960510399627e-07, rel=1e-12)
        with pytest.raises(ValueError):
            mean_free_path(helium_gas(), 0.0)

    @pytest.mark.parametrize("diameter,expected", [(1e200, 0.0), (1e-200, math.inf)])
    def test_mean_free_path_out_of_float_range(self, diameter, expected):
        # d^2 overflows to inf or underflows to 0; no OverflowError or ZeroDivisionError
        gas = replace(helium_gas(), molecular_diameter=diameter)
        assert mean_free_path(gas, 1e25) == expected

    def test_gas_params_validation(self):
        with pytest.raises(ValueError):
            GasParams(-1.0, 1.9e-5, 273.15, 0.66, 2.19e-10)
        with pytest.raises(ValueError):
            GasParams(6.6e-27, 1.9e-5, 273.15, -0.1, 2.19e-10)
