"""Finite-volume BGK stepping and the D1Q3 lattice model."""

import math
import re

import numpy as np
import pytest

from klift import (
    BGKStepper,
    D1Q3Stepper,
    build_spatial_grid,
    build_velocity_grid,
    discrete_equilibrium,
    relaxation_frequency,
    restrict,
    stable_dt,
)
from klift import steppers
from klift.errors import ConvergenceError, NumericalError
from klift.kinetic import DistributionField, MacroFields

from conftest import KB, helium_gas, load_shipped


def tiled(row, n_cells, perturbed=(), rng=None):
    """``row`` on ``n_cells`` cells, each cell in ``perturbed`` scaled entry by entry on its own.

    The unperturbed cells form runs of equal rows, which the step packs.
    """
    values = np.tile(row, (n_cells, 1))
    for c in perturbed:
        values[c] *= 1 + 0.05 * rng.random(len(row))
    return values


def uniform_equilibrium_field(gas, grid, vg, n, u, T):
    feq = discrete_equilibrium(np.full(grid.n_cells, n), np.full(grid.n_cells, u),
                               np.full(grid.n_cells, T), vg, gas)
    return DistributionField(grid, vg, feq)


class TestStableDt:
    def test_advection_only(self):
        vg = build_velocity_grid(-1.0, 1.0, 4)
        assert stable_dt(vg, 1.0, np.array([0.0]))  == pytest.approx(0.9 / vg.max_speed)

    def test_collision_dominant(self):
        vg = build_velocity_grid(-1.0, 1.0, 4)
        dt = stable_dt(vg, 1e6, np.array([1e9]))
        assert dt == pytest.approx(0.9e-9, rel=1e-6)

    def test_scenario_hand_evaluation(self):
        sc = load_shipped("helium_L30000.cfg")
        gas = sc.gas
        n_a, u_a, T_a = sc.ambient
        omega_a = relaxation_frequency(
            MacroFields(np.array([n_a]), np.array([u_a]), np.array([T_a])), gas
        )[0]
        expected = 0.9 / (sc.vgrid.max_speed / sc.grid.dx + omega_a)
        assert sc.dt == pytest.approx(expected, rel=1e-12)

    def test_invalid_dx(self):
        vg = build_velocity_grid(-1.0, 1.0, 4)
        with pytest.raises(ValueError):
            stable_dt(vg, -1.0, np.array([0.0]))


class TestFvStep:
    def test_uniform_equilibrium_fixed_point(self):
        gas = helium_gas()
        vg = build_velocity_grid(-4000.0, 4000.0, 24)
        grid = build_spatial_grid(1e-4, 16)
        n, u, T = 1e25, 0.0, 300.0
        f = uniform_equilibrium_field(gas, grid, vg, n, u, T)
        omega = relaxation_frequency(restrict(f, gas), gas)
        dt = stable_dt(vg, grid.dx, omega)
        stepper = BGKStepper(grid, vg, gas, dt, inflow=((n, u, T), (n, u, T)))
        out = stepper.step(f.values)
        np.testing.assert_allclose(out, f.values, rtol=1e-12)

    def test_unstable_dt_raises_numerical_error(self, monkeypatch):
        # 10x the stable step drives a cell's temperature negative within a
        # few steps; the next step names that cell instead of handing the
        # state to the equilibrium solve's argument check
        monkeypatch.setattr(steppers, "CFL_SAFETY", 10.0 * steppers.CFL_SAFETY)
        sc = load_shipped("helium_desk.cfg")
        st = sc.make_stepper()
        values = sc.initial_field().values
        with pytest.raises(NumericalError, match=r"cell \d+ .* temperature"):
            for _ in range(50):
                values = st.step(values)

    @pytest.mark.parametrize("bad,row", [(b, row) for row in (False, True)
                                         for b in (math.nan, math.inf, -math.inf)],
                             ids=["nan", "inf", "-inf", "nan-row", "inf-row", "-inf-row"])
    def test_non_finite_input_names_its_cell(self, bad, row):
        # restriction's density and temperature check catches a non-finite
        # entry or row, without a numpy warning: NaN gives n = NaN, +-inf
        # gives n = +-inf and T = NaN
        sc = load_shipped("helium_desk.cfg")
        values = sc.initial_field().values.copy()
        values[7, slice(None) if row else 3] = bad
        with pytest.raises(NumericalError, match=r"^unphysical state: cell 7 "):
            sc.make_stepper().step(values)

    def test_upwind_exact_shift_at_cfl_one(self):
        # nearly collisionless gas: the velocity column at CFL = 1 is an
        # exact one-cell right shift under periodic upwind transport
        gas = helium_gas()
        quiet = type(gas)(
            molecular_mass=gas.molecular_mass, mu_ref=1e40, T_ref=gas.T_ref,
            viscosity_index=gas.viscosity_index, molecular_diameter=gas.molecular_diameter,
        )
        vg = build_velocity_grid(0.0, 2000.0, 4)  # velocities 250..1750
        grid = build_spatial_grid(32.0, 32)
        feq = discrete_equilibrium(
            np.full(32, 1e25), np.full(32, 1000.0), np.full(32, 77.0), vg, quiet
        )
        vals = feq * (1.0 + 0.3 * np.sin(2 * np.pi * np.arange(32) / 32))[:, None]
        v_fast = vg.velocities[-1]
        dt = grid.dx / v_fast
        out = BGKStepper(grid, vg, quiet, dt).step(vals)
        np.testing.assert_allclose(out[:, -1], np.roll(vals[:, -1], 1), rtol=1e-12)

    def test_periodic_mass_conservation_both_schemes(self, rng):
        gas = helium_gas()
        vg = build_velocity_grid(-3000.0, 3000.0, 16)
        grid = build_spatial_grid(1.0, 32)
        feq = discrete_equilibrium(
            np.full(32, 1e25), np.zeros(32), np.full(32, 300.0), vg, gas
        )
        vals = feq * (1.0 + 0.2 * rng.random((32, 16)))
        omega = relaxation_frequency(restrict(DistributionField(grid, vg, vals), gas), gas)
        dt = stable_dt(vg, grid.dx, omega)
        stepper = BGKStepper(grid, vg, gas, dt)
        f = vals
        mass = vg.dv * grid.dx * f.sum()
        for _ in range(5):
            f = stepper.step(f)
            new_mass = vg.dv * grid.dx * f.sum()
            assert abs(new_mass - mass) <= 1e-12 * mass
            mass = new_mass

    def test_collision_operator_conserves_moments(self, rng):
        gas = helium_gas()
        vg = build_velocity_grid(-4000.0, 4000.0, 32)
        grid = build_spatial_grid(1.0, 8)
        feq = discrete_equilibrium(
            np.full(8, 1e25), np.zeros(8), np.full(8, 300.0), vg, gas
        )
        vals = feq * (1.0 + 0.1 * rng.random((8, 32)))
        f = DistributionField(grid, vg, vals)
        macro = restrict(f, gas)
        feq2 = discrete_equilibrium(
            macro.number_density, macro.velocity, macro.temperature, vg, gas
        )
        omega = relaxation_frequency(macro, gas)
        dt = stable_dt(vg, grid.dx, omega)
        relaxed = vals + dt * omega[:, None] * (feq2 - vals)
        after = restrict(DistributionField(grid, vg, relaxed), gas)
        np.testing.assert_allclose(after.number_density, macro.number_density, rtol=1e-10)
        np.testing.assert_allclose(after.temperature, macro.temperature, rtol=1e-10)
        vt = np.sqrt(KB * macro.temperature / gas.molecular_mass)
        np.testing.assert_allclose(after.velocity, macro.velocity, atol=1e-10 * vt.max())

    def test_upwind_positivity(self, rng):
        sc = load_shipped("helium_desk.cfg").with_overrides(n_cells=40)
        stepper = sc.make_stepper()
        values = sc.initial_field().values
        for _ in range(50):
            values = stepper.step(values)
        assert values.min() >= 0.0

    def test_boundary_validation(self):
        vg = build_velocity_grid(-1.0, 1.0, 4)
        grid = build_spatial_grid(1.0, 4)
        with pytest.raises(ValueError):
            BGKStepper(
                grid, vg, helium_gas(), 1.0, inflow=((-1.0, 0.0, 1.0), (1.0, 0.0, 1.0))
            )

    def test_misshaped_values_raise(self):
        sc = load_shipped("helium_desk.cfg").with_overrides(n_cells=20)
        values = sc.initial_field().values
        for bad in (values[:-1], values[:, :-1], values[:2]):
            with pytest.raises(ValueError, match="values shape"):
                sc.make_stepper().step(bad)

    def test_step_is_pure(self, rng):
        # stepping another state in between must not change the result for
        # the first: uniform rows and rows with runs take the packed step,
        # entry-by-entry perturbed rows the full grid
        sc = load_shipped("helium_desk.cfg").with_overrides(n_cells=20)
        stepper = sc.make_stepper()
        f = sc.initial_field().values
        states = (f * (1 + 1e-3), tiled(f[0], 20, (5, 12), rng), f * (1 + 0.05 * rng.random(f.shape)))
        for a in states:
            first = stepper.step(a)
            for b in states:
                stepper.step(b)
                assert np.array_equal(stepper.step(a), first)

    @pytest.mark.parametrize("periodic", [False, True], ids=["ghost", "periodic"])
    def test_step_aliases_nothing(self, rng, periodic):
        # callers keep earlier states (reference runs, CR maps, the coloured
        # Jacobian): a step must neither write to its input nor return memory
        # that the input, an earlier output or the stepper holds
        sc = load_shipped("helium_desk.cfg").with_overrides(n_cells=20)
        inflow = None if periodic else (sc.surface, sc.ambient)
        stepper = BGKStepper(sc.grid, sc.vgrid, sc.gas, sc.dt, inflow=inflow, scale=sc.scale)
        f = sc.initial_field().values
        a = f * (1 + 0.05 * rng.random(f.shape))
        b = f * (1 + 0.05 * rng.random(f.shape))
        c = tiled(f[0], 20, (5, 12), rng)  # takes the packed step
        a0, b0, c0 = a.copy(), b.copy(), c.copy()
        out_a = stepper.step(a)
        out_b = stepper.step(b)
        out_c = stepper.step(c)
        assert np.array_equal(a, a0) and np.array_equal(b, b0) and np.array_equal(c, c0)
        held = list(held_arrays(stepper))
        assert held
        for out, earlier in ((out_a, [a]), (out_b, [b, out_a]), (out_c, [c, out_a, out_b])):
            for other in earlier + held:
                assert not np.shares_memory(out, other)


def held_arrays(obj):
    """The arrays an object holds in its attributes, in tuples or in attribute objects."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            yield from (x for x in value if isinstance(x, np.ndarray))
        elif hasattr(value, "__dict__"):
            yield from (x for x in vars(value).values() if isinstance(x, np.ndarray))


def where_flux_step(stepper, ghosts, values):
    """One upwind step with the flux chosen by ``np.where`` over both shifts.

    The update is formed in the step's order: the relaxation source
    dt omega f_eq, plus the inflow and minus the outflow of (dt/dx) times the
    face flux, plus (1 - dt omega) times the values.
    """
    gas, vg = stepper.gas, stepper.vgrid
    macro = restrict(DistributionField(stepper.grid, vg, values, scale=stepper.scale), gas)
    dt_omega = stepper.dt * relaxation_frequency(macro, gas)
    source = discrete_equilibrium(
        macro.number_density, macro.velocity, macro.temperature, vg, gas,
        weight=stepper.scale * dt_omega,
    )
    v = (stepper.dt / stepper.grid.dx) * vg.velocities
    fpad = np.vstack([ghosts[0], values, ghosts[1]])
    flux = np.where(v[None, :] >= 0.0, v * fpad[:-1], v * fpad[1:])
    return source + flux[:-1] - flux[1:] + (1.0 - dt_omega)[:, None] * values


def integrated_form_step(stepper, ghosts, values):
    """f - (dt/dx)(phi_{j+1/2} - phi_{j-1/2}) + dt omega (f_eq - f), term by term."""
    gas, vg = stepper.gas, stepper.vgrid
    macro = restrict(DistributionField(stepper.grid, vg, values, scale=stepper.scale), gas)
    feq = stepper.scale * discrete_equilibrium(
        macro.number_density, macro.velocity, macro.temperature, vg, gas
    )
    omega = relaxation_frequency(macro, gas)
    v = vg.velocities
    fpad = np.vstack([ghosts[0], values, ghosts[1]])
    flux = np.where(v[None, :] >= 0.0, v * fpad[:-1], v * fpad[1:])
    return (values - (stepper.dt / stepper.grid.dx) * (flux[1:] - flux[:-1])
            + stepper.dt * omega[:, None] * (feq - values))


class TestUpwindFlux:
    # (v_min, v_max, Nv, T): every velocity negative, every velocity positive,
    # and an odd grid whose middle velocity is exactly 0
    @pytest.mark.parametrize("v_min,v_max,nv,T", [
        (-3000.0, -200.0, 12, 80.0), (200.0, 3000.0, 12, 80.0), (-1920.0, 1920.0, 15, 120.0),
    ], ids=["all-negative", "all-positive", "odd-with-zero"])
    def test_sliced_flux_matches_where(self, rng, v_min, v_max, nv, T):
        gas = helium_gas()
        vg = build_velocity_grid(v_min, v_max, nv)
        if nv % 2:
            assert vg.velocities[nv // 2] == 0.0
        grid = build_spatial_grid(1e-3, 10)
        u = 0.5 * (v_min + v_max)
        inflow = ((2e25, u, T), (1e25, u, 1.5 * T))
        scale = gas.molecular_mass
        values = scale * uniform_equilibrium_field(gas, grid, vg, 1e25, u, T).values
        values *= 1.0 + 0.1 * rng.random(values.shape)
        macro = restrict(DistributionField(grid, vg, values, scale=scale), gas)
        dt = stable_dt(vg, grid.dx, relaxation_frequency(macro, gas))
        stepper = BGKStepper(grid, vg, gas, dt, inflow=inflow, scale=scale)
        ghosts = [scale * discrete_equilibrium(n, u_, T_, vg, gas) for n, u_, T_ in inflow]
        got = stepper.step(values)
        np.testing.assert_array_equal(got, where_flux_step(stepper, ghosts, values))
        np.testing.assert_allclose(got, integrated_form_step(stepper, ghosts, values), rtol=1e-14)


def counted_rows(monkeypatch, name):
    """The rows of each call a step makes to ``steppers.<name>``, in call order.

    The rows are those of the first argument: the cells of an equilibrium's
    n, or the value rows a restriction reads.
    """
    rows, original = [], getattr(steppers, name)

    def counting(first, *args, **kwargs):
        rows.append(len(np.atleast_1d(first)))
        return original(first, *args, **kwargs)

    monkeypatch.setattr(steppers, name, counting)
    return rows


@pytest.fixture
def equilibrium_rows(monkeypatch):
    """The number of cells of each equilibrium call a step makes, in call order."""
    return counted_rows(monkeypatch, "discrete_equilibrium")


@pytest.fixture
def restrict_rows(monkeypatch):
    """The number of rows of each restriction a step makes, in call order."""
    return counted_rows(monkeypatch, "restrict")


def desk_case(n_cells, rng, *, periodic=False, dt_factor=1.0):
    """A desk stepper on ``n_cells`` cells and one off-equilibrium row for its states."""
    sc = load_shipped("helium_desk.cfg").with_overrides(n_cells=n_cells)
    inflow = None if periodic else (sc.surface, sc.ambient)
    stepper = BGKStepper(sc.grid, sc.vgrid, sc.gas, dt_factor * sc.dt, inflow=inflow,
                         scale=sc.scale)
    return stepper, sc.initial_field().values[0] * (1 + 0.05 * rng.random(sc.vgrid.n_velocities))


def full_grid_step(stepper, values):
    """The step with no cell dropped: no grid has more than all of its cells drop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(steppers, "MIN_DROPPED_SHARE", 1.0)
        return stepper.step(values)


def assert_step_matches_full_grid(stepper, values, equilibrium_rows, restrict_rows, kept):
    """The step equals the step-order oracle within 1e-14 and computed ``kept`` cells.

    Restriction and the equilibrium each see the kept rows only.
    """
    ghosts = (values[-1], values[0]) if stepper._ghosts is None else stepper._ghosts
    want = where_flux_step(stepper, ghosts, values)
    del equilibrium_rows[:], restrict_rows[:]
    got = stepper.step(values)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert equilibrium_rows == restrict_rows == [kept]


class TestPackedStep:
    """Cells inside runs of equal rows are stepped once; the result is the full grid's."""

    @pytest.fixture(autouse=True)
    def any_drop_packs(self, monkeypatch):
        # pack whenever a cell drops, whatever the break-even share
        monkeypatch.setattr(steppers, "MIN_DROPPED_SHARE", 0.0)

    @pytest.mark.parametrize("periodic", [False, True], ids=["ghost", "periodic"])
    def test_runs_at_both_ends(self, rng, equilibrium_rows, restrict_rows, periodic):
        # rows 0-5 and 14-19 equal: cells 2-4 and 16-18 drop; cells 0, 1 and
        # 19 stay although their rows are in a run, as their stencils or
        # their left neighbour's reach a ghost or wrapped row
        stepper, row = desk_case(20, rng, periodic=periodic)
        values = tiled(row, 20, range(6, 14), rng)
        assert_step_matches_full_grid(stepper, values, equilibrium_rows, restrict_rows, 14)

    def test_run_wrapping_past_the_last_cell(self, rng, equilibrium_rows, restrict_rows):
        # on the ring, rows 14-19 and 0-3 form one run of ten; only the cells
        # whose four rows lie inside the grid drop: 2 and 16-18
        stepper, row = desk_case(20, rng, periodic=True)
        values = tiled(row, 20, range(4, 14), rng)
        assert_step_matches_full_grid(stepper, values, equilibrium_rows, restrict_rows, 16)

    @pytest.mark.parametrize("periodic", [False, True], ids=["ghost", "periodic"])
    @pytest.mark.parametrize("n_cells,kept", [(1, 1), (2, 2), (3, 3), (4, 3), (5, 3)])
    def test_tiny_grids(self, rng, equilibrium_rows, restrict_rows, periodic, n_cells, kept):
        # one row on every cell: cells 2 .. N - 2 drop, which needs N >= 4
        stepper, row = desk_case(n_cells, rng, periodic=periodic)
        assert_step_matches_full_grid(stepper, tiled(row, n_cells), equilibrium_rows,
                                      restrict_rows, kept)

    def test_run_broken_by_one_entry(self, rng, equilibrium_rows, restrict_rows):
        # one tail entry of row 10 moves by 1 %, which moves neither the
        # middle entry nor the (n, u, T) of the row: only the exact row
        # compare keeps cells 9-12
        stepper, row = desk_case(20, rng)
        values = tiled(row, 20)
        values[10, 0] *= 1.01
        macro = restrict(values, stepper.gas, vgrid=stepper.vgrid, scale=stepper.scale)
        for moment in (macro.number_density, macro.velocity, macro.temperature):
            assert moment[9] == moment[10] == moment[11]
        assert_step_matches_full_grid(stepper, values, equilibrium_rows, restrict_rows, 7)

    def test_no_run(self, rng, equilibrium_rows, restrict_rows):
        stepper, row = desk_case(20, rng)
        values = tiled(row, 20, range(20), rng)
        assert_step_matches_full_grid(stepper, values, equilibrium_rows, restrict_rows, 20)


class TestPackedStepChoice:
    """The shipped break-even share, the full-scale run, and errors naming the input's cell."""

    def test_too_few_drops_step_the_full_grid(self, rng, equilibrium_rows, restrict_rows):
        # rows 0-6 equal: cells 2-5 drop, 4 of 20, not more than the share
        assert 4 <= steppers.MIN_DROPPED_SHARE * 20
        stepper, row = desk_case(20, rng)
        values = tiled(row, 20, range(7, 20), rng)
        assert_step_matches_full_grid(stepper, values, equilibrium_rows, restrict_rows, 20)

    def test_full_scale_trajectory(self, equilibrium_rows, restrict_rows):
        # 1,000 steps of the expanding gas from the uniform ambient state: each
        # step is within 1e-14 of the full grid's from the same input, and the
        # trajectory within 1e-13 of the full grid's (bit for bit on four
        # OpenBLAS kernels; 1.7e-16 a step and 3.9e-14 after the run on Nehalem)
        sc = load_shipped("helium_L30000.cfg")
        stepper = sc.make_stepper()
        packed = full = sc.initial_field().values
        kept = []
        for k in range(1, 1001):
            del equilibrium_rows[:], restrict_rows[:]
            previous, packed = packed, stepper.step(packed)
            assert restrict_rows == equilibrium_rows, k
            kept.append(equilibrium_rows[0])
            full = full_grid_step(stepper, full)
            if k % 100 == 0:
                scale = np.max(np.abs(full))
                assert np.max(np.abs(packed - full)) <= 1e-13 * scale, k
                one = full_grid_step(stepper, previous)
                assert np.max(np.abs(packed - one)) <= 1e-14 * scale, k
        # the uniform input keeps cells 0, 1 and N - 1; the front then
        # widens the kept part, which stays under a fifth of the grid
        assert kept[0] == 3
        assert max(kept) < 0.2 * sc.grid.n_cells

    def test_failed_equilibrium_names_the_cell_of_the_input(self, rng, equilibrium_rows, restrict_rows):
        # cell 15 holds mass only at the two extreme velocities, which no
        # discrete Maxwellian on the grid matches; it follows a run whose
        # cells 2-13 drop, so it is packed row 3 but named as cell 15
        stepper, row = desk_case(20, rng)
        values = tiled(row, 20)
        values[15] = 0.0
        values[15, [0, -1]] = row.max()
        with pytest.raises(ConvergenceError) as want:
            full_grid_step(stepper, values)
        assert "in cell 15:" in str(want.value)
        del equilibrium_rows[:], restrict_rows[:]
        with pytest.raises(ConvergenceError) as got:
            stepper.step(values)
        assert str(got.value) == str(want.value)
        # the packed cells, then the full grid on the failure path
        assert equilibrium_rows == restrict_rows == [7, 20]

    def test_underflowing_gaussian_names_the_cell_of_the_input(self, equilibrium_rows,
                                                               restrict_rows):
        # row 15 holds only its two top velocities, in the ratio 0.01 : 1:
        # a 7.35 K gas at the grid's edge whose Newton iterates underflow;
        # both paths end in the same error naming cell 15 and its state
        sc = load_shipped("helium_desk.cfg").with_overrides(n_cells=20, n_velocities=16)
        stepper = sc.make_stepper()
        values = sc.initial_field().values.copy()
        top = values.max()
        values[15] = 0.0
        values[15, -2:] = 0.01 * top, top
        with pytest.raises(ConvergenceError) as want:
            full_grid_step(stepper, values)
        assert re.search(r"in cell 15: n 1\.144e\+25 1/m\^3, u 9\.349e\+03 m/s, T 7\.352e\+00 K",
                         str(want.value))
        del equilibrium_rows[:], restrict_rows[:]
        with pytest.raises(ConvergenceError) as got:
            stepper.step(values)
        assert str(got.value) == str(want.value)
        assert equilibrium_rows == restrict_rows == [7, 20]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf], ids=["inf", "-inf"])
    def test_repeated_infinite_rows_name_the_first_cell(self, rng, equilibrium_rows,
                                                        restrict_rows, bad):
        # rows 8-15 are one infinite row, so cells 10-14 drop with their
        # copies; the first, cell 8, is kept, as a dropped row equals the
        # kept row before it.  The packed restriction fails at packed row 3
        # and the full grid's names cell 8.
        stepper, row = desk_case(20, rng)
        values = tiled(row, 20)
        values[8:16] = bad
        del equilibrium_rows[:], restrict_rows[:]
        with pytest.raises(NumericalError) as got:
            stepper.step(values)
        assert str(got.value) == (f"unphysical state: cell 8 has density {bad:.3e} 1/m^3 "
                                  "and temperature nan K")
        assert restrict_rows == [9, 20] and equilibrium_rows == []

    def test_non_finite_output_reruns_the_full_grid(self, rng, equilibrium_rows, restrict_rows):
        # values 1e265 times the desk's, a time step 1e300 times too long:
        # the input restricts to finite (n, u, T), the fluxes overflow
        stepper, row = desk_case(20, rng, dt_factor=1e300)
        values = tiled(1e265 * row, 20, (5, 12), rng)
        del equilibrium_rows[:], restrict_rows[:]
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError,
                match=r"^finite-volume step produced non-finite values, first in cell 0$"):
            stepper.step(values)
        assert equilibrium_rows == restrict_rows == [11, 20]

    def test_non_finite_output_names_the_input_cell(self, rng, equilibrium_rows):
        # cell 14 holds 1e160 times the density of the rest: it restricts to a
        # finite state, but its relaxation term, quadratic in the density,
        # overflows.  It is packed row 3 of the 7 kept cells, and the full
        # grid's rerun names it by its place in the input.
        stepper, row = desk_case(20, rng)
        values = tiled(row, 20)
        values[14] *= 1e160
        del equilibrium_rows[:]
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError,
                match=r"^finite-volume step produced non-finite values, first in cell 14$"):
            stepper.step(values)
        assert equilibrium_rows == [7, 20]


class TestD1Q3:
    def test_equilibrium_invariant(self):
        f = np.full((10, 3), 0.7)
        out = D1Q3Stepper(omega=1.4).step(f)
        np.testing.assert_allclose(out, f, rtol=1e-14)

    def test_global_density_conserved(self, rng):
        f = rng.random((20, 3))
        st = D1Q3Stepper(omega=0.9)
        total = f.sum()
        for _ in range(10):
            f = st.step(f)
            assert f.sum() == pytest.approx(total, rel=1e-14)

    def test_single_site_pulse_hand_oracle(self):
        n, j, rho0 = 9, 4, 3.0
        f = np.zeros((n, 3))
        f[j, 1] = rho0
        out = D1Q3Stepper(omega=1.0).step(f)
        expected = np.zeros((n, 3))
        expected[j + 1, 0] = rho0 / 3.0  # speed +1 streamed right
        expected[j, 1] = rho0 / 3.0      # rest population stays
        expected[j - 1, 2] = rho0 / 3.0  # speed -1 streamed left
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_moment_evolution_matches_transform(self, rng):
        from klift.moments import D1Q3_MOMENT_MATRIX as M

        f = rng.random((12, 3))
        omega = 1.3
        out = D1Q3Stepper(omega=omega).step(f)
        # pre-streaming moment update: rho fixed, higher moments relaxed
        m_pre = f @ M.T
        post = np.empty_like(m_pre)
        post[:, 0] = m_pre[:, 0]
        post[:, 1] = (1 - omega) * m_pre[:, 1]
        post[:, 2] = (1 - omega) * m_pre[:, 2] + omega * m_pre[:, 0] / 3.0
        # undo streaming, then compare moments
        unstreamed = np.empty_like(out)
        unstreamed[:, 0] = np.roll(out[:, 0], -1)
        unstreamed[:, 1] = out[:, 1]
        unstreamed[:, 2] = np.roll(out[:, 2], 1)
        np.testing.assert_allclose(unstreamed @ M.T, post, atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            D1Q3Stepper(omega=2.5)
        with pytest.raises(ValueError):
            D1Q3Stepper(omega=0.0)
        with pytest.raises(ValueError):
            D1Q3Stepper(omega=1.0).step(np.zeros((4, 2)))


STEPPERS = ("bgk-ring", "bgk-inflow", "d1q3", "bgk-ring-runs", "bgk-inflow-runs")


def stepper_case(kind, rng):
    """A factory of like-built steppers of one kind, and a state for them to step.

    The "-runs" states keep runs of equal rows, so their step is the packed one.
    """
    if kind == "d1q3":
        return (lambda: D1Q3Stepper(omega=1.3)), rng.random((12, 3)) + 0.5
    sc = load_shipped("helium_desk.cfg").with_overrides(n_cells=20)
    inflow = None if kind.startswith("bgk-ring") else (sc.surface, sc.ambient)
    f = sc.initial_field().values
    state = (tiled(f[0], 20, (5, 12), rng) if kind.endswith("-runs")
             else f * (1 + 0.05 * rng.random(f.shape)))
    return ((lambda: BGKStepper(sc.grid, sc.vgrid, sc.gas, sc.dt, inflow=inflow, scale=sc.scale)),
            state)


@pytest.mark.parametrize("kind", STEPPERS)
class TestStepOut:
    def test_out_is_returned_and_equals_a_fresh_step(self, kind, rng):
        make, values = stepper_case(kind, rng)
        stepper = make()
        buf = np.full_like(values, np.nan)
        got = stepper.step(values, out=buf)
        assert got is buf
        assert got.tobytes() == stepper.step(values).tobytes()

    def test_overlapping_or_misshaped_out_raises(self, kind, rng):
        make, values = stepper_case(kind, rng)
        stepper = make()
        longer = np.concatenate([values, values[-1:]])  # its two row windows overlap
        for source, out in ((values, values), (values, values[:]), (longer[:-1], longer[1:])):
            with pytest.raises(ValueError, match="overlap"):
                stepper.step(source, out=out)
        rows, q = values.shape
        for out in (np.empty((rows - 1, q)), np.empty((rows, q), dtype=np.float32)):
            with pytest.raises(ValueError, match="shape"):
                stepper.step(values, out=out)

    def test_trajectory_through_out_equals_fresh_steps(self, kind, rng):
        make, values = stepper_case(kind, rng)
        plain, buffered = make(), make()
        fresh, cur = values, values
        buffers = (np.empty_like(values), np.empty_like(values))
        for k in range(300):
            fresh = plain.step(fresh)
            cur = buffered.step(cur, out=buffers[k % 2])
            assert cur.tobytes() == fresh.tobytes(), k
