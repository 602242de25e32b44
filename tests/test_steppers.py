"""Finite-volume BGK stepping and the D1Q3 lattice model."""

import math
import re
from functools import partial

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
from klift import BasisKind, build_moment_basis, steppers
from klift.cli import REPORT_STEPS
from klift.cr import cr_map, cr_weights
from klift.steppers import Runs
from klift.errors import ConvergenceError, NumericalError
from klift.kinetic import ROW_BLOCK, DistributionField, MacroFields

from conftest import KB, helium_gas, load_shipped


def tiled(row, n_cells, perturbed=(), rng=None):
    """``row`` on ``n_cells`` cells, each cell in ``perturbed`` scaled entry by entry on its own.

    The unperturbed cells form runs of equal rows, which the step steps once
    each, on their layout.
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
        # the first: uniform rows and rows with runs step their layout,
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
        c = tiled(f[0], 20, (5, 12), rng)  # steps its layout
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
    """The step with every row a run of its own: no grid has more than all of
    its neighbouring pairs equal."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(steppers, "MIN_DROPPED_SHARE", 1.0)
        return stepper.step(values)


def padded(rows):
    """The rows a step's gather of ``rows`` layout rows holds: whole row blocks."""
    return -(-rows // ROW_BLOCK) * ROW_BLOCK


def assert_step_matches_full_grid(stepper, values, equilibrium_rows, restrict_rows, kept):
    """The step equals the step-order oracle within 1e-14 and computed ``kept`` cells.

    Restriction and the equilibrium each see the rows of the one-step layout
    only, padded to whole row blocks; with every row a run of its own, the
    grid's rows as they are.
    """
    ghosts = (values[-1], values[0]) if stepper._ghosts is None else stepper._ghosts
    want = where_flux_step(stepper, ghosts, values)
    runs = Runs(values)
    rows = len(values) if runs.cells else len(runs.layout(1))
    assert rows == kept
    del equilibrium_rows[:], restrict_rows[:]
    got = stepper.step(values)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert equilibrium_rows == restrict_rows == [rows if runs.cells else padded(rows)]


class TestPackedStep:
    """Cells inside runs of equal rows are stepped once, on the one-step
    layout of the runs; the result is the full grid's."""

    @pytest.fixture(autouse=True)
    def any_equal_pair_steps_the_layout(self, monkeypatch):
        # step the layout whenever two rows are equal, whatever the break-even share
        monkeypatch.setattr(steppers, "MIN_DROPPED_SHARE", 0.0)

    @pytest.mark.parametrize("periodic", [False, True], ids=["ghost", "periodic"])
    def test_runs_at_both_ends(self, rng, equilibrium_rows, restrict_rows, periodic):
        # rows 0-5 and 14-19 equal: the layout holds the first, one interior
        # and the last row of each run, cells 0, 1, 5, 14, 15 and 19, so
        # cells 2-4 and 16-18 drop
        stepper, row = desk_case(20, rng, periodic=periodic)
        values = tiled(row, 20, range(6, 14), rng)
        assert_step_matches_full_grid(stepper, values, equilibrium_rows, restrict_rows, 14)

    def test_run_wrapping_past_the_last_cell(self, rng, equilibrium_rows, restrict_rows):
        # on the ring, rows 14-19 and 0-3 form one run of ten, but runs do
        # not wrap: only the cells whose four rows lie inside the grid drop,
        # 2 and 16-18
        stepper, row = desk_case(20, rng, periodic=True)
        values = tiled(row, 20, range(4, 14), rng)
        assert_step_matches_full_grid(stepper, values, equilibrium_rows, restrict_rows, 16)

    @pytest.mark.parametrize("periodic", [False, True], ids=["ghost", "periodic"])
    @pytest.mark.parametrize("n_cells,kept", [(1, 1), (2, 2), (3, 3), (4, 3), (5, 3)])
    def test_tiny_grids(self, rng, equilibrium_rows, restrict_rows, periodic, n_cells, kept):
        # one row on every cell: one run, laid out as min(N, 3) rows
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

    @pytest.mark.parametrize("periodic", [False, True], ids=["ghost", "periodic"])
    @pytest.mark.parametrize("rows", range(1, 18))
    def test_padded_layout_is_the_grid_update(self, rng, restrict_rows, periodic, rows):
        # layouts of every size modulo ROW_BLOCK: one run of two rows, or a run
        # of ten (three layout rows) and rows - 3 rows of their own; one row
        # is a grid of one cell.  The step pads the layout's gather to whole
        # row blocks, and its result is the grid update's bit for bit.
        n_cells = 10 + rows - 3 if rows > 2 else rows
        stepper, row = desk_case(n_cells, rng, periodic=periodic)
        values = tiled(row, n_cells, range(10, n_cells), rng)
        want = stepper._update(values, np.empty(values.shape), n_cells)
        del restrict_rows[:]
        assert stepper.step(values).tobytes() == want.tobytes()
        if rows > 1:
            assert len(Runs(values).layout(1)) == rows
            assert restrict_rows == [padded(rows)]


class TestPackedStepChoice:
    """The shipped break-even share, the full-scale run, and errors naming the input's cell."""

    def test_too_few_drops_step_the_full_grid(self, rng, equilibrium_rows, restrict_rows):
        # rows 0-4 equal: 4 of 19 neighbouring pairs, not more than the
        # share, so every row is a run of its own; with row 5 equal too, 5
        # pairs are, and the layout holds 3 rows of that run and 14 others
        assert 4 <= steppers.MIN_DROPPED_SHARE * 19 < 5
        stepper, row = desk_case(20, rng)
        values = tiled(row, 20, range(5, 20), rng)
        assert_step_matches_full_grid(stepper, values, equilibrium_rows, restrict_rows, 20)
        values[5] = values[4]
        assert_step_matches_full_grid(stepper, values, equilibrium_rows, restrict_rows, 17)

    def test_full_scale_trajectory(self, equilibrium_rows, restrict_rows):
        # 1,000 steps of the expanding gas from the uniform ambient state: the
        # layout's rows restrict and relax as they do on the full grid, so the
        # trajectory is the full grid's bit for bit
        sc = load_shipped("helium_L30000.cfg")
        stepper = sc.make_stepper()
        stepped = full = sc.initial_field().values
        kept = []
        for k in range(1, 1001):
            kept.append(len(Runs(stepped).layout(1)))
            del equilibrium_rows[:], restrict_rows[:]
            stepped = stepper.step(stepped)
            assert restrict_rows == equilibrium_rows == [padded(kept[-1])], k
            full = full_grid_step(stepper, full)
            if k % 100 == 0:
                assert stepped.tobytes() == full.tobytes(), k
        # the uniform input is one run of three layout rows; the front then
        # widens the layout, which stays under a fifth of the grid
        assert kept[0] == 3
        assert max(kept) < 0.2 * sc.grid.n_cells

    def test_failed_equilibrium_names_the_cell_of_the_input(self, rng, equilibrium_rows, restrict_rows):
        # cell 15 holds mass only at the two extreme velocities, which no
        # discrete Maxwellian on the grid matches; it follows a run whose
        # cells 2-13 drop, so it is layout row 3 but named as cell 15
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
        # the layout's 7 rows padded to a row block, then the full grid on the failure path
        assert equilibrium_rows == restrict_rows == [padded(7), 20]

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
        assert equilibrium_rows == restrict_rows == [padded(7), 20]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf], ids=["inf", "-inf"])
    def test_repeated_infinite_rows_name_the_first_cell(self, rng, equilibrium_rows,
                                                        restrict_rows, bad):
        # rows 8-15 are one infinite row, so cells 10-14 drop with their
        # copies; the first, cell 8, is laid out, as a dropped row equals the
        # layout row before it.  The layout's restriction fails at its row 3
        # and the full grid's names cell 8.
        stepper, row = desk_case(20, rng)
        values = tiled(row, 20)
        values[8:16] = bad
        del equilibrium_rows[:], restrict_rows[:]
        with pytest.raises(NumericalError) as got:
            stepper.step(values)
        assert str(got.value) == (f"unphysical state: cell 8 has density {bad:.3e} 1/m^3 "
                                  "and temperature nan K")
        assert restrict_rows == [padded(9), 20] and equilibrium_rows == []

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
        assert equilibrium_rows == restrict_rows == [padded(11), 20]

    def test_non_finite_output_names_the_input_cell(self, rng, equilibrium_rows):
        # cell 14 holds 1e160 times the density of the rest: it restricts to a
        # finite state, but its relaxation term, quadratic in the density,
        # overflows.  It is row 3 of the 7 layout rows, and the full grid's
        # rerun names it by its place in the input.
        stepper, row = desk_case(20, rng)
        values = tiled(row, 20)
        values[14] *= 1e160
        del equilibrium_rows[:]
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError,
                match=r"^finite-volume step produced non-finite values, first in cell 14$"):
            stepper.step(values)
        assert equilibrium_rows == [padded(7), 20]


def planted_rows(rng, n_rows, q):
    """(n_rows, q) rows in blocks of 1, 2, 3 or n_rows equal rows (the last
    block cut short), among them a block whose row has the last one's middle
    entry and differs in one other, blocks of a row holding a NaN, and a
    block whose row is the last one's with its zeros' signs flipped."""
    mid = q // 2
    blocks = []
    while sum(map(len, blocks)) < n_rows:
        row, kind = rng.standard_normal(q), rng.integers(4)
        if kind == 0 and blocks and q > 1:
            row = blocks[-1][0].copy()
            row[(mid + rng.integers(1, q)) % q] += 1.0
        elif kind == 1:
            row[rng.integers(q)] = np.nan
        elif kind == 2:
            row[[mid, rng.integers(q)]] = 0.0
            blocks.append(np.tile(row, (int(rng.choice([1, 2, 3])), 1)))
            row = np.where(row == 0.0, -row, row)
        blocks.append(np.tile(row, (int(rng.choice([1, 2, 3, n_rows])), 1)))
    return np.concatenate(blocks)[:n_rows]


def equal_pairs(rows):
    """Whether each row equals the next bit for bit, one pair at a time."""
    return np.array([rows[i].tobytes() == rows[i + 1].tobytes() for i in range(len(rows) - 1)],
                    dtype=bool)


ORACLE_SHAPES = [(1, 5), (2, 1), (2, 3), (7, 2), (40, 3), (200, 7), (120, 56)]


def run_owner(runs):
    """The number of the run each grid row lies in."""
    return runs.expand(np.arange(len(runs.first), dtype=float)[:, None])[:, 0].astype(int)


@pytest.fixture
def any_equal_pair_is_a_run(monkeypatch):
    """Runs however few rows they save."""
    monkeypatch.setattr(steppers, "MIN_DROPPED_SHARE", 0.0)


class TestEqualNeighbours:
    """One rule, equal bit for bit, finds equal neighbouring rows for the
    grid step, the reference blocks, the lift's runs and a CR map's cuts."""

    def test_same_nans_are_equal_and_signed_zeros_differ(self):
        nan = np.float64(np.nan)
        rows = np.array([[0.0, 0.0, 1.0], [-0.0, -0.0, 1.0], [-0.0, -0.0, 1.0],
                         [nan, 2.0, 1.0], [nan, 2.0, 1.0], [3.0, nan, 1.0], [3.0, -nan, 1.0],
                         [3.0, 2.0, 4.0]])
        want = [False, True, False, True, False, False, False]
        assert steppers.equal_neighbours(rows).tolist() == want == equal_pairs(rows).tolist()

    def test_float32_rows(self, rng):
        rows = rng.random((12, 5)).astype(np.float32)
        rows[3:7] = rows[3]
        rows[8, 0], rows[9] = 0.0, rows[8]
        rows[9, 0] = -0.0
        rows[10], rows[11] = rows[1], rows[1]
        rows[11, 4] = np.nextafter(rows[11, 4], np.float32(2))  # one ulp off
        want = [False, False, False, True, True, True, False, False, False, False, False]
        assert steppers.equal_neighbours(rows).tolist() == want == equal_pairs(rows).tolist()

    @pytest.mark.usefixtures("any_equal_pair_is_a_run")
    def test_bool_masks(self, rng):
        # a mask of which entries lie in a band compares as rows of bools
        mask = rng.random((30, 4)) < 0.5
        mask[10:20] = [True, False, False, True]
        equal = equal_pairs(mask)
        assert equal[10:19].all()
        assert steppers.equal_neighbours(mask).tolist() == equal.tolist()
        runs = Runs(mask)
        assert runs.count == 1 + np.count_nonzero(~equal)
        assert run_owner(runs).tolist() == np.concatenate(([0], np.cumsum(~equal))).tolist()

    @pytest.mark.parametrize("n_rows, q", ORACLE_SHAPES)
    @pytest.mark.usefixtures("any_equal_pair_is_a_run")
    def test_runs_are_the_maximal_blocks_of_equal_rows(self, n_rows, q):
        for seed in range(20):
            rows = planted_rows(np.random.default_rng(seed), n_rows, q)
            equal = equal_pairs(rows)
            assert steppers.equal_neighbours(rows).tolist() == equal.tolist()
            runs = Runs(rows)
            # numbered in row order: a run starts at every row unequal to the one before
            owner = np.concatenate(([0], np.cumsum(~equal)))
            assert run_owner(runs).tolist() == owner.tolist()
            assert runs.count == owner[-1] + 1
            assert runs.order.tolist() == list(range(runs.count))
            assert runs.cells == (runs.count == n_rows)
            starts = np.flatnonzero(np.concatenate(([True], ~equal)))
            assert runs.first[: runs.count].tolist() == starts.tolist()
            assert runs.lengths[: runs.count].tolist() == np.diff(starts, append=n_rows).tolist()
            stored = runs.store(rows)
            assert runs.expand(stored).tobytes() == rows[starts[owner]].tobytes()

    @pytest.mark.parametrize("n_rows, q", ORACLE_SHAPES)
    @pytest.mark.usefixtures("any_equal_pair_is_a_run")
    def test_split_is_the_common_refinement(self, n_rows, q):
        # the runs of several arrays are the maximal blocks of rows equal in
        # every one of them
        for seed in range(20):
            rng = np.random.default_rng(seed)
            arrays = [planted_rows(rng, n_rows, q) for _ in range(3)]
            equal = np.logical_and.reduce([equal_pairs(a) for a in arrays])
            runs = Runs(*arrays)
            owner = run_owner(runs)
            assert (owner[1:] == owner[:-1]).tolist() == equal.tolist()
            assert runs.count == 1 + np.count_nonzero(~equal)
            assert runs.norm(runs.store(arrays[0])) == pytest.approx(
                np.linalg.norm(runs.expand(runs.store(arrays[0]))), rel=1e-14, nan_ok=True)

    @pytest.mark.parametrize("q", [3, 57])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
    def test_rows_of_any_width(self, q, dtype):
        # the unequal-entry flags of a row fill whole 8-byte words only when
        # q is a multiple of 8; at q = 3 and 57 the padding past q must not
        # count, and a difference in the last entry, in the padded word, must
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rows = planted_rows(rng, 64, q)
            rows = (rows > 0) if dtype is bool else rows.astype(dtype)
            for k in rng.choice(63, 4, replace=False):  # pairs unequal in entry 0 or q - 1 only
                e = (0, q - 1)[k % 2]
                rows[k + 1] = rows[k]
                rows[k + 1, e] = ~rows[k, e] if dtype is bool else rows[k, e] + 1
            assert steppers.equal_neighbours(rows).tolist() == equal_pairs(rows).tolist()
            # None when no more than ``most`` pairs are candidates, the flags otherwise
            candidates = np.count_nonzero(equal_pairs(rows[:, [q // 2]]))
            assert steppers.equal_neighbours(rows, candidates) is None
            flags = steppers.equal_neighbours(rows, candidates - 1)
            assert flags.tolist() == equal_pairs(rows).tolist()

    def test_too_few_equal_rows_make_every_row_a_run(self, rng):
        # 4 of 19 neighbouring pairs equal, no more than a quarter: storing by
        # runs would save too little, so every row is a run; 5 of 19 make runs
        rows = rng.random((20, 3))
        rows[5:10] = rows[5]
        runs = Runs(rows)
        assert runs.cells and runs.count == 20
        rows[10] = rows[5]
        runs = Runs(rows)
        assert not runs.cells and runs.count == 15

    @pytest.mark.parametrize("n_rows, q", ORACLE_SHAPES)
    @pytest.mark.usefixtures("any_equal_pair_is_a_run")
    def test_kept_cells_drop_the_cells_inside_runs(self, n_rows, q):
        # a grid step computes the rows of the one-step layout: the cells
        # that remain once cell c drops wherever rows c - 2 .. c + 1 are
        # equal (2 <= c <= N - 2), as its stencil and output are then its
        # left neighbour's.  Each layout row holds the first cell it spreads to.
        for seed in range(20):
            values = planted_rows(np.random.default_rng(seed), n_rows, q)
            equal = equal_pairs(values)
            drop = np.zeros(n_rows, dtype=bool)
            drop[2:-1] = equal[:-2] & equal[1:-1] & equal[2:]
            runs = Runs(values)
            rows = runs.layout(1)
            spread = runs.spread()
            assert np.diff(spread, prepend=-1).tolist() == (~drop).astype(int).tolist()
            assert len(rows) == np.count_nonzero(~drop) == spread[-1] + 1
            # every cell takes a row of its own run
            assert rows[spread].tolist() == run_owner(runs).tolist()


RUN_STEPPERS = ("bgk-inflow", "bgk-ring", "d1q3")
ORDERS = (0, 1, 2, 3)


def map_lengths(order_m):
    """Runs of 1, 2, 3, 2m + 2, 2m + 3, 2m + 4 and far more than 2m + 3
    rows, at both ends and side by side, for a CR map of order m."""
    s = order_m + 1
    return (2 * s + 2, 1, 2, 3, 2 * s, 1, 1, 40, 2 * s + 1, 2, 2 * s + 2, 3)


def run_state(kind, rng, lengths, *, signed_zero=False):
    """A stepper of ``kind`` and a state of blocks of equal rows, the i-th
    ``lengths[i]`` rows long; ``signed_zero`` gives two neighbouring blocks
    one row but for +0.0 and -0.0 in its first entry, which differ bit for
    bit, so the blocks stay two runs."""
    n_cells = sum(lengths)
    if kind == "d1q3":
        stepper, row = D1Q3Stepper(omega=1.3), rng.random(3) + 0.5
    else:
        stepper, row = desk_case(n_cells, rng, periodic=kind == "bgk-ring")
    blocks = [np.tile(row * (1 + 0.05 * rng.random(len(row))), (n, 1)) for n in lengths]
    if signed_zero:
        blocks[3][:, 0] = 0.0
        blocks[4] = np.tile(blocks[3][0], (lengths[4], 1))
        blocks[4][:, 0] = -0.0
    return stepper, np.concatenate(blocks)


def extrapolation_sum(step, rows, order_m):
    """A CR map's extrapolation sum of ``order_m + 1`` steps from ``rows``,
    summed in ``cr_map``'s order, before its reset."""
    w = cr_weights(order_m)
    rows = step(rows)
    total = w[0] * rows
    for wj in w[1:]:
        rows = step(rows)
        total += wj * rows
    return total


def layout_map(stepper, runs, stored, order_m):
    """The sum of a CR map of the state ``stored`` by ``runs``, computed on
    its layout and stored by the runs it cuts."""
    rows = np.take(stored, runs.layout(order_m + 1), axis=0)
    total = extrapolation_sum(partial(stepper.step, runs=runs), rows, order_m)
    out = np.full_like(stored, np.nan)
    assert runs.refine(total, out) is out
    return out


def assert_bits(got, want):
    """The expanded run-stored sum is the grid map's, bit for bit."""
    assert got.tobytes() == want.tobytes()


def assert_runs_refine(before, runs, count):
    """Every run of ``runs`` lies inside one run of the grid numbering ``before``
    (of ``count`` runs); a cut run keeps its number on its first row, and the
    new runs take the next numbers."""
    after = run_owner(runs)
    for j in range(runs.count):
        inside = before[after == j]
        assert len(set(inside.tolist())) == 1, j
        assert j >= count or inside[0] == j
    starts = np.flatnonzero(np.concatenate(([True], before[1:] != before[:-1])))
    assert after[starts].tolist() == before[starts].tolist()
    assert sorted(set(after.tolist())) == list(range(runs.count))


def assert_coarsest(before, runs, stored):
    """Two neighbouring runs cut from one run of ``before`` store rows that
    differ bit for bit, so no coarser runs would hold the state."""
    after = run_owner(runs)
    for c in np.flatnonzero(after[1:] != after[:-1]) + 1:
        if before[c] == before[c - 1]:
            assert stored[after[c]].tobytes() != stored[after[c - 1]].tobytes(), c


def test_a_grid_of_no_cells_has_no_runs():
    # both constructors number their runs in one place, which names the empty grid
    for make in (lambda: Runs(np.empty((0, 3))), lambda: Runs.each_row(0)):
        with pytest.raises(ValueError, match=r"^no runs in a grid of no cells \(N = 0\)$"):
            make()


@pytest.mark.parametrize("kind", RUN_STEPPERS)
class TestRunStoredStep:
    """A CR map of order m = 0..3 steps a state stored by its runs on their
    layout, m + 1 times with no compare, and cuts the runs once, from its
    extrapolation sum."""

    @pytest.mark.parametrize("signed_zero", [False, True], ids=["distinct", "signed-zero"])
    def test_expanded_step_is_the_grid_step(self, kind, rng, signed_zero):
        # the layout holds min(L, 2m + 3) rows of each run; the sum of its
        # steps, expanded, is the sum of the grid's steps bit for bit, so each
        # run it stores is a block of equal rows of that sum
        for order_m in ORDERS:
            lengths = map_lengths(order_m)
            for _ in range(3):
                stepper, values = run_state(kind, rng, lengths, signed_zero=signed_zero)
                runs = Runs(values)
                assert runs.count == len(lengths)
                stored = runs.store(values)
                grid = runs.expand(stored)
                before, count = run_owner(runs), runs.count
                index = runs.layout(order_m + 1)
                assert index.tolist() == np.repeat(
                    np.arange(count), np.minimum(runs.lengths[:count], 2 * order_m + 3)).tolist()
                assert len(index) < len(values)
                out = layout_map(stepper, runs, stored, order_m)
                assert_bits(runs.expand(out), extrapolation_sum(stepper.step, grid, order_m))
                assert_runs_refine(before, runs, count)
                assert_coarsest(before, runs, out)

    def test_trajectory_of_cut_runs(self, kind, rng):
        # each map's sum is the next map's state; the runs are no longer
        # maximal after the first, the sums stay the grid's bit for bit, and
        # a state stored by the first runs is carried onto the cut ones by
        # ``fill``
        for order_m in ORDERS:
            stepper, values = run_state(kind, rng, map_lengths(order_m))
            runs = Runs(values)
            state, grid = runs.store(values), values
            kept = state.copy()
            for _ in range(8):
                before, count = run_owner(runs), runs.count
                state = layout_map(stepper, runs, state, order_m)
                grid = extrapolation_sum(stepper.step, grid, order_m)
                assert_runs_refine(before, runs, count)
                runs.fill(count, kept)
                assert runs.expand(kept).tobytes() == values.tobytes()
                assert_bits(runs.expand(state), grid)
            assert len(map_lengths(order_m)) < runs.count <= len(values)

    @pytest.mark.parametrize("order_m", ORDERS)
    def test_short_runs_lay_out_every_row(self, kind, rng, order_m):
        # runs of at most 2m + 3 rows are laid out whole: N rows, the grid's own
        lengths = (1, 2, 3, 2 * order_m + 2, 2 * order_m + 3, 1)
        stepper, values = run_state(kind, rng, lengths)
        runs = Runs(values)
        assert runs.layout(order_m + 1).tolist() == run_owner(runs).tolist()
        out = layout_map(stepper, runs, runs.store(values), order_m)
        assert_bits(runs.expand(out), extrapolation_sum(stepper.step, values, order_m))

    def test_rows_without_runs_step_in_place(self, kind, rng):
        # every row its own run: the stored state is the grid array, stepped as one
        stepper, values = run_state(kind, rng, (1,) * 12)
        runs = Runs(values)
        assert runs.cells and runs.count == len(values)
        out = np.empty_like(values)
        assert stepper.step(values, out, runs=runs).tobytes() == stepper.step(values).tobytes()
        assert runs.count == len(values)

    def test_a_nan_row(self, kind, rng):
        # a NaN row between finite rows is a run of its own; D1Q3 carries it
        # bit for bit, and the BGK step fails on the layout as on the grid,
        # where a CR map of the stored state names the cell as the grid's map does
        for order_m in ORDERS:
            lengths = map_lengths(order_m)
            stepper, values = run_state(kind, rng, lengths)
            values[1] = np.nan  # inside the first run
            runs = Runs(values)
            assert runs.count == len(lengths) + 2
            stored = runs.store(values)
            if kind == "d1q3":
                out = layout_map(stepper, runs, stored, order_m)
                assert runs.expand(out).tobytes() == extrapolation_sum(
                    stepper.step, values, order_m).tobytes()
                continue
            with pytest.raises(NumericalError):
                layout_map(stepper, runs, stored, order_m)
            basis = build_moment_basis(BasisKind.MONOMIAL, stepper.vgrid, 3)
            with pytest.raises(NumericalError) as want:
                cr_map(stepper, basis, values, values, order_m)
            with pytest.raises(NumericalError) as got:
                cr_map(stepper, basis, stored, stored.copy(), order_m, runs=Runs(values))
            assert str(got.value) == str(want.value) and "cell 1 " in str(got.value)


def block_lengths(s):
    """Runs of 1, 2, 3, 2s + 1, 2s + 2 and 40 rows, at both ends and side by
    side, for blocks of s steps."""
    return (2 * s + 2, 1, 2, 3, 2 * s + 1, 40, 1, 2 * s + 2, 2, 2 * s + 1)


def grid_steps(stepper, values, steps):
    """``steps`` steps of the grid array, every row stepped, with no compare."""
    each = Runs.each_row(len(values))
    for _ in range(steps):
        values = stepper.step(values, runs=each)
    return values


BLOCKS = sorted({1, 2, 3, 4, 5, steppers.BLOCK_STEPS})


@pytest.mark.parametrize("kind", RUN_STEPPERS)
class TestBlockStepping:
    """``advance`` compares the rows once per block of s steps and steps the
    layout of s steps s times; the result is the grid steps' bit for bit."""

    @pytest.mark.parametrize("block", BLOCKS)
    def test_blocks_are_the_grid_steps(self, kind, rng, monkeypatch, block):
        # one whole block, and two whole blocks and one step
        monkeypatch.setattr(steppers, "BLOCK_STEPS", block)
        stepper, values = run_state(kind, rng, block_lengths(block))
        runs = Runs(values)
        assert not runs.cells and len(runs.layout(block)) < len(values)
        for steps in (block, 2 * block + 1):
            got = steppers.advance(stepper, values, steps)
            assert got.tobytes() == grid_steps(stepper, values, steps).tobytes(), steps

    def test_shipped_blocks_over_many_steps(self, kind, rng):
        # whole and partial blocks, as a reference run takes them
        assert REPORT_STEPS % steppers.BLOCK_STEPS == 0  # the reports fall on block ends
        stepper, values = run_state(kind, rng, block_lengths(steppers.BLOCK_STEPS))
        steps = 3 * steppers.BLOCK_STEPS + 7
        got = steppers.advance(stepper, values, steps)
        assert got.tobytes() == grid_steps(stepper, values, steps).tobytes()

    def test_rows_without_runs_step_the_grid(self, kind, rng):
        stepper, values = run_state(kind, rng, (1,) * 12)
        assert Runs(values).cells
        got = steppers.advance(stepper, values, steppers.BLOCK_STEPS + 1)
        assert got.tobytes() == grid_steps(stepper, values, steppers.BLOCK_STEPS + 1).tobytes()
        assert steppers.advance(stepper, values, 0) is values


class MeanCoupledD1Q3(D1Q3Stepper):
    """D1Q3 plus a tenth of the cell mean: not local, so it sets no
    ``steps_runs``, though its ``step`` takes (and drops) a ``runs``."""

    steps_runs = False

    def step(self, values, out=None, **kwargs):
        out = super().step(values, out)
        out += 0.1 * values.mean(axis=0)
        return out


class PlainMeanCoupledD1Q3(MeanCoupledD1Q3):
    """The same map, by a ``step`` that takes no ``runs``."""

    def step(self, values, out=None):
        return super().step(values, out)


@pytest.mark.parametrize("stepper_class", [MeanCoupledD1Q3, PlainMeanCoupledD1Q3])
def test_a_stepper_without_steps_runs_advances_by_plain_steps(rng, stepper_class):
    # a layout's rows would miss the mean of the grid's: every block takes
    # plain steps of the grid array, bit for bit
    stepper = stepper_class(omega=1.3)
    _, values = run_state("d1q3", rng, block_lengths(steppers.BLOCK_STEPS))
    assert not Runs(values).cells
    steps = 2 * steppers.BLOCK_STEPS + 3
    want = values
    for _ in range(steps):
        want = stepper.step(want)
    assert steppers.advance(stepper, values, steps).tobytes() == want.tobytes()


@pytest.mark.parametrize("periodic", [False, True], ids=["ghost", "periodic"])
def test_an_unphysical_row_behind_a_long_run_names_its_cell(rng, periodic):
    # cell 43 has a negative density behind a run of 40 rows, so it is row
    # 2s + 4 of the layout; the block reruns on the grid, which names cell 43
    lengths = (3, 40, 1, 6)
    stepper, row = desk_case(sum(lengths), rng, periodic=periodic)
    values = np.concatenate([np.tile(row * (1 + 0.05 * rng.random(len(row))), (n, 1))
                             for n in lengths])
    values[43] *= -1.0
    assert len(Runs(values).layout(steppers.BLOCK_STEPS)) < 43
    with pytest.raises(NumericalError) as want:
        grid_steps(stepper, values, 1)
    assert str(want.value).startswith("unphysical state: cell 43 has density -")
    with pytest.raises(NumericalError) as got:
        steppers.advance(stepper, values, steppers.BLOCK_STEPS)
    assert str(got.value) == str(want.value)


def test_a_cell_that_fails_inside_a_block_is_named(monkeypatch):
    # 10 times the stable step drives a cell's temperature negative within a
    # few steps of the desk's expansion, inside a block of its layout: the
    # error names the cell that plain steps name
    monkeypatch.setattr(steppers, "CFL_SAFETY", 10.0 * steppers.CFL_SAFETY)
    sc = load_shipped("helium_desk.cfg")
    values = sc.initial_field().values
    assert not Runs(values).cells
    with pytest.raises(NumericalError) as want:
        stepper, state = sc.make_stepper(), values
        for _ in range(50):
            state = stepper.step(state)
    assert re.search(r"cell \d+ .* temperature", str(want.value))
    with pytest.raises(NumericalError) as got:
        steppers.advance(sc.make_stepper(), values, 50)
    assert str(got.value) == str(want.value)


def test_a_traced_step_is_one_step_call(monkeypatch, rng, equilibrium_rows, restrict_rows):
    # the benchmark's tracer wraps ``BGKStepper.step`` at class level and
    # counts a call as a step, and patches ``steppers.restrict`` and
    # ``steppers.discrete_equilibrium`` where the step looks them up: a step
    # of a state with runs calls ``step`` once, and those once each, also
    # when its layout fails and the grid reruns
    calls = []

    def traced(self, *args, step=BGKStepper.step, **kwargs):
        calls.append(len(args[0]))
        return step(self, *args, **kwargs)

    monkeypatch.setattr(BGKStepper, "step", traced)
    stepper, row = desk_case(20, rng)
    values = tiled(row, 20, (5, 12), rng)
    assert not Runs(values).cells
    del equilibrium_rows[:], restrict_rows[:]  # the ghost rows' equilibria
    stepper.step(values)
    assert calls == [20] and equilibrium_rows == restrict_rows == [padded(11)]
    values[12] *= -1.0
    with pytest.raises(NumericalError, match="cell 12 "):
        stepper.step(values)
    assert calls == [20, 20] and restrict_rows == [padded(11), padded(11), 20]


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

    The "-runs" states keep runs of equal rows, so their step steps a layout.
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
