"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Criterion 7 (full-scale reference run, about 25 s on 2 CPUs) is opt-in via
KLIFT_FULL=1.
Criterion 4 is asserted on the conserved and momentum moments of the two CR
forms; the full-state outputs of the orthogonal and inverse-based resets are
different projections by construction (see the repository notes).
"""

import os

import numpy as np
import pytest

from klift import (
    BasisKind,
    CRConfig,
    build_moment_basis,
    cr_lift,
    cr_map,
    lift_macro,
    restrict,
    restrict_lift_error,
)
from klift.cr import conserved_drift
from klift.diagnostics import cr_jacobian_spectrum, projector_spectrum
from klift.kinetic import equilibrium_field
from klift.moments import basis_from_matrix, naive_projector, reset_conserved
from klift.steppers import (
    BGKStepper,
    D1Q3Stepper,
    stable_dt,
)
from klift.kinetic import (
    DistributionField,
    build_spatial_grid,
    build_velocity_grid,
    discrete_equilibrium,
    relaxation_frequency,
)

from conftest import (
    LinearODEStepper,
    exact_naive_projector,
    helium_gas,
    load_shipped,
    reference_vgrid,
)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_projector_exactness():
    worst = 0.0
    for nv in (8, 24, 56):
        basis = build_moment_basis(BasisKind.MONOMIAL, reference_vgrid(nv), 3)
        rep = projector_spectrum(basis, "qr")
        ev = np.sort(rep.eigenvalues.real)
        worst = max(worst, np.abs(ev[:3]).max(), np.abs(ev[3:] - 1.0).max())
        if (ev < 0.5).sum() != 3:
            report(1, False, f"Nv={nv}: {(ev < 0.5).sum()} eigenvalues at 0, expected 3")
    report(1, worst < 1e-10, f"max deviation from {{0,1}} = {worst:.3e} over Nv in {{8,24,56}}")


def test_criterion_2_naive_inverse_failure():
    # The eigenvalues of the float naive P are rounding noise that varies
    # with the LAPACK build, so they are printed only.  Asserted is what
    # rounding cannot change: P is no projector, its idempotency defect
    # max|P^2 - P| exceeds the rounding error q eps max(|P| |P|) of forming P^2.
    ok = True
    details = []
    for kind in (BasisKind.MONOMIAL, BasisKind.CHEBYSHEV):
        basis = build_moment_basis(kind, reference_vgrid(56), 3)
        P, _ = naive_projector(basis)
        idem = np.abs(P @ P - P).max()
        rounding = basis.q * np.finfo(float).eps * (np.abs(P) @ np.abs(P)).max()
        ev = np.linalg.eigvals(P)
        dev = np.minimum(np.abs(ev), np.abs(ev - 1.0)).max()
        ok = ok and idem > rounding
        details.append(f"{kind.value}: |P^2 - P| {idem:.3g} (rounding {rounding:.3g}), "
                       f"max |lambda - {{0,1}}| {dev:.3g}")
    report(2, ok, "; ".join(details))


def test_criterion_3_randomized_moment_conservation():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        q = int(rng.integers(4, 65))
        k = int(rng.integers(1, 4))
        v = np.sort(rng.uniform(-1.0, 1.0, size=q))
        while np.unique(v).size != q:
            v = np.sort(rng.uniform(-1.0, 1.0, size=q))
        basis = build_moment_basis(BasisKind.MONOMIAL, v, k)
        f_pre = rng.standard_normal(q)
        f0 = rng.standard_normal(q)
        out = reset_conserved(basis, f_pre, f0)
        m_out = basis.conserved_moments(out)
        m0 = basis.conserved_moments(f0)
        scale = max(np.abs(m0).max(), 1e-300)
        worst = max(worst, np.abs(m_out - m0).max() / scale)
    report(3, worst < 1e-10, f"max relative moment drift over 1000 calls = {worst:.3e}")


def test_criterion_4_d1q3_oracle_equivalence():
    rng = np.random.default_rng(4)
    basis = build_moment_basis(BasisKind.D1Q3, None, 1)
    st = D1Q3Stepper(omega=1.3)
    P_naive, _ = naive_projector(basis)
    worst = 0.0
    for _ in range(100):
        f0 = rng.random((6, 3))
        guess = rng.random((6, 3))
        for m in range(4):
            out_qr = cr_map(st, basis, f0, guess, m)
            out_inv = cr_map(st, basis, f0, guess, m, naive_P=P_naive)
            mom_qr = out_qr @ basis.M.T
            mom_inv = out_inv @ basis.M.T
            worst = max(worst, np.abs(mom_qr[:, :2] - mom_inv[:, :2]).max())
    report(4, worst < 1e-13,
           f"conserved+momentum moments of the two CR forms agree to {worst:.3e} "
           "(full-state forms are distinct projections; see notes)")


def test_criterion_5_ode_slow_manifold():
    basis = basis_from_matrix(np.eye(2), 1)
    r0 = 1.7
    worst_C = 0.0
    for eps in (0.1, 0.01):
        st = LinearODEStepper(eps, dt=eps)
        a = st.slow_slope
        for m in range(4):
            cfg = CRConfig(order_m=m, solver="picard", picard_tol=1e-15)
            out, _ = cr_lift(st, basis, np.array([[r0, 0.0]]), cfg)
            err = abs(out[0, 1] - a * r0)
            C = err / (eps ** (m + 1) * abs(r0))
            worst_C = max(worst_C, C)
    report(5, worst_C < 10.0, f"max observed C = {worst_C:.3f} over eps in {{0.1, 0.01}}, m = 0..3")


def test_criterion_6_desk_scale_order_trend():
    sc = load_shipped("helium_desk.cfg")
    stepper = sc.make_stepper()
    values = sc.initial_field().values
    for _ in range(sc.reference_steps):
        values = stepper.step(values)
    reference = sc.initial_field().with_values(values, time=sc.reference_steps * sc.dt)
    macro = restrict(reference, sc.gas)
    basis = build_moment_basis(BasisKind.MONOMIAL, sc.vgrid, 3)

    errs, drifts = [], []
    for m in (0, 1, 2):
        cfg = CRConfig(order_m=m, solver="newton", newton_tol=sc.newton_tol)
        lifted, rep = lift_macro(
            stepper, basis, macro, sc.gas, cfg,
            grid=sc.grid, vgrid=sc.vgrid, scale=sc.scale, time=reference.time,
        )
        errs.append(restrict_lift_error(reference, lifted).two_norm)
        drifts.append(conserved_drift(basis, lifted.values, reference.values))
        # lifted moments must also match the restriction targets
        lifted_macro = restrict(lifted, sc.gas)
        drifts.append(np.abs(lifted_macro.number_density / macro.number_density - 1).max())
        drifts.append(np.abs(lifted_macro.temperature / macro.temperature - 1).max())
    decreasing = errs[0] > errs[1] > errs[2]
    tenfold = errs[0] / errs[2] >= 10.0
    moments_ok = max(drifts) < 1e-10
    ok = decreasing and tenfold and moments_ok
    report(6, ok,
           f"errors m=0..2: {errs[0]:.4e}, {errs[1]:.4e}, {errs[2]:.4e} "
           f"(drop x{errs[0]/errs[2]:.1f}), max moment drift {max(drifts):.2e}")


@pytest.mark.skipif(os.environ.get("KLIFT_FULL") != "1",
                    reason="full-scale run (about 25 s); set KLIFT_FULL=1 to enable")
def test_criterion_7_full_scale_reference():
    sc = load_shipped("helium_L30000.cfg")
    stepper = sc.make_stepper()
    values = sc.initial_field().values
    for _ in range(sc.reference_steps):
        values = stepper.step(values)
    reference = sc.initial_field().with_values(values, time=sc.reference_steps * sc.dt)
    macro = restrict(reference, sc.gas)
    basis = build_moment_basis(BasisKind.MONOMIAL, sc.vgrid, 3)

    feq = equilibrium_field(macro, sc.grid, sc.vgrid, sc.gas, scale=sc.scale)
    eq_norm = restrict_lift_error(reference, feq).two_norm
    targets = {0: 1.0428e-6, 1: 1.6413e-8, 2: 6.1629e-10, 3: 4.1965e-10}
    details = [f"|f_eq - f_c| = {eq_norm:.4e} (target 6.4940e-7)"]
    ok = 6.4940e-7 / 3 <= eq_norm <= 6.4940e-7 * 3
    # Solver choice per order at this problem size: the Picard map contracts
    # for m <= 1 (Jacobian radius ~0.1) but diverges for m >= 2, so the high
    # orders use Newton continued from the previous order's solution, with the
    # inner GMRES tolerance held above the matvec's truncation error, which
    # otherwise stalls it.  That error is not rounding: cr.fd_step's
    # sqrt(eps) (1 + |f|) / |v| is sized for |f| ~ 1, and at this state's
    # |f| ~ 6.5e-3 it perturbs f by about 2.3e-6 of its norm, which puts the
    # m >= 2 matvec about 2e-6 off, above the shipped gmres.tol of 1e-6.
    from klift.cr import GMRESParams

    solver_cfgs = {
        0: CRConfig(order_m=0, solver="picard", picard_tol=1e-12),
        1: CRConfig(order_m=1, solver="picard", picard_tol=1e-12),
        2: CRConfig(order_m=2, solver="newton", newton_tol=1e-10,
                    gmres=GMRESParams(tol=1e-4, max_iters=300)),
        3: CRConfig(order_m=3, solver="newton", newton_tol=1e-10,
                    gmres=GMRESParams(tol=1e-3, max_iters=3000, restart=300)),
    }
    guess = None
    for m, target in targets.items():
        lifted, _ = lift_macro(
            stepper, basis, macro, sc.gas, solver_cfgs[m],
            grid=sc.grid, vgrid=sc.vgrid, scale=sc.scale, time=reference.time,
            f_guess=guess,
        )
        guess = lifted.values
        norm = restrict_lift_error(reference, lifted).two_norm
        details.append(f"m={m}: {norm:.4e} (target {target:.4e})")
        if m == 3:
            # the printed m=3 value is floor-limited (it breaks the geometric
            # order-improvement trend); a tighter solve may land below it, so
            # only the upper bound applies — see the repository notes
            ok = ok and norm <= target * 5
        else:
            ok = ok and (target / 5 <= norm <= target * 5)
    report(7, ok, "; ".join(details))


def test_criterion_8_stability_dichotomy():
    # The naive reset P = I - M^{-1} M0 is a correct projector in exact
    # arithmetic; on the 24-velocity monomial M (cond_1 ~ 1e92) the float
    # solve returns rounding noise.  The CR radius built on that noise depends
    # on the LAPACK build, so it is printed only.  What rounding cannot change
    # is asserted: the QR reset and the exact naive reset hold the conserved
    # moments through one CR map, the float naive reset does not.
    base = load_shipped("helium_L30000.cfg").with_overrides(n_cells=50, n_velocities=24)
    short = base.with_overrides(lambda_multiple=30.0)
    cfg = CRConfig(order_m=0)
    basis = build_moment_basis(BasisKind.MONOMIAL, base.vgrid, 3)
    P_float, _ = naive_projector(basis)
    P_exact = exact_naive_projector(basis)
    idem = np.abs(P_exact @ P_exact - P_exact).max()
    idem_tol = basis.q * np.finfo(float).eps * (np.abs(P_exact) @ np.abs(P_exact)).max()

    def radius_and_drift(scenario, naive_P=None):
        basis = build_moment_basis(BasisKind.MONOMIAL, scenario.vgrid, 3)
        stepper = scenario.make_stepper()
        f0 = scenario.initial_field().values
        out = cr_map(stepper, basis, f0, f0, cfg.order_m, naive_P=naive_P)
        rep = cr_jacobian_spectrum(stepper, basis, f0, cfg, naive_P=naive_P)
        return rep.spectral_radius, conserved_drift(basis, out, f0)

    rho_qr, drift_qr = radius_and_drift(base)
    rho_float, drift_float = radius_and_drift(base, P_float)
    rho_exact, drift_exact = radius_and_drift(base, P_exact)
    rho_qr_short, _ = radius_and_drift(short)
    ok = (rho_qr < 1.0 and rho_qr_short > rho_qr
          and drift_qr <= 1e-12 and drift_exact <= 1e-12 and idem <= idem_tol
          and drift_float >= 1e-6)
    report(8, ok,
           f"long domain: qr rho {rho_qr:.4f} drift {drift_qr:.1e}; "
           f"naive float rho {rho_float:.4f} drift {drift_float:.1e}; "
           f"naive exact rho {rho_exact:.4f} drift {drift_exact:.1e} "
           f"|P^2 - P| {idem:.1e}; short domain qr rho {rho_qr_short:.4f}")


def test_criterion_9_periodic_mass_conservation():
    rng = np.random.default_rng(9)
    gas = helium_gas()
    vg = build_velocity_grid(-3000.0, 3000.0, 16)
    grid = build_spatial_grid(1.0, 32)
    feq = discrete_equilibrium(
        np.full(32, 1e25), np.zeros(32), np.full(32, 300.0), vg, gas
    )
    base = feq * (1.0 + 0.2 * rng.random((32, 16)))
    omega = relaxation_frequency(restrict(DistributionField(grid, vg, base), gas), gas)
    dt = stable_dt(vg, grid.dx, omega)
    worst = 0.0
    stepper = BGKStepper(grid, vg, gas, dt)
    f = base
    mass = vg.dv * grid.dx * f.sum()
    for _ in range(100):
        f = stepper.step(f)
        new_mass = vg.dv * grid.dx * f.sum()
        worst = max(worst, abs(new_mass - mass) / mass)
        mass = new_mass
    report(9, worst < 1e-12,
           f"max per-step relative mass drift over 100 upwind steps = {worst:.3e}")
