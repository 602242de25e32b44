"""Command-line harness: reference runs, restrict-lift experiments, spectra,
and GMRES iteration sweeps.

Exit codes: 0 success, 2 argument/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .cr import SOLVERS, cr_lift, lift_macro, restrict_lift_error
from .diagnostics import check_dense_dimension, cr_jacobian_spectrum, projector_spectrum
from .errors import KliftError, NumericalError
from .kinetic import DistributionField, equilibrium_field, restrict
from .moments import BasisKind, build_moment_basis, naive_projector
from .scenario import Scenario, config_hash, load_scenario
from .snapshots import read_snapshot, write_snapshot

EXIT_OK = 0
EXIT_ARG = 2
EXIT_NUMERICAL = 3

CONSERVED_MOMENTS = 3  # density, momentum, energy
REPORT_HEADER = ("iter", "residual", "drift", "seconds")


def lift_report_rows(history: list[float], drift="", seconds=""):
    """REPORT_HEADER rows for a lift's residual history.

    Drift and seconds describe the finished lift, so they fill the final row
    only and are blank on the others; a failed lift leaves them blank.
    """
    rows = [(i, r, "", "") for i, r in enumerate(history, start=1)]
    if rows:
        rows[-1] = rows[-1][:2] + (drift, seconds)
    return rows


def _comment_block(scenario: Scenario, extra: dict | None = None) -> list[str]:
    lines = [f"# config_hash = {config_hash(scenario)}"]
    for key, val in (extra or {}).items():
        lines.append(f"# {key} = {val}")
    return lines


def _write_csv(path, comments, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in comments:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_matching_snapshot(scenario: Scenario, path) -> DistributionField:
    """The snapshot at ``path``, checked against the config's grids and scale."""
    field = read_snapshot(path)
    if field.grid.n_cells != scenario.n_cells or field.vgrid.n_velocities != scenario.n_velocities:
        raise ValueError(
            f"snapshot grid {field.grid.n_cells}x{field.vgrid.n_velocities} does not match "
            f"config grid {scenario.n_cells}x{scenario.n_velocities}"
        )
    for name, got, want in (
        ("dx", field.grid.dx, scenario.grid.dx),
        ("velocity grid v_min", field.vgrid.v_min, scenario.vgrid.v_min),
        ("velocity grid dv", field.vgrid.dv, scenario.vgrid.dv),
        ("scale", field.scale, scenario.scale),
    ):
        if not np.isclose(got, want, rtol=1e-12, atol=0.0):
            raise ValueError(f"snapshot {name} {got:.12g} does not match the config's {want:.12g}")
    return field


def _check_out_dir(out: str, *, prefix: bool = False) -> None:
    """Raise ValueError unless ``--out`` is not empty, its directory exists and
    is writable and, unless ``--out`` is a file prefix, it is no directory itself."""
    if not out:
        raise ValueError("--out is empty")
    if not prefix and os.path.isdir(out):
        raise ValueError(f"--out {out} is a directory")
    directory = os.path.dirname(out) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"--out {out}: directory {directory} does not exist")
    if not os.access(directory, os.W_OK):
        raise ValueError(f"--out {out}: directory {directory} is not writable")


# ---- subcommands ------------------------------------------------------------


def cmd_run_reference(args, scenario: Scenario) -> None:
    steps = scenario.reference_steps if args.steps is None else args.steps
    if steps < 0:
        raise ValueError("steps must be nonnegative")

    field = scenario.initial_field()
    stepper = scenario.make_stepper()
    dv, dx = field.vgrid.dv, field.grid.dx
    v = field.vgrid.velocities
    print(f"# scenario hash {config_hash(scenario)}: N={scenario.n_cells} "
          f"Nv={scenario.n_velocities} dt={scenario.dt:.6e} s, {steps} steps")

    values = field.values
    tmp_path = str(args.out) + ".partial"
    try:
        for k in range(steps):
            values = stepper.step(values)
            if (k + 1) % 100 == 0 or k + 1 == steps:
                # sum first, then divide by the scale: a finite sum may not stay
                # finite once divided
                column = values.sum(axis=0)
                with np.errstate(over="ignore", invalid="ignore"):
                    totals = dv * dx * np.array([column.sum(), column @ v,
                                                 column @ (0.5 * v * v)]) / field.scale
                mass, momentum, energy = totals
                if not np.all(np.isfinite(totals)):
                    raise NumericalError(
                        f"non-finite totals after step {k + 1}: mass {mass:.3e}, "
                        f"momentum {momentum:.3e}, energy {energy:.3e}"
                    )
                print(f"step {k + 1:6d}  mass {mass:.9e}  momentum {momentum:.6e}  "
                      f"energy {energy:.6e}")
        out_field = field.with_values(values, time=steps * scenario.dt)
        write_snapshot(tmp_path, out_field)
        os.replace(tmp_path, args.out)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
    print(f"wrote {args.out}")


def cmd_lift(args, scenario: Scenario) -> None:
    reference = _read_matching_snapshot(scenario, args.reference)
    gas = scenario.gas
    cfg = scenario.cr_config(args.order, args.solver)

    macro = restrict(reference, gas)
    stepper = scenario.make_stepper()
    basis = build_moment_basis(BasisKind.MONOMIAL, reference.vgrid, CONSERVED_MOMENTS)

    feq_field = equilibrium_field(
        macro, reference.grid, reference.vgrid, gas,
        scale=reference.scale, time=reference.time,
    )
    eq_err = restrict_lift_error(reference, feq_field)

    prefix = args.out
    comments = _comment_block(scenario, {"order_m": cfg.order_m, "solver": cfg.solver})
    try:
        values, report = cr_lift(stepper, basis, feq_field.values, cfg)
    except KliftError as exc:
        _write_csv(
            f"{prefix}_report.csv", comments, REPORT_HEADER,
            lift_report_rows(getattr(exc, "history", [])),
        )
        raise

    lifted = feq_field.with_values(values)
    lift_err = restrict_lift_error(reference, lifted)
    write_snapshot(f"{prefix}_lifted.snap", lifted)
    _write_csv(
        f"{prefix}_norms.csv", comments,
        ("label", "two_norm", "spectral_norm"),
        [
            ("equilibrium", eq_err.two_norm, eq_err.spectral_norm),
            (f"cr_m{cfg.order_m}", lift_err.two_norm, lift_err.spectral_norm),
        ],
    )
    _write_csv(
        f"{prefix}_cells.csv", comments,
        ("cell", "abs_sum_equilibrium", "abs_sum_lifted"),
        zip(range(reference.grid.n_cells), eq_err.cell_abs_sums.tolist(),
            lift_err.cell_abs_sums.tolist()),
    )
    with np.errstate(divide="ignore"):
        log_rel = np.log10(lift_err.relative_error).astype(object)
    log_rel[lift_err.exact_zero] = ""  # relative error 0, log10 -inf
    _write_csv(
        f"{prefix}_relerr.csv",
        comments + ["# log10_rel_err empty where the difference is exactly zero"],
        ("cell", "velocity_index", "log10_rel_err", "exact_zero"),
        zip(*np.indices(log_rel.shape).reshape(2, -1).tolist(), log_rel.ravel().tolist(),
            lift_err.exact_zero.ravel().astype(int).tolist()),
    )
    _write_csv(
        f"{prefix}_report.csv", comments, REPORT_HEADER,
        lift_report_rows(report.residual_history, report.conserved_drift, report.wall_time),
    )
    print(f"|f_eq - f_c| = {eq_err.two_norm:.6e}")
    print(f"|f(m={cfg.order_m}) - f_c| = {lift_err.two_norm:.6e} "
          f"({report.solver}, {report.iterations} iterations, "
          f"{report.gmres_iterations} GMRES iterations)")


def cmd_spectrum(args, scenario: Scenario) -> None:
    if args.n is not None:
        scenario = scenario.with_overrides(n_cells=args.n)
    cfg = scenario.cr_config(args.order)  # checks --order for every operator
    basis = build_moment_basis(BasisKind.MONOMIAL, scenario.vgrid, CONSERVED_MOMENTS)

    if args.operator in ("qr-projector", "naive-projector"):
        which = "qr" if args.operator == "qr-projector" else "naive"
        report = projector_spectrum(basis, which)
    else:
        check_dense_dimension(scenario.n_cells, basis)
        stepper = scenario.make_stepper()
        f0 = scenario.initial_field().values
        naive_P = naive_projector(basis)[0] if args.operator == "cr-naive" else None
        report = cr_jacobian_spectrum(stepper, basis, f0, cfg, naive_P=naive_P)

    comments = _comment_block(
        scenario,
        {"operator": report.operator, "spectral_radius": report.spectral_radius,
         **report.params},
    )
    _write_csv(
        args.out, comments, ("re", "im"),
        zip(report.eigenvalues.real.tolist(), report.eigenvalues.imag.tolist()),
    )
    print(f"{report.operator}: {report.eigenvalues.size} eigenvalues, "
          f"spectral radius {report.spectral_radius:.6e}")


def cmd_sweep(args, scenario: Scenario) -> None:
    grid_sizes, orders, steps = args.grid_sizes, args.orders, args.steps
    if steps < 0:
        raise ValueError("steps must be nonnegative")

    # every N and m is checked before the first step; the basis does not depend on N
    scenarios = [scenario.with_overrides(n_cells=n) for n in grid_sizes]
    cfgs = [scenario.cr_config(m, "newton") for m in orders]
    basis = build_moment_basis(BasisKind.MONOMIAL, scenario.vgrid, CONSERVED_MOMENTS)

    rows = []
    for n, scen in zip(grid_sizes, scenarios):
        gas = scen.gas
        stepper = scen.make_stepper()
        field = scen.initial_field()
        values = field.values
        for _ in range(steps):
            values = stepper.step(values)
        reference = field.with_values(values, time=steps * scen.dt)
        macro = restrict(reference, gas)
        for m, cfg in zip(orders, cfgs):
            try:
                _, report = lift_macro(
                    stepper, basis, macro, gas, cfg,
                    grid=scen.grid, vgrid=scen.vgrid, scale=scen.scale,
                )
                rows.append((n, m, report.gmres_iterations, report.iterations, 1))
                print(f"N={n} m={m}: {report.gmres_iterations} GMRES iterations, "
                      f"{report.iterations} Newton iterations")
            except KliftError as exc:
                # the history opens with the residual before the first Newton step
                history = getattr(exc, "history", None)
                rows.append((n, m, "", len(history) - 1 if history else "", 0))
                print(f"N={n} m={m}: FAILED ({exc})")

    comments = _comment_block(scenario, {"reference_steps": steps})
    _write_csv(
        args.out, comments,
        ("N", "m", "gmres_iterations", "newton_iterations", "converged"),
        rows,
    )


def cmd_restrict(args, scenario: Scenario) -> None:
    field = _read_matching_snapshot(scenario, args.snapshot)
    macro = restrict(field, scenario.gas)
    comments = _comment_block(scenario)
    _write_csv(
        args.out, comments,
        ("cell", "x", "number_density", "velocity", "temperature"),
        zip(range(field.grid.n_cells), field.grid.centers.tolist(), macro.number_density.tolist(),
            macro.velocity.tolist(), macro.temperature.tolist()),
    )
    print(f"wrote {args.out}")


# ---- entry point ------------------------------------------------------------


def int_list(text: str) -> list[int]:
    """Comma-separated integers; argparse names the flag when one does not parse."""
    return [int(s) for s in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klift",
        description="Discrete-velocity BGK solver with constrained-runs lifting",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario config file")
    common.add_argument("--out", required=True,
                        help="output file (for lift, the output file prefix)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-reference", parents=[common],
                       help="run the reference time integration")
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_run_reference)

    p = sub.add_parser("lift", parents=[common],
                       help="restrict a reference snapshot and lift it back")
    p.add_argument("--reference", required=True)
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--solver", choices=SOLVERS, default=None)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("spectrum", parents=[common], help="projector or CR-Jacobian spectrum")
    p.add_argument("--operator", required=True,
                   choices=("qr-projector", "naive-projector", "cr-qr", "cr-naive"))
    p.add_argument("--n", type=int, default=None, help="override grid.N")
    p.add_argument("--order", type=int, default=0)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", parents=[common], help="GMRES iteration counts over N and m")
    p.add_argument("--grid-sizes", required=True, type=int_list, help="comma-separated N values")
    p.add_argument("--orders", required=True, type=int_list, help="comma-separated m values")
    p.add_argument("--steps", type=int, default=200,
                   help="reference steps before each restrict-lift")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("restrict", parents=[common],
                       help="export macroscopic fields of a snapshot")
    p.add_argument("--snapshot", required=True)
    p.set_defaults(func=cmd_restrict)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every subcommand writes its results under --out; a run must not do
        # its work only to find it cannot be saved
        _check_out_dir(args.out, prefix=args.command == "lift")
        args.func(args, load_scenario(args.config))
    # a config or snapshot too large to allocate is a bad input, not a crash
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARG
    except KliftError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
