"""The benchmark's three workloads: inputs, one op, and its output check.

Every op goes through the public entry point the ``klift`` CLI uses for the
same job: ``BGKStepper.step`` (``run-reference``), ``lift_macro``
(``lift``) and ``cr_jacobian_spectrum`` (``spectrum``).  A workload yields
its ops in rounds; a run only stops between rounds, so every run holds
the same mix of ops.

Calls the benchmark makes itself are wrapped in ``self.span(name)``, which
records a span in the traced run and does nothing otherwise.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from klift import (
    BasisKind,
    CRConfig,
    GMRESParams,
    build_moment_basis,
    lift_macro,
    load_scenario,
    naive_projector,
    restrict,
    restrict_lift_error,
)
from klift.diagnostics import cr_jacobian_matrix, cr_jacobian_spectrum
from klift.snapshots import read_snapshot, write_snapshot

from tracing import no_span

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "src" / "klift" / "scenarios"
EXPECTED_PATH = HERE / "expected.json"
CONSERVED_MOMENTS = 3

# Output checks.  The reference trajectory is deterministic up to the
# warm/cold equilibrium start (1.3e-12 relative).  Converged lifts of one
# state from different solver settings agree to 0.2 % (m = 2), so a lift
# norm recorded with other settings still identifies the right fixed point.
MACRO_RTOL = 1e-9
LIFT_DRIFT_MAX = 1e-10
LIFT_NORM_RTOL = 1e-2
RADIUS_RTOL = 1e-6


class CheckFailed(Exception):
    """An op returned, but its output does not match the recorded one."""


@dataclass
class Op:
    labels: dict                                  # named in the failure record
    run: Callable[[], Any]                        # the timed call
    check: Callable[[Any], None] | None = None    # raises CheckFailed


def shipped(name: str):
    return load_scenario(SCENARIOS / name)


def cr_config(scenario, order: int) -> CRConfig:
    """The scenario's CR/GMRES defaults at one order, as ``klift lift`` builds them."""
    return CRConfig(
        order_m=order,
        solver=scenario.solver,
        picard_tol=scenario.picard_tol,
        newton_tol=scenario.newton_tol,
        gmres=GMRESParams(tol=scenario.gmres_tol, max_iters=scenario.gmres_max_iters),
    )


def load_expected(name: str) -> dict:
    return json.loads(EXPECTED_PATH.read_text())[name]


class Workload:
    name = ""
    seed_affects_inputs = False

    def __init__(self, seed: int, out_dir: Path, expected: dict):
        self.seed = seed
        self.out_dir = out_dir
        self.expected = expected  # recorded outputs, from expected.json
        self.span = no_span
        self.snapshot_bytes = 0

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """One untimed op, so first-call costs land in set-up."""
        raise NotImplementedError

    def rounds(self):
        """An endless generator of op lists; each call starts from the seed again."""
        raise NotImplementedError

    def finish(self) -> None:
        """Work after the last op; raises CheckFailed on a wrong output."""

    def _snapshot_path(self, tag) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / f"{self.name}-{os.getpid()}-{tag}.snap"


def macro_digest(field, gas, cells) -> dict:
    """(n, u, T) at sampled cells plus the two-norm of each whole field."""
    macro = restrict(field, gas)
    out = {}
    for key, arr in (("n", macro.number_density), ("u", macro.velocity),
                     ("T", macro.temperature)):
        out[key] = [float(x) for x in arr[cells]] + [float(np.linalg.norm(arr))]
    return out


class ReferenceFull(Workload):
    """One op = one BGK step of ``helium_L30000.cfg`` with the run-reference stepper.

    The trajectory starts from the ambient state and restarts every
    ``SEGMENT`` steps with a fresh stepper, so a faster program steps through
    the same states, not later ones.  Every ``BLOCK`` steps the macro fields
    are checked against the recorded trajectory.  The seed does not affect
    the inputs.
    """

    name = "reference-full"
    SEGMENT = 1000
    BLOCK = 100
    CELLS = list(range(0, 1600, 100)) + [1599]

    def setup(self):
        with self.span("scenario.build"):
            self.scenario = shipped("helium_L30000.cfg")
            self.initial = self.scenario.initial_field()
            self.stepper = self.scenario.make_stepper(warm_start=True)
        self.values = self.initial.values

    def warmup(self):
        self.stepper.step(self.initial.values)

    def _step(self):
        self.values = self.stepper.step(self.values)
        return self.values

    def _check(self, step, values):
        got = macro_digest(self.initial.with_values(values), self.scenario.gas, self.CELLS)
        want = self.expected[str(step)]
        for key in ("n", "u", "T"):
            a, b = np.array(got[key]), np.array(want[key])
            err = float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
            if not err <= MACRO_RTOL:
                raise CheckFailed(f"{key} at step {step} is off by {err:.3e} relative")

    def rounds(self):
        while True:
            self.stepper = self.scenario.make_stepper(warm_start=True)
            self.values = self.initial.values
            for end in range(self.BLOCK, self.SEGMENT + 1, self.BLOCK):
                ops = [Op({"step": k}, self._step) for k in range(end - self.BLOCK + 1, end)]
                ops.append(Op({"step": end}, self._step, partial(self._check, end)))
                yield ops

    def finish(self):
        """The run ends with one snapshot write, read back to check it."""
        path = self._snapshot_path("final")
        field = self.initial.with_values(self.values)
        try:
            with self.span("snapshots.write"):
                write_snapshot(path, field)
            self.snapshot_bytes = path.stat().st_size
            back = read_snapshot(path)
        finally:
            path.unlink(missing_ok=True)
        if not np.array_equal(back.values, field.values):
            raise CheckFailed("snapshot read-back differs from the written field")


class LiftFull(Workload):
    """One op = one ``lift_macro`` at one order with the shipped CR/GMRES defaults.

    Set-up runs the reference trajectory to the last candidate step, writes a
    snapshot at each candidate and reads them back, as ``klift lift`` reads
    its reference.  The seed orders the candidate steps; each round lifts
    one step at every order m = 0..3, with no chaining between orders.
    """

    name = "lift-full"
    seed_affects_inputs = True
    CANDIDATE_STEPS = (100, 150, 200, 250, 300)
    ORDERS = (0, 1, 2, 3)
    WARMUP = (300, 0)

    def setup(self):
        with self.span("scenario.build"):
            sc = self.scenario = shipped("helium_L30000.cfg")
            initial = sc.initial_field()
            stepper = sc.make_stepper(warm_start=True)
        paths = {}
        values = initial.values
        try:
            for k in range(1, max(self.CANDIDATE_STEPS) + 1):
                values = stepper.step(values)
                if k in self.CANDIDATE_STEPS:
                    paths[k] = self._snapshot_path(k)
                    with self.span("snapshots.write"):
                        write_snapshot(paths[k], initial.with_values(values, time=k * sc.dt))
            self.snapshot_bytes = paths[max(paths)].stat().st_size
            self.references = {}
            for k, path in paths.items():
                with self.span("snapshots.read"):
                    ref = read_snapshot(path)
                self.references[k] = (ref, restrict(ref, sc.gas))
        finally:
            for path in paths.values():
                path.unlink(missing_ok=True)
        self.lift_stepper = sc.make_stepper(warm_start=False)
        self.basis = build_moment_basis(BasisKind.MONOMIAL, sc.vgrid, CONSERVED_MOMENTS)
        self.configs = {m: cr_config(sc, m) for m in self.ORDERS}
        self.reports = []  # LiftReport of each successful lift since rounds() began

    def lift(self, step, order, cfg=None):
        ref, macro = self.references[step]
        with self.span("cr.lift"):
            lifted, report = lift_macro(
                self.lift_stepper, self.basis, macro, self.scenario.gas,
                cfg or self.configs[order],
                grid=ref.grid, vgrid=ref.vgrid, scale=ref.scale, time=ref.time,
            )
        self.reports.append(report)
        return lifted, report

    def lift_norm(self, step, lifted) -> float:
        return restrict_lift_error(self.references[step][0], lifted).two_norm

    def _check(self, step, order, result):
        lifted, report = result
        if not report.conserved_drift <= LIFT_DRIFT_MAX:
            raise CheckFailed(f"conserved drift {report.conserved_drift:.3e} > {LIFT_DRIFT_MAX:g}")
        want = self.expected[str(step)][str(order)]["two_norm"]
        got = self.lift_norm(step, lifted)
        if not abs(got - want) <= LIFT_NORM_RTOL * want:
            raise CheckFailed(f"restrict-lift norm {got:.6e}, recorded {want:.6e}")

    def warmup(self):
        self.lift(*self.WARMUP)

    def rounds(self):
        self.reports = []
        rng = np.random.default_rng(self.seed)
        while True:
            for step in rng.permutation(self.CANDIDATE_STEPS):
                step = int(step)
                yield [Op({"step": step, "order": m}, partial(self.lift, step, m),
                          partial(self._check, step, m)) for m in self.ORDERS]


class SpectrumSmall(Workload):
    """One op = one dense CR-Jacobian spectrum on a criterion-8 problem.

    N = 50, Nv = 24, m = 0: the QR reset and the naive reset on the long
    domain, and the QR reset on the 30-mean-free-path domain, in turn.  The
    thread count is the CLI default (``os.cpu_count()``) capped at the CPUs
    this process may use.  The seed does not affect the inputs.
    """

    name = "spectrum-small"
    PROBLEMS = ("qr-long", "naive-long", "qr-short")

    def setup(self):
        self.threads = spectrum_threads()
        with self.span("scenario.build"):
            long = shipped("helium_L30000.cfg").with_overrides(n_cells=50, n_velocities=24)
            short = long.with_overrides(lambda_multiple=30.0)
            self.problems = {}
            for name, sc in (("qr-long", long), ("naive-long", long), ("qr-short", short)):
                self.problems[name] = (sc.make_stepper(warm_start=False),
                                       build_moment_basis(BasisKind.MONOMIAL, sc.vgrid,
                                                          CONSERVED_MOMENTS),
                                       sc.initial_field().values,
                                       cr_config(sc, 0))
        self.naive_radii = []

    def spectrum(self, problem):
        stepper, basis, f0, cfg = self.problems[problem]
        naive_P = None
        if problem.startswith("naive"):
            with self.span("moments.naive_projector"):
                naive_P = naive_projector(basis)[0]
        with self.span("diagnostics.spectrum"):
            return cr_jacobian_spectrum(stepper, basis, f0, cfg, naive_P=naive_P,
                                        threads=self.threads)

    def _check(self, problem, report):
        if problem.startswith("naive"):
            # LAPACK rounding noise (cond_1 ~ 1e92): recorded, never checked.
            self.naive_radii.append(report.spectral_radius)
            return
        want = self.expected[problem]
        if not abs(report.spectral_radius - want) <= RADIUS_RTOL * want:
            raise CheckFailed(f"{problem} radius {report.spectral_radius:.6f}, recorded {want:.6f}")

    def warmup(self):
        self.spectrum(self.PROBLEMS[0])

    def rounds(self):
        self.naive_radii = []
        while True:
            yield [Op({"problem": p}, partial(self.spectrum, p), partial(self._check, p))
                   for p in self.PROBLEMS]

    def serial_assembly_s(self) -> float:
        """Wall time of one Jacobian assembly at one thread: the plain baseline."""
        stepper, basis, f0, cfg = self.problems[self.PROBLEMS[0]]
        t0 = time.perf_counter()
        cr_jacobian_matrix(stepper, basis, f0, cfg, threads=1)
        return time.perf_counter() - t0


def spectrum_threads() -> int:
    return min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))


WORKLOADS = {w.name: w for w in (ReferenceFull, LiftFull, SpectrumSmall)}
