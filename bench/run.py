"""klift benchmark: one workload per run, or all of them.

    python3 bench/run.py --workload reference-full --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seconds 15 [--trace 1]

Run from the repository root; the program is imported from ``src/``.
Each run sets up its workload, times one warm-up op with it, measures whole
rounds of ops until ``--seconds`` have passed and checks every output.  It
prints one line per metric, the environment and every failed op, and, as
its last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The traced run measures the same ops once untraced and
once with every layer boundary wrapped; the difference of the two medians
is the tracing overhead.  Spans and results go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import stats
from tracing import SPAN_FIELDS, Tracer, no_span, patched, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("reference-full", "lift-full", "spectrum-small")
SETUP_REPEATS = 3  # set-up is timed in this process and in two fresh ones
CHILD_TIMEOUT_S = 170
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up and the warm-up op once, print it and exit")
    return p.parse_args(argv)


def emit(workload, metric, value, unit, note=""):
    print(f"{workload:15s} {metric:34s} {value:>14.6g} {unit:6s} {note}".rstrip())


# ---- environment ------------------------------------------------------------


def environment(seed, seed_affects_inputs, threads) -> dict:
    import numpy as np
    import scipy

    def blas(cfg):
        deps = cfg.get("Build Dependencies", {})
        return {k: {"name": v.get("name"), "version": v.get("version")}
                for k, v in deps.items() if k in ("blas", "lapack")}

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "spectrum_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        **git_state(),
        "seed": seed,
        "seed_affects_inputs": seed_affects_inputs,
    }


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_commit": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()

    try:
        return {"git_commit": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"git_commit": None, "git_dirty": None}


# ---- measurement ------------------------------------------------------------


def measure(workload, seconds, tracer=None):
    """Run whole rounds until ``seconds`` have passed.

    Returns (latencies, round_means, failures, check_failures).  A failed op
    keeps its wall time here; the tail rule replaces it by +inf.
    """
    from workloads import CheckFailed

    latencies, round_means, failures, bad_checks = [], [], [], 0
    rounds = workload.rounds()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        first = len(latencies)
        for op in next(rounds):
            if tracer is not None:
                tracer.op = len(latencies)
            error = None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # every failure of an op is recorded, none stops the run
                error = exc
            elapsed = time.perf_counter() - t0
            if error is None and op.check is not None:
                try:
                    op.check(out)
                except CheckFailed as exc:
                    error = exc
                    bad_checks += 1
            if error is not None:
                failures.append(failure_record(workload.name, op.labels, error, elapsed,
                                               len(latencies)))
            latencies.append(elapsed)
        round_means.append(sum(latencies[first:]) / (len(latencies) - first))
    if tracer is not None:
        tracer.op = -1
    return latencies, round_means, failures, bad_checks


def failure_record(workload, labels, exc, elapsed, op=None) -> dict:
    return {"workload": workload, "op": op, **labels, "exception": type(exc).__name__,
            "message": str(exc), "history_len": len(getattr(exc, "history", None) or []),
            "seconds": elapsed}


def finish(workload) -> list[dict]:
    """Run the workload's closing work; a wrong output becomes a failure record."""
    from workloads import CheckFailed

    try:
        workload.finish()
    except CheckFailed as exc:
        return [failure_record(workload.name, {"finish": True}, exc, 0.0)]
    return []


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    workload.warmup()
    return time.perf_counter() - t0


def child_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed ({done.returncode}): {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---- per-layer metrics ------------------------------------------------------


def layer_metrics(workload, spans, n_ops, serial_s, overhead_s) -> dict:
    """Counts and self times per layer from the traced loop (op >= 0).

    ``.calls`` are totals over the traced ops (their number is
    ``trace.ops``); self times are per op.  Snapshot and scenario times are
    means per call over the whole traced run, set-up included.
    """
    calls, self_s = Counter(), defaultdict(float)
    durations = defaultdict(list)
    for span, st in zip(spans, self_times(spans)):
        durations[span.name].append(span.end - span.start)
        if span.op >= 0:
            calls[span.name] += 1
            self_s[span.name] += st
    per_op = max(n_ops, 1)

    def mean(name):
        d = durations[name]
        return sum(d) / len(d) if d else 0.0

    reports = getattr(workload, "reports", [])
    lifts = calls["cr.lift"]
    spectra = calls["diagnostics.spectrum"]
    m = {}
    for layer in ("kinetic.equilibrium", "kinetic.restrict", "steppers.step",
                  "moments.reset", "cr.cr_map", "cr.gmres"):
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (self_s[layer] / per_op, "s/op")
    m["steppers.steps_per_op"] = (calls["steppers.step"] / per_op, "1/op")
    m["moments.naive_projector.self_s"] = (self_s["moments.naive_projector"] / per_op, "s/op")
    m["cr.maps_per_lift"] = (calls["cr.cr_map"] / lifts if lifts else 0.0, "1/lift")
    m["cr.gmres_iters"] = (
        sum(r.gmres_iterations for r in reports) / len(reports) if reports else 0.0, "1/lift")
    m["cr.newton_iters"] = (
        sum(r.iterations for r in reports) / len(reports) if reports else 0.0, "1/lift")
    m["cr.lift.ok_ratio"] = (len(reports) / lifts if lifts else 0.0, "ratio")
    m["diagnostics.jacobian.self_s"] = (self_s["diagnostics.jacobian"] / per_op, "s/op")
    m["diagnostics.maps_per_spectrum"] = (
        calls["cr.cr_map"] / spectra if spectra else 0.0, "1/spectrum")
    m["diagnostics.eig.self_s"] = (self_s["diagnostics.spectrum"] / per_op, "s/op")
    m["diagnostics.jacobian.serial_s"] = (serial_s, "s")
    m["snapshots.write_s"] = (mean("snapshots.write"), "s")
    m["snapshots.read_s"] = (mean("snapshots.read"), "s")
    m["snapshots.bytes"] = (workload.snapshot_bytes, "B")
    m["scenario.build_s"] = (mean("scenario.build"), "s")
    m["trace.ops"] = (n_ops, "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


@contextmanager
def traced(workload, tracer):
    workload.span = tracer.span
    try:
        with patched(tracer):
            yield
    finally:
        workload.span = no_span


# ---- one workload -----------------------------------------------------------


def run_one(args) -> int:
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected(args.workload)
    workload = cls(args.seed, OUT, expected)
    name = workload.name

    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(workload)}))
        return 0

    env = environment(args.seed, cls.seed_affects_inputs, workloads.spectrum_threads())
    print("# env " + json.dumps(env))
    result = {"workload": name, "env": env}
    if args.trace:
        tracer = Tracer()
        with traced(workload, tracer):
            timed_setup(workload)
        _, plain, _, _ = measure(workload, args.seconds)
        with traced(workload, tracer):
            latencies, round_means, failures, bad_checks = measure(workload, args.seconds,
                                                                   tracer)
            bad_finish = finish(workload)
        serial_s = workload.serial_assembly_s() if name == "spectrum-small" else 0.0
        overhead_s = stats.median(round_means) - stats.median(plain)
        metrics = layer_metrics(workload, tracer.spans, len(latencies), serial_s, overhead_s)
        result["span_fields"] = SPAN_FIELDS
        result["spans"] = [[getattr(s, f) for f in SPAN_FIELDS] for s in tracer.spans]
        note = {"trace.overhead_s": f"op_p50_s traced {stats.median(round_means):.6g} s"
                                    f" - untraced {stats.median(plain):.6g} s"}
    else:
        samples = [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
        samples.append(timed_setup(workload))
        latencies, round_means, failures, bad_checks = measure(workload, args.seconds)
        bad_finish = finish(workload)
        metrics = {
            "setup_s": (stats.median(samples), "s"),
            "op_p50_s": (stats.median(round_means), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        note = {"setup_s": f"median of {len(samples)}: " + ", ".join(f"{s:.4g}" for s in samples),
                "op_p50_s": f"median over {len(round_means)} rounds of {len(latencies)} ops"}

    for key, (value, unit) in metrics.items():
        emit(name, key, value, unit, note.get(key, ""))
    if not args.trace:
        print_extra(name, workload, latencies, failures)
    failures += bad_finish
    for rec in failures:
        print("# failure " + json.dumps(rec))
    correct = bad_checks == 0 and not bad_finish
    final = {"correct": correct, "attempted": len(latencies), "failed": len(failures),
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    result.update(final, failures=failures, latencies=latencies)
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result))
    print(f"# wrote {out_path.relative_to(ROOT)}")
    print(json.dumps(final))
    return 0


def print_extra(name, workload, latencies, failures):
    """End-to-end figures outside the JSON result: tail, failed fraction, throughput."""
    with_inf = list(latencies)
    for rec in failures:
        with_inf[rec["op"]] = float("inf")
    t = stats.tail(with_inf)
    if t is None:
        print(f"{name:15s} {'op_tail_s':34s} {'omitted':>14s} {'s':6s} "
              f"fewer than {stats.MIN_BEYOND} ops beyond p{stats.TAIL_LADDER[-1]:g} (n={len(latencies)})")
    else:
        p, value, beyond = t
        emit(name, "op_tail_s", value, "s", f"p{p:g}, n={len(latencies)}, {beyond} beyond")
    emit(name, "failed_frac", len(failures) / max(len(latencies), 1), "ratio",
         f"{len(failures)}/{len(latencies)}")
    if name == "reference-full":
        n_cells = workload.scenario.n_cells
        emit(name, "cell_steps_per_s", n_cells * len(latencies) / sum(latencies), "1/s",
             f"N={n_cells}")
    if name == "spectrum-small" and workload.naive_radii:
        emit(name, "naive_radius", workload.naive_radii[-1], "1", "recorded, not checked")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "klift" / "__init__.py").is_file():
        print(f"error: no klift package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload != "all":
        return run_one(args)
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
