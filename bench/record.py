"""Record the outputs the benchmark checks against into ``expected.json``.

Run once from the repository root on the commit whose outputs are the
reference:

    python3 bench/record.py

It drives the same workload code as ``run.py``.  A lift the shipped
defaults cannot finish (the known GMRES stagnation at m >= 2) is recorded
from a solve with criterion 7's GMRES settings for that order, first
unchained and then continued from the lower order's solution; the entry
names the settings that produced it.  Takes about five minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from klift import CRConfig, GMRESParams, KliftError  # noqa: E402

import workloads as wl  # noqa: E402

# Criterion 7's hand-tuned Newton settings (tests/test_acceptance.py).
FALLBACK = {
    2: CRConfig(order_m=2, solver="newton", newton_tol=1e-10,
                gmres=GMRESParams(tol=1e-4, max_iters=300)),
    3: CRConfig(order_m=3, solver="newton", newton_tol=1e-10,
                gmres=GMRESParams(tol=1e-3, max_iters=3000, restart=300)),
}


def record_reference(out_dir) -> dict:
    w = wl.ReferenceFull(0, out_dir, {})
    w.setup()
    expected = {}
    rounds = w.rounds()
    for _ in range(w.SEGMENT // w.BLOCK):
        ops = next(rounds)
        for op in ops:
            values = op.run()
        step = ops[-1].labels["step"]
        expected[str(step)] = wl.macro_digest(w.initial.with_values(values),
                                              w.scenario.gas, w.CELLS)
    return expected


def record_lifts(out_dir) -> dict:
    w = wl.LiftFull(0, out_dir, {})
    w.setup()
    expected = {}
    for step in w.CANDIDATE_STEPS:
        entry = expected[str(step)] = {}
        solutions = {}
        for m in w.ORDERS:
            attempts = [("shipped defaults", None, None)]
            if m in FALLBACK:
                attempts += [("criterion 7 settings", FALLBACK[m], None),
                             ("criterion 7 settings from m-1", FALLBACK[m], m - 1)]
            for source, cfg, guess in attempts:
                try:
                    lifted, report = lift_from(w, step, m, cfg, solutions.get(guess))
                except KliftError as exc:
                    print(f"step {step} m={m} {source}: {exc}", flush=True)
                    continue
                solutions[m] = lifted.values
                entry[str(m)] = {"two_norm": w.lift_norm(step, lifted), "source": source,
                                 "conserved_drift": report.conserved_drift}
                print(f"step {step} m={m} {source}: {entry[str(m)]['two_norm']:.6e}", flush=True)
                break
            else:
                raise SystemExit(f"no setting lifts step {step} at m={m}")
    return expected


def lift_from(w, step, order, cfg, guess):
    if guess is None:
        return w.lift(step, order, cfg)
    ref, macro = w.references[step]
    return wl.lift_macro(w.lift_stepper, w.basis, macro, w.scenario.gas, cfg,
                         grid=ref.grid, vgrid=ref.vgrid, scale=ref.scale,
                         time=ref.time, f_guess=guess)


def record_spectra(out_dir) -> dict:
    w = wl.SpectrumSmall(0, out_dir, {})
    w.setup()
    return {p: w.spectrum(p).spectral_radius for p in w.PROBLEMS}


def main() -> int:
    out_dir = HERE / "out"
    expected = {
        "spectrum-small": record_spectra(out_dir),
        "reference-full": record_reference(out_dir),
        "lift-full": record_lifts(out_dir),
    }
    wl.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {wl.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
