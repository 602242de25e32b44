"""Repeat the benchmark over seeds and summarize each metric.

    python3 bench/repeat.py --seeds 11-20 --out bench/out/baseline.json
    python3 bench/repeat.py --seeds 1-5 --workloads lift-full --trace 1

Runs ``BENCHMARK.json``'s command once per workload and seed, from the
repository root, and reports for every metric the median and the spread:
the distance between the first and third quartiles over the median
(``statistics.quantiles(values, n=4)``).  A timed metric whose spread is
above a third of its bound is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for name in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return done.returncode
            res = json.loads(done.stdout.strip().splitlines()[-1])
            results.append(res)
            print(name, seed, json.dumps(res), flush=True)
        metrics = {}
        for key in results[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in results]
            med = statistics.median(values)
            spread = None
            if len(values) > 1 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
            metrics[key] = {"median": med, "spread": spread,
                            "unit": results[0]["metrics"][key]["unit"], "values": values}
            bound = bounds.get(key) if not args.trace else None
            flag = "  above a third of its bound" if (
                bound and spread is not None and spread > bound / 3) else ""
            spread_text = "n/a" if spread is None else f"{spread:.3f}"
            print(f"{name:15s} {key:34s} median {med:12.6g}  spread {spread_text}{flag}")
        summary[name] = {
            "seeds": args.seeds,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "metrics": metrics,
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"run_seconds": bench["run_seconds"], "trace": args.trace,
                                        "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
