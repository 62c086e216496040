"""Steadiness self-check: repeat a workload and compare each end-to-end
metric's run-to-run spread with its bound in ``BENCHMARK.json``.

    python3 perfbench/steady.py --workload edit --runs 10 [--repeat 2]

Each run is ``run.py`` with its own seed (``--first-seed`` onwards).  A
metric's spread is the distance between the first and third quartiles
of its values (``statistics.quantiles(values, n=4)``) as a share of
their median.  The target is a spread under a third of the bound
(``setup_s`` is exempt from the spread rule).  ``--repeat 2`` runs the
same seeds twice and also reports how far the second median moved from
the first, which must stay within the bound for every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"


def one(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit(f"run failed: {workload} seed {seed}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - t0
    record = ROOT / ".perfbench" / f"{workload}-trace0.json"
    result["kernel_ms"] = json.loads(record.read_text())["env"]["kernel_ms"]
    return result


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    medians = []
    steady = True
    for rep in range(args.repeat):
        values = {m["name"]: [] for m in metrics}
        walls = []
        host = []
        for k in range(args.runs):
            result = one(args.workload, args.first_seed + k, seconds)
            if not result["correct"]:
                raise SystemExit(f"incorrect result: {result}")
            walls.append(result["wall_s"])
            host.append(result["kernel_ms"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {args.workload} pass {rep + 1}: {args.runs} runs, "
              f"{seconds}s each, wall max {max(walls):.1f}s")
        print(f"{'metric':<16}{'median':>14}{'spread':>10}{'bound':>8}  verdict")
        meds = {}
        for m in metrics:
            vals = values[m["name"]]
            meds[m["name"]] = statistics.median(vals)
            s = spread(vals)
            if m["name"] == "setup_s":
                verdict = "exempt"
            elif s < m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "within bound, above a third"
                steady = False
            else:
                verdict = "NOT within bound"
                steady = False
            print(f"{m['name']:<16}{meds[m['name']]:>14.4f}{s:>10.4f}"
                  f"{m['bound']:>8.3f}  {verdict}")
            print("    values: " + " ".join(f"{v:.4g}" for v in vals))
        print("kernel_ms (each run's median calibration sample): "
              + " ".join(f"{v:.4g}" for v in host))
        medians.append(meds)
    if len(medians) > 1:
        print("== second median against the first (worse is positive)")
        for m in metrics:
            a, b = medians[0][m["name"]], medians[1][m["name"]]
            moved = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = moved <= m["bound"]
            steady = steady and ok
            print(f"{m['name']:<16}{moved:>+10.4f}  bound {m['bound']:.3f}  "
                  f"{'ok' if ok else 'WORSE THAN BOUND'}")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
