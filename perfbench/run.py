"""Ped end-to-end benchmark: ``edit``, ``open`` and ``corpus`` over the
real ``repro serve`` process.

    python3 perfbench/run.py --workload edit --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the workload untraced
and then traced for half the time each, and reports the per-layer
metrics from the traced server's spans plus the tracing overhead.
``--workload all`` runs the three workloads in turn.  The last line of
standard output is the result object; the lines before it are the
human report (every named metric with unit and sample count, the
environment record and, traced, the layer-contrast table).
``--corrupt-expected`` feeds the correctness gate wrong fingerprints:
the run must then report ``correct: false`` and exit 1.

See NOTES.md for why each workload exists and what it found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402
from harness import tail  # noqa: E402

PRIMARY = {"edit": "edit", "open": "open", "corpus": "submit"}

#: ROADMAP/issue metric names, per workload: (name, unit, value, n).
#: Names a workload does not measure are listed as measured elsewhere.
ISSUE_E2E = (
    "setup_s", "setup.wall_s", "write.p50_ref_ms", "query.p50_ref_ms", "edit.p50_ms",
    "edit.p95_ms", "query.p50_ms", "query.p95_ms", "undo.p50_ms",
    "open.p50_s", "corpus.programs_per_s", "bytes_per_op", "rss_mb",
    "error_rate",
)


def spec():
    path = harness.ROOT / "BENCHMARK.json"
    return json.loads(path.read_text())


def env_record(run) -> dict:
    return {
        "kernel_ms": round(median(run.kernel_ms), 4),
        "ref_kernel_ms": harness.REF_KERNEL_MS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": harness.git_commit(),
        "seed": run.seed,
        "workload": run.workload,
        "server_flags": run.server_flags,
        "wire": run.rung,
        "placement": run.placement,
        "input": run.size,
    }


def e2e(run) -> dict:
    """The ``BENCHMARK.json`` end-to-end metrics of one run."""

    return {
        "setup_s": median(run.ref["setup"]),
        "write.p50_ref_ms": median(run.ref[PRIMARY[run.workload]]),
        "bytes_per_op": run.timed_bytes / run.timed_requests,
        "rss_mb": median(run.rss_mb),
    }


def issue_rows(run):
    """``(name, value text, unit, n)`` for every issue-named metric."""

    s = run.samples
    rows = {}

    def put(name, values, unit, scale=1.0):
        rows[name] = (f"{median(values) * scale:.4f}", unit, len(values))

    def put_tail(name, values):
        got = tail(values)
        if got is None:
            rows[name] = (f"n/a (fewer than 20 samples)", "ms", len(values))
        elif got[0] == 95:
            rows[name] = (f"{got[1]:.4f}", "ms", len(values))
        else:
            rows[name] = (
                f"n/a; p{got[0]} = {got[1]:.4f} (p95 needs 200 samples)",
                "ms",
                len(values),
            )

    put("setup_s", run.ref["setup"], "s")
    put("setup.wall_s", s["setup"], "s")
    put("write.p50_ref_ms", run.ref[PRIMARY[run.workload]], "ref_ms")
    put("query.p50_ref_ms", run.ref["query"], "ref_ms")
    put("query.p50_ms", s["query"], "ms")
    put_tail("query.p95_ms", s["query"])
    if run.workload == "edit":
        put("edit.p50_ms", s["edit"], "ms")
        put_tail("edit.p95_ms", s["edit"])
        put("undo.p50_ms", s["undo"], "ms")
    if run.workload == "open":
        put("open.p50_s", s["open"], "s", 1e-3)
    if run.workload == "corpus":
        programs = run.size["programs"]
        rate = programs / (median(s["submit"]) / 1e3)
        rows["corpus.programs_per_s"] = (
            f"{rate:.4f} ({programs} programs, {run.size['lines']} lines "
            "per batch)",
            "1/s",
            len(s["submit"]),
        )
    rows["bytes_per_op"] = (
        f"{run.timed_bytes / run.timed_requests:.1f}", "B", run.timed_requests
    )
    put("rss_mb", run.rss_mb, "MiB")
    rows["error_rate"] = (
        f"{run.failed / run.attempted:.4f} ({run.failed}/{run.attempted})",
        "ratio",
        run.attempted,
    )
    for name in ISSUE_E2E:
        if name in rows:
            value, unit, n = rows[name]
            yield name, value, unit, n
        else:
            yield name, "- (measured on another workload)", "", 0


def report_e2e(run, env, out) -> None:
    print(f"== {run.workload} seed={run.seed}", file=out)
    print("env " + json.dumps(env, sort_keys=True), file=out)
    print(f"{'metric':<24}{'value':>44}  {'unit':<6}{'n':>6}", file=out)
    for name, value, unit, n in issue_rows(run):
        print(f"{name:<24}{value:>44}  {unit:<6}{n:>6}", file=out)
    for err in run.errors[:20]:
        print(f"error: {err}", file=out)


def execute(name, seed, seconds, traced, corrupt):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, seconds, traced, corrupt).execute()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("edit", "open", "corpus", "all")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, help="default: run_seconds of BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args()

    harness.require_source_tree()
    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    names = (
        ["edit", "open", "corpus"] if args.workload == "all" else [args.workload]
    )
    correct = True
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            if args.trace:
                base = execute(
                    name, args.seed, seconds / 2, False, args.corrupt_expected
                )
                run = execute(
                    name, args.seed, seconds / 2, True, args.corrupt_expected
                )
                env = env_record(run)
                report_e2e(run, env, sys.stdout)
                values = layers.per_layer(run, base)
                layers.report(run, values, bench, sys.stdout)
                runs = (base, run)
            else:
                run = execute(
                    name, args.seed, seconds, False, args.corrupt_expected
                )
                env = env_record(run)
                report_e2e(run, env, sys.stdout)
                values = e2e(run)
                runs = (run,)
            for r in runs:
                attempted += r.attempted
                failed += r.failed
            correct = correct and failed == 0
            kind = "per_layer" if args.trace else "end_to_end"
            found = {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in bench[kind]
            }
            prefix = f"{name}/" if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in found.items()})
            record = {"env": env, "metrics": found}
            harness.WORK.mkdir(exist_ok=True)
            (harness.WORK / f"{name}-trace{args.trace}.json").write_text(
                json.dumps(record, indent=1, sort_keys=True)
            )
    finally:
        harness.cleanup()
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
