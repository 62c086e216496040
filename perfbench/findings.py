"""Re-measure the contrasts recorded in NOTES.md.

    python3 perfbench/findings.py [--seconds 12] [--pairs 2]

Each finding runs one perfbench workload in two configurations,
alternating A, B, A, B ... so slow drift of the host's CPU speed hits
both sides alike, and prints each side's median over its runs:

* wire: ``edit`` on the CLI's default ``compress`` rung against plain
  JSON lines, plus one repeated ``source`` read on each rung;
* persist: ``edit`` with and without ``--cache-dir``;
* pool: ``open`` and ``corpus`` serial against ``--jobs 2``.

These are findings for later changes; nothing here is gated.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def contrast(title, a, b, seconds, pairs, keys):
    values = {label: {k: [] for k in keys} for label, _ in (a, b)}
    for _ in range(pairs):
        for label, cls in (a, b):
            run = cls(1, seconds, False, False).execute()
            if run.failed:
                raise SystemExit(f"{label}: {run.errors[:3]}")
            for k in keys:
                values[label][k].append(statistics.median(run.samples[k]))
    print(f"== {title}")
    for label, _ in (a, b):
        row = "  ".join(
            f"{k} p50 {statistics.median(v):.2f}ms" for k, v in values[label].items()
        )
        print(f"  {label:<28}{row}")


def repeated_source() -> None:
    """Two identical ``source`` reads of the ``edit`` program per rung."""

    import inputs

    print("== repeated source read of the 60-routine program")
    for climb in (False, True):
        server = harness.Server([])
        client = harness.Client(server.port)
        try:
            if climb:
                client.climb()
            client.call("open", session="s", source=inputs.edit_program())
            times = []
            for _ in range(2):
                t0 = time.perf_counter()
                client.call("source", session="s")
                times.append((time.perf_counter() - t0) * 1e3)
            print(f"  {client.rung:<28}first {times[0]:.1f}ms  "
                  f"second {times[1]:.1f}ms")
        finally:
            client.close()
            server.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--pairs", type=int, default=2)
    args = parser.parse_args()
    harness.require_source_tree()
    from workloads import CorpusWorkload, EditWorkload, OpenWorkload

    class EditJSON(EditWorkload):
        ladder = False

    class EditNoCache(EditWorkload):
        cache = False

    class OpenJobs2(OpenWorkload):
        flags = ["--jobs", "2"]
        pin = False

    class OpenUnpinned(OpenWorkload):
        pin = False

    class CorpusSerial(CorpusWorkload):
        flags = []

    s, n = args.seconds, args.pairs
    try:
        repeated_source()
        contrast("wire (edit)", ("compress (CLI default)", EditWorkload),
                 ("json lines", EditJSON), s, n, ("edit", "query"))
        contrast("persist (edit)", ("--cache-dir", EditWorkload),
                 ("no cache dir", EditNoCache), s, n, ("edit", "undo"))
        contrast("pool (open)", ("serial", OpenUnpinned),
                 ("--jobs 2", OpenJobs2), s, n, ("open",))
        contrast("pool (corpus)", ("--jobs 2", CorpusWorkload),
                 ("serial", CorpusSerial), s, n, ("submit",))
    finally:
        harness.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
