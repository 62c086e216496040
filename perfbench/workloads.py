"""The three perfbench workloads: ``edit``, ``open`` and ``corpus``.

Each is a closed loop from this single process to a real ``repro
serve`` process: the timed requests go over one TCP connection that
climbs the CLI's default wire ladder, and checks go over a second,
plain JSON-lines connection (the *checker*), so they neither disturb
the timed connection's wire state nor get timed.  Every answer is
checked against an independent path: a cold in-process
:func:`repro.core.analyze` of the text the benchmark itself expects the
server to hold.  Between requests the host's speed is sampled
(:class:`harness.Calibration`), so every latency is also kept in
host-independent ``ref_ms``.  A workload returns a :class:`Run` with
its samples, its client spans and, traced, the server's spans and
``metrics`` snapshots around the timed loop.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import inputs
from harness import CPUS, Calibration, Client, Server, place, scratch_dir

from repro.core import analyze
from repro.incremental.fingerprint import fingerprint_digest
from repro.pipeline import AGGREGATES
from repro.service.client import PedRequestError

#: Set-ups per run for the ``setup_s`` median (``open`` sets up once per
#: open instead).
SETUPS = 5
#: ``edit``: an undo every UNDO_EVERY steps, the redo at the next step,
#: and a fingerprint check every CHECK_EVERY steps and at the end.
UNDO_EVERY = 4
CHECK_EVERY = 10
#: At least MIN_STEPS edit steps (MIN_SUBMITS corpus batches) run, and
#: the server's peak RSS is read right after the last of them: a fixed
#: amount of work, so a fast host running more steps does not raise it.
MIN_STEPS = 30
MIN_OPENS = 3
#: ``open``: reads after each open, ``driver`` then random ``upd<r>``.
READS_PER_OPEN = 20
MIN_SUBMITS = 3
#: spec77's verdict in the evaluation tables: 25 of 34 loops.
SPEC77_PARALLEL = (25, 34)


def reference_digest(source: str) -> str:
    """Fingerprint of a fresh, cold, serial in-process analysis."""

    return fingerprint_digest(analyze(source))


@dataclass
class Run:
    workload: str
    seed: int
    server_flags: List[str]
    rung: str = "json"
    placement: str = "unpinned"
    #: op kind -> latencies in ms (``setup`` in s).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: op kind -> the same latencies in ``ref_ms`` (``setup`` in s at the
    #: reference speed; see :meth:`normalize`).
    ref: Dict[str, List[float]] = field(default_factory=dict)
    #: ``(start, end)`` of each set-up.
    setups: List[Tuple[float, float]] = field(default_factory=list)
    #: The calibration samples of the run, ms per kernel call.
    kernel_ms: List[float] = field(default_factory=list)
    rss_mb: List[float] = field(default_factory=list)
    #: Client-received bytes and count of the timed requests.
    timed_bytes: int = 0
    timed_requests: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: The timed client spans (trace id, op, kind, start, end, ms, bytes).
    spans: List[Dict] = field(default_factory=list)
    span_files: List[Path] = field(default_factory=list)
    #: ``metrics`` snapshots bracketing each timed window (traced runs).
    metrics: List[Dict] = field(default_factory=list)
    size: Dict[str, int] = field(default_factory=dict)

    def add(self, kind: str, value: float) -> None:
        self.samples.setdefault(kind, []).append(value)

    def timed(self, kind: str, span: Dict) -> None:
        span["kind"] = kind
        self.add(kind, span["ms"])
        self.spans.append(span)
        self.timed_bytes += span["bytes"]
        self.timed_requests += 1

    def setup(self, start: float, end: float) -> None:
        self.add("setup", end - start)
        self.setups.append((start, end))

    def normalize(self, cal: Calibration) -> None:
        """Scale every timed latency and set-up to the reference speed
        by the host speed sampled around it."""

        self.kernel_ms = list(cal.ms)
        self.ref["setup"] = [(b - a) * cal.scale(a, b) for a, b in self.setups]
        for span in self.spans:
            span["ref_ms"] = span["ms"] * cal.scale(span["start"], span["end"])
            self.ref.setdefault(span["kind"], []).append(span["ref_ms"])

    def check(self, ok: bool, what: str) -> None:
        """One checked operation; a wrong answer counts as failed."""

        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


class Served:
    """A server with its timed client and its checker connection."""

    def __init__(self, workload: "Workload", flags: List[str]) -> None:
        t0 = time.perf_counter()
        spans = None
        if workload.traced:
            spans = workload.spans_dir / f"server-{len(workload.run.span_files)}.json"
            workload.run.span_files.append(spans)
        self.server = Server(flags, spans=spans, pin=workload.pin)
        self.client = self.checker = None
        try:
            workload.run.placement = self.server.placement
            self.client = Client(self.server.port)
            if workload.ladder:
                workload.run.rung = self.client.climb()
            self.checker = Client(self.server.port)
        except BaseException:
            self.close()
            raise
        self.window = (t0, time.perf_counter())

    def close(self) -> None:
        for client in (self.client, self.checker):
            if client is not None:
                client.close()
        self.server.stop()


class Workload:
    name = ""
    flags: List[str] = []
    #: Climb the wire ladder on the timed connection (findings.py turns
    #: it off to compare against plain JSON lines).
    ladder = True
    #: Pin client and server to a CPU each from the server's start.  Not
    #: for ``corpus``: pool workers forked by a pinned server would share
    #: its one CPU, which slows a batch 1.6-2x (3.2-3.4 s against 1.6-2.1
    #: s) and would hide the pool's win.
    pin = True

    def __init__(self, seed: int, seconds: float, traced: bool, corrupt: bool):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.corrupt = corrupt
        self.run = Run(self.name, seed, list(self.flags))
        self.spans_dir = scratch_dir("spans-") if traced else None
        # The server's CPU when pinned (see harness.place), else all.
        self.cal = Calibration(CPUS[-1:] if self.pin else CPUS)

    def expected(self, digest: str) -> str:
        """The expected fingerprint, deliberately wrong under
        ``--corrupt-expected`` (the gate's own self-test)."""

        return digest[::-1] if self.corrupt else digest

    def call(self, client: Client, kind: Optional[str], op: str, **params):
        """One request; timed under ``kind`` when given.  A structured
        error reply returns ``None``, which the caller's check counts."""

        try:
            result, span = client.call(op, **params)
        except PedRequestError as exc:
            self.run.errors.append(f"{op}: {exc}")
            return None
        if kind is not None:
            self.run.timed(kind, span)
        return result

    def snapshot(self, served: Served, session: Optional[str], after: bool):
        """``metrics`` over the checker at one end of a timed window
        (traced runs).  The server-wide snapshot bounds the window, so
        it comes last before the loop and first after it; the checker's
        own traffic inside the window is recorded so the wire metrics
        can leave it out."""

        if not self.traced:
            return
        checker = served.checker
        snap: Dict = {}
        if session is not None and not after:
            snap["session"] = checker.call("metrics", session=session)[0]["metrics"]
        snap["rx"] = checker.pc.bytes_received
        snap["replies"] = len(checker.spans)
        snap["server"] = checker.call("metrics")[0]["metrics"]
        snap["tx"] = checker.pc.bytes_sent
        if session is not None and after:
            snap["session"] = checker.call("metrics", session=session)[0]["metrics"]
        self.run.metrics.append(snap)

    def execute(self) -> Run:
        self.loop()
        self.run.normalize(self.cal)
        return self.run

    def loop(self) -> None:
        raise NotImplementedError


class EditWorkload(Workload):
    """Interactive edits on a 60-routine program, store-backed server."""

    name = "edit"
    cache = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.source = inputs.edit_program()
        self.stencils = inputs.stencil_lines(self.source)
        if self.cache:
            self.run.server_flags = ["--cache-dir", "<fresh temp dir>"]
        self.run.size = {
            "routines": inputs.EDIT_ROUTINES,
            "lines": len(self.source.splitlines()),
        }

    def setup(self) -> Served:
        flags = ["--cache-dir", str(scratch_dir("cache-"))] if self.cache else []
        self.cal.sample()
        t0 = time.perf_counter()
        served = Served(self, self.flags + flags)
        opened = self.call(
            served.client, None, "open", session="s", source=self.source
        )
        self.run.setup(t0, time.perf_counter())
        self.cal.sample()
        self.run.check(opened is not None and len(opened["units"]) > 1, "open")
        return served

    def verify(self, served: Served, lines: List[str]) -> None:
        """The session's source must be the text this client expects,
        and its fingerprint that of a cold analysis of that text."""

        expected = "\n".join(lines) + "\n"
        got = self.call(served.checker, None, "source", session="s")
        self.run.check(
            got is not None and got["source"] == expected, "edit: source drifted"
        )
        digest = self.call(served.checker, None, "fingerprint", session="s")
        self.run.check(
            digest is not None
            and digest["fingerprint"]
            == self.expected(reference_digest(expected)),
            "edit: fingerprint differs from a cold analysis",
        )

    def loop(self) -> None:
        for _ in range(SETUPS - 1):
            self.setup().close()
        served = self.setup()
        client = served.client
        rng = random.Random(f"edit:{self.seed}")
        lines = self.source.splitlines()
        undo: List[List[str]] = []
        redo: List[List[str]] = []
        try:
            self.snapshot(served, "s", after=False)
            step = 0
            deadline = time.perf_counter() + self.seconds
            while time.perf_counter() < deadline or step < MIN_STEPS:
                self.cal.sample()
                if redo and step % UNDO_EVERY == 0:
                    reply = self.call(client, "undo", "redo", session="s")
                    self.run.check(reply is not None, "redo")
                    undo.append(lines)
                    lines = redo.pop()
                number, unit = rng.choice(self.stencils)
                text = inputs.stencil_text(rng)
                reply = self.call(
                    client, "edit", "edit", session="s",
                    start=number, end=number, text=text,
                )
                self.run.check(
                    reply is not None
                    and reply["message"].startswith("replaced lines"),
                    "edit reply",
                )
                undo.append(lines)
                redo.clear()
                lines = lines[: number - 1] + [text] + lines[number:]
                # A fixed 3:1 mix keeps the query median inside the
                # ``deps`` mode (``loops`` replies are 3x cheaper).
                read = "loops" if step % 4 == 0 else "deps"
                reply = self.call(client, "query", read, session="s", unit=unit)
                self.run.check(
                    reply is not None
                    and reply["unit"] == unit
                    and len(reply[read]) > 0,
                    f"{read} reply",
                )
                if step % UNDO_EVERY == UNDO_EVERY - 1:
                    reply = self.call(client, "undo", "undo", session="s")
                    self.run.check(reply is not None, "undo")
                    redo.append(lines)
                    lines = undo.pop()
                self.cal.sample()
                step += 1
                if step == MIN_STEPS:
                    self.run.rss_mb.append(served.server.peak_rss_mb())
                if step % CHECK_EVERY == 0:
                    self.verify(served, lines)
            self.snapshot(served, "s", after=True)
            self.verify(served, lines)
        finally:
            served.close()


class OpenWorkload(Workload):
    """Cold opens of a 200-routine program, one fresh server per open."""

    name = "open"

    def loop(self) -> None:
        source = inputs.open_program(self.seed)
        self.run.size = {
            "routines": inputs.OPEN_ROUTINES,
            "lines": len(source.splitlines()),
        }
        want = self.expected(reference_digest(source))
        units = [unit for _line, unit in inputs.stencil_lines(source)]
        rng = random.Random(f"open-reads:{self.seed}")
        opens = 0
        deadline = time.perf_counter() + self.seconds
        while time.perf_counter() < deadline or opens < MIN_OPENS:
            self.cal.sample()
            served = Served(self, self.flags)
            client = served.client
            try:
                self.run.setup(*served.window)
                self.cal.sample()
                opened = self.call(client, "open", "open", session="big", source=source)
                self.cal.sample()
                loops = self.call(client, "query", "loops", session="big", unit="driver")
                for unit in rng.sample(units, READS_PER_OPEN - 1):
                    reply = self.call(client, "query", "loops", session="big", unit=unit)
                    self.run.check(
                        reply is not None and len(reply["loops"]) == 1,
                        f"open: loops of {unit}",
                    )
                self.cal.sample()
                digest = self.call(served.checker, None, "fingerprint", session="big")
                self.run.check(opened is not None, "open")
                self.run.check(
                    loops is not None
                    and len(loops["loops"]) > 0
                    and all(row["parallelizable"] for row in loops["loops"]),
                    "open: a driver loop is not parallelizable",
                )
                self.run.check(
                    digest is not None and digest["fingerprint"] == want,
                    "open: fingerprint differs from a cold analysis",
                )
                # A fresh server counted nothing but the negotiation
                # before the open, so the window needs no opening snapshot.
                self.snapshot(served, "big", after=True)
                self.run.rss_mb.append(served.server.peak_rss_mb())
            finally:
                served.close()
            opens += 1


class CorpusWorkload(Workload):
    """Streamed corpus batches on a ``--jobs 2`` server."""

    name = "corpus"
    flags = ["--jobs", "2"]
    pin = False

    def setup(self) -> Served:
        self.cal.sample()
        t0 = time.perf_counter()
        served = Served(self, self.flags)
        # Warm-up batch: the process pool starts on first use.
        warm = [{"name": n, "source": s} for n, s in self.programs[:4]]
        reply = self.call(
            served.client, None, "corpus.submit", programs=warm,
            job="warmup", wait=True,
        )
        self.run.setup(t0, time.perf_counter())
        self.cal.sample()
        self.run.check(reply is not None and reply["done"] == 4, "warm-up")
        return served

    def verify(self, served: Served, job: str) -> None:
        got = self.call(served.checker, None, "corpus.results", job=job)
        records = {r["program"]: r for r in (got or {}).get("records", ())}
        self.run.check(set(records) == set(self.want), f"{job}: records")
        for name, digest in self.want.items():
            record = records.get(name, {})
            self.run.check(
                not record.get("error") and record.get("digest") == digest,
                f"{job}/{name}: digest differs from a cold analysis",
            )
        spec77 = records.get("spec77", {})
        self.run.check(
            (spec77.get("parallel_loops"), spec77.get("loops"))
            == SPEC77_PARALLEL,
            f"{job}: spec77 not {SPEC77_PARALLEL[0]}/{SPEC77_PARALLEL[1]}",
        )

    def loop(self) -> None:
        self.programs = inputs.corpus_programs(self.seed)
        self.run.size = {
            "programs": len(self.programs),
            "lines": sum(len(s.splitlines()) for _, s in self.programs),
        }
        self.want = {
            name: self.expected(reference_digest(source))
            for name, source in self.programs
        }
        payload = [{"name": n, "source": s} for n, s in self.programs]
        total = len(payload)
        for _ in range(SETUPS - 1):
            self.setup().close()
        served = self.setup()
        client = served.client
        # The warm-up batch forked the workers, which keep both CPUs;
        # only the server's own threads and this process are pinned now.
        # Unpinned, where the scheduler puts the two for a whole run
        # moved the run's query median by up to 15%.
        self.run.placement = (
            place(served.server.proc.pid) + " after the pool started; "
            "workers unpinned"
        )
        try:
            self.snapshot(served, None, after=False)
            k = 0
            deadline = time.perf_counter() + self.seconds
            while time.perf_counter() < deadline or k < MIN_SUBMITS:
                job = f"job{k}"
                events: List = []
                self.cal.sample()
                reply = self.call(
                    client, "submit", "corpus.submit", programs=payload,
                    job=job, wait=True, on_event=events.append,
                )
                self.run.check(
                    reply is not None
                    and reply["done"] == reply["total"] == total
                    and len(events) == total
                    and all(e.data["status"] == "done" for e in events),
                    f"{job}: submit incomplete or with errors",
                )
                self.cal.sample()
                for aggregate in sorted(AGGREGATES):
                    value = self.call(
                        client, "query", "corpus.query", job=job,
                        aggregate=aggregate,
                    )
                    self.run.check(
                        value is not None
                        and value["complete"]
                        and value["done"] == total,
                        f"{job}: {aggregate} query",
                    )
                self.cal.sample()
                k += 1
                if k == MIN_SUBMITS:
                    self.run.rss_mb.append(served.server.peak_rss_mb())
                self.verify(served, job)
            self.snapshot(served, None, after=True)
        finally:
            served.close()


WORKLOADS = {w.name: w for w in (EditWorkload, OpenWorkload, CorpusWorkload)}
