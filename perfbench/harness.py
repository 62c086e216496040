"""Process and measurement plumbing shared by the perfbench workloads.

* :class:`Server` starts the real ``python -m repro serve`` process (or
  the traced launcher that wraps the same CLI entry), finds its port,
  reads its peak RSS and stops it together with any worker processes
  it forked.
* :class:`Client` wraps :class:`repro.service.client.PedClient` so every
  request is timed and recorded as a client span ``(trace id, op,
  start, end, bytes received)``.
* :class:`Calibration` samples the host's speed between requests, so
  latencies can be reported in host-independent ``ref_ms``.
* :func:`percentile` and :func:`tail` reduce samples.

Everything the benchmark writes goes under ``.perfbench/`` in the
directory it runs from.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"


def require_source_tree() -> None:
    """Exit with an error unless the program's sources are present."""

    if not (SRC / "repro" / "__main__.py").is_file():
        print(
            f"perfbench: no src/repro under {ROOT}; run from a checkout "
            "of the repository root",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under ``.perfbench/``, removed by
    :func:`cleanup` when the run ends."""

    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"tmp-{os.getpid()}-{prefix}", dir=WORK))


def cleanup() -> None:
    """Remove this process's scratch directories."""

    for path in WORK.glob(f"tmp-{os.getpid()}-*"):
        shutil.rmtree(path, ignore_errors=True)


#: The CPUs this process may use when the run starts.
CPUS = sorted(os.sched_getaffinity(0))


def place(server_pid: Optional[int]) -> str:
    """Pin this process to one CPU and the server to another, or, with
    no server pid (or one CPU), let this process use every CPU again.

    On a shared 2-core host the scheduler moving the client and a serial
    server onto one core and back shows as 1.3-1.5x swings in request
    latency that last seconds; pinning both removes that source of run
    to run spread.
    """

    if server_pid is None or len(CPUS) < 2:
        os.sched_setaffinity(0, CPUS)
        return "unpinned"
    os.sched_setaffinity(0, {CPUS[0]})
    # Affinity is per thread; threads started later inherit it.
    for tid in os.listdir(f"/proc/{server_pid}/task"):
        os.sched_setaffinity(int(tid), {CPUS[1]})
    return f"client cpu {CPUS[0]}, server cpu {CPUS[1]}"


#: A latency in ``ref_ms`` is scaled to a host on which one calibration
#: kernel call (:func:`kernel`) takes this long.
REF_KERNEL_MS = 2.0


class _Cell:
    __slots__ = ("name", "value", "next")

    def __init__(self, name, value, next_cell):
        self.name = name
        self.value = value
        self.next = next_cell


def kernel() -> int:
    """Fixed pure-Python work of the kinds the analyzer does (dicts,
    formatted strings, small objects, pointer chasing, sorting); it
    uses nothing from ``src``, so no change to the program moves it."""

    table: Dict[str, int] = {}
    head = None
    for i in range(1500):
        name = f"v{i % 83}_{i % 7}"
        table[name] = table.get(name, 0) + i
        head = _Cell(name, i, head)
    total = 0
    while head is not None:
        if head.value % 3 == 0:
            total += table[head.name] & 0xFF
        head = head.next
    ranked = sorted(table.items(), key=lambda kv: (kv[1] % 13, kv[0]))
    text = " ".join(f"{k}={v}" for k, v in ranked)
    return total + len(set(text.replace("=", " ").split()))


class Calibration:
    """Host speed, sampled between requests on the CPUs the server uses.

    The host's CPU speed drifts by up to 2x over seconds to minutes (see
    NOTES.md), and every latency follows it.  A sample is the median of
    three :func:`kernel` calls, run by this process on each of ``cpus``
    in turn while the server is idle.  :meth:`scale` turns a request's
    latency into ``ref_ms``: its milliseconds times ``REF_KERNEL_MS``
    over the mean of the samples just before and just after it.
    """

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = list(cpus)
        self.times: List[float] = []
        self.ms: List[float] = []

    def sample(self) -> None:
        before = os.sched_getaffinity(0)
        per_cpu = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                runs = []
                for _ in range(3):
                    t0 = time.perf_counter()
                    kernel()
                    runs.append((time.perf_counter() - t0) * 1e3)
                per_cpu.append(sorted(runs)[1])
        finally:
            os.sched_setaffinity(0, before)
        self.times.append(time.perf_counter())
        self.ms.append(sum(per_cpu) / len(per_cpu))

    def scale(self, start: float, end: float) -> float:
        """``REF_KERNEL_MS`` over the host speed around ``[start, end]``."""

        after = bisect.bisect_left(self.times, end)
        before = bisect.bisect_right(self.times, start) - 1
        near = [self.ms[k] for k in (before, after) if 0 <= k < len(self.ms)]
        return REF_KERNEL_MS / (sum(near) / len(near))


class Server:
    """One ``repro serve`` process on an ephemeral TCP port.

    ``spans`` (a path) starts it through ``launcher.py`` instead, which
    records layer spans and writes them to that path on shutdown.
    ``pin`` places it with :func:`place`.
    """

    START_TIMEOUT = 60.0

    def __init__(
        self, flags: Sequence[str], spans: Optional[Path] = None, pin: bool = False
    ):
        self.flags = list(flags)
        self.spans = spans
        self.log = scratch_dir("server-") / "stderr.log"
        if spans is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [
                sys.executable,
                str(BENCH_DIR / "launcher.py"),
                "--spans",
                str(spans),
                "--",
            ]
        argv += ["serve", "--port", "0", *self.flags]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.log, "wb") as err:
            # A session of its own, so stop() can reap forked pool
            # workers with one killpg.
            self.proc = subprocess.Popen(
                argv,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
                env=env,
                cwd=str(ROOT),
                start_new_session=True,
            )
        self.placement = place(self.proc.pid if pin else None)
        self.port = self._wait_port()

    def _wait_port(self) -> int:
        deadline = time.monotonic() + self.START_TIMEOUT
        while time.monotonic() < deadline:
            text = self.log.read_text(errors="replace")
            for line in text.splitlines():
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start:\n{self.stderr_tail()}")

    def stderr_tail(self, lines: int = 20) -> str:
        text = self.log.read_text(errors="replace")
        return "\n".join(text.splitlines()[-lines:])

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process (its worker processes are not
        included), in MiB."""

        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 30.0) -> None:
        """SIGINT the server (its CLI closes cleanly and the traced
        launcher writes its spans), then reap the whole session."""

        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(10)
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.02)


#: Request ids double as trace ids, so they are unique across every
#: connection of a run (the client's own counter restarts per connection).
_TRACE_IDS = itertools.count(1_000_001)


class Client:
    """A :class:`PedClient` whose requests are timed client spans."""

    def __init__(self, port: int) -> None:
        from repro.service import PedClient

        self.pc = PedClient.connect(port=port)
        self.spans: List[Dict] = []
        self.rung = "json"

    def climb(self) -> str:
        """The CLI's default ladder: frames, then compress."""

        if self.pc.negotiate_frames():
            self.rung = "frames"
            if self.pc.negotiate_compression():
                self.rung = "compress"
        return self.rung

    def call(self, op: str, timeout: float = 120.0, **params):
        """One request; returns ``(result, span)``."""

        before = self.pc.bytes_received
        t0 = time.perf_counter()
        handle = self.pc.submit(op, id=next(_TRACE_IDS), **params)
        result = handle.result(timeout)
        t1 = time.perf_counter()
        span = {
            "trace": handle.id,
            "op": op,
            "start": t0,
            "end": t1,
            "ms": (t1 - t0) * 1e3,
            "bytes": self.pc.bytes_received - before,
        }
        self.spans.append(span)
        return result, span

    def close(self) -> None:
        self.pc.close()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""

    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values: Sequence[float]):
    """The highest of p95/p90/p75 with at least ten samples beyond it,
    as ``(q, value)``, or ``None`` when there are too few samples."""

    for q in (95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            return q, percentile(values, q)
    return None


def git_commit() -> str:
    """The checkout's commit, or a digest of ``src`` when the checkout
    is not a git repository."""

    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=str(ROOT),
                capture_output=True,
                text=True,
                timeout=10,
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()[:16]
