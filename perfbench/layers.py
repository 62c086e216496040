"""Per-layer metrics and the layer-contrast report of a traced run.

Inputs: the traced run's timed client spans, the server spans its
launcher wrote (:mod:`tracing`), and the ``metrics`` snapshots taken
around the timed loop.  "Per op" means per timed request; "per write"
means per timed write request (an ``edit``, an ``open``, a
``corpus.submit`` batch).  Every ``*.share`` is a layer's inclusive
span time as a percentage of the timed requests' client-side time;
layers nest, so shares do not add up to 100.
"""

from __future__ import annotations

import json
from statistics import median

import harness
import tracing

NODES = (
    "split", "parse", "callgraph", "modref", "kill", "sections",
    "ipconst", "dependence",
)
POOL_KINDS = ("parse", "summary", "dep", "corpus")

#: Layer -> (the end-to-end metric it should move, predicted share of
#: end-to-end time per workload).
LAYERS = {
    "host": ("write.p50_ref_ms, query.p50_ref_ms",
             {"edit": "nearly all", "open": "nearly all", "corpus": "nearly all"}),
    "changed_units": ("write.p50_ref_ms on edit",
                      {"edit": "large (2 of 3 splits)", "open": "0", "corpus": "0"}),
    "session": ("write.p50_ref_ms on edit",
                {"edit": "most of the edit", "open": "0", "corpus": "0"}),
    "journal": ("write.p50_ref_ms on edit",
                {"edit": "small (holds persist)", "open": "0", "corpus": "0"}),
    "persist": ("write.p50_ref_ms on edit",
                {"edit": ">0 (--cache-dir)", "open": "0", "corpus": "0"}),
    "engine": ("write.p50_ref_ms on edit and open",
               {"edit": "large", "open": "nearly all", "corpus": "0 (in workers)"}),
    "split": ("write.p50_ref_ms on edit",
              {"edit": "large", "open": "small", "corpus": "0 (in workers)"}),
    "pool.parse": ("write.p50_ref_ms (fortran.parser)",
                   {"edit": "small", "open": "small", "corpus": "0"}),
    "pool.summary": ("write.p50_ref_ms (interproc)",
                     {"edit": "small", "open": "small", "corpus": "0"}),
    "pool.dep": ("write.p50_ref_ms on open (dependence)",
                 {"edit": "small", "open": "large", "corpus": "0"}),
    "pool.corpus": ("write.p50_ref_ms on corpus",
                    {"edit": "0", "open": "0", "corpus": "nearly all"}),
    "agg": ("query.p50_ref_ms on corpus",
            {"edit": "0", "open": "0", "corpus": "small"}),
}

#: Per-layer metric -> the end-to-end metric it should move; metrics not
#: listed take their layer's entry in LAYERS (see :func:`moves`).
MOVES = {
    "wire.gap_ms.write": "write.p50_ref_ms (edit)",
    "wire.gap_ms.query": "query.p50_ref_ms (edit)",
    "wire.bytes_in_per_op": "bytes_per_op (edit, corpus)",
    "wire.bytes_out_per_op": "bytes_per_op (edit, corpus)",
    "wire.compress_ratio": "bytes_per_op (edit, corpus)",
    "wire.flushes_per_op": "bytes_per_op, write.p50_ref_ms (corpus)",
    "wire.coalesced_events": "bytes_per_op (corpus)",
    "host.execute_ms.write": "write.p50_ref_ms",
    "host.execute_ms.query": "query.p50_ref_ms",
    "host.self_ms.write": "write.p50_ref_ms (edit)",
    "pool.share.parse": "write.p50_ref_ms (edit, open)",
    "pool.share.summary": "write.p50_ref_ms (edit, open)",
    "pool.share.dep": "write.p50_ref_ms (open)",
    "pool.share.corpus": "write.p50_ref_ms (corpus)",
    "pool.payload_bytes": "write.p50_ref_ms (corpus)",
    "pool.tasks": "write.p50_ref_ms (corpus)",
    "pool.batches": "write.p50_ref_ms (corpus)",
    "pool.utilization": "write.p50_ref_ms (corpus)",
    "dep.pair.share": "write.p50_ref_ms (open), rss_mb (open)",
    "dep.build.share": "write.p50_ref_ms (open)",
    "dep.edges": "write.p50_ref_ms, rss_mb (open)",
    "memo.shared_hit_rate": "write.p50_ref_ms (open, corpus)",
    "trace.overhead_pct": "(the traced run's own cost)",
}
_PREFIX_LAYER = (
    ("host.changed_units", "changed_units"), ("session.", "session"),
    ("journal.", "journal"), ("persist.", "persist"), ("engine.", "engine"),
    ("node.", "engine"), ("split.", "split"), ("agg.", "agg"),
)


def moves(name: str) -> str:
    if name in MOVES:
        return MOVES[name]
    for prefix, layer in _PREFIX_LAYER:
        if name.startswith(prefix):
            return LAYERS[layer][0]
    raise KeyError(name)


def _deltas(run):
    """``(before, after)`` metric snapshot pairs of the timed windows;
    ``open`` starts each window on a fresh server (zero counters)."""

    snaps = run.metrics
    if run.workload == "open":
        return [({}, s) for s in snaps]
    return list(zip(snaps[0::2], snaps[1::2]))


def _delta(run, scope: str, key: str) -> float:
    total = 0.0
    for before, after in _deltas(run):
        total += after.get(scope, {}).get(key, 0) - before.get(scope, {}).get(key, 0)
    return total


def per_layer(run, base) -> dict:
    """All per-layer metrics of traced ``run``; ``base`` is the untraced
    run of the same workload and seed (for the tracing overhead)."""

    spans = tracing.load(run.span_files)
    (harness.WORK / f"{run.workload}-spans.json").write_text(
        json.dumps({"client": run.spans, "server": spans})
    )
    primary = {"edit": "edit", "open": "open", "corpus": "submit"}[run.workload]
    executes = {s["trace"]: s for s in spans if s["name"] == "host.execute"}
    selfs = tracing.self_times(spans)
    timed = [c for c in run.spans if c["trace"] in executes]
    writes = [c for c in timed if c["kind"] == primary]
    queries = [c for c in timed if c["kind"] == "query"]
    n_writes = len(writes)
    n_ops = len(timed)
    e2e_s = sum(c["ms"] for c in timed) / 1e3

    def exec_ms(c):
        s = executes[c["trace"]]
        return (s["end"] - s["start"]) * 1e3

    out = {
        "wire.gap_ms.write": median([c["ms"] - exec_ms(c) for c in writes]),
        "wire.gap_ms.query": median([c["ms"] - exec_ms(c) for c in queries]),
        "host.execute_ms.write": median([exec_ms(c) for c in writes]),
        "host.execute_ms.query": median([exec_ms(c) for c in queries]),
        "host.self_ms.write": median(
            [selfs[executes[c["trace"]]["id"]] * 1e3 for c in writes]
        ),
    }

    # wire: the server's net.* counters over the timed windows, less the
    # checker connection's traffic inside them (plain JSON lines: one
    # flush per reply, raw bytes equal to wire bytes).
    pairs = _deltas(run)
    checker_rx = sum(a["rx"] - b.get("rx", 0) for b, a in pairs)
    checker_tx = sum(a["tx"] - b.get("tx", 0) for b, a in pairs)
    checker_replies = sum(a["replies"] - b.get("replies", 0) for b, a in pairs)
    bytes_in = _delta(run, "server", "net.bytes_in") - checker_tx
    bytes_out = _delta(run, "server", "net.bytes_out") - checker_rx
    raw = _delta(run, "server", "net.bytes_out_raw") - checker_rx
    flushes = _delta(run, "server", "net.flushes") - checker_replies
    out["wire.bytes_in_per_op"] = bytes_in / n_ops
    out["wire.bytes_out_per_op"] = bytes_out / n_ops
    out["wire.compress_ratio"] = bytes_out / raw if raw > 0 else 1.0
    out["wire.flushes_per_op"] = flushes / n_ops
    out["wire.coalesced_events"] = (
        _delta(run, "server", "net.coalesced_events") / n_writes
    )

    totals = tracing.layer_totals(spans, {c["trace"] for c in timed})

    def layer(name):
        return totals.get(name, {"calls": 0, "seconds": 0.0, "tasks": 0,
                                 "payload_bytes": 0})

    def share(seconds):
        return 100.0 * seconds / e2e_s

    out["host.changed_units_calls"] = layer("changed_units")["calls"] / n_writes
    out["host.changed_units.share"] = share(layer("changed_units")["seconds"])
    out["session.share"] = share(layer("session")["seconds"])
    out["journal.records"] = layer("journal")["calls"] / n_writes
    out["journal.share"] = share(layer("journal")["seconds"])
    out["persist.calls_per_write"] = layer("persist")["calls"] / n_writes
    out["persist.share"] = share(layer("persist")["seconds"])
    out["engine.analyses_per_write"] = layer("engine")["calls"] / n_writes
    out["engine.share"] = share(layer("engine")["seconds"])
    for node in NODES:
        for state in ("hit", "miss"):
            key = f"node.{node}.{state}"
            out[key] = _delta(run, "session", key) / n_writes
    out["split.calls_per_write"] = layer("split")["calls"] / n_writes
    out["split.share"] = share(layer("split")["seconds"])
    for kind in POOL_KINDS:
        out[f"pool.share.{kind}"] = share(layer(f"pool.{kind}")["seconds"])
    pools = [layer(f"pool.{k}") for k in POOL_KINDS]
    out["pool.payload_bytes"] = sum(p["payload_bytes"] for p in pools) / n_writes
    out["pool.tasks"] = sum(p["tasks"] for p in pools) / n_writes
    out["pool.batches"] = sum(p["calls"] for p in pools) / n_writes
    wall = _delta(run, "server", "pool.wall_s")
    out["pool.utilization"] = _delta(run, "server", "pool.busy_s") / wall if wall else 0.0
    out["dep.pair.share"] = share(_delta(run, "session", "dep.pair_s"))
    out["dep.build.share"] = share(_delta(run, "session", "dep.build_s"))
    analyses = [
        s for s in spans
        if s["name"] == "engine.analyze" and s["trace"] in {c["trace"] for c in writes}
    ]
    out["dep.edges"] = analyses[-1]["attrs"].get("edges", 0) if analyses else 0
    hits = _delta(run, "server", "memo.shared_hits")
    looked = hits + _delta(run, "server", "memo.shared_misses")
    out["memo.shared_hit_rate"] = hits / looked if looked else 0.0
    out["agg.share"] = share(layer("agg")["seconds"])
    untraced = median(base.ref[primary])
    traced = median(run.ref[primary])
    out["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced

    # Issue-named detail for the report only: per op kind and per layer.
    detail = {}
    for kind in sorted({c["kind"] for c in timed}):
        cs = [c for c in timed if c["kind"] == kind]
        kind_totals = tracing.layer_totals(spans, {c["trace"] for c in cs})
        detail[kind] = {
            "n": len(cs),
            "client_ms": median([c["ms"] for c in cs]),
            "execute_ms": median([exec_ms(c) for c in cs]),
            "gap_ms": median([c["ms"] - exec_ms(c) for c in cs]),
            "layers_ms": {
                name: row["seconds"] * 1e3 / len(cs)
                for name, row in sorted(kind_totals.items())
                if name != "host"
            },
        }
    out["_ops"] = detail
    out["_layers"] = {
        name: {
            "ms_per_write": layer(name)["seconds"] * 1e3 / n_writes,
            "calls_per_write": layer(name)["calls"] / n_writes,
            "share": share(layer(name)["seconds"]),
        }
        for name in LAYERS
    }
    out["_primary"] = primary
    out["_p50"] = (traced, untraced)
    return out


def report(run, values, bench, out) -> None:
    primary = values["_primary"]
    print(f"-- per-op spans ({run.workload}; gap = client round trip "
          "minus PedServer.execute)", file=out)
    print(f"{'op':<10}{'n':>6}{'client p50':>14}{'execute p50':>14}"
          f"{'gap p50':>12}  (ms)", file=out)
    for kind, row in values["_ops"].items():
        print(f"{kind:<10}{row['n']:>6}{row['client_ms']:>14.3f}"
              f"{row['execute_ms']:>14.3f}{row['gap_ms']:>12.3f}", file=out)
        print(f"   host.execute_ms.{kind} = {row['execute_ms']:.3f}   "
              f"wire.gap_ms.{kind} = {row['gap_ms']:.3f}", file=out)
        if row["layers_ms"]:
            print("   ms per op: " + ", ".join(
                f"{name} {ms:.3f}" for name, ms in row["layers_ms"].items()
            ), file=out)
    print(f"-- layer contrast ({run.workload}): share of end-to-end time "
          "vs prediction", file=out)
    print(f"{'layer':<15}{'ms/' + primary:>12}{'calls/' + primary:>14}"
          f"{'share %':>10}  {'predicted':<24}moves", file=out)
    for name, (moved, predicted) in LAYERS.items():
        row = values["_layers"][name]
        print(f"{name:<15}{row['ms_per_write']:>12.3f}"
              f"{row['calls_per_write']:>14.2f}{row['share']:>10.2f}  "
              f"{predicted[run.workload]:<24}{moved}", file=out)
    print(f"-- per-layer metrics ({run.workload})", file=out)
    for m in bench["per_layer"]:
        name = m["name"]
        print(f"{name:<28}{values[name]:>16.4f} {m['unit']:<12} -> "
              f"{moves(name)}", file=out)
    traced, untraced = values["_p50"]
    print(f"tracing overhead: {primary} p50 {traced:.3f} ref_ms traced minus "
          f"{untraced:.3f} ref_ms untraced (same seed) = "
          f"{values['trace.overhead_pct']:+.2f}%", file=out)
