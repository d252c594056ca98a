"""Per-layer metrics from the spans of one traced workload run.

A span is ``(id, parent, name, start, end, thread, run, n)`` with ``name``
of the form ``<layer>.<function>`` (see tracer.py). An *entry* span is a
call into a layer from outside it: its parent is missing or in another
layer. Calls within a layer belong to the entry span that encloses them.

*Boundary* spans are the entry spans plus the ``simulate.block_rng`` and
``simulate.draw`` spans, which split the sampler's time. A boundary span's
self time is its interval minus the union of its boundary children's
intervals. Children from two pool threads may overlap; the union counts
the overlap once.
"""

from __future__ import annotations

from collections import defaultdict

SUB_SPANS = ("simulate.block_rng", "simulate.draw")
CHECKS = ("operator_identities", "povm_family", "fourier_identity", "classicality_dichotomy")

# Per-layer metric names with their units, in report order.
METRICS = {
    "cli.commands": "count",
    "cli.self_s": "s",
    "povm.calls": "count",
    "povm.build_s": "s",
    "simulate.shots": "count",
    "simulate.blocks": "count",
    "simulate.run_s": "s",
    "simulate.block_rng_s": "s",
    "simulate.draw_s": "s",
    "simulate.sample_count_s": "s",
    "simulate.block_rng_us_per_block": "us",
    "simulate.draw_us_per_block": "us",
    "simulate.sample_count_us_per_block": "us",
    "fileio.files_written": "count",
    "fileio.bytes_written": "bytes",
    "fileio.write_s": "s",
    "fileio.files_read": "count",
    "fileio.bytes_read": "bytes",
    "fileio.read_s": "s",
    "analysis.calls": "count",
    "analysis.estimate_s": "s",
    "kirkwood.reconstruct_s": "s",
    "kirkwood.identities_s": "s",
    **{f"checks.{c}_{k}": u for c in CHECKS for k, u in (("s", "s"), ("cases", "count"))},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def entry_ids(spans, by_id) -> set[int]:
    """Ids of the spans whose parent is missing or in another layer."""
    return {s[0] for s in spans if s[1] not in by_id or layer(by_id[s[1]][2]) != layer(s[2])}


def self_times(spans) -> dict[int, float]:
    """Self time of every boundary span, keyed by span id."""
    by_id = {s[0]: s for s in spans}
    boundary = entry_ids(spans, by_id) | {s[0] for s in spans if s[2] in SUB_SPANS}
    children = defaultdict(list)
    for s in spans:
        if s[0] not in boundary:
            continue
        parent = s[1]
        while parent in by_id and parent not in boundary:
            parent = by_id[parent][1]
        if parent in by_id:
            children[parent].append((s[3], s[4]))
    return {
        sid: (by_id[sid][4] - by_id[sid][3]) - union_length(children[sid], by_id[sid][3], by_id[sid][4])
        for sid in boundary
    }


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric of `METRICS` except the ``trace.*`` ones."""
    by_id = {s[0]: s for s in spans}
    entries = entry_ids(spans, by_id)
    selfs = self_times(spans)
    m = {name: 0.0 for name in METRICS if not name.startswith("trace.")}
    check_span = {}
    for s in spans:
        sid, parent, name, start, end, _thread, _run, n = s
        duration = end - start
        lay = layer(name)
        func = name.split(".", 1)[1]
        if name == "cli.main":
            m["cli.commands"] += 1
            m["cli.self_s"] += selfs[sid]
        elif name == "simulate.block_rng":
            m["simulate.blocks"] += 1
            m["simulate.block_rng_s"] += duration
        elif name == "simulate.draw":
            m["simulate.draw_s"] += duration
        elif name == "fileio.write_document":
            m["fileio.files_written"] += 1
            m["fileio.bytes_written"] += n
        elif name == "fileio.read_document":
            m["fileio.files_read"] += 1
            m["fileio.bytes_read"] += n
        elif func.startswith("check_") and lay == "checks" and func[6:] in CHECKS:
            m[f"checks.{func[6:]}_s"] += duration
            m[f"checks.{func[6:]}_cases"] += n
            check_span[sid] = func[6:]
        if sid not in entries:
            continue
        if lay == "povm":
            m["povm.calls"] += 1
            m["povm.build_s"] += duration
        elif lay == "simulate":
            m["simulate.shots"] += n
            m["simulate.run_s"] += duration
            m["simulate.sample_count_s"] += selfs[sid]
        elif lay == "fileio" and func.startswith("write_"):
            m["fileio.write_s"] += duration
        elif lay == "fileio" and func.startswith("read_"):
            m["fileio.read_s"] += duration
        elif lay == "analysis":
            m["analysis.calls"] += 1
            m["analysis.estimate_s"] += duration
        elif lay == "kirkwood":
            key = "kirkwood.identities_s" if func == "verify_operator_identities" else "kirkwood.reconstruct_s"
            m[key] += duration
    for s in spans:
        if s[2] == "checks.visibility_grid" and s[1] in check_span:
            m[f"checks.{check_span[s[1]]}_cases"] += s[7]

    blocks = m["simulate.blocks"]
    for part in ("block_rng", "draw", "sample_count"):
        m[f"simulate.{part}_us_per_block"] = m[f"simulate.{part}_s"] / blocks * 1e6 if blocks else 0.0
    return m
