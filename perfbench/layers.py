"""Per-layer metrics from the trace files that perfbench/traced.py writes.

Layer times are the summed wall time of the layer's spans, children
included. The one self time, `cli.self_s`, is computed per thread from
thread CPU time (see `self_cpu`).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

KERNELS = (
    "accumulate_counts",
    "tally_suffixes",
    "context_stats",
    "interpolate_grams",
    "backoff_weights",
    "log10_values",
    "score_sequence_ids",
)

_SPAN_TIMES = {
    "counts.count_corpus_s": "counts.count_corpus",
    "smoothing.estimate_model_s": "smoothing.estimate_model",
    "model.write_arpa_s": "model.write_arpa",
    "model.read_arpa_s": "model.read_arpa",
    "ranker.load_hashtag_file_s": "ranker.load_hashtag_file",
    "ranker.score_hashtag_s": "ranker.score_hashtag",
    "ranker.rank_s": "ranker.rank",
    "ranker.pairwise_s": "ranker.pairwise",
    "metrics.load_gold_s": "metrics.load_gold",
    "metrics.accuracy_a_s": "metrics.accuracy_a",
    "metrics.distance_b_s": "metrics.distance_b",
}
_COUNTS = {
    "counts.tokens": "counts.tokens",
    "counts.lines": "counts.lines",
    "counts.ngrams": "counts.ngrams",
    "textprep.tokenize_calls": "textprep.tokenize.calls",
    "smoothing.fallback_orders": "smoothing.fallback_orders",
    "model.arpa_bytes": "write_arpa.bytes",
    "ranker.tweets": "ranker.tweets",
    "ranker.pairs": "ranker.pairs",
    "metrics.pairs_checked": "metrics.pairs_checked",
}


def self_cpu(spans: list) -> dict[int, float]:
    """Span id -> thread CPU time of the span minus that of its direct
    children in the same thread, for the spans of one process.

    Grid workers wait for the interpreter lock, so in wall-clock terms one
    worker's wait would count as the other's own work; thread CPU time
    counts only what each thread ran, and children in other threads are
    never subtracted from a parent's thread."""
    own = {sid: cpu for sid, _, _, _, _, _, cpu in spans}
    thread = {sid: tid for sid, _, _, _, _, tid, _ in spans}
    for sid, _, _, _, parent, tid, cpu in spans:
        if parent in own and thread[parent] == tid:
            own[parent] -= cpu
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace_files: list[Path]) -> dict[str, float]:
    """Sum the traces of one pass (one file per program process) into the
    per-layer metrics that the traces alone determine."""
    incl: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counters: dict[str, float] = defaultdict(float)
    sets: dict[str, set] = defaultdict(set)
    cli_self = grid_row_cpu = 0.0
    for path in trace_files:
        trace = json.loads(path.read_text(encoding="utf-8"))
        spans = trace["spans"]
        own = self_cpu(spans)
        for sid, name, start, end, _, _, cpu in spans:
            incl[name] += end - start
            calls[name] += 1
            if name.startswith("cli."):
                cli_self += own[sid]
            if name == "cli.grid_row":
                grid_row_cpu += cpu
        for k, v in trace["counters"].items():
            counters[k] += v
        for k, v in trace["sets"].items():
            sets[k].update(v)

    m = {name: incl[span] for name, span in _SPAN_TIMES.items()}
    m.update({name: counters[key] for name, key in _COUNTS.items()})
    for k in KERNELS:
        m[f"kernels.{k}_s"] = counters[f"kernels.{k}.s"]
        m[f"kernels.{k}_calls"] = counters[f"kernels.{k}.calls"]
    m["counts.tokenize_redundancy"] = _ratio(
        counters["textprep.tokenize.calls"],
        len(sets["tokenize.lines"]) * len(sets["tokenize.configs"]),
    )
    m["model.write_arpa_mb_per_s"] = _ratio(counters["write_arpa.bytes"] / 1e6, incl["model.write_arpa"])
    m["model.read_arpa_entries_per_s"] = _ratio(counters["read_arpa.entries"], incl["model.read_arpa"])
    m["model.arpa_loads_per_model"] = _ratio(calls["model.read_arpa"], len(sets["read_arpa.paths"]))
    m["model.oov_rate"] = _ratio(counters["score.oov"], counters["score.tokens"])
    m["ranker.loads_per_hashtag_file"] = _ratio(calls["ranker.load_hashtag_file"], len(sets["hashtag.paths"]))
    m["ranker.pairwise_calls"] = calls["ranker.pairwise"]
    m["cli.self_s"] = cli_self
    # Thread CPU time of the grid rows over grid wall time: near 1.0 while
    # the interpreter lock serialises the workers, up to the worker count
    # once they truly overlap.
    m["cli.grid_overlap"] = _ratio(grid_row_cpu, incl["cli.grid"])
    return m
