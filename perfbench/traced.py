"""Run one humorlm CLI command with spans and counters around its layers.

Usage: python perfbench/traced.py OUT.json -- <humorlm arguments>

The program is not modified: before calling ``humorlm.cli.main`` this
script rebinds the package's public functions (every module attribute
that refers to them, plus the metric registries) to recording wrappers.

- Calls that happen a handful of times per command (commands, counting,
  estimation, ARPA I/O, per-hashtag ranking and metrics) get a span:
  name, start, end, parent span, thread id and thread CPU time.
- Calls made once per line or tweet (``tokenize``, the ``_kernels``
  loops, ``NGramModel.score_sequence``) only add to per-thread counters,
  because a span per call would cost more than the call.

Spans and counters live in memory and are written to OUT.json when the
command returns.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import sys
import threading
from time import perf_counter, thread_time

import humorlm
from humorlm import _kernels, cli, counts, metrics, model, ranker, smoothing
from layers import KERNELS

COMMANDS = ("cmd_train", "cmd_rank", "cmd_compare", "cmd_evaluate", "cmd_grid")


class Recorder:
    """In-memory spans plus per-thread counters; threads never share a
    counter dict, so grid workers need no lock."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._per_thread: list[dict] = []

    def _thread_state(self) -> tuple[list, dict]:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], {})
            self._per_thread.append(st[1])
        return st

    def add(self, name: str, amount: float = 1) -> None:
        c = self._thread_state()[1]
        c[name] = c.get(name, 0) + amount

    def add_to_set(self, name: str, item: str) -> None:
        self._thread_state()[1].setdefault(name, set()).add(item)

    def span(self, name: str, fn, observe=None):
        """Wrap `fn` so each call records a span; `observe(rec, args, result)`
        may add counters afterwards."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, _ = self._thread_state()
            sid = next(self._ids)
            # A span opened by a pool thread with nothing open in that
            # thread belongs to the command that started the pool.
            parent = stack[-1] if stack else self.root
            if parent is None:
                self.root = sid
            stack.append(sid)
            t0, c0 = perf_counter(), thread_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans.append(
                    (sid, name, t0, perf_counter(), parent,
                     threading.get_ident(), thread_time() - c0)
                )
            if observe is not None:
                observe(self, args, out)
            return out

        return wrapper

    def counted(self, name: str, fn, observe=None):
        """Wrap `fn` so each call adds to `<name>.calls` and `<name>.s`."""
        calls, secs = name + ".calls", name + ".s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            c = self._thread_state()[1]
            c[calls] = c.get(calls, 0) + 1
            c[secs] = c.get(secs, 0.0) + dt
            if observe is not None:
                observe(self, args, out)
            return out

        return wrapper

    def dump(self, path: str) -> None:
        merged: dict = {}
        for c in self._per_thread:
            for k, v in c.items():
                if isinstance(v, set):
                    merged.setdefault(k, set()).update(v)
                else:
                    merged[k] = merged.get(k, 0) + v
        out = {
            "spans": self.spans,
            "counters": {k: v for k, v in merged.items() if not isinstance(v, set)},
            "sets": {k: sorted(v) for k, v in merged.items() if isinstance(v, set)},
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(out, f)


def _line_key(line: str) -> str:
    return hashlib.blake2b(line.encode("utf-8"), digest_size=8).hexdigest()


def _obs_tokenize(rec, args, out):
    rec.add_to_set("tokenize.lines", _line_key(args[0]))
    rec.add_to_set("tokenize.configs", repr(args[1]))


def _obs_count_corpus(rec, args, table):
    rec.add("counts.tokens", table.token_count)
    rec.add("counts.lines", table.line_count)
    rec.add("counts.ngrams", sum(table.size(k) for k in range(1, table.order + 1)))


def _obs_discounts(rec, args, d):
    fallback = args[1] if len(args) > 1 else None
    if fallback is not None and d == smoothing.Discounts(fallback, fallback, fallback):
        rec.add("smoothing.fallback_orders")


def _obs_score_sequence(rec, args, out):
    m, tokens = args[0], args[1]
    rec.add("score.tokens", len(tokens))
    rec.add("score.oov", sum(1 for t in tokens if not m.in_vocab(t)))


def _obs_read_arpa(rec, args, m):
    rec.add("read_arpa.entries", sum(m.ngram_count(k) for k in range(1, m.order + 1)))
    rec.add_to_set("read_arpa.paths", os.path.abspath(args[0]))


def _obs_write_arpa(rec, args, out):
    if isinstance(args[1], (str, os.PathLike)):
        rec.add("write_arpa.bytes", os.path.getsize(args[1]))


def _obs_load_hashtag(rec, args, out):
    rec.add_to_set("hashtag.paths", os.path.abspath(args[0]))


def _obs_score_hashtag(rec, args, out):
    rec.add("ranker.tweets", len(out))


def _obs_pairwise(rec, args, out):
    rec.add("ranker.pairs", len(out))


def _obs_accuracy(rec, args, out):
    rec.add("metrics.pairs_checked", len(args[0]))


def _rebind(original, wrapper) -> None:
    """Point every humorlm module attribute that names `original` at `wrapper`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "humorlm" or name.startswith("humorlm.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(rec: Recorder) -> None:
    for name in COMMANDS:
        _rebind(getattr(cli, name), rec.span("cli." + name[4:], getattr(cli, name)))
    _rebind(cli._run_grid_row, rec.span("cli.grid_row", cli._run_grid_row))

    _rebind(humorlm.tokenize, rec.counted("textprep.tokenize", humorlm.tokenize, _obs_tokenize))
    _rebind(counts.count_corpus, rec.span("counts.count_corpus", counts.count_corpus, _obs_count_corpus))
    counts.CountAccumulator.finish = rec.span("counts.finish", counts.CountAccumulator.finish)

    _rebind(smoothing.estimate_model, rec.span("smoothing.estimate_model", smoothing.estimate_model))
    _rebind(smoothing.estimate_discounts,
            rec.counted("smoothing.estimate_discounts", smoothing.estimate_discounts, _obs_discounts))

    for name in KERNELS:
        fn = getattr(_kernels, name)
        _rebind(fn, rec.counted("kernels." + name, fn))

    _rebind(model.read_arpa, rec.span("model.read_arpa", model.read_arpa, _obs_read_arpa))
    _rebind(model.write_arpa, rec.span("model.write_arpa", model.write_arpa, _obs_write_arpa))
    model.NGramModel.score_sequence = rec.counted(
        "model.score_sequence", model.NGramModel.score_sequence, _obs_score_sequence
    )

    for name, obs in (
        ("load_hashtag_file", _obs_load_hashtag),
        ("score_hashtag", _obs_score_hashtag),
        ("rank", None),
        ("pairwise", _obs_pairwise),
    ):
        fn = getattr(ranker, name)
        _rebind(fn, rec.span("ranker." + name, fn, obs))

    _rebind(metrics.load_gold, rec.span("metrics.load_gold", metrics.load_gold))
    for registry, obs in ((metrics.ACCURACY_METRICS, _obs_accuracy), (metrics.DISTANCE_METRICS, None)):
        for key, fn in registry.items():
            registry[key] = rec.span("metrics." + fn.__name__, fn, obs)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py OUT.json -- <humorlm arguments>", file=sys.stderr)
        return 2
    rec = Recorder()
    install(rec)
    try:
        return cli.main(argv[2:])
    finally:
        rec.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
