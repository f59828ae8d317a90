"""Shared test helpers: deterministic random corpora, tiny TSV builders,
stored-entry lookup and model sidecar parts."""

import os
import random

# numpy's OpenBLAS starts a thread per CPU when numpy is imported. Grid tests
# fork worker processes from this process, as the CLI forks them from its
# own after importing numpy under the same default; a fork from a process
# with other threads is what CPython 3.12+ warns about, and what those
# tests check for.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

WORDS = [
    "a", "b", "c", "d", "e", "f", "g", "the", "cat", "sat", "on", "mat",
    "dog", "ran", "to", "park", "ha", "lol",
]


def make_random_corpus(rng: random.Random, min_tokens=3, max_tokens=100):
    """Lines of space-separated words totalling between min and max tokens."""
    vocab_size = rng.randint(2, len(WORDS))
    vocab = WORDS[:vocab_size]
    target = rng.randint(min_tokens, max_tokens)
    lines = []
    total = 0
    while total < target:
        n = min(rng.randint(1, 12), target - total)
        lines.append(" ".join(rng.choice(vocab) for _ in range(n)))
        total += n
    return lines


def make_queries(rng: random.Random, reference, n_random=30):
    """Query mix: every stored gram split into (context, word), plus random
    contexts/events including out-of-vocabulary tokens."""
    queries = []
    for k in range(1, reference.order + 1):
        for g in reference.counts[k]:
            if g[-1] == "<s>":
                continue
            queries.append((list(g[:-1]), g[-1]))
    pool = reference.event_vocab + ["zzz-oov", "qqq-oov"]
    ctx_pool = [w for w in pool if w != "</s>"]
    for _ in range(n_random):
        clen = rng.randint(0, reference.order - 1) if reference.order > 1 else 0
        ctx = [rng.choice(ctx_pool) for _ in range(clen)]
        queries.append((ctx, rng.choice(pool)))
    return queries


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for row in rows:
            f.write("\t".join(str(x) for x in row) + "\n")


def random_sentence(rng: random.Random, vocab, max_len=8):
    return [rng.choice(vocab) for _ in range(rng.randint(0, max_len))]


def stored_entry(model, gram):
    """(log10 prob, back-off or None) stored for a token gram, or None."""
    return next(((p, bo) for g, p, bo in model.stored_ngrams(len(gram)) if g == tuple(gram)), None)


def sidecar_arrays(m):
    """The sidecar body of a read model, decoded: its header as a list of
    lines (the metadata line, one `ngram k=N` line per order, then the
    tokens), and per order a dict of its keys, probs, back-offs (below the
    top order) and file rows as numpy arrays."""
    from humorlm.model import _cache_header

    arrays = iter(m._tables.arrays())
    orders = []
    for k in range(1, m.order + 1):
        names = ["keys", "probs"] + (["backoffs"] if k < m.order else []) + ["rows"]
        orders.append({n: next(arrays).copy() for n in names})
    return _cache_header(m).decode().split("\n"), orders


def sidecar_parts(header, orders):
    """The header and arrays sidecar_arrays decoded, encoded again as
    _write_cache takes them. A header line or an array given as bytes is
    written as it is."""
    lines = [line if isinstance(line, bytes) else line.encode() for line in header]
    arrays = [a if isinstance(a, bytes) else a.tobytes() for o in orders for a in o.values()]
    return b"\n".join(lines), arrays
