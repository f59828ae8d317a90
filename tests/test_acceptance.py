"""Release acceptance gate.

Each test below is one numbered release criterion; `pytest -v` therefore
prints exactly one pass/fail line per criterion. Criterion 6 needs the
official task data (point HUMORLM_TASK_DATA at it) and is skipped
otherwise, with criteria 1-5 standing in.
"""

import io
import itertools
import os
import random
import resource
import time
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import WORDS, make_random_corpus, random_sentence
from kn_reference import KNReference
from humorlm import (
    Direction,
    PrepConfig,
    accuracy_a,
    count_corpus,
    distance_b,
    estimate_model,
    pairwise,
    rank,
    read_arpa,
    write_arpa,
)
from humorlm.ranker import ScoredTweet

FALLBACK = 0.5
SEQUENCE_POOL = WORDS + ["zzz-oov", "qqq-oov"]


@lru_cache(maxsize=1)
def _suite():
    """40 (corpus, model, oracle) triples spanning orders 1-5, both boundary
    modes, and four corpus seeds each."""
    entries = []
    for order, boundaries, seed in itertools.product(range(1, 6), (False, True), range(4)):
        rng = random.Random(1000 * order + 100 * boundaries + seed)
        corpus = make_random_corpus(rng, 3, 100)
        config = PrepConfig(boundaries=boundaries)
        model = estimate_model(count_corpus(corpus, order, config), fallback_discount=FALLBACK)
        ref = KNReference(corpus, order, boundaries, fallback=FALLBACK)
        entries.append((corpus, model, ref, seed))
    return entries


def _random_sequences(seed, count, max_len=10):
    rng = random.Random(seed)
    return [random_sentence(rng, SEQUENCE_POOL, max_len) for _ in range(count)]


def test_criterion_1_probabilities_match_brute_force_oracle():
    started = time.perf_counter()
    suite = _suite()
    assert len(suite) >= 20
    grams_checked = 0
    for corpus, model, ref, seed in suite:
        for k in range(1, model.order + 1):
            for gram, logp, _bo in model.stored_ngrams(k):
                if gram == ("<s>",):
                    continue  # placeholder entry, not a probability
                want = ref.prob(gram[:-1], gram[-1])
                assert abs(10.0 ** logp - want) <= 1e-9, (seed, gram)
                grams_checked += 1
        sequences = _random_sequences(seed + 31337, 5) + [l.split() for l in corpus[:3]]
        for seq in sequences:
            assert abs(model.score_sequence(seq) - ref.score_sequence(seq)) <= 1e-9, (seed, seq)
            # Every prefix as a context, so contexts both shorter and longer
            # than order-1 are queried.
            for i, word in enumerate(seq):
                got, want = model.score_word(seq[:i], word), ref.score_word(seq[:i], word)
                assert abs(got - want) <= 1e-9, (seed, seq[:i], word)
    assert grams_checked > 1000
    assert time.perf_counter() - started < 10.0


def test_criterion_2_stored_contexts_normalize():
    for _corpus, model, _ref, seed in _suite():
        predictable = [t for t in model.vocab if t != "<s>"]
        contexts = {()}
        for k in range(2, model.order + 1):
            contexts.update(gram[:-1] for gram, _p, _b in model.stored_ngrams(k))
        for ctx in contexts:
            total = sum(10.0 ** model.score_word(ctx, w) for w in predictable)
            assert abs(total - 1.0) <= 1e-6, (seed, ctx, total)


def test_criterion_3_arpa_round_trip_preserves_scores():
    for _corpus, model, _ref, seed in _suite():
        buf = io.StringIO()
        write_arpa(model, buf)
        reread = read_arpa(io.StringIO(buf.getvalue()))
        # Space-separated fields, as some other toolkits write them.
        spaced = read_arpa(io.StringIO(buf.getvalue().replace("\t", " ")))
        for seq in _random_sequences(seed + 777, 100):
            assert abs(model.score_sequence(seq) - reread.score_sequence(seq)) <= 1e-10
            assert spaced.score_sequence(seq) == reread.score_sequence(seq)


def test_criterion_4_rank_pairwise_self_consistency():
    gold = {"w": 2, "x": 1, "y": 0}
    scored = [
        ScoredTweet("y", "ho", -3.0),
        ScoredTweet("w", "ha", -1.0),
        ScoredTweet("x", "he", -2.0),
    ]
    ranked = rank(scored, Direction.MOST_LIKE)
    ids = [t.tweet_id for t in ranked]
    assert ids == ["w", "x", "y"]
    assert accuracy_a(pairwise(ranked), gold) == 1.0
    assert distance_b(ids, gold) == 0.0
    reversed_ids = list(reversed(ids))
    assert distance_b(reversed_ids, gold) == 1.0
    reversed_pairs = [(a, b, 1) for i, a in enumerate(reversed_ids) for b in reversed_ids[i + 1:]]
    assert accuracy_a(reversed_pairs, gold) == 0.0


def test_criterion_5_metric_hand_cases():
    gold = {"a": 2, "b": 1, "c": 0}
    predictions = [("b", "a", 1), ("b", "c", 1), ("a", "c", 1)]
    assert accuracy_a(predictions, gold) == 2 / 3
    tier_seq = [0, 2, 1, 0]
    gold4 = {f"r{i}": tier for i, tier in enumerate(tier_seq)}
    assert distance_b([f"r{i}" for i in range(4)], gold4) == 0.4


def test_criterion_6_official_task_numbers():
    root = os.environ.get("HUMORLM_TASK_DATA")
    if not root:
        pytest.skip("HUMORLM_TASK_DATA unset; criteria 1-5 stand in for the "
                    "data-dependent check")
    from humorlm.cli import main

    root = Path(root)
    train_dir, eval_dir = root / "train", root / "evaluation"
    assert train_dir.is_dir() and eval_dir.is_dir(), "expected train/ and evaluation/"
    out = Path(os.environ.get("HUMORLM_TASK_OUT", root / "_acceptance_run"))
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "tweets3.arpa"
    assert main(["train", str(train_dir), "-o", str(model_path),
                 "--order", "3", "--filter-tags", "--fallback-discount", "0.5"]) == 0
    tags = sorted(str(p) for p in eval_dir.glob("*.tsv"))
    assert main(["rank", *tags, "-m", str(model_path), "-d", str(out)]) == 0
    assert main(["compare", *tags, "-m", str(model_path), "-d", str(out)]) == 0
    report = out / "report.tsv"
    assert main(["evaluate", str(eval_dir), "-p", str(out), "-o", str(report)]) == 0
    macro = report.read_text().splitlines()[-1].split("\t")
    accuracy, distance = float(macro[1]), float(macro[2])
    assert abs(accuracy - 0.397) <= 0.05, macro
    assert abs(distance - 0.967) <= 0.05, macro


def _chain_corpus_lines(n_tokens, seed=11, vocab_size=1200, branch=24, line_len=15):
    """Markov-chain text: realistic n-gram sparsity at controlled scale."""
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    words = []
    for combo in itertools.product(alphabet, repeat=4):
        words.append("".join(combo))
        if len(words) == vocab_size:
            break
    rng = random.Random(seed)
    successors = {w: rng.sample(words, branch) for w in words}
    emitted = 0
    cur = words[0]
    while emitted < n_tokens:
        line = []
        for _ in range(min(line_len, n_tokens - emitted)):
            cur = rng.choice(successors[cur])
            line.append(cur)
        emitted += len(line)
        yield " ".join(line)


def test_criterion_7_desk_scale_performance(tmp_path):
    n_tokens = 2_000_000
    corpus_path = tmp_path / "big.txt"
    with open(corpus_path, "w") as f:
        for line in _chain_corpus_lines(n_tokens):
            f.write(line + "\n")
    assert corpus_path.stat().st_size >= 9_000_000  # ~10 MB

    config = PrepConfig()
    started = time.perf_counter()
    with open(corpus_path) as f:
        model = estimate_model(count_corpus(f, 3, config), fallback_discount=0.5)
    train_seconds = time.perf_counter() - started
    assert train_seconds < 60.0, train_seconds

    tweets = [line.split() for line in _chain_corpus_lines(120_000, seed=99, line_len=12)]
    assert len(tweets) == 10_000
    started = time.perf_counter()
    scores = [model.score_sequence(t) for t in tweets]
    score_seconds = time.perf_counter() - started
    assert score_seconds < 5.0, score_seconds
    assert all(s < 0.0 for s in scores)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 2 * 1024 * 1024, f"peak RSS {peak_kb} kB"
