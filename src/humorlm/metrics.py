"""Task metrics: pairwise-tier accuracy and normalized tier-inversion distance.

Gold labels are tiers: 2 the winning tweet, 1 the rest of the top ten,
0 everything else. `evaluate` and `grid` call each metric through a
one-entry registry under a fixed key. No option selects another formula;
the registries remain only because the benchmark's tracer
(`perfbench/traced.py`) wraps their entries to time the metrics.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .errors import MissingGoldError, TsvFormatError, UndefinedMetricError
from .ranker import HashtagSet, load_hashtag_file

GoldTiers = dict[str, int]


def gold_tiers(hs: HashtagSet, path: Union[str, Path]) -> GoldTiers:
    """Gold tiers of a hashtag set read from `path`: every tweet must carry a
    label, and at most one may carry label 2."""
    unlabelled = [t.tweet_id for t in hs.tweets if t.gold is None]
    if unlabelled:
        raise TsvFormatError(
            Path(path), f"gold label column required; tweet {unlabelled[0]!r} has none"
        )
    winners = [t.tweet_id for t in hs.tweets if t.gold == 2]
    if len(winners) > 1:
        raise TsvFormatError(Path(path), f"more than one label-2 tweet: {', '.join(winners)}")
    return {t.tweet_id: t.gold for t in hs.tweets}  # type: ignore[misc]


def load_gold(path: Union[str, Path]) -> GoldTiers:
    """Gold tiers from a hashtag TSV whose third column is mandatory."""
    return gold_tiers(load_hashtag_file(path, require_gold=True), path)


def accuracy_a(predictions: list[tuple[str, str, int]], gold: GoldTiers) -> float:
    """Fraction of gold-comparable pairs predicted in the right direction.

    Pairs whose gold tiers are equal carry no signal and are excluded from
    both numerator and denominator.
    """
    correct = 0
    comparable = 0
    for id_a, id_b, label in predictions:
        if id_a not in gold:
            raise MissingGoldError(f"no gold label for tweet id {id_a!r}")
        if id_b not in gold:
            raise MissingGoldError(f"no gold label for tweet id {id_b!r}")
        ga = gold[id_a]
        gb = gold[id_b]
        if ga == gb:
            continue
        comparable += 1
        if (label == 1) == (ga > gb):
            correct += 1
    if comparable == 0:
        raise UndefinedMetricError("no prediction pairs with differing gold tiers")
    return correct / comparable


def distance_b(ranked_ids: list[str], gold: GoldTiers) -> float:
    """Normalized count of ranking inversions against the gold tiers.

    An inversion is an index pair i < j whose ranked labels satisfy
    label[i] < label[j]; the denominator is the count of differing-label
    pairs, i.e. the worst case for this label multiset. 0 is a perfect
    ranking, 1 a fully reversed one.
    """
    if sorted(ranked_ids) != sorted(gold):
        raise MissingGoldError("ranked ids are not a permutation of the gold ids")
    labels = [gold[t] for t in ranked_ids]
    n = len(labels)
    inversions = 0
    worst = 0
    for i in range(n):
        li = labels[i]
        for j in range(i + 1, n):
            if li < labels[j]:
                inversions += 1
                worst += 1
            elif li > labels[j]:
                worst += 1
    if worst == 0:
        raise UndefinedMetricError("all gold tiers equal; distance undefined")
    return inversions / worst


ACCURACY_METRICS = {"pairwise-tier": accuracy_a}
DISTANCE_METRICS = {"tier-inversion": distance_b}
