"""Task metrics: pairwise-tier accuracy and normalized tier-inversion distance.

Gold labels are tiers: 2 the winning tweet, 1 the rest of the top ten,
0 everything else. Both metrics count pairs, and with three tiers a
ranking gives those counts in one pass: `tier_inversions` keeps a running
count of each tier seen so far (Knight 1966, *A Computer Method for
Calculating Kendall's Tau with Ungrouped Data*).

`accuracy_a` takes arbitrary pairs. `ranked_accuracy` scores a ranking,
whose pairs are `pairwise(ranked)`: the same float and errors, without
the pairs. `grid` scores its own rankings with it, and `evaluate` a pair
file that is exactly the pair list of a ranking, as `compare` writes it;
`evaluate` calls `accuracy_a` only on any other pair file (a 0 label,
blank lines, another pair order, ...). Both commands score a ranking with
`distance_b`. `accuracy_a` and `distance_b` are called through a
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
    return gold_tiers(load_hashtag_file(path), path)


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


def tier_inversions(ranked_ids: list[str], gold: GoldTiers) -> tuple[int, int]:
    """(inversions, worst) of a ranking against the gold tiers, in one pass.

    An inversion is an index pair i < j whose ranked tiers satisfy
    tier[i] < tier[j]; `worst` counts the pairs whose tiers differ. Every id
    must have a gold tier in (0, 1, 2).
    """
    seen = [0, 0, 0]
    inversions = 0
    worst = 0
    for j, tier in enumerate(map(gold.__getitem__, ranked_ids)):
        for lower in range(tier):
            inversions += seen[lower]
        worst += j - seen[tier]
        seen[tier] += 1
    return inversions, worst


def ranked_accuracy(ranked_ids: list[str], gold: GoldTiers) -> float:
    """`accuracy_a(pairwise(ranked), gold)` without the pairs.

    Every pair of a ranking says that its earlier id is the funnier, so a
    comparable pair is wrong exactly when it is an inversion. The errors
    are accuracy_a's on those pairs: the first id in ranked order with no
    gold tier, if there are two ids or more, then no comparable pair.
    """
    inversions = worst = 0
    if len(ranked_ids) > 1:
        for tweet_id in ranked_ids:
            if tweet_id not in gold:
                raise MissingGoldError(f"no gold label for tweet id {tweet_id!r}")
        inversions, worst = tier_inversions(ranked_ids, gold)
    if worst == 0:
        raise UndefinedMetricError("no prediction pairs with differing gold tiers")
    return (worst - inversions) / worst


def distance_b(ranked_ids: list[str], gold: GoldTiers) -> float:
    """Normalized count of ranking inversions against the gold tiers.

    The numerator and denominator are `tier_inversions`: the inversions,
    and the differing-tier pairs, i.e. the worst case for this tier
    multiset. 0 is a perfect ranking, 1 a fully reversed one.
    """
    if sorted(ranked_ids) != sorted(gold):
        raise MissingGoldError("ranked ids are not a permutation of the gold ids")
    inversions, worst = tier_inversions(ranked_ids, gold)
    if worst == 0:
        raise UndefinedMetricError("all gold tiers equal; distance undefined")
    return inversions / worst


ACCURACY_METRICS = {"pairwise-tier": accuracy_a}
DISTANCE_METRICS = {"tier-inversion": distance_b}
