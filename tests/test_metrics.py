import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import write_tsv
from humorlm.errors import HumorLMError, MissingGoldError, TsvFormatError, UndefinedMetricError
from humorlm.metrics import (
    ACCURACY_METRICS,
    DISTANCE_METRICS,
    accuracy_a,
    distance_b,
    gold_tiers,
    load_gold,
    ranked_accuracy,
    tier_inversions,
)
from humorlm.ranker import ScoredTweet, load_hashtag_file, pairwise


def _pairs_from_ranking(ids):
    return pairwise([ScoredTweet(i, "t", 0.0) for i in ids])


def _reference_distance(ranked_ids, gold):
    """distance_b as the double loop over every index pair."""
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


def _outcome(metric, *args):
    """The metric's value, or the type and text of the error it raised."""
    try:
        return metric(*args)
    except HumorLMError as e:
        return type(e), str(e)


@st.composite
def _ranking_and_gold(draw):
    """A ranking of 0-40 distinct ids and gold tiers from {0, 1, 2} that may
    miss some ranked ids and hold ids the ranking lacks."""
    ranked = draw(st.lists(st.integers(0, 59).map(str), unique=True, max_size=40))
    unlabelled = set()
    if ranked and draw(st.integers(0, 3)) == 0:
        unlabelled = draw(st.sets(st.sampled_from(ranked), min_size=1, max_size=2))
    tiers = st.integers(0, 2)
    gold = {t: draw(tiers) for t in ranked if t not in unlabelled}
    if draw(st.integers(0, 3)) == 0:
        gold.update(draw(st.dictionaries(st.sampled_from(["x", "y", "z"]), tiers, min_size=1)))
    return ranked, gold


class TestLoadGold:
    def test_load(self, tmp_path):
        p = tmp_path / "Tag.tsv"
        write_tsv(p, [("1", "x", 2), ("2", "y", 1), ("3", "z", 0)])
        assert load_gold(p) == {"1": 2, "2": 1, "3": 0}

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "Tag.tsv"
        write_tsv(p, [("1", "x", 2), ("2", "y")])
        with pytest.raises(TsvFormatError) as info:
            load_gold(p)
        assert str(info.value) == f"{p}: gold label column required; tweet '2' has none"

    def test_tiers_from_loaded_set(self, tmp_path):
        p = tmp_path / "Tag.tsv"
        write_tsv(p, [("1", "x", 2), ("2", "y", 1), ("3", "z", 0)])
        assert gold_tiers(load_hashtag_file(p), p) == load_gold(p)
        write_tsv(p, [("1", "x", 2), ("2", "y")])
        with pytest.raises(TsvFormatError, match="tweet '2' has none") as info:
            gold_tiers(load_hashtag_file(p), p)
        assert str(info.value) == f"{p}: gold label column required; tweet '2' has none"
        assert info.value.line is None

    def test_two_winners_rejected(self, tmp_path):
        p = tmp_path / "Tag.tsv"
        write_tsv(p, [("1", "x", 2), ("2", "y", 2)])
        with pytest.raises(TsvFormatError, match="label-2") as info:
            load_gold(p)
        assert str(info.value) == f"{p}: more than one label-2 tweet: 1, 2"
        assert info.value.line is None


class TestAccuracyA:
    GOLD = {"a": 2, "b": 1, "c": 0}

    def test_hand_example(self):
        # ranking b, a, c: the (b, a) call is wrong, (b, c) and (a, c) right
        preds = _pairs_from_ranking(["b", "a", "c"])
        assert accuracy_a(preds, self.GOLD) == pytest.approx(2 / 3)

    def test_perfect_ranking(self):
        assert accuracy_a(_pairs_from_ranking(["a", "b", "c"]), self.GOLD) == 1.0

    def test_equal_tiers_excluded(self):
        gold = {"a": 1, "b": 1, "c": 0}
        # (a, b) is not comparable; only pairs against c count.
        assert accuracy_a(_pairs_from_ranking(["a", "b", "c"]), gold) == 1.0

    def test_label_zero_semantics(self):
        # label 0 asserts the second id is funnier
        assert accuracy_a([("c", "a", 0)], self.GOLD) == 1.0
        assert accuracy_a([("a", "c", 0)], self.GOLD) == 0.0

    def test_missing_gold(self):
        with pytest.raises(MissingGoldError):
            accuracy_a([("a", "mystery", 1)], self.GOLD)

    def test_no_comparable_pairs(self):
        with pytest.raises(UndefinedMetricError):
            accuracy_a([("a", "b", 1)], {"a": 1, "b": 1})


class TestOnePassMetrics:
    def test_tier_inversions_hand_example(self):
        # ranked tiers [0, 2, 1, 0]: inversions (p, q), (p, r); differing
        # pairs all but (p, s)
        gold = {"p": 0, "q": 2, "r": 1, "s": 0}
        assert tier_inversions(["p", "q", "r", "s"], gold) == (2, 5)
        assert tier_inversions([], gold) == (0, 0)

    @settings(max_examples=400, deadline=None)
    @given(_ranking_and_gold())
    def test_equal_to_pair_list_formulas(self, case):
        ranked, gold = case
        assert _outcome(ranked_accuracy, ranked, gold) == _outcome(
            accuracy_a, _pairs_from_ranking(ranked), gold
        )
        assert _outcome(distance_b, ranked, gold) == _outcome(_reference_distance, ranked, gold)

    def test_error_order(self):
        gold = {"a": 1, "b": 1}
        # 0 or 1 ids make no pair, labelled or not.
        for ranked in ([], ["a"], ["nope"]):
            with pytest.raises(UndefinedMetricError, match="no prediction pairs"):
                ranked_accuracy(ranked, gold)
        # The first unlabelled id in ranked order, before the tiers are read.
        with pytest.raises(MissingGoldError, match="'m1'"):
            ranked_accuracy(["a", "m1", "b", "m2"], gold)
        with pytest.raises(UndefinedMetricError, match="no prediction pairs"):
            ranked_accuracy(["b", "a"], gold)


class TestDistanceB:
    def test_perfect(self):
        gold = {"w": 2, "x": 1, "y": 0, "z": 0}
        assert distance_b(["w", "x", "y", "z"], gold) == 0.0

    def test_hand_example(self):
        # ranked labels [0, 2, 1, 0]: 2 inversions of a possible 5
        gold = {"p": 0, "q": 2, "r": 1, "s": 0}
        assert distance_b(["p", "q", "r", "s"], gold) == pytest.approx(0.4)

    def test_full_reversal(self):
        gold = {"p": 0, "q": 0, "r": 1, "s": 2}
        assert distance_b(["p", "q", "r", "s"], gold) == 1.0

    def test_permutation_mismatch(self):
        gold = {"a": 1, "b": 0}
        with pytest.raises(MissingGoldError):
            distance_b(["a", "a"], gold)
        with pytest.raises(MissingGoldError):
            distance_b(["a"], gold)

    def test_all_equal_undefined(self):
        with pytest.raises(UndefinedMetricError):
            distance_b(["a", "b"], {"a": 1, "b": 1})

    def test_same_label_sequence_same_distance(self):
        gold = {"a": 2, "b": 1, "c": 1, "d": 0}
        # b and c share a tier; swapping them can't change the distance.
        assert distance_b(["a", "b", "c", "d"], gold) == distance_b(
            ["a", "c", "b", "d"], gold
        )
        assert distance_b(["d", "b", "a", "c"], gold) == distance_b(
            ["d", "c", "a", "b"], gold
        )

    def test_zero_iff_nonincreasing_brute_force(self):
        # All orderings of up to 7 tweets: distance 0 exactly when the
        # ranked label sequence never increases.
        gold = {"a": 2, "b": 1, "c": 1, "d": 0, "e": 0, "f": 0, "g": 1}
        ids = list(gold)
        rng = random.Random(0)
        orderings = list(itertools.permutations(ids))
        rng.shuffle(orderings)
        for perm in orderings[:400]:
            labels = [gold[t] for t in perm]
            d = distance_b(list(perm), gold)
            if all(labels[i] >= labels[i + 1] for i in range(len(labels) - 1)):
                assert d == 0.0
            else:
                assert d > 0.0


class TestAccuracyDistanceDuality:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=12),
        st.randoms(use_true_random=False),
    )
    def test_accuracy_plus_discordant_ratio_is_one(self, labels, rng):
        if len(set(labels)) < 2:
            return
        ids = [f"t{i}" for i in range(len(labels))]
        gold = dict(zip(ids, labels))
        ranking = list(ids)
        rng.shuffle(ranking)
        acc = accuracy_a(_pairs_from_ranking(ranking), gold)
        dist = distance_b(ranking, gold)
        assert acc + dist == pytest.approx(1.0, abs=1e-12)


class TestRegistries:
    def test_strategies_registered(self):
        assert ACCURACY_METRICS["pairwise-tier"] is accuracy_a
        assert DISTANCE_METRICS["tier-inversion"] is distance_b
