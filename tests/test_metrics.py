import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import write_tsv
from humorlm.errors import MissingGoldError, TsvFormatError, UndefinedMetricError
from humorlm.metrics import (
    ACCURACY_METRICS,
    DISTANCE_METRICS,
    accuracy_a,
    distance_b,
    gold_tiers,
    load_gold,
)
from humorlm.ranker import ScoredTweet, load_hashtag_file, pairwise


def _pairs_from_ranking(ids):
    return pairwise([ScoredTweet(i, "t", 0.0) for i in ids])


class TestLoadGold:
    def test_load(self, tmp_path):
        p = tmp_path / "Tag.tsv"
        write_tsv(p, [("1", "x", 2), ("2", "y", 1), ("3", "z", 0)])
        assert load_gold(p) == {"1": 2, "2": 1, "3": 0}

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "Tag.tsv"
        write_tsv(p, [("1", "x", 2), ("2", "y")])
        with pytest.raises(TsvFormatError):
            load_gold(p)

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
