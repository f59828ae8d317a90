import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import write_tsv
from humorlm.counts import count_corpus
from humorlm.errors import TsvFormatError
from humorlm.ranker import (
    Direction,
    HashtagSet,
    ScoredTweet,
    Tweet,
    load_hashtag_file,
    pairwise,
    rank,
    score_hashtag,
)
from humorlm.smoothing import estimate_model
from humorlm.textprep import PrepConfig


def _scored(*pairs):
    return [ScoredTweet(i, f"text {i}", s) for i, s in pairs]


class TestLoadHashtagFile:
    def test_two_columns(self, tmp_path):
        p = tmp_path / "Some_Tag.tsv"
        write_tsv(p, [("1", "first tweet"), ("2", "second tweet")])
        hs = load_hashtag_file(p)
        assert hs.hashtag_name == "Some_Tag"
        assert hs.tweets == [Tweet("1", "first tweet"), Tweet("2", "second tweet")]

    def test_gold_column(self, tmp_path):
        p = tmp_path / "t.tsv"
        write_tsv(p, [("1", "a", 2), ("2", "b", 0)])
        hs = load_hashtag_file(p)
        assert [t.gold for t in hs.tweets] == [2, 0]

    def test_gold_required(self, tmp_path):
        p = tmp_path / "t.tsv"
        write_tsv(p, [("1", "a", 1), ("2", "b")])
        with pytest.raises(TsvFormatError, match="line 2"):
            load_hashtag_file(p, require_gold=True)

    def test_bad_gold_label(self, tmp_path):
        p = tmp_path / "t.tsv"
        write_tsv(p, [("1", "a", 7)])
        with pytest.raises(TsvFormatError, match="line 1"):
            load_hashtag_file(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "t.tsv"
        with open(p, "w") as f:
            f.write("1\tok tweet\njust-one-column\n")
        with pytest.raises(TsvFormatError, match="line 2"):
            load_hashtag_file(p)

    def test_duplicate_ids_rejected(self, tmp_path):
        p = tmp_path / "t.tsv"
        write_tsv(p, [("1", "a"), ("2", "b"), ("1", "c")])
        with pytest.raises(TsvFormatError, match="duplicate") as info:
            load_hashtag_file(p)
        assert str(info.value) == f"{p}, line 3: duplicate tweet id '1' in hashtag 't'"
        assert info.value.line == 3

    def test_error_without_line_names_only_the_file(self):
        e = TsvFormatError("t.tsv", "bad file")
        assert (str(e), e.line) == ("t.tsv: bad file", None)
        assert str(TsvFormatError("t.tsv", "bad row", 4)) == "t.tsv, line 4: bad row"

    def test_text_may_be_empty_or_tabless(self, tmp_path):
        p = tmp_path / "t.tsv"
        with open(p, "w") as f:
            f.write("1\t\n\n2\thello\n")
        hs = load_hashtag_file(p)
        assert [t.tweet_id for t in hs.tweets] == ["1", "2"]


class TestScoreHashtag:
    def _model(self):
        return estimate_model(
            count_corpus(["a b", "a c", "b c a"], 2, PrepConfig(boundaries=True)), 0.5
        )

    def test_order_preserved_and_scores_match_model(self):
        m = self._model()
        cfg = PrepConfig(boundaries=True)
        hs = HashtagSet("h", [Tweet("10", "a b"), Tweet("5", "b zzz")])
        scored = score_hashtag(hs, m, cfg)
        assert [s.tweet_id for s in scored] == ["10", "5"]
        assert scored[0].score == m.score_sequence(["a", "b"], boundaries=True)
        assert scored[1].score == m.score_sequence(["b", "zzz"], boundaries=True)

    def test_empty_set(self):
        assert score_hashtag(HashtagSet("h", []), self._model(), PrepConfig()) == []

    def test_fully_filtered_tweet_scores_as_empty(self):
        m = self._model()
        cfg = PrepConfig(filter_tags=True)
        hs = HashtagSet("h", [Tweet("1", "#only #tags")])
        scored = score_hashtag(hs, m, cfg)
        assert scored[0].score == m.score_sequence([], boundaries=False)

    def test_config_filters_apply(self):
        m = self._model()
        cfg = PrepConfig(filter_tags=True, boundaries=True)
        hs = HashtagSet("h", [Tweet("1", "a b #tag"), Tweet("2", "a b")])
        scored = score_hashtag(hs, m, cfg)
        assert scored[0].score == scored[1].score


class TestRank:
    def test_most_like_descending(self):
        ranked = rank(_scored(("1", -19.9), ("2", -27.7)), Direction.MOST_LIKE)
        assert [s.tweet_id for s in ranked] == ["1", "2"]

    def test_least_like_ascending(self):
        ranked = rank(_scored(("1", -19.9), ("2", -27.7)), Direction.LEAST_LIKE)
        assert [s.tweet_id for s in ranked] == ["2", "1"]

    def test_ties_broken_by_id(self):
        ranked = rank(_scored(("b", -1.0), ("a", -1.0), ("c", -0.5)), Direction.MOST_LIKE)
        assert [s.tweet_id for s in ranked] == ["c", "a", "b"]

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.floats(-60, 0, allow_nan=False)),
            max_size=25,
        )
    )
    def test_permutation_and_idempotence(self, raw):
        scored = [ScoredTweet(f"id{i}-{n}", "t", s) for i, (n, s) in enumerate(raw)]
        for d in Direction:
            ranked = rank(scored, d)
            assert Counter(s.tweet_id for s in ranked) == Counter(
                s.tweet_id for s in scored
            )
            assert rank(ranked, d) == ranked

    @given(
        st.lists(st.floats(-60, 0, allow_nan=False), max_size=20, unique=True)
    )
    def test_direction_reversal_on_distinct_scores(self, scores):
        scored = [ScoredTweet(f"id{i}", "t", s) for i, s in enumerate(scores)]
        most = rank(scored, Direction.MOST_LIKE)
        least = rank(scored, Direction.LEAST_LIKE)
        assert [s.tweet_id for s in most] == [s.tweet_id for s in reversed(least)]


class TestPairwise:
    def test_two_items(self):
        assert pairwise(_scored(("id1", -1.0), ("id2", -2.0))) == [("id1", "id2", 1)]

    def test_single_item(self):
        assert pairwise(_scored(("x", -1.0))) == []

    def test_three_items_enumeration(self):
        got = pairwise(_scored(("a", -1.0), ("b", -2.0), ("c", -3.0)))
        assert got == [("a", "b", 1), ("a", "c", 1), ("b", "c", 1)]

    @given(st.integers(min_value=0, max_value=30))
    def test_pair_count_and_labels(self, n):
        ranked = _scored(*((f"id{i}", -float(i)) for i in range(n)))
        pairs = pairwise(ranked)
        assert len(pairs) == n * (n - 1) // 2
        assert all(label == 1 for _, _, label in pairs)
