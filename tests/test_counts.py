import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_random_corpus
from humorlm.counts import MAX_ORDER, CountAccumulator, count_corpus, count_of_counts
from humorlm.errors import EmptyCorpusError, InvalidOrderError
from humorlm.textprep import PrepConfig
from kn_reference import KNReference


def _as_str_dict(table, k):
    return dict(table.ngrams(k))


class TestCountCorpus:
    def test_bigrams_no_boundaries(self):
        t = count_corpus(["a b a b"], 2, PrepConfig())
        assert _as_str_dict(t, 2) == {("a", "b"): 2, ("b", "a"): 1}
        assert _as_str_dict(t, 1) == {("a",): 1, ("b",): 1}

    def test_single_token_unigram(self):
        t = count_corpus(["a"], 1, PrepConfig())
        assert _as_str_dict(t, 1) == {("a",): 1}

    def test_boundaries_keep_bos_raw(self):
        t = count_corpus(["a b", "a c"], 2, PrepConfig(boundaries=True))
        assert _as_str_dict(t, 2) == {
            ("<s>", "a"): 2,
            ("a", "b"): 1,
            ("b", "</s>"): 1,
            ("a", "c"): 1,
            ("c", "</s>"): 1,
        }
        assert _as_str_dict(t, 1) == {
            ("a",): 1,
            ("b",): 1,
            ("c",): 1,
            ("</s>",): 2,
        }

    def test_short_line_keeps_whole_prefix(self):
        # Padded "['<s>','a','</s>']" is shorter than the top order; its
        # <s>-anchored prefixes must still be counted raw.
        t = count_corpus(["a"], 4, PrepConfig(boundaries=True))
        assert t.size(4) == 0
        assert _as_str_dict(t, 3) == {("<s>", "a", "</s>"): 1}
        assert _as_str_dict(t, 2) == {("<s>", "a"): 1, ("a", "</s>"): 1}

    def test_top_order_mass_equals_window_total(self):
        lines = ["a b c d", "b c d e", "a a"]
        t = count_corpus(lines, 3, PrepConfig())
        windows = sum(max(0, len(l.split()) - 2) for l in lines)
        assert sum(c for _, c in t.ngrams(3)) == windows

    def test_empty_corpus_error(self):
        with pytest.raises(EmptyCorpusError):
            count_corpus([], 2, PrepConfig())
        with pytest.raises(EmptyCorpusError):
            count_corpus(["", "   "], 2, PrepConfig())
        with pytest.raises(EmptyCorpusError):
            count_corpus(["#all #tags"], 2, PrepConfig(filter_tags=True))

    def test_invalid_order(self):
        with pytest.raises(InvalidOrderError):
            count_corpus(["a"], 0, PrepConfig())

    def test_order_above_max(self):
        with pytest.raises(InvalidOrderError, match="<= 10"):
            CountAccumulator(MAX_ORDER + 1, PrepConfig())
        assert count_corpus(["a"], MAX_ORDER, PrepConfig(boundaries=True)).order == MAX_ORDER

    def test_vocab_contents(self):
        t = count_corpus(["a b"], 2, PrepConfig(boundaries=True))
        assert sorted(t.vocab) == ["</s>", "<s>", "<unk>", "a", "b"]
        t2 = count_corpus(["a b"], 2, PrepConfig())
        assert sorted(t2.vocab) == ["<unk>", "a", "b"]

    def test_count_lookup_by_strings(self):
        t = count_corpus(["a b a b"], 2, PrepConfig())
        assert t.count(["a", "b"]) == 2
        assert t.count(["b", "b"]) == 0
        assert t.count(["zzz", "b"]) == 0
        with pytest.raises(InvalidOrderError):
            t.count(["a", "b", "c"])

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
    )
    def test_adjusted_counts_match_brute_force(self, seed, order, boundaries):
        rng = random.Random(seed)
        lines = make_random_corpus(rng, 3, 60)
        ref = KNReference(lines, order, boundaries, fallback=0.5)
        try:
            table = count_corpus(lines, order, PrepConfig(boundaries=boundaries))
        except EmptyCorpusError:
            # No line long enough for a top-order window and no boundary
            # padding: every table is empty, and the oracle must agree.
            assert not boundaries
            assert all(len(line.split()) < order for line in lines)
            assert all(not ref.counts[k] for k in range(1, order + 1))
            return
        for k in range(1, order + 1):
            assert _as_str_dict(table, k) == ref.counts[k], f"order {k}"

    def test_line_order_irrelevant(self):
        lines = ["a b c", "c b a", "b b"]
        t1 = count_corpus(lines, 3, PrepConfig(boundaries=True))
        t2 = count_corpus(list(reversed(lines)), 3, PrepConfig(boundaries=True))
        for k in (1, 2, 3):
            assert _as_str_dict(t1, k) == _as_str_dict(t2, k)


class TestAccumulator:
    def test_finish_is_final(self):
        acc = CountAccumulator(1, PrepConfig())
        acc.add_line("a b")
        acc.finish()
        with pytest.raises(RuntimeError):
            acc.add_line("c")
        with pytest.raises(RuntimeError):
            acc.finish()


class TestCountOfCounts:
    def test_bigram_tally(self):
        t = count_corpus(["a b a b"], 2, PrepConfig())
        coc = count_of_counts(t, 2)
        assert (coc.n1, coc.n2, coc.n3, coc.n4) == (1, 1, 0, 0)

    def test_empty_order_tally(self):
        t = count_corpus(["a"], 4, PrepConfig(boundaries=True))
        coc = count_of_counts(t, 4)
        assert (coc.n1, coc.n2, coc.n3, coc.n4) == (0, 0, 0, 0)

    def test_mixed_tally(self):
        t = count_corpus(["a b c c c"], 1, PrepConfig())
        coc = count_of_counts(t, 1)
        assert (coc.n1, coc.n2, coc.n3, coc.n4) == (2, 0, 1, 0)

    def test_out_of_range(self):
        t = count_corpus(["a"], 1, PrepConfig())
        with pytest.raises(InvalidOrderError):
            count_of_counts(t, 2)
        with pytest.raises(InvalidOrderError):
            count_of_counts(t, 0)
