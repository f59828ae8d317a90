import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_random_corpus
from humorlm.counts import (
    MAX_ORDER, CountAccumulator, count_corpus, count_of_counts, prepare_corpus,
)
from humorlm.errors import EmptyCorpusError, InvalidOrderError
from humorlm.textprep import PrepConfig
from kn_reference import KNReference


def _as_str_dict(table, k):
    tok = table.vocab.token
    return {tuple(map(tok, key)): c for key, c in table.table(k).items()}


class TestCountCorpus:
    def test_bigrams_no_boundaries(self):
        t = count_corpus(prepare_corpus(["a b a b"], PrepConfig()), 2)
        assert _as_str_dict(t, 2) == {("a", "b"): 2, ("b", "a"): 1}
        assert _as_str_dict(t, 1) == {("a",): 1, ("b",): 1}

    def test_single_token_unigram(self):
        t = count_corpus(prepare_corpus(["a"], PrepConfig()), 1)
        assert _as_str_dict(t, 1) == {("a",): 1}

    def test_boundaries_keep_bos_raw(self):
        t = count_corpus(prepare_corpus(["a b", "a c"], PrepConfig(boundaries=True)), 2)
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
        t = count_corpus(prepare_corpus(["a"], PrepConfig(boundaries=True)), 4)
        assert t.size(4) == 0
        assert _as_str_dict(t, 3) == {("<s>", "a", "</s>"): 1}
        assert _as_str_dict(t, 2) == {("<s>", "a"): 1, ("a", "</s>"): 1}

    def test_top_order_mass_equals_window_total(self):
        # Closed forms per line of L tokens: L-order+1 windows unbounded;
        # with boundaries, the windows of the L+2 padded tokens less the
        # all-<s> one, which exists only at order 1.
        lines = ["a b c d", "b c d e", "a a"]
        lines += [" ".join(f"w{i}" for i in range(n)) for n in range(1, 21)]
        lengths = [len(line.split()) for line in lines]
        for order in range(1, 6):
            for boundaries in (False, True):
                t = count_corpus(prepare_corpus(lines, PrepConfig(boundaries=boundaries)), order)
                if not boundaries:
                    windows = sum(max(0, n - order + 1) for n in lengths)
                elif order == 1:
                    windows = sum(n + 1 for n in lengths)
                else:
                    windows = sum(max(0, n + 3 - order) for n in lengths)
                assert sum(t.table(order).values()) == windows, (order, boundaries)

    def test_empty_corpus_error(self):
        with pytest.raises(EmptyCorpusError):
            count_corpus(prepare_corpus([], PrepConfig()), 2)
        with pytest.raises(EmptyCorpusError):
            count_corpus(prepare_corpus(["", "   "], PrepConfig()), 2)
        with pytest.raises(EmptyCorpusError):
            count_corpus(prepare_corpus(["#all #tags"], PrepConfig(filter_tags=True)), 2)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrderError):
            count_corpus(prepare_corpus(["a"], PrepConfig()), 0)

    def test_order_above_max(self):
        with pytest.raises(InvalidOrderError, match="<= 10"):
            CountAccumulator(MAX_ORDER + 1, prepare_corpus(["a"], PrepConfig()))
        corpus = prepare_corpus(["a"], PrepConfig(boundaries=True))
        assert count_corpus(corpus, MAX_ORDER).order == MAX_ORDER

    def test_vocab_contents(self):
        t = count_corpus(prepare_corpus(["a b"], PrepConfig(boundaries=True)), 2)
        assert sorted(t.vocab) == ["</s>", "<s>", "<unk>", "a", "b"]
        t2 = count_corpus(prepare_corpus(["a b"], PrepConfig()), 2)
        assert sorted(t2.vocab) == ["<unk>", "a", "b"]

    def test_count_lookup_by_strings(self):
        t = count_corpus(prepare_corpus(["a b a b"], PrepConfig()), 2)
        counts = _as_str_dict(t, 2)
        assert counts[("a", "b")] == 2
        assert ("b", "b") not in counts
        assert t.vocab.id("zzz") is None and ("zzz", "b") not in counts
        with pytest.raises(InvalidOrderError):
            t.table(3)

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
            table = count_corpus(prepare_corpus(lines, PrepConfig(boundaries=boundaries)), order)
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
        t1 = count_corpus(prepare_corpus(lines, PrepConfig(boundaries=True)), 3)
        t2 = count_corpus(prepare_corpus(list(reversed(lines)), PrepConfig(boundaries=True)), 3)
        for k in (1, 2, 3):
            assert _as_str_dict(t1, k) == _as_str_dict(t2, k)

    def test_one_prepared_corpus_counts_at_every_order(self):
        lines = ["a b c", "c b a", "", "b b", "#t a"]
        config = PrepConfig(filter_tags=True, boundaries=True)
        corpus = prepare_corpus(lines, config)
        assert (corpus.token_count, corpus.line_count) == (9, 4)
        for order in (3, 1, 4, 2):
            shared = count_corpus(corpus, order)
            fresh = count_corpus(prepare_corpus(lines, config), order)
            assert (shared.token_count, shared.line_count) == (9, 4)
            for k in range(1, order + 1):
                assert _as_str_dict(shared, k) == _as_str_dict(fresh, k), (order, k)


class TestAccumulator:
    def test_finish_is_final(self):
        corpus = prepare_corpus(["a b", "c"], PrepConfig())
        acc = CountAccumulator(1, corpus)
        acc.add_ids(corpus.lines[0])
        acc.finish()
        with pytest.raises(RuntimeError):
            acc.add_ids(corpus.lines[1])
        with pytest.raises(RuntimeError):
            acc.finish()


class TestCountOfCounts:
    def test_bigram_tally(self):
        t = count_corpus(prepare_corpus(["a b a b"], PrepConfig()), 2)
        coc = count_of_counts(t, 2)
        assert (coc.n1, coc.n2, coc.n3, coc.n4) == (1, 1, 0, 0)

    def test_empty_order_tally(self):
        t = count_corpus(prepare_corpus(["a"], PrepConfig(boundaries=True)), 4)
        coc = count_of_counts(t, 4)
        assert (coc.n1, coc.n2, coc.n3, coc.n4) == (0, 0, 0, 0)

    def test_mixed_tally(self):
        t = count_corpus(prepare_corpus(["a b c c c"], PrepConfig()), 1)
        coc = count_of_counts(t, 1)
        assert (coc.n1, coc.n2, coc.n3, coc.n4) == (2, 0, 1, 0)

    def test_out_of_range(self):
        t = count_corpus(prepare_corpus(["a"], PrepConfig()), 1)
        with pytest.raises(InvalidOrderError):
            count_of_counts(t, 2)
        with pytest.raises(InvalidOrderError):
            count_of_counts(t, 0)
