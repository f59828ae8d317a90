from hypothesis import given, strategies as st

from humorlm.textprep import PrepConfig, filter_tokens, tokenize


class TestTokenize:
    def test_whitespace_split(self):
        got = tokenize("tears in Ramen #SingleLifeIn3Words", PrepConfig())
        assert got == ["tears", "in", "Ramen", "#SingleLifeIn3Words"]

    def test_empty_line(self):
        assert tokenize("", PrepConfig()) == []
        assert tokenize("   \t ", PrepConfig(split_punct=True)) == []

    def test_split_punct_and_lowercase(self):
        got = tokenize(
            "Donut receipt, maker", PrepConfig(split_punct=True, lowercase=True)
        )
        assert got == ["donut", "receipt", ",", "maker"]

    def test_split_punct_keeps_leading_tag_sigil(self):
        cfg = PrepConfig(split_punct=True)
        assert tokenize("#BadJobIn5Words", cfg) == ["#BadJobIn5Words"]
        assert tokenize("@midnight!", cfg) == ["@midnight", "!"]

    def test_split_punct_each_char_separate(self):
        assert tokenize("a.b,c", PrepConfig(split_punct=True)) == [
            "a", ".", "b", ",", "c",
        ]

    def test_lowercase_is_ascii_only(self):
        assert tokenize("HÉLLO World", PrepConfig(lowercase=True)) == ["hÉllo", "world"]

    @given(st.text())
    def test_tokens_never_contain_whitespace(self, line):
        for cfg in (PrepConfig(), PrepConfig(split_punct=True, lowercase=True)):
            for tok in tokenize(line, cfg):
                assert tok
                assert not any(ch.isspace() for ch in tok)

    @given(st.text())
    def test_lowercase_maps_tokenwise(self, line):
        plain = tokenize(line, PrepConfig(split_punct=True))
        folded = tokenize(line, PrepConfig(split_punct=True, lowercase=True))
        assert len(plain) == len(folded)


class TestFilter:
    def test_tags_removed(self):
        cfg = PrepConfig(filter_tags=True)
        got = filter_tokens(["The", "host", "@midnight", "#BadJobIn5Words"], cfg)
        assert got == ["The", "host"]

    def test_identity_when_nothing_matches(self):
        cfg = PrepConfig(filter_tags=True)
        assert filter_tokens(["tears", "in", "Ramen"], cfg) == ["tears", "in", "Ramen"]

    def test_urls_removed(self):
        cfg = PrepConfig(filter_urls=True)
        assert filter_tokens(["see", "http://t.co/x"], cfg) == ["see"]
        assert filter_tokens(["WWW.example.com", "HTTPS://x", "ok"], cfg) == ["ok"]

    def test_no_filtering_by_default(self):
        toks = ["#tag", "@at", "http://u", "plain"]
        assert filter_tokens(toks, PrepConfig()) == toks

    @given(st.lists(st.text(min_size=1).filter(lambda t: not any(c.isspace() for c in t))))
    def test_idempotent(self, tokens):
        for cfg in (
            PrepConfig(filter_tags=True),
            PrepConfig(filter_urls=True),
            PrepConfig(filter_tags=True, filter_urls=True),
        ):
            once = filter_tokens(tokens, cfg)
            assert filter_tokens(once, cfg) == once

    @given(st.lists(st.sampled_from(["x", "#t", "@m", "http://u", "www.u", "y"])))
    def test_survivor_order_preserved(self, tokens):
        cfg = PrepConfig(filter_tags=True, filter_urls=True)
        got = filter_tokens(tokens, cfg)
        expected = [t for t in tokens if t[0] not in "#@" and not t.startswith(("http://", "www."))]
        assert got == expected

