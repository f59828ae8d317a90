import string

from hypothesis import given, settings, strategies as st

from humorlm.textprep import PrepConfig, filter_tokens, tokenize


def _reference_split(token: str) -> list[str]:
    """--split-punct on one whitespace token, as a character scanner: each
    ASCII punctuation character alone, runs of other characters kept
    together, and a leading "#" or "@" glued to the run after it."""
    punct = frozenset(string.punctuation)
    out = []
    i = 0
    n = len(token)
    if token[0] in "#@":
        j = 1
        while j < n and token[j] not in punct:
            j += 1
        out.append(token[:j])
        i = j
    while i < n:
        ch = token[i]
        if ch in punct:
            out.append(ch)
            i += 1
        else:
            j = i + 1
            while j < n and token[j] not in punct:
                j += 1
            out.append(token[i:j])
            i = j
    return out


# ASCII punctuation (the tag sigils among it), ASCII and non-ASCII letters
# and digits, and ASCII and Unicode whitespace.
_SPLIT_ALPHABET = (
    string.punctuation + "aZq\u00e9\u00c9\u4e2d\u0394" + "07\u0663"
    + " \t\n\x0b\x1c\x85\xa0\u2028\u3000"
)


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
        # Only the first sigil of a token glues, and only to non-punctuation.
        assert tokenize("# @ #@x ##a a#b @é.", cfg) == [
            "#", "@", "#", "@", "x", "#", "#", "a", "a", "#", "b", "@é", ".",
        ]

    def test_split_punct_each_char_separate(self):
        assert tokenize("a.b,c", PrepConfig(split_punct=True)) == [
            "a", ".", "b", ",", "c",
        ]

    @settings(max_examples=300)
    @given(st.text(alphabet=_SPLIT_ALPHABET))
    def test_split_punct_matches_reference_scanner(self, line):
        want = [piece for tok in line.split() for piece in _reference_split(tok)]
        assert tokenize(line, PrepConfig(split_punct=True)) == want

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

