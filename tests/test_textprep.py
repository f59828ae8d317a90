import itertools
import re
import string
import sys

from hypothesis import given, settings, strategies as st

from humorlm import textprep
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



# tokenize and filter_tokens as they were token by token: split on
# whitespace, then split and fold each token, then filter in two passes.
_TOKEN_PIECES = re.compile("^[#@][^{0}]*|[{0}]|[^{0}]+".format(re.escape(string.punctuation)))
_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def _per_token_tokenize(line: str, config: PrepConfig) -> list[str]:
    tokens = line.split()
    if config.split_punct:
        tokens = [piece for tok in tokens for piece in _TOKEN_PIECES.findall(tok)]
    if config.lowercase:
        tokens = [tok.translate(_FOLD) for tok in tokens]
    return tokens


def _per_token_filter(tokens: list[str], config: PrepConfig) -> list[str]:
    out = list(tokens)
    if config.filter_urls:
        out = [t for t in out if not t.lower().startswith(("http://", "https://", "www."))]
    if config.filter_tags:
        out = [t for t in out if not t.startswith(("#", "@"))]
    return out


_ALL_CONFIGS = [PrepConfig(*flags) for flags in itertools.product((False, True), repeat=5)]

# Both ASCII cases; non-ASCII letters whose lower() or upper() is ASCII or
# grows (dotted I, long s, the Kelvin sign); the tag sigils among ASCII
# punctuation; and whitespace that str.split() splits on besides ASCII's.
_LINE_CHARS = (
    string.ascii_letters + "\u0130\u017f\u212a\u00e9\u00c9" + string.punctuation
    + " \t\n\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2028\u3000"
)
_LINE_PIECES = ["http://", "HTTPS://", "Http://", "www.", "WwW.", "#", "@", "#Tag", "@User"]


class TestWholeLineTokenizing:
    """tokenize and filter_tokens work a line at a time, with the tokens of
    working token by token."""

    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.sampled_from(_LINE_PIECES), st.text(_LINE_CHARS, max_size=6)))
           .map("".join))
    def test_tokens_match_per_token_reference(self, line):
        assert len(_ALL_CONFIGS) == 32
        for config in _ALL_CONFIGS:
            want = _per_token_filter(_per_token_tokenize(line, config), config)
            assert filter_tokens(tokenize(line, config), config) == want, config

    def test_regex_whitespace_is_what_split_splits_on(self):
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]

    def test_only_url_heads_lower_to_h_or_w(self):
        # filter_tokens lowers only tokens starting with one of _URL_HEADS.
        heads = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).lower()[:1] in ("h", "w")]
        assert sorted(heads) == sorted(textprep._URL_HEADS)
