"""Tweet scoring, ranking, and pairwise prediction for one hashtag file."""

from __future__ import annotations

from itertools import repeat
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Union

from .errors import HumorLMError, TsvFormatError
from .model import Direction, NGramModel
from .textprep import PrepConfig, filter_tokens, tokenize

# Gold tiers, matched exactly as written: int() would also read "+2", " 1",
# "٢" and "0_0".
_TIERS = {"0": 0, "1": 1, "2": 2}


class Tweet(NamedTuple):
    """One row of a tweet TSV. A named tuple: it builds in about half the
    time of a frozen dataclass, stays immutable and hashable, and compares
    equal to the plain tuple of its fields."""

    tweet_id: str
    text: str
    gold: Optional[int] = None


class ScoredTweet(NamedTuple):
    """A tweet's id and text with its log10 probability. A named tuple, as
    Tweet is; it compares equal to the plain tuple of its fields."""

    tweet_id: str
    text: str
    score: float


class HashtagSet(NamedTuple):
    """The tweets of one hashtag file, named by its stem. `tweets` has no
    default: a named tuple's default list would be shared by every set."""

    hashtag_name: str
    tweets: list[Tweet]


def read_text(path: Union[str, Path]) -> str:
    """The whole text of a UTF-8 file, newlines read as "\n"; raise
    HumorLMError naming the file if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise HumorLMError(f"{path}: not UTF-8 text ({e.reason})") from None


def nonblank_lines(path: Union[str, Path]) -> Iterator[tuple[int, str]]:
    """Yield (line number, line without its newline) for each non-blank line
    of a UTF-8 text file. The file is decoded whole before any line is read,
    so one that is not UTF-8 is reported as such, whatever its lines hold."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if line.strip():
            yield lineno, line


def read_tweets(path: Union[str, Path]) -> Iterator[Tweet]:
    """Yield the tweets of a tweet TSV: tweet_id<TAB>text[<TAB>tier] per
    non-blank line, ids unique and not blank (a blank id would be a blank
    line of a prediction file), a tier exactly 0, 1 or 2."""
    path = Path(path)
    seen: set[str] = set()
    for lineno, line in nonblank_lines(path):
        parts = line.split("\t")
        if len(parts) < 2 or len(parts) > 3 or not parts[0].strip():
            raise TsvFormatError(
                path, "expected tweet_id<TAB>text[<TAB>gold_label]", lineno
            )
        if parts[0] in seen:
            raise TsvFormatError(
                path, f"duplicate tweet id {parts[0]!r} in hashtag {path.stem!r}", lineno
            )
        seen.add(parts[0])
        gold: Optional[int] = None
        if len(parts) == 3:
            gold = _TIERS.get(parts[2])
            if gold is None:
                raise TsvFormatError(
                    path, f"gold label must be one of (0, 1, 2), got {parts[2]!r}", lineno
                )
        yield Tweet(parts[0], parts[1], gold)


def load_hashtag_file(path: Union[str, Path]) -> HashtagSet:
    """The tweets of one hashtag TSV (read_tweets), named by the file stem."""
    return HashtagSet(Path(path).stem, list(read_tweets(path)))


def score_hashtag(
    hashtag_set: HashtagSet, model: NGramModel, config: PrepConfig
) -> list[ScoredTweet]:
    """Score each tweet's log10 probability; output order matches input order.

    Tweets that filter down to nothing score as the empty sequence. The
    whole set is scored in one model.score_sequences call.
    """
    scores = model.score_sequences(tweet_tokens(hashtag_set, config), config.boundaries)
    return scored_tweets(hashtag_set, scores)


def tweet_tokens(hashtag_set: HashtagSet, config: PrepConfig) -> list[list[str]]:
    """Each tweet's tokens, tokenized and filtered per `config`, in order."""
    return [filter_tokens(tokenize(t.text, config), config) for t in hashtag_set.tweets]


def scored_tweets(hashtag_set: HashtagSet, scores: list[float]) -> list[ScoredTweet]:
    """Each tweet of `hashtag_set` with its score, in order."""
    return [ScoredTweet(t.tweet_id, t.text, s) for t, s in zip(hashtag_set.tweets, scores)]


def rank(scored: list[ScoredTweet], direction: Union[Direction, str]) -> list[ScoredTweet]:
    """Order funniest-first. Ties broken by ascending tweet_id. `direction`
    is a Direction or its value, as NGramModel.direction holds it; any
    other value raises ValueError."""
    if Direction(direction) is Direction.MOST_LIKE:
        return sorted(scored, key=lambda s: (-s.score, s.tweet_id))
    return sorted(scored, key=lambda s: (s.score, s.tweet_id))


def pairwise(ranked: list[ScoredTweet]) -> list[tuple[str, str, int]]:
    """All n(n-1)/2 unordered pairs as (earlier_id, later_id, 1).

    Label 1 asserts the first id is the funnier; ranked input therefore
    yields all-1 labels.
    """
    ids = [st.tweet_id for st in ranked]
    out: list[tuple[str, str, int]] = []
    for i, a in enumerate(ids):
        out.extend(zip(repeat(a), ids[i + 1:], repeat(1)))
    return out
