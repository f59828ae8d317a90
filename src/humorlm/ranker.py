"""Tweet scoring, ranking, and pairwise prediction for one hashtag file."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Iterator, Optional, Union

from .errors import HumorLMError, TsvFormatError
from .model import Direction, NGramModel
from .textprep import PrepConfig, filter_tokens, tokenize

GOLD_LABELS = (0, 1, 2)


@dataclass(frozen=True)
class Tweet:
    tweet_id: str
    text: str
    gold: Optional[int] = None


@dataclass(frozen=True)
class ScoredTweet:
    tweet_id: str
    text: str
    score: float


@dataclass
class HashtagSet:
    hashtag_name: str
    tweets: list[Tweet] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen = set()
        for t in self.tweets:
            if t.tweet_id in seen:
                raise ValueError(
                    f"duplicate tweet id {t.tweet_id!r} in hashtag {self.hashtag_name!r}"
                )
            seen.add(t.tweet_id)


def nonblank_lines(path: Union[str, Path]) -> Iterator[tuple[int, str]]:
    """Yield (line number, line without its newline) for each non-blank line
    of a UTF-8 text file; raise HumorLMError naming the file if it is not
    UTF-8."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, raw in enumerate(f, start=1):
                line = raw.rstrip("\r\n")
                if line.strip():
                    yield lineno, line
        except UnicodeDecodeError as e:
            raise HumorLMError(f"{path}: not UTF-8 text ({e.reason})") from None


def load_hashtag_file(path: Union[str, Path], require_gold: bool = False) -> HashtagSet:
    """Read one hashtag TSV: tweet_id<TAB>text[<TAB>gold_label] per line.

    The hashtag name is the file stem. Blank lines are skipped.
    """
    path = Path(path)
    tweets: list[Tweet] = []
    seen: set[str] = set()
    for lineno, line in nonblank_lines(path):
        parts = line.split("\t")
        if len(parts) < 2 or len(parts) > 3 or not parts[0]:
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
            try:
                gold = int(parts[2])
            except ValueError:
                gold = -1
            if gold not in GOLD_LABELS:
                raise TsvFormatError(
                    path, f"gold label must be one of {GOLD_LABELS}, got {parts[2]!r}", lineno
                )
        elif require_gold:
            raise TsvFormatError(path, "gold label column required", lineno)
        tweets.append(Tweet(parts[0], parts[1], gold))
    return HashtagSet(path.stem, tweets)


def score_hashtag(
    hashtag_set: HashtagSet, model: NGramModel, config: PrepConfig
) -> list[ScoredTweet]:
    """Score each tweet's log10 probability; output order matches input order.

    Tweets that filter down to nothing score as the empty sequence.
    """
    out = []
    for t in hashtag_set.tweets:
        tokens = filter_tokens(tokenize(t.text, config), config)
        score = model.score_sequence(tokens, boundaries=config.boundaries)
        out.append(ScoredTweet(t.tweet_id, t.text, score))
    return out


def rank(scored: list[ScoredTweet], direction: Direction) -> list[ScoredTweet]:
    """Order funniest-first. Ties broken by ascending tweet_id."""
    if direction is Direction.MOST_LIKE:
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
