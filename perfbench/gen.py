"""Seeded, tweet-like inputs for the pipeline benchmark.

Text is a Markov chain over the 1,200 four-letter words of the acceptance
suite's criterion-7 corpus (24 successors per word, about 15 tokens per
line), so n-gram sparsity is realistic at any size. Tweet noise is mixed
in: #tags, @users, URLs, punctuation and Title-case words. Hashtag
files draw from the same chain with about 10% of their words replaced by
words the training text never uses, and carry one tier-2 and nine tier-1
gold labels each.

Everything here is a pure function of the seed and the sizes passed in:
callers draw the chain from the seed and give each kind of file its own
stream, so the corpus of a seed is the same whichever files come with it.
The program under test only ever sees the files written.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

VOCAB_SIZE = 1200
OOV_SIZE = 800
BRANCH = 24
LINE_LEN = (10, 20)
TWEET_LEN = (6, 18)
TAG_P, USER_P, URL_P, PUNCT_P, CASE_P = 0.03, 0.02, 0.01, 0.06, 0.03
URL_POOL = 40
OOV_P = 0.10
PUNCT = ",.!?"
TRAIN_FILES = 20


def _words(n: int) -> list[str]:
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    return ["".join(c) for c in itertools.islice(itertools.product(alphabet, repeat=4), n)]


@dataclass(frozen=True)
class Chain:
    """The Markov chain shared by every file of one seed."""

    words: list[str]
    oov: list[str]
    successors: list[list[int]]

    @classmethod
    def from_seed(cls, seed: int) -> "Chain":
        rng = random.Random(seed)
        all_words = _words(VOCAB_SIZE + OOV_SIZE)
        words, oov = all_words[:VOCAB_SIZE], all_words[VOCAB_SIZE:]
        successors = [rng.sample(range(VOCAB_SIZE), BRANCH) for _ in range(VOCAB_SIZE)]
        return cls(words, oov, successors)

    def line(self, rng: random.Random, start: int, n_words: int, oov_p: float = 0.0) -> tuple[str, int]:
        """One line of `n_words` chain words plus noise tokens; returns the
        text and the chain state to continue from."""
        rand = rng.random
        words, succ = self.words, self.successors
        out = []
        cur = start
        for _ in range(n_words):
            cur = succ[cur][int(rand() * BRANCH)]
            w = words[cur]
            r = rand()
            if r < oov_p:
                w = self.oov[int(rand() * OOV_SIZE)]
            if rand() < CASE_P:
                w = w.capitalize()
            out.append(w)
            r = rand()
            if r < PUNCT_P:
                out.append(PUNCT[int(rand() * len(PUNCT))])
            elif r < PUNCT_P + TAG_P:
                out.append("#" + words[int(rand() * VOCAB_SIZE)])
            elif r < PUNCT_P + TAG_P + USER_P:
                out.append("@" + words[int(rand() * VOCAB_SIZE)])
            elif r < PUNCT_P + TAG_P + USER_P + URL_P:
                out.append(f"https://t.co/{words[int(rand() * URL_POOL)]}")
        return " ".join(out), cur


def write_corpus(chain: Chain, rng: random.Random, outdir: Path, n_tokens: int) -> dict:
    """A directory of tweet TSVs holding `n_tokens` whitespace tokens;
    returns the token and line counts, also those left by filtering tags."""
    outdir.mkdir(parents=True)
    lines = []
    emitted = kept_tokens = kept_lines = 0
    cur = rng.randrange(VOCAB_SIZE)
    while emitted < n_tokens:
        text, cur = chain.line(rng, cur, rng.randint(*LINE_LEN))
        toks = text.split(" ")
        if emitted + len(toks) > n_tokens:
            toks = toks[: n_tokens - emitted]
            text = " ".join(toks)
        emitted += len(toks)
        lines.append(text)
        # What `train --filter-tags` should report counting.
        kept = sum(1 for t in toks if not t.startswith(("#", "@")))
        kept_tokens += kept
        kept_lines += kept > 0
    per_file = -(-len(lines) // TRAIN_FILES)
    for i in range(TRAIN_FILES):
        chunk = lines[i * per_file : (i + 1) * per_file]
        with open(outdir / f"tweets_{i:02d}.tsv", "w", encoding="utf-8", newline="\n") as f:
            for j, text in enumerate(chunk):
                f.write(f"{i * per_file + j}\t{text}\n")
    return {"tokens": emitted, "lines": len(lines),
            "kept_tokens": kept_tokens, "kept_lines": kept_lines}


def write_hashtags(
    chain: Chain, rng: random.Random, outdir: Path, n_files: int, sizes: tuple[int, int]
) -> dict:
    """Hashtag TSVs with gold tiers: one 2, nine 1s, the rest 0."""
    outdir.mkdir(parents=True)
    # File sizes are spread evenly over `sizes`, so every seed asks for the
    # same number of tweets and pairs; only their order and text vary.
    lo, hi = sizes
    counts = [lo + (hi - lo) * i // max(1, n_files - 1) for i in range(n_files)]
    rng.shuffle(counts)
    n_tweets = n_tokens = 0
    for i, n in enumerate(counts):
        ids: set[str] = set()
        while len(ids) < n:
            ids.add(str(rng.randrange(10**17, 10**18)))
        id_list = sorted(ids)
        rng.shuffle(id_list)
        tiers = [2] + [1] * 9 + [0] * (n - 10)
        rng.shuffle(tiers)
        with open(outdir / f"Tag_{i:03d}.tsv", "w", encoding="utf-8", newline="\n") as f:
            for tid, tier in zip(id_list, tiers):
                text, _ = chain.line(rng, rng.randrange(VOCAB_SIZE), rng.randint(*TWEET_LEN), OOV_P)
                n_tokens += text.count(" ") + 1
                f.write(f"{tid}\t{text}\t{tier}\n")
        n_tweets += n
    return {"files": n_files, "tweets": n_tweets, "tokens": n_tokens}


GRID_ROWS = [
    # Rows 1 and 2 share one prep config, so the corpus is tokenized the
    # same way twice; row 3 tokenizes it differently.
    {"dataset": "tweets", "order": 3, "filter_tags": True, "direction": "most-like"},
    {"dataset": "tweets", "order": 2, "filter_tags": True, "direction": "least-like"},
    {"dataset": "tweets", "order": 3, "filter_tags": True, "split_punct": True,
     "lowercase": True, "filter_urls": True, "direction": "most-like"},
]


def write_grid_config(path: Path, corpus: Path, hashtags: Path) -> None:
    cfg = {
        "corpora": {"tweets": str(corpus)},
        "hashtags": str(hashtags),
        "gold": str(hashtags),
        "fallback_discount": 0.5,
        "rows": GRID_ROWS,
    }
    path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
