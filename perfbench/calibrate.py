"""Fixed calibration job for the pipeline benchmark.

    python3 perfbench/calibrate.py FILE

Loads an ARPA-like file of n-gram lines into a dict keyed by word tuples,
the kind of work a model load does, and exits. It is benchmark code and
never imports the program, so its time follows the machine's speed and
not the program's. `write_input` makes FILE; its content is the same for
every seed.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

LINES = 120_000
WORDS = 3000


def write_input(path: Path) -> None:
    rng = random.Random("calibration")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for i in range(LINES):
            f.write(f"-{rng.random():.6f}\tw{rng.randrange(WORDS)} w{rng.randrange(WORDS)} w{i}\t"
                    f"-{rng.random():.6f}\n")


def load(path: str) -> dict:
    table = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            prob, words, backoff = line.rstrip("\n").split("\t")
            table[tuple(words.split())] = (float(prob), float(backoff))
    return table


if __name__ == "__main__":
    if len(load(sys.argv[1])) != LINES:
        sys.exit("calibration input is not the fixed one")
