"""N-gram language models with modified Kneser-Ney smoothing, ARPA I/O,
and log-probability ranking of tweets by hashtag."""

from .counts import (
    CountAccumulator,
    CountOfCounts,
    CountTable,
    PreparedCorpus,
    count_corpus,
    count_of_counts,
    prepare_corpus,
)
from .errors import (
    ArpaParseError,
    DiscountEstimationError,
    EmptyCorpusError,
    HumorLMError,
    InvalidOrderError,
    MissingGoldError,
    TsvFormatError,
    UndefinedMetricError,
)
from .metrics import GoldTiers, accuracy_a, distance_b, load_gold
from .model import Direction, NGramModel, read_arpa, write_arpa
from .ranker import (
    HashtagSet,
    ScoredTweet,
    Tweet,
    load_hashtag_file,
    pairwise,
    rank,
    score_hashtag,
)
from .smoothing import Discounts, estimate_discounts, estimate_model
from .textprep import BOS, EOS, UNK, PrepConfig, filter_tokens, tokenize
from .vocab import Vocabulary

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the kernel implementation, stamped on benchmark results.

    Always "pure": nothing is compiled. Counting, estimation and scoring
    run as numpy array kernels (`_kernels`), and every model, estimated or
    read from a file, scores through one sorted-array trie (`_trie.Trie`).
    Benchmark results compare their stamps on this value, so it does not
    change.
    """
    return "pure"


__all__ = [
    "ArpaParseError",
    "BOS",
    "CountAccumulator",
    "CountOfCounts",
    "CountTable",
    "Direction",
    "DiscountEstimationError",
    "Discounts",
    "EOS",
    "EmptyCorpusError",
    "GoldTiers",
    "HashtagSet",
    "HumorLMError",
    "InvalidOrderError",
    "MissingGoldError",
    "NGramModel",
    "PrepConfig",
    "PreparedCorpus",
    "ScoredTweet",
    "Tweet",
    "TsvFormatError",
    "UNK",
    "UndefinedMetricError",
    "Vocabulary",
    "accuracy_a",
    "backend_name",
    "count_corpus",
    "count_of_counts",
    "distance_b",
    "estimate_discounts",
    "estimate_model",
    "filter_tokens",
    "load_gold",
    "load_hashtag_file",
    "pairwise",
    "prepare_corpus",
    "rank",
    "read_arpa",
    "score_hashtag",
    "tokenize",
    "write_arpa",
    "__version__",
]
