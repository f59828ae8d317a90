"""N-gram language models with modified Kneser-Ney smoothing, ARPA I/O,
and log-probability ranking of tweets by hashtag."""

from .counts import (
    CountAccumulator,
    CountOfCounts,
    CountTable,
    count_corpus,
    count_of_counts,
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
from .textprep import BOS, EOS, UNK, PrepConfig, extract_ngrams, filter_tokens, tokenize
from .vocab import Vocabulary

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the kernel implementation, stamped on benchmark results.

    The kernels exist only in plain Python, so this is always "pure".
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
    "extract_ngrams",
    "filter_tokens",
    "load_gold",
    "load_hashtag_file",
    "pairwise",
    "rank",
    "read_arpa",
    "score_hashtag",
    "tokenize",
    "write_arpa",
    "__version__",
]
