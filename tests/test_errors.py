"""Every toolkit error survives pickling: a grid row that fails in a worker
process reaches the parent as the same error, with the same message."""

import pickle

from humorlm.errors import (
    ArpaParseError, DiscountEstimationError, EmptyCorpusError, HumorLMError,
    InvalidOrderError, MissingGoldError, TsvFormatError, UndefinedMetricError,
)

# Instances of every error class, with each way its message is put together.
EXAMPLES = [
    HumorLMError("grid row 2: worker process was killed by signal 9"),
    InvalidOrderError("order must be >= 1, got 0"),
    EmptyCorpusError("no n-grams extracted from corpus"),
    DiscountEstimationError("order 2: n1 = 0"),
    ArpaParseError("no \\data\\ header found"),
    ArpaParseError("bad metadata order field '+1'", 1),
    ArpaParseError("missing \\end\\ marker", path="b.arpa"),
    ArpaParseError("bad metadata order field '+1'", 1, "b.arpa"),
    TsvFormatError("t.tsv", "bad row", 4),
    TsvFormatError("t.tsv", "no rows"),
    MissingGoldError("hashtag T: id 'x' has no gold label"),
    UndefinedMetricError("no comparable pairs"),
]


def _subclasses(cls):
    return {cls}.union(*(_subclasses(c) for c in cls.__subclasses__()))


def test_examples_cover_every_error_class():
    assert {type(e) for e in EXAMPLES} == _subclasses(HumorLMError)


def test_errors_pickle_with_their_message_and_attributes():
    for e in EXAMPLES:
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is type(e)
        assert str(back) == str(e)
        assert back.args == e.args
        assert vars(back) == vars(e)


def test_messages_name_the_file_and_line():
    assert [str(e) for e in EXAMPLES if isinstance(e, (ArpaParseError, TsvFormatError))] == [
        "no \\data\\ header found",
        "line 1: bad metadata order field '+1'",
        "b.arpa: missing \\end\\ marker",
        "b.arpa, line 1: bad metadata order field '+1'",
        "t.tsv, line 4: bad row",
        "t.tsv: no rows",
    ]
