"""Exception types raised by the toolkit.

Every one pickles and unpickles with the same str() and attributes, so a
task that fails in a worker process (a grid row, a hashtag file) is
reported as it would be in the parent."""


class HumorLMError(Exception):
    """Base class for all toolkit errors."""


class InvalidOrderError(HumorLMError, ValueError):
    """An n-gram order outside the valid range was requested."""


class EmptyCorpusError(HumorLMError):
    """The corpus yielded no usable n-grams after pre-processing."""


class DiscountEstimationError(HumorLMError):
    """Count-of-count statistics are too degenerate to estimate discounts."""


def _located(message: str, path, line: int | None) -> str:
    """`message` prefixed with where it happened: "PATH, line N: ",
    "PATH: ", "line N: " or nothing."""
    if line is not None:
        message = f"line {line}: {message}"
    if path is None:
        return message
    return f"{path}, {message}" if line is not None else f"{path}: {message}"


class ArpaParseError(HumorLMError):
    """A model file could not be parsed; carries the message, the offending
    line number and the file's path, each None where not known."""

    def __init__(self, message: str, line: int | None = None, path=None):
        super().__init__(_located(message, path, line))
        self.message = message
        self.line = line
        self.path = path

    def __reduce__(self):
        return type(self), (self.message, self.line, self.path)


class TsvFormatError(HumorLMError):
    """A tweet TSV file could not be parsed; carries the offending line
    number, or None when the fault is in the file as a whole."""

    def __init__(self, path, message: str, line: int | None = None):
        super().__init__(_located(message, path, line))
        self.path = path
        self.message = message
        self.line = line

    def __reduce__(self):
        return type(self), (self.path, self.message, self.line)


class MissingGoldError(HumorLMError):
    """A prediction references a tweet id absent from the gold labels."""


class UndefinedMetricError(HumorLMError):
    """The metric has no defined value (e.g. no comparable pairs)."""
