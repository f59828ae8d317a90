"""Exception types raised by the toolkit."""


class HumorLMError(Exception):
    """Base class for all toolkit errors."""


class InvalidOrderError(HumorLMError, ValueError):
    """An n-gram order outside the valid range was requested."""


class EmptyCorpusError(HumorLMError):
    """The corpus yielded no usable n-grams after pre-processing."""


class DiscountEstimationError(HumorLMError):
    """Count-of-count statistics are too degenerate to estimate discounts."""


class ArpaParseError(HumorLMError):
    """A model file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TsvFormatError(HumorLMError):
    """A tweet TSV file could not be parsed; carries the offending line
    number, or None when the fault is in the file as a whole."""

    def __init__(self, path: str, message: str, line: int | None = None):
        where = str(path) if line is None else f"{path}, line {line}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


class MissingGoldError(HumorLMError):
    """A prediction references a tweet id absent from the gold labels."""


class UndefinedMetricError(HumorLMError):
    """The metric has no defined value (e.g. no comparable pairs)."""
