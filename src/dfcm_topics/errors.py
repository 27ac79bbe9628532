"""Exception types shared across the toolkit."""


class DfcmError(Exception):
    """Base class for all toolkit errors."""


class EmptyVocabularyError(DfcmError):
    """No term survived stopword removal and frequency pruning."""


class DimensionMismatchError(DfcmError):
    """Operand shapes are incompatible."""


class TooFewPointsError(DfcmError):
    """Fewer data points than requested clusters."""


class InvalidFuzzifierError(DfcmError):
    """Fuzzification constant must be finite and > 1."""


class EmptyClusterError(DfcmError):
    """A cluster's membership weights summed to zero."""


class NumericalError(DfcmError):
    """Values left, or would leave, the finite floating-point range."""


class NonFiniteInputError(NumericalError):
    """Input contains NaN or Inf."""


class NonFiniteLossError(NumericalError):
    """Training loss became NaN or Inf."""


class RankTooLargeError(DfcmError):
    """Requested rank exceeds min(n_rows, n_cols)."""


class MalformedLineError(DfcmError):
    """A line in an input file does not match the expected format."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number

    @classmethod
    def at(cls, path, what, line=None):
        """The error "<path>: line <line>: <what>", or "<path>: <what>" without a line."""
        return cls(f"{path}: {what}" if line is None else f"{path}: line {line}: {what}", line)


class ZeroVectorError(DfcmError):
    """Cosine similarity is undefined for a zero vector."""


class TooFewKnownWordsError(DfcmError):
    """Fewer than two topic words found in the embedding vocabulary."""


class ConfigError(DfcmError):
    """Invalid run configuration."""
