"""Exception classes shared across quantlab modules."""


class QuantLabError(Exception):
    """Base class for all quantlab errors."""


class DimensionMismatch(QuantLabError):
    pass


class NotPositiveDefinite(QuantLabError):
    def __init__(self, pivot: int, message: str = ""):
        self.pivot = pivot
        super().__init__(message or f"matrix not positive definite at pivot {pivot}")


class NotPowerOfTwo(QuantLabError):
    pass


class NonFiniteInput(QuantLabError):
    pass


class MalformedBlock(QuantLabError):
    pass


class NonPositiveScale(QuantLabError):
    pass


class OddHeadDim(QuantLabError):
    pass


class EmptyCalibration(QuantLabError):
    pass


class NotCalibrated(QuantLabError):
    pass


class ChannelCountMismatch(QuantLabError):
    pass


class TokenOutOfRange(QuantLabError):
    pass


class ContextOverflow(QuantLabError):
    pass


class MissingCalibration(QuantLabError):
    pass


class BadMagic(QuantLabError):
    pass


class ShapeMismatch(QuantLabError):
    pass


class TruncatedFile(QuantLabError):
    def __init__(self, offset: int, message: str = ""):
        self.offset = offset
        super().__init__(message or f"file truncated at offset {offset}")


class FileTooSmall(QuantLabError):
    pass


class ParseError(QuantLabError):
    pass


class UnknownSite(QuantLabError):
    pass


class UsageError(QuantLabError):
    """A command line argparse rejects."""
