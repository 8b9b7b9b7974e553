"""Exception hierarchy for indexlaw.

Every error raised on purpose by the library derives from IndexLawError,
so callers can catch one type at API boundaries (the CLI maps them to
exit code 1).
"""


class IndexLawError(ValueError):
    """Base class for all indexlaw errors."""


class EmptySample(IndexLawError):
    pass


class NonFiniteValue(IndexLawError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"non-finite value at input position {index}")


class OutOfRange(IndexLawError):
    pass


class NonFiniteScore(IndexLawError):
    pass


class NonFiniteIntegral(IndexLawError):
    pass


class NegativeVariance(IndexLawError):
    pass


class BadLevel(IndexLawError):
    pass


class BadThreshold(IndexLawError):
    pass


class ZeroMean(IndexLawError):
    pass


class ThresholdOutsideSupport(IndexLawError):
    pass


class NonFiniteConstant(IndexLawError):
    pass


class ZeroDenominator(IndexLawError):
    pass


class ZeroHpi(IndexLawError):
    pass


class NonFiniteMoment(IndexLawError):
    pass


class ZeroVariance(IndexLawError):
    pass


class TooFewPairs(IndexLawError):
    pass


class ZeroBaseIndex(IndexLawError):
    pass


class BadParams(IndexLawError):
    pass


class BadWeights(BadParams):
    pass


class UnknownExperiment(IndexLawError):
    pass


class ParseError(IndexLawError):
    def __init__(self, line: int, message: str = ""):
        self.line = line
        detail = f": {message}" if message else ""
        super().__init__(f"parse error on line {line}{detail}")


class EmptyInput(IndexLawError):
    pass


class ColumnCountMismatch(IndexLawError):
    pass
