"""Exception types shared across the toolkit."""


class CtmtError(Exception):
    """Base class for all toolkit errors."""


class CorpusFormatError(CtmtError):
    """An on-disk artifact violates its expected format."""


class ReservedTokenError(CtmtError):
    """A plain sentence contains a reserved token."""


class CapacityError(CtmtError):
    """More indexed symbols are needed than the vocabulary reserves."""


class ConstraintMatchError(CtmtError):
    """A constraint phrase has no available occurrence in its sentence."""


class SpanError(CtmtError):
    """Spans are overlapping, unsorted, or out of bounds."""


class OutputParseError(CtmtError):
    """A model output line cannot be split into template and derivations;
    ``parsed`` carries the line's best-effort reading, when there is one."""

    def __init__(self, message: str, parsed=None):
        super().__init__(message)
        self.parsed = parsed


class InternalError(CtmtError):
    """A precondition the toolkit itself is supposed to guarantee was violated."""
