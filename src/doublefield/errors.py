"""Exception hierarchy for the doublefield package."""


class DoubleFieldError(Exception):
    """Base class for all library errors."""


class InputError(DoubleFieldError):
    """Malformed or inadmissible user input."""


class ParseError(InputError):
    """Expression or divisor-spec syntax error.

    Carries the byte offset of the failure, which its message ends
    with, and the set of tokens that would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = tuple(sorted(expected))


class DegreeBound(InputError):
    """Polynomial degree exceeds the factorization bound."""


class NotDegreeOne(InputError):
    """Operation requires a binary prime of degree one in x."""


class NotCoprime(InputError):
    """Divisor arguments must have disjoint supports."""


class UncertifiedFactor(DoubleFieldError):
    """Irreducibility of a binary prime could not be certified.

    The library no longer raises it: ``BinaryPlace.make`` decides every
    binary prime exactly.  The class stays in ``errors`` only for
    ``dfbench/corpus.py``, which still catches it."""


class PrecisionFailure(DoubleFieldError):
    """Numeric certification failed at the working precision (retryable)."""
