"""Exceptions shared across the package."""


class NotPolynomial(ArithmeticError):
    """A (1+y)-denominator could not be cancelled: the value has a genuine
    pole at y = -1."""


class InvalidParameter(ValueError):
    """A constructor was called with parameters outside its domain."""


class UnsupportedMap(ValueError):
    """A pushforward/pullback was requested along a map that is not one of
    the built-in kinds."""


class MissingLogStructure(ValueError):
    """An open-complement computation was requested on a space that carries
    no boundary-divisor data."""


class ParseError(ValueError):
    """Syntax error in an expression, space spec, or polynomial string.

    Carries the message without its offset (``reason``), the offset of the
    offending token and the set of token kinds that would have been
    accepted there.
    """

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at offset {position}")
        self.reason = message
        self.position = position
        self.expected = frozenset(expected)
