"""Exception types shared across the package, and the integer-parameter checks.

Every error raised deliberately by raagkit derives from RaagError, so callers
can catch one base class at CLI or library boundaries.
"""


class RaagError(Exception):
    """Base class for all errors raised by this package."""


class UnknownMode(RaagError, ValueError):
    """A ``mode`` argument names no mode of the function it was passed to."""


class BadParameter(RaagError, ValueError):
    """A count, cap, radius or seed argument is not an ``int``, or is below its least value.

    A radius whose ball would pass ``cube.BALL_LIMIT`` elements is refused too.
    """


def _check_at_least(name: str, value, least: int) -> None:
    """Raise :class:`BadParameter` unless ``value`` is an int, not a bool, of at least ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise BadParameter(f"{name} must be an integer of at least {least}, got {value!r}")


def _check_seed(seed) -> None:
    """Raise :class:`BadParameter` unless ``seed`` is an int, not a bool.

    A report echoes its seed, so an int seed lets the run be repeated from its output.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise BadParameter(f"seed must be an integer, got {seed!r}")


# -- defining graphs ---------------------------------------------------------

class GraphSyntaxError(RaagError):
    """Graph file text does not match the expected line format."""


class DuplicateVertex(RaagError):
    """The same vertex name appears twice in the vertex list."""


class UnknownVertexInEdge(RaagError):
    """An edge mentions a vertex that was never declared."""


class LoopEdge(RaagError):
    """An edge joins a vertex to itself."""


class UnknownVertex(RaagError):
    """A query names a vertex that is not in the graph (or complex)."""


class TooLargeForExact(RaagError):
    """Exact chromatic number was requested beyond the supported size."""


class TooManyVertices(RaagError):
    """A defining graph has more vertices than one-byte letter codes can name."""


# -- words -------------------------------------------------------------------

class WordSyntaxError(RaagError):
    """A word token is malformed, or a letter's sign is not +1 or -1.

    A zero exponent is not an error: ``a^0`` parses to the identity.
    """


class UnknownGenerator(RaagError):
    """A word uses a generator that is not a vertex of its graph."""


class GraphMismatch(RaagError):
    """Two operands were built over different defining graphs."""


class NotReduced(RaagError):
    """An operation required a reduced word but received one that is not."""


class NotCyclicallyReduced(RaagError):
    """An operation required a cyclically reduced word."""


class EmptyWord(RaagError):
    """An operation required a nonempty word."""


# -- cube calculus -----------------------------------------------------------

class NotInContext(RaagError):
    """A half-space relation was queried outside its context interval."""


class NotNested(RaagError):
    """A chain was requested between half-spaces that are not nested."""


class ChainTooShort(RaagError):
    """A chain midpoint was requested for a chain with no interior."""


# -- overlap verification ----------------------------------------------------

class TrivialElement(RaagError):
    """Verification was requested for the identity element."""


# -- angled complexes --------------------------------------------------------

class UnknownFace(RaagError):
    """A query names a face that is not in the complex."""


class InconsistentComplex(RaagError):
    """Complex data fails a structural validity check."""


class SideCountBelowFour(RaagError):
    """A face side count below four was passed to the genus defect formula."""
