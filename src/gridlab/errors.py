"""Exception hierarchy shared by all gridlab modules, and the JSON shape
check that raises one of them."""


class GridlabError(Exception):
    """Base class for every error raised by this package."""


# -- field arithmetic ---------------------------------------------------------

class MixedFields(GridlabError):
    """Operands live in different coefficient fields."""


class DivisionByZero(GridlabError, ZeroDivisionError):
    pass


class WrongField(GridlabError):
    """An operation needed a specific field kind (e.g. an extension field)."""


class DimensionMismatch(GridlabError):
    pass


class CoefficientNotInPrimeField(GridlabError):
    """norm_poly or norm produced a value outside F_p; signals a bug."""


# -- polynomials --------------------------------------------------------------

class UnknownVariable(GridlabError):
    pass


class MalformedExpression(GridlabError):
    """A polynomial expression or coefficient string does not parse."""


class ZeroPolynomial(GridlabError):
    pass


class NotHomogeneous(GridlabError):
    pass


class BadCharacteristic(GridlabError):
    """The field characteristic is too small for a derivative-based step."""


class ExactDivisionError(GridlabError):
    """Internal: exact polynomial division left a remainder."""


# -- hypersurfaces and graphs -------------------------------------------------

class UnsupportedParameters(GridlabError):
    pass


class EmptySide(GridlabError):
    pass


class BudgetExceeded(GridlabError):
    pass


class BadReduction(GridlabError):
    """A rational coefficient has denominator divisible by the prime."""


class ParameterOutOfRange(GridlabError):
    pass


class InvalidWitness(GridlabError):
    """A grid witness failed re-verification against the adjacency rows."""


# -- curves -------------------------------------------------------------------

class PointNotRational(GridlabError):
    pass


class NonTermination(GridlabError):
    """Iteration cap hit in the multiplicity recursion; signals a bug."""


class ZeroSection(GridlabError):
    pass


class DegreeTooHigh(GridlabError):
    pass


class CharacteristicTwo(GridlabError):
    pass


# -- s=1 classification -------------------------------------------------------

class WrongDimension(GridlabError):
    pass


class NonSplitForm(GridlabError):
    """A binary form over the rationals has an irreducible factor of degree >= 2."""


# -- cremona ------------------------------------------------------------------

class NotInvertibleShape(GridlabError):
    pass


class ZeroPullback(GridlabError):
    pass


class SampleTooSmall(GridlabError):
    pass


# -- input --------------------------------------------------------------------

class MalformedJSON(GridlabError):
    """Input JSON does not decode, lacks a key or holds a value of the
    wrong type."""


class FileAccessError(GridlabError):
    """A file named on the command line cannot be read or written."""


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def json_value(value, kind: type, what: str):
    """`value` if it is a `kind` (dict, list, str or int), else MalformedJSON."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MalformedJSON(f"{what} must be {_JSON_TYPES[kind]}")
    return value


def json_field(data, key: str, kind: type, what: str):
    """data[key], checked to be a `kind`; `what` names `data` in messages."""
    json_value(data, dict, what)
    if key not in data:
        raise MalformedJSON(f"{what} lacks {key!r}")
    return json_value(data[key], kind, f"{what}.{key}")


# -- cli ----------------------------------------------------------------------

class UnknownSuite(GridlabError):
    pass
