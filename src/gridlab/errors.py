"""Exception hierarchy shared by all gridlab modules."""


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
    """norm_poly produced a coefficient outside F_p; signals a bug."""


# -- polynomials --------------------------------------------------------------

class UnknownVariable(GridlabError):
    pass


class ZeroPolynomial(GridlabError):
    pass


class NotHomogeneous(GridlabError):
    pass


class BadCharacteristic(GridlabError):
    """The field characteristic is too small for a derivative-based step."""


class DegreeZero(GridlabError):
    """Resultant requested in a variable where an operand has degree 0."""


class ExactDivisionError(GridlabError):
    """Internal: exact polynomial division left a remainder."""


# -- hypersurfaces and graphs -------------------------------------------------

class UnsupportedParameters(GridlabError):
    pass


class EmptySample(GridlabError):
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


# -- cli ----------------------------------------------------------------------

class UnknownSuite(GridlabError):
    pass
