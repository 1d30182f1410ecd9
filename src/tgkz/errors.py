"""Error types shared across the package.

Every error carries a short machine-readable code; the CLI maps codes to
exit codes (2 hypothesis/refusal, 3 parse, 4 budget) and report notes.
"""


class TgkzError(Exception):
    code = "ERROR"

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = context


class EmptyConeError(TgkzError):
    code = "EMPTY_CONE"


class NotPointedError(TgkzError):
    code = "NOT_POINTED"


class HypothesisError(TgkzError):
    """Raised when a command is refused because a standing hypothesis fails."""

    code = "HYPOTHESIS_FAILED"


class LatticeMismatchError(TgkzError):
    code = "LATTICE_MISMATCH"


class NotSaturatedError(TgkzError):
    code = "NOT_SATURATED"


class NotStabilizedError(TgkzError):
    """A binomial relation of the primitive presentation has one-sided
    degree above the bound, which is a ceiling (exit 2)."""

    code = "NOT_STABILIZED"


class BoxScanIncompleteError(TgkzError):
    """A box lost a lattice point, or the doubled-scale rescan changed the
    primitive set (exit 2)."""

    code = "BOX_SCAN_INCOMPLETE"


class PrimesDoNotIntersectError(TgkzError):
    """A minimal-prime character is not trivial on the full kernel, or the
    primes fail the certificate that they meet in the full-group ideal:
    free-basis leading terms, containment, distinctness, one per character
    (exit 2).  Context: torsion_orders, primes (their number)."""

    code = "PRIMES_DO_NOT_INTERSECT"


class SmithCheckError(TgkzError):
    """U*M*V != D or a broken divisibility chain in a Smith decomposition,
    or a character extension that disagrees with the character on its
    lattice (exit 2).  Context: shape of M, and the row that disagrees."""

    code = "SNF_CHECK_FAILED"


class NotBinomialError(TgkzError):
    """A reduced lattice-ideal basis element is not x^a - x^b (exit 2).
    Context: terms (their number) or coefficient (the first that is off)."""

    code = "NOT_BINOMIAL"


class NotHomogeneousError(TgkzError):
    """A module Groebner relation mixes group degrees (exit 2).  Context:
    bound, degrees (their number)."""

    code = "NOT_HOMOGENEOUS"


class RankMismatchError(TgkzError):
    """A system and its dual report different ranks (exit 2).  Context:
    rank_primal, rank_dual."""

    code = "RANK_MISMATCH"


class SplitSingularError(TgkzError):
    """The torsion characters do not separate the fibers: their evaluation
    matrix is singular (exit 2).  Context: torsion_orders."""

    code = "SPLIT_SINGULAR"


class NotInvertibleError(TgkzError):
    """A nonzero cyclotomic element has Galois norm 0, so it has no inverse
    (exit 2).  Context: order, num."""

    code = "NOT_INVERTIBLE"


class BudgetExceededError(TgkzError):
    code = "BUDGET_EXCEEDED"


class SpecError(TgkzError):
    """Problem-spec parsing/validation failure, or a bad environment value.

    code is one of MALFORMED, DIMENSION_MISMATCH, UNSUPPORTED_CHARACTER_VALUE,
    UNSUPPORTED_MODULE, or INVALID_ENVIRONMENT for an environment variable
    (TGKZ_PAIR_BUDGET) that does not parse.
    """

    def __init__(self, message, code="MALFORMED", **context):
        super().__init__(message, **context)
        self.code = code
