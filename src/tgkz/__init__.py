"""Exact tools for hypergeometric systems graded by an abelian group with
torsion: twisted toric ideals, semigroup modules and their primitive
generators, D-module presentations, rank and duality data.

Everything is computed over exact fields (rationals and cyclotomics); there
is no floating point anywhere.
"""

from .binomials import (
    PartialCharacter,
    extend_character,
    face_twisted_ideal,
    classify_graded_binomial_prime,
    lattice_ideal,
    markov_basis,
    minimal_primes,
    power_ideal,
    toric_ideal_free,
    toric_ideal_full,
    twist_automorphism,
    twisted_ideal,
)
from .cones import (
    Arrangement,
    Face,
    HypothesesReport,
    PointConfig,
    check_hypotheses,
    cone_triangulation,
    epsilon_vector,
    face_lattice,
    facets,
    homogenizing_functional,
    is_pointed,
    membership_in_arrangement,
    normalized_volume,
    positive_grading,
)
from .cyclotomic import Cyclotomic
from .duality import (
    DualityReport,
    SplitCertificate,
    character_split,
    dual_parameter,
    dual_system,
    rank_formula,
    sign_twist,
)
from .errors import (
    BudgetExceededError,
    EmptyConeError,
    HypothesisError,
    LatticeMismatchError,
    NotPointedError,
    NotSaturatedError,
    SpecError,
    TgkzError,
)
from .lattice import (
    AbelianGroup,
    Functional,
    GroupElement,
    kernel_lattice,
    lattice_index,
    smith_normal_form,
)
from .poly import (
    GREVLEX,
    IdealBasis,
    Polynomial,
    groebner_ideal,
    ideal_equal,
    parse_polynomial,
    polynomial_to_text,
)
from .problem import ProblemSpec, parse_spec
from .report import run_command
from .semigroups import (
    EXPLICIT,
    K,
    K_INTERIOR,
    PrimitiveSet,
    SemigroupModule,
    member_semigroup,
    membership,
    module_generators,
    primitive_elements,
    units,
)
from .systems import (
    FACE,
    K_MOD_KINTERIOR,
    NONVANISHING,
    VANISHES,
    SystemPresentation,
    bbgkz_primitive_presentation,
    default_binomial_bound,
    quasi_degrees,
    regularity_certificate,
    vanishing_test,
)
from .weyl import WeylElement, euler_operators

__version__ = "0.1.0"
