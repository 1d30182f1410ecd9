"""Rank bookkeeping, the parameter-shift duality, and the character split.

The rank of both the closure and interior systems is the torsion order times
the normalized volume; duality pairs the closure system at beta with the
interior system at -beta-epsilon after the sign twist x -> -x, d -> -d.
The character split certifies that the closure module decomposes into
torsion-order many untwisted copies, one per character of the torsion group.
"""

from fractions import Fraction
from itertools import product
from math import prod

from ._value import frozen
from .cones import (PointConfig, check_hypotheses, epsilon_vector,
                    normalized_volume, positive_grading)
from .cyclotomic import Cyclotomic
from .errors import HypothesisError, RankMismatchError, SpecError, SplitSingularError
from .semigroups import K, K_INTERIOR, SemigroupModule, cone_points_up_to
from .systems import SystemPresentation, bbgkz_primitive_presentation, coerce_beta
from .weyl import WeylElement

DEFAULT_TRUNCATION = 10


def rank_formula(config: PointConfig, module_kind) -> int:
    """Torsion order times normalized volume; the same number for the
    closure and interior modules, independent of the parameter."""
    if module_kind not in (K, K_INTERIOR):
        raise SpecError(f"rank formula applies to {K} and {K_INTERIOR} only",
                        code="UNSUPPORTED_MODULE")
    return config.ell * normalized_volume(config)


def dual_parameter(beta, config: PointConfig):
    """-beta minus the column sum; applying it twice gives beta back."""
    beta = coerce_beta(beta, config.d)
    eps = epsilon_vector(config)
    return tuple(-(b + Fraction(e)) for b, e in zip(beta, eps))


def sign_twist(obj):
    """x -> -x, d -> -d, on an operator or a whole presentation; an
    involution that fixes every Euler relation."""
    if isinstance(obj, WeylElement):
        return obj.sign_twist()
    if isinstance(obj, SystemPresentation):
        relations = tuple(tuple((i, op.sign_twist()) for i, op in rel)
                          for rel in obj.relations)
        return SystemPresentation(obj.config, obj.module_kind, obj.beta,
                                  obj.generators, relations, obj.bounds)
    raise TypeError(f"cannot sign-twist {type(obj).__name__}")


@frozen
class DualityReport:
    beta: tuple
    epsilon: tuple
    dual_beta: tuple
    rank_primal: int
    rank_dual: int
    twisted: bool

    def to_json(self):
        return {
            "beta": [b.to_text() for b in self.beta],
            "epsilon": list(self.epsilon),
            "dual_beta": [b.to_text() for b in self.dual_beta],
            "rank_primal": self.rank_primal,
            "rank_dual": self.rank_dual,
            "twisted": self.twisted,
        }


def dual_system(config: PointConfig, beta, binomial_degree_bound=None):
    """Sign-twisted interior presentation at the shifted parameter, paired
    with the rank report for both sides."""
    report = check_hypotheses(config)
    if not report.ok:
        raise HypothesisError("duality requires the standing hypotheses",
                              hypotheses=report.to_json())
    beta = coerce_beta(beta, config.d)
    shifted = dual_parameter(beta, config)
    module = SemigroupModule(K_INTERIOR, config)
    presentation = sign_twist(
        bbgkz_primitive_presentation(module, shifted, binomial_degree_bound))
    duality = DualityReport(
        beta, epsilon_vector(config), shifted,
        rank_formula(config, K), rank_formula(config, K_INTERIOR), True)
    if duality.rank_primal != duality.rank_dual:
        raise RankMismatchError("the system and its dual have different ranks",
                                rank_primal=duality.rank_primal,
                                rank_dual=duality.rank_dual)
    return presentation, duality


# ---------------------------------------------------------------------------
# character split


@frozen
class SplitCertificate:
    """Evaluation maps on the torsion markers and the exact evidence that
    they jointly separate every truncated graded piece."""

    exponents: tuple       # one exponent tuple r per map
    values: tuple          # per map, the marker values zeta_{l_i}^{r_i}
    matrix: tuple          # rows = maps, columns = torsion fiber elements
    determinant: Cyclotomic
    pieces_checked: int
    truncation: int

    @property
    def nonsingular(self):
        return not self.determinant.is_zero()

    def to_json(self):
        texts = {}

        def text(c):
            # keyed by the stored form: hashing a Cyclotomic demotes it
            key = (c.order, c.num, c.den)
            if key not in texts:
                texts[key] = c.to_text()
            return texts[key]

        return {
            "maps": [{"exponents": list(r), "values": [text(v) for v in vals]}
                     for r, vals in zip(self.exponents, self.values)],
            "matrix": [[text(c) for c in row] for row in self.matrix],
            "determinant": self.determinant.to_text(),
            "nonsingular": self.nonsingular,
            "pieces_checked": self.pieces_checked,
            "truncation": self.truncation,
        }


def character_table_determinant(orders) -> Cyclotomic:
    """Determinant of the character table [prod_i zeta_(o_i)^(r_i f_i)]_(r, f)
    with r, f running over product(range(o) for o in orders).

    The table is the Kronecker product of the Vandermonde matrices
    V(o) = [zeta_o^(r f)], so its determinant is prod_i V(o_i)^(N / o_i)
    with N = prod(orders).  V(o) = prod_(j<k) zeta^j (zeta^(k-j) - 1),
    grouped by the difference d = k - j, which o - d pairs share."""
    total = prod(orders)
    det = Cyclotomic.one()
    for o in orders:
        vandermonde = prod(((Cyclotomic.zeta(o, d) - 1) ** (o - d) for d in range(1, o)),
                           start=Cyclotomic.zeta(o, sum(j * (o - 1 - j) for j in range(o))))
        det = det * vandermonde ** (total // o)
    return det


def character_split(config: PointConfig, truncation=DEFAULT_TRUNCATION) -> SplitCertificate:
    """One evaluation map per torsion character; the joint map is a graded
    bijection on the height-truncated piece of the closure module because
    every graded piece produces the same root-of-unity matrix, checked
    nonsingular by an exact determinant."""
    report = check_hypotheses(config)
    if not report.ok:
        raise HypothesisError("character split requires the standing hypotheses",
                              hypotheses=report.to_json())
    orders = config.group.torsion_orders
    fibers = tuple(product(*(range(o) for o in orders)))
    values = tuple(tuple(Cyclotomic.zeta(o, k) for o, k in zip(orders, r)) for r in fibers)
    # every order divides the last, e, so entry (r, f) is zeta_e^(sum r_i f_i e/o_i)
    e = max(orders, default=1)
    powers = [Cyclotomic.zeta(e, k) for k in range(e)]
    steps = [e // o for o in orders]
    matrix = tuple(tuple(powers[sum(rk * fk * s for rk, fk, s in zip(r, f, steps)) % e]
                         for f in fibers) for r in fibers)
    det = character_table_determinant(orders)
    if det.is_zero():
        raise SplitSingularError("torsion characters failed to separate the fibers",
                                 torsion_orders=orders)
    height = positive_grading(config)
    pieces = cone_points_up_to(config, height, truncation)
    return SplitCertificate(fibers, values, matrix, det, len(pieces), int(truncation))
