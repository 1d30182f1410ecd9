"""Problem specifications: the JSON input format of the batch CLI.

A spec names the ambient group (torsion orders + free rank inferred from the
columns), the columns, the parameter vector, the module to analyze, and
optional bounds.  Parsing is strict: structural problems are MALFORMED,
length problems are DIMENSION_MISMATCH, and parameter entries outside the
supported exact scalars are UNSUPPORTED_CHARACTER_VALUE.
"""

import hashlib
import json

from ._value import frozen
from .cones import PointConfig
from .cyclotomic import Cyclotomic
from .duality import DEFAULT_TRUNCATION
from .errors import SpecError
from .lattice import AbelianGroup
from .poly import parse_scalar
from .semigroups import EXPLICIT, K, K_INTERIOR, SemigroupModule

MODULE_NAMES = {"K": K, "K_interior": K_INTERIOR}

DEFAULT_BOUNDS = {
    "h_degree": None,          # echoed in settings.bounds; read by no command
    "binomial_degree": None,   # resolved per run: default_binomial_bound
    "truncation": DEFAULT_TRUNCATION,
}


@frozen
class ProblemSpec:
    group: AbelianGroup
    config: PointConfig
    beta: tuple
    module: SemigroupModule
    bounds: dict
    sha256: str

    @property
    def module_name(self):
        if self.module.kind == EXPLICIT:
            return "explicit"
        return {K: "K", K_INTERIOR: "K_interior"}[self.module.kind]


def _require(cond, message, code="MALFORMED", **ctx):
    if not cond:
        raise SpecError(message, code=code, **ctx)


def _int_list(value, what):
    _require(isinstance(value, list) and
             all(isinstance(x, int) and not isinstance(x, bool) for x in value),
             f"{what} must be a list of integers", field=what)
    return value


def _parse_element(entry, group, what):
    _require(isinstance(entry, dict) and set(entry) == {"torsion", "free"},
             f"{what} must be an object with 'torsion' and 'free'", field=what)
    torsion = _int_list(entry["torsion"], f"{what}.torsion")
    free = _int_list(entry["free"], f"{what}.free")
    _require(len(torsion) == group.torsion_rank,
             f"{what}.torsion must have {group.torsion_rank} entries",
             code="DIMENSION_MISMATCH", field=what)
    _require(len(free) == group.free_rank,
             f"{what}.free must have {group.free_rank} entries",
             code="DIMENSION_MISMATCH", field=what)
    return group.element(torsion, free)


def _parse_beta_entry(value, position):
    if isinstance(value, bool):
        raise SpecError(f"beta[{position}] must be a number or exact-scalar string",
                        field="beta")
    if isinstance(value, int):
        return Cyclotomic.rational(value)
    if isinstance(value, str):
        try:
            scalar = parse_scalar(value)
        except Exception as exc:
            raise SpecError(f"beta[{position}]: cannot parse {value!r}: {exc}",
                            code="UNSUPPORTED_CHARACTER_VALUE", field="beta")
        if not scalar.is_rational() and scalar.unit_rational_form() is None:
            raise SpecError(
                f"beta[{position}]: {value!r} is not a rational multiple of a "
                "root of unity", code="UNSUPPORTED_CHARACTER_VALUE", field="beta")
        return scalar
    raise SpecError(f"beta[{position}] must be an integer or string",
                    field="beta")


def parse_spec(text: str) -> ProblemSpec:
    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}", field=None)
    _require(isinstance(raw, dict), "spec must be a JSON object")
    unknown = set(raw) - {"torsion_orders", "columns", "beta", "module", "bounds"}
    _require(not unknown, f"unknown fields: {sorted(unknown)}")
    _require("columns" in raw and "beta" in raw, "spec needs 'columns' and 'beta'")

    orders = raw.get("torsion_orders", [])
    _int_list(orders, "torsion_orders")
    _require(all(o >= 2 for o in orders),
             "torsion orders must be >= 2", field="torsion_orders")
    _require(all(orders[i + 1] % orders[i] == 0 for i in range(len(orders) - 1)),
             "torsion orders must form a divisibility chain",
             field="torsion_orders")

    columns_raw = raw["columns"]
    _require(isinstance(columns_raw, list) and columns_raw,
             "columns must be a non-empty list", field="columns")
    first = columns_raw[0]
    _require(isinstance(first, dict) and "free" in first and
             isinstance(first["free"], list) and first["free"],
             "columns[0] must carry a non-empty 'free' list", field="columns")
    d = len(first["free"])
    group = AbelianGroup(tuple(orders), d)
    columns = tuple(_parse_element(c, group, f"columns[{i}]")
                    for i, c in enumerate(columns_raw))
    config = PointConfig(group, columns)

    beta_raw = raw["beta"]
    _require(isinstance(beta_raw, list), "beta must be a list", field="beta")
    _require(len(beta_raw) == d, f"beta must have {d} entries",
             code="DIMENSION_MISMATCH", field="beta")
    beta = tuple(_parse_beta_entry(b, i) for i, b in enumerate(beta_raw))

    module_raw = raw.get("module", "K")
    if isinstance(module_raw, str):
        _require(module_raw in MODULE_NAMES,
                 f"module must be one of {sorted(MODULE_NAMES)} or a generator list",
                 field="module")
        module = SemigroupModule(MODULE_NAMES[module_raw], config)
    else:
        _require(isinstance(module_raw, list) and module_raw,
                 "module must be a name or a non-empty generator list",
                 field="module")
        gens = tuple(_parse_element(e, group, f"module[{i}]")
                     for i, e in enumerate(module_raw))
        try:
            module = SemigroupModule(EXPLICIT, config, gens)
        except ValueError as exc:
            raise SpecError(str(exc), field="module")

    bounds = dict(DEFAULT_BOUNDS)
    bounds_raw = raw.get("bounds", {})
    _require(isinstance(bounds_raw, dict), "bounds must be an object",
             field="bounds")
    unknown = set(bounds_raw) - set(DEFAULT_BOUNDS)
    _require(not unknown, f"unknown bounds: {sorted(unknown)}", field="bounds")
    for key, value in bounds_raw.items():
        _require(isinstance(value, int) and not isinstance(value, bool)
                 and value >= 0,
                 f"bounds.{key} must be a nonnegative integer", field="bounds")
        bounds[key] = value

    return ProblemSpec(group, config, beta, module, bounds, sha)
