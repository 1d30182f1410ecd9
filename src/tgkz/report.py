"""Analysis blocks behind each CLI command, assembled into one JSON report.

Every report is self-describing: it echoes the input hash, the bounds that
were actually used, the effective pair budget, and the volume normalization
(the unit simplex has volume 1).  Serialization sorts keys and prints
polynomials canonically, so repeated runs are byte-identical.
"""

import json

from . import binomials, cones, duality, semigroups, systems
from .errors import HypothesisError, SpecError
from .poly import default_pair_budget, polynomial_to_text
from .problem import ProblemSpec
from .semigroups import K, K_INTERIOR

SCHEMA_VERSION = 1
VOLUME_CONVENTION = "unit_simplex=1"
COMMANDS = ("check", "ideals", "primes", "module", "system", "rank", "dual",
            "report")

# Hand-tabulated answers kept for cross-checking; keyed by torsion orders and
# the column multiset.  When a computed ideal disagrees, the report carries a
# note showing both values instead of silently preferring either.
_TABULATED_FULL_IDEALS = {
    ((4,), (((1,), (1,)), ((1,), (2,)))): ("d1^4 - d2^2", "torsion order 2"),
}


def element_json(g):
    return {"torsion": list(g.torsion), "free": list(g.free)}


def ideal_texts(ideal):
    return [polynomial_to_text(p) for p in ideal.generators]


def character_json(rho):
    return {"basis": [list(r) for r in rho.basis],
            "values": [v.to_text() for v in rho.values]}


def arrangement_json(arr):
    return {
        "dim": arr.dim,
        "pieces": [{"shift": [str(c) for c in p.shift],
                    "span": [list(v) for v in p.span_vectors],
                    "columns": list(p.column_indices)}
                   for p in arr.pieces],
    }


def _discrepancy_notes(config, full_ideal):
    key = (config.group.torsion_orders,
           tuple(sorted((g.torsion, g.free) for g in config.columns)))
    hit = _TABULATED_FULL_IDEALS.get(key)
    if hit is None:
        return []
    tabulated, matches = hit
    computed = ideal_texts(full_ideal)
    if computed == [tabulated]:
        return []
    return [f"full-group toric ideal: computed generators {computed} differ "
            f"from the previously tabulated ({tabulated}), which is the "
            f"answer for {matches}; both values are reported and neither was "
            "silently corrected"]


def ideals_block(spec, notes):
    """The ideals block; a discrepancy with a tabulated ideal joins `notes`."""
    config = spec.config
    full = binomials.toric_ideal_full(config)
    block = {
        "free_toric": ideal_texts(binomials.toric_ideal_free(config)),
        "full_toric": ideal_texts(full),
        "power": ideal_texts(binomials.power_ideal(config)),
        "minimal_primes": primes_block(spec)["primes"],
    }
    notes.extend(_discrepancy_notes(config, full))
    return block


def primes_block(spec):
    pairs = binomials.minimal_primes(spec.config)
    return {
        "count": len(pairs),
        "primes": [{"character": character_json(rho),
                    "generators": ideal_texts(ideal)}
                   for rho, ideal in pairs],
    }


def module_block(spec):
    prim = systems._primitive_set_for(spec.module)
    return {
        "module": spec.module_name,
        "units": [element_json(u) for u in semigroups.units(spec.config)],
        "primitive_generators": [element_json(g) for g in prim.elements],
        "primitive_degrees": [list(dg) for dg in prim.degrees],
    }


def _resolved_binomial_bound(spec, override=None):
    if override is not None:
        return override
    if spec.bounds.get("binomial_degree") is not None:
        return spec.bounds["binomial_degree"]
    return systems.default_binomial_bound(spec.config)


def system_block(spec, bound):
    pres = systems.bbgkz_primitive_presentation(spec.module, spec.beta, bound)
    return pres.to_json()


def _require_standard_module(spec, command):
    if spec.module.kind not in (K, K_INTERIOR):
        raise SpecError(
            f"'{command}' applies to the cone-closure and interior modules "
            "only, not an explicit generator list",
            code="UNSUPPORTED_MODULE")


def rank_block(spec):
    _require_standard_module(spec, "rank")
    return duality.rank_formula(spec.config, spec.module.kind)


def dual_block(spec, bound, truncation):
    _require_standard_module(spec, "dual")
    pres, rep = duality.dual_system(spec.config, spec.beta, bound)
    cert = duality.character_split(spec.config, truncation)
    return {
        "report": rep.to_json(),
        "presentation": pres.to_json(),
        "character_split": cert.to_json(),
    }


def analysis_block(spec, bound, truncation, notes):
    """Parameter analysis for the full report: quasi-degrees, the vanishing
    verdict at the given parameter, the regularity certificate, the rank, and
    the duality payload.  Explicit modules skip the rank/duality entries, and
    say so in `notes`."""
    config = spec.config
    cert = systems.regularity_certificate(config)
    block = {
        "regularity_certificate":
            None if cert is None else [str(c) for c in cert.free_part],
        "quasi_degrees": None,
        "vanishing": None,
        "rank": None,
        "duality": None,
    }
    if spec.module.kind in (K, K_INTERIOR):
        block["quasi_degrees"] = arrangement_json(
            systems.quasi_degrees(config, spec.module.kind))
        block["vanishing"] = systems.vanishing_test(
            config, spec.module.kind, spec.beta)
        block["rank"] = duality.rank_formula(config, spec.module.kind)
        block["duality"] = dual_block(spec, bound, truncation)
    else:
        notes.append("quasi-degree, rank and duality analysis applies to the "
                     "cone-closure and interior modules only; skipped for an "
                     "explicit generator list")
    return block


# the blocks of a command, in order; any other command reports its own block
_COMMAND_BLOCKS = {"check": ("hypotheses",),
                   "report": ("hypotheses", "ideals", "module", "system", "analysis")}


def run_command(spec: ProblemSpec, command, bound=None, workers=None):
    """One command, one JSON-ready dict.

    `check` always reports, even on failing hypotheses; every other command
    refuses to produce output in that case (the refusal invariant).
    """
    if command not in COMMANDS:
        raise SpecError(f"unknown command {command!r}")
    # Worker count is deliberately not echoed: it has no effect, and reports
    # must be byte-identical across worker counts.
    settings = {
        "volume_convention": VOLUME_CONVENTION,
        "pair_budget": default_pair_budget(),
        "bounds": dict(spec.bounds),
    }
    hyp = cones.check_hypotheses(spec.config)
    if command != "check" and not hyp.ok:
        raise HypothesisError(
            "standing hypotheses fail; run 'check' for the diagnosis",
            hypotheses=hyp.to_json())
    if command in ("system", "dual", "report"):
        bound = settings["bounds"]["binomial_degree"] = _resolved_binomial_bound(spec, bound)
    notes = []
    builders = {
        "hypotheses": hyp.to_json,
        "ideals": lambda: ideals_block(spec, notes),
        "primes": lambda: primes_block(spec),
        "module": lambda: module_block(spec),
        "system": lambda: system_block(spec, bound),
        "rank": lambda: rank_block(spec),
        "dual": lambda: dual_block(spec, bound, spec.bounds["truncation"]),
        "analysis": lambda: analysis_block(spec, bound, spec.bounds["truncation"], notes),
    }
    out = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "spec_sha256": spec.sha256,
        "settings": settings,
        "notes": notes,
    }
    for name in _COMMAND_BLOCKS.get(command, (command,)):
        out[name] = builders[name]()
    return out


def render(payload) -> str:
    """`json.dumps(payload, sort_keys=True, indent=2)` + newline, without the
    pure-Python encoder that `indent` selects: dict (str keys), list, tuple,
    str, int, bool and None only, anything else raises TypeError."""
    return _text(payload, "\n") + "\n"


_LEAVES = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
           bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _text(value, nl):
    kind, inner = type(value), nl + "  "
    if kind in _LEAVES:
        return _LEAVES[kind](value)
    if kind is dict:  # a key that is not a str raises TypeError when quoted
        ends, parts = "{}", [f"{_LEAVES[str](key)}: {_text(value[key], inner)}"
                             for key in sorted(value)]
    elif kind is list or kind is tuple:
        kinds = set(map(type, value))
        leaf = _LEAVES.get(kinds.pop()) if len(kinds) == 1 else None
        ends, parts = "[]", (list(map(leaf, value)) if leaf  # joined in one step
                             else [_text(item, inner) for item in value])
    else:
        raise TypeError(f"{kind.__name__} is not JSON serializable")
    return f"{ends[0]}{inner}{(',' + inner).join(parts)}{nl}{ends[1]}" if parts else ends
