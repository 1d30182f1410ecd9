import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tgkz import binomials, cones, duality, lattice, poly, problem, semigroups, systems
from tgkz._value import frozen

ROOT = Path(__file__).resolve().parent.parent


# The 17 frozen value classes, in the order the samples fixture builds them.
CLASSES = [
    "SmithDecomposition", "AbelianGroup", "GroupElement", "Functional",
    "PointConfig", "Face", "AffinePiece", "Arrangement", "HypothesesReport",
    "PartialCharacter", "IdealBasis", "SemigroupModule", "PrimitiveSet",
    "SystemPresentation", "DualityReport", "SplitCertificate", "ProblemSpec",
]


@pytest.fixture(scope="module")
def samples():
    """One instance of every frozen value class, from the mod4_line spec,
    by class name.  Built when a test first asks, not at collection."""
    text = (ROOT / "sample_specs" / "mod4_line.json").read_text(encoding="utf-8")
    spec = problem.parse_spec(text)
    config = spec.config
    arrangement = systems.quasi_degrees(config, semigroups.K)
    presentation, report = duality.dual_system(config, spec.beta)
    rows = binomials.free_kernel_rows(config)
    objs = [
        lattice.smith_normal_form(((2, 4), (6, 8))), spec.group, config.columns[0],
        lattice.Functional.of([1, 2]), config, cones.face_lattice(config)[0],
        arrangement.pieces[0], arrangement, cones.check_hypotheses(config),
        binomials.PartialCharacter.on_rows(rows, [-1] * len(rows), config.n),
        binomials.toric_ideal_free(config), spec.module,
        semigroups.module_generators(spec.module), presentation, report,
        duality.character_split(config), spec,
    ]
    return {type(obj).__name__: obj for obj in objs}


def test_import_loads_no_dataclasses_inspect_or_typing():
    code = ("import sys, tgkz; print(sorted({'dataclasses', 'inspect', 'typing'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert out.stdout.strip() == "[]"


def test_samples_cover_every_value_class(samples):
    sources = [module.__file__ for module in
               (lattice, cones, binomials, poly, semigroups, systems, duality, problem)]
    decorated = sum(Path(p).read_text(encoding="utf-8").count("\n@frozen\n") for p in sources)
    assert list(samples) == CLASSES and len(CLASSES) == decorated == 17


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # ProblemSpec holds its bounds in a dict
        return type(exc)


@pytest.mark.parametrize("name", CLASSES)
def test_value_class_behaves_as_frozen_dataclass(samples, name):
    obj = samples[name]
    cls = type(obj)
    names = list(cls.__annotations__)
    values = [getattr(obj, n) for n in names]
    with pytest.raises(AttributeError):
        setattr(obj, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(obj, names[0])
    same = cls(*values)
    assert same == obj and not same != obj
    assert _hash_or_error(same) == _hash_or_error(obj) == _hash_or_error(tuple(values))
    twin = frozen(type(cls.__name__, (), {"__annotations__": dict(cls.__annotations__)}))
    assert twin(*values) != obj and obj != twin(*values)
    oracle = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
    assert repr(obj) == repr(oracle(*values)) == repr(twin(*values))



def test_fields_read_from_lazily_evaluated_annotations():
    # From Python 3.14 (PEP 649) a class's annotations are not in its
    # __dict__ and appear only on access to __annotations__; a metaclass
    # property gives the same shape on older versions.
    class Lazy(type):
        @property
        def __annotations__(cls):
            return {"a": int, "b": int}

    class Pair(metaclass=Lazy):
        b = 2

    assert "__annotations__" not in Pair.__dict__
    pair = frozen(Pair)(1)
    assert (pair.a, pair.b) == (1, 2) and repr(pair) == f"{Pair.__qualname__}(a=1, b=2)"
    assert pair == Pair(1, 2) != Pair(1, 3)
