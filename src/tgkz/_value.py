"""Frozen value classes without the ``dataclasses`` import.

``@frozen`` gives a class with annotated fields what
``dataclass(frozen=True)`` gives it: ``__init__`` (defaults, then
``__post_init__``), ``__eq__`` (same class only), ``__hash__`` (of the field
tuple), ``__repr__`` and a ``__setattr__``/``__delattr__`` that raise.

Each CLI call is one process whose jobs take less time than starting it.
On Python 3.11 (2 vCPUs), importing ``dataclasses`` takes about 10 ms (it
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``) and decorating a
class 0.7-1 ms, one ``exec`` per method.  Here one ``exec`` per class takes
about 0.3 ms and builds the same straight-line methods, so instances cost
what they did.  ``import tgkz`` went from about 48 ms to 27 ms with its 18
value classes on this decorator (``-X importtime``, median of 15 runs); 17
remain since integer matrices became tuples of rows.
"""


def frozen(cls):
    """Give ``cls`` the methods of ``dataclass(frozen=True)`` for the
    fields annotated in its body, in order.  A class attribute of the same
    name is the field's default."""
    # Not cls.__dict__["__annotations__"]: from Python 3.14 (PEP 649) class
    # annotations are evaluated on first access and are not in the dict.
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    env = {"__name__": cls.__module__, "_set": object.__setattr__, "_d": defaults}
    params = ", ".join(f"{n}=_d[{n!r}]" if n in defaults else n for n in names)
    init = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        init.append("self.__post_init__()")
    fields = "".join(f"self.{n}," for n in names)
    others = "".join(f"other.{n}," for n in names)
    reprs = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    source = f"""
def __init__(self, {params}):
  {'; '.join(init) or 'pass'}
def __eq__(self, other):
  if other.__class__ is self.__class__:
    return ({fields}) == ({others})
  return NotImplemented
def __hash__(self):
  return hash(({fields}))
def __repr__(self):
  return f"{{self.__class__.__qualname__}}({reprs})"
def __setattr__(self, name, value):
  raise AttributeError(f"cannot assign to field {{name!r}}")
def __delattr__(self, name):
  raise AttributeError(f"cannot delete field {{name!r}}")
"""
    exec(source, env)
    for method in ("__init__", "__eq__", "__hash__", "__repr__",
                   "__setattr__", "__delattr__"):
        fn = env[method]
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, fn)
    return cls
