"""Expression trees over the named series, with a precision-planning evaluator.

An identity is stated as a pair of trees; ``evaluate(tree, T)`` expands it
exactly through at least q^T.  Each node's ``valuation()`` predicts its
valuation (exact for quotient-type leaves, a safe lower bound elsewhere),
and its ``expand(T, m)`` derives from its children's predictions the order
each child must be computed to.  If a prediction was too low for an
inverted subtree, the result window falls short and the final coverage
check raises InsufficientPrecision -- a wrong answer is never returned.

``Dissect(child, m, j)`` through q^T asks its child for whole blocks of m
coefficients, through q^(m T + m - 1) whatever j is, so the classes of one
series ask the builders' caches for one window; the dissected window is
still exactly [0, T].
"""

from __future__ import annotations

from functools import reduce

from .series import InsufficientPrecision, LaurentSeries
from .products import (BILATERAL_SUMS, FQuotientSpec, bilateral,
                       cubic_theta_alpha, fquotient, h_level12)
from .records import FrozenRecord


class SeriesExpr(FrozenRecord):
    """Base class; nodes are frozen records (``records.FrozenRecord``),
    whose ``_fields`` the JSON form walks in declared order.  A field
    that does not hold its annotated kind (``_KINDS``) raises ValueError."""

    __slots__ = ()

    def __post_init__(self):
        for name, kind in type(self).__annotations__.items():
            if not _KINDS[kind](getattr(self, name)):
                raise ValueError(f"{type(self).__name__.lower()} node: {name} "
                                 f"must be {kind}, got {getattr(self, name)!r}")

    def valuation(self):
        raise TypeError(f"not a series expression: {self!r}")

    def expand(self, T, m):
        raise TypeError(f"not a series expression: {self!r}")


#: a node field's annotation (its text: this module postpones annotations)
#: -> the test the field's value passes; a bool is not an int
_KINDS = {
    "int": lambda v: type(v) is int,
    "str": lambda v: type(v) is str,
    "tuple": lambda v: type(v) is tuple and v != () and all(
        isinstance(t, SeriesExpr) for t in v),
    "SeriesExpr": lambda v: isinstance(v, SeriesExpr),
    "FQuotientSpec": lambda v: isinstance(v, FQuotientSpec),
}


class FQuot(SeriesExpr):
    spec: FQuotientSpec

    def valuation(self):
        return self.spec.qshift

    def expand(self, T, m):
        return fquotient(self.spec, max(T, self.spec.qshift), m)


#: the series a ``Named`` node can name: name -> (valuation, builder), where
#: ``builder(T, modulus)`` expands the series through q^T for T >= its
#: valuation.  The builders look their function up by name when called, so
#: a wrapper bound to that name (the benchmark's tracer) sees every call.
NAMED_SERIES = {
    "alpha": (0, lambda T, m: cubic_theta_alpha(T, m)),
    "h": (1, lambda T, m: h_level12(T, m)),
    **{name: (0, lambda T, m, s=s: bilateral(s, T, m))
       for name, s in BILATERAL_SUMS.items()},
}


class Named(SeriesExpr):
    name: str

    def __post_init__(self):
        super().__post_init__()
        if self.name not in NAMED_SERIES:
            raise ValueError(f"named node: unknown series {self.name!r}; "
                             f"known: {', '.join(NAMED_SERIES)}")

    def valuation(self):
        return NAMED_SERIES[self.name][0]

    def expand(self, T, m):
        v, build = NAMED_SERIES[self.name]
        return build(max(T, v), m)


class Literal(SeriesExpr):
    value: int

    def valuation(self):
        return 0

    def expand(self, T, m):
        return LaurentSeries.constant(self.value, max(T, 0), m)


class Add(SeriesExpr):
    terms: tuple

    def valuation(self):
        return min(t.valuation() for t in self.terms)

    def expand(self, T, m):
        return reduce(LaurentSeries.add, [t.expand(T, m) for t in self.terms])


class Mul(SeriesExpr):
    factors: tuple

    def valuation(self):
        return sum(f.valuation() for f in self.factors)

    def expand(self, T, m):
        vs = [f.valuation() for f in self.factors]
        return reduce(LaurentSeries.mul, [f.expand(T - (sum(vs) - v), m)
                                          for f, v in zip(self.factors, vs)])


class Pow(SeriesExpr):
    base: SeriesExpr
    exponent: int

    def valuation(self):
        return self.exponent * self.base.valuation()

    def expand(self, T, m):
        # one plan for both signs: LaurentSeries.pow inverts when e < 0
        e = self.exponent
        if e == 0:
            return LaurentSeries.one(max(T, 0), m)
        return self.base.expand(T - (e - 1) * self.base.valuation(), m).pow(e)


class Scale(SeriesExpr):
    by: int
    child: SeriesExpr

    def valuation(self):
        return self.child.valuation()

    def expand(self, T, m):
        return self.child.expand(T, m).scale(self.by)


class Shift(SeriesExpr):
    by: int
    child: SeriesExpr

    def valuation(self):
        return self.by + self.child.valuation()

    def expand(self, T, m):
        return self.child.expand(T - self.by, m).shift(self.by)


class Subst(SeriesExpr):
    power: int
    child: SeriesExpr

    def __post_init__(self):
        super().__post_init__()
        if self.power < 1:
            raise ValueError(f"subst node: power must be >= 1, got {self.power}")

    def valuation(self):
        return self.power * self.child.valuation()

    def expand(self, T, m):
        return self.child.expand(max(T // self.power, 0), m).substitute(self.power)


class Dissect(SeriesExpr):
    child: SeriesExpr
    mod: int
    residue: int

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.residue < self.mod:
            raise ValueError(f"dissect node: need 0 <= residue < mod, got "
                             f"residue {self.residue}, mod {self.mod}")

    def valuation(self):
        return 0

    def expand(self, T, m):
        k = self.mod
        return self.child.expand(max(k * T + k - 1, 0), m).dissect(k, self.residue)


def fq(factors, qshift=0):
    return FQuot(FQuotientSpec.of(factors, qshift))


def add(*terms):
    return Add(tuple(terms))


def mul(*factors):
    return Mul(tuple(factors))


def alpha_q(k):
    """The cubic theta with argument q^k."""
    return Subst(k, Named("alpha"))


def poly_in(base, coeffs):
    """sum coeffs[i] * base^i, skipping zero coefficients."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(Literal(c))
            continue
        t = base if i == 1 else Pow(base, i)
        terms.append(t if c == 1 else Scale(c, t))
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def evaluate(e, T, modulus=None):
    """Expand the expression exactly through at least q^T."""
    if not isinstance(e, SeriesExpr):
        raise TypeError(f"not a series expression: {e!r}")
    s = e.expand(T, modulus)
    if s.known_through < T:
        raise InsufficientPrecision(
            f"insufficient precision: evaluation reached q^{s.known_through}, "
            f"needed q^{T} (a valuation prediction was too low)")
    return s


# -- JSON form ----------------------------------------------------------------

#: op -> node class; a node's op is its class name in lower case
_NODES = {cls.__name__.lower(): cls for cls in SeriesExpr.__subclasses__()}


def expr_to_dict(e):
    """Documented JSON schema for expression trees (see README): ``op`` and
    the node's fields, except that ``fquot`` spells out its spec."""
    if isinstance(e, FQuot):
        d = {"op": "fquot", "factors": {str(k): v for k, v in e.spec.factors}}
        if e.spec.qshift:
            d["qshift"] = e.spec.qshift
        return d
    if not isinstance(e, SeriesExpr):
        raise TypeError(f"not a series expression: {e!r}")
    d = {"op": type(e).__name__.lower()}
    for name in e._fields:
        v = getattr(e, name)
        d[name] = (expr_to_dict(v) if isinstance(v, SeriesExpr) else
                   list(map(expr_to_dict, v)) if isinstance(v, tuple) else v)
    return d


def _f_index(key):
    """The f-index d of an ``fquot`` key, which must be ``str(d)``: ``"03"``,
    ``" 3"``, ``"+3"`` or ``"1_0"`` would let two keys name one index."""
    try:
        if str(int(key)) == key:
            return int(key)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"fquot node: factor key must be an integer written "
                     f"as str(d), got {key!r}")


def expr_from_dict(d):
    """Parse the JSON form back; a malformed node raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"expression node is not an object: {d!r}")
    op = d.get("op")
    if op != "fquot" and op not in _NODES:
        raise ValueError(f"unknown expression op {op!r}")
    cls = _NODES.get(op)
    missing = [k for k in (("factors",) if op == "fquot" else cls._fields)
               if k not in d]
    if missing:
        raise ValueError(f"{op} node without {', '.join(missing)}: {d!r}")
    if op == "fquot":
        if not isinstance(d["factors"], dict):
            raise ValueError(f"fquot node: factors must map d to an exponent: {d!r}")
        # the spec record checks the exponents and the shift
        return fq({_f_index(k): v for k, v in d["factors"].items()},
                  d.get("qshift", 0))
    return cls(*(expr_from_dict(v) if isinstance(v, dict) else
                 tuple(map(expr_from_dict, v)) if isinstance(v, list) else v
                 for v in map(d.__getitem__, cls._fields)))
