"""Expression trees over the named series, with a precision-planning evaluator.

An identity is stated as a pair of trees; ``evaluate(tree, T)`` expands it
exactly through at least q^T.  A pre-pass predicts every node's valuation
(exact for quotient-type leaves, a safe lower bound elsewhere) and from it
derives the order each child must be computed to.  If a prediction was too
low for an inverted subtree, the result window falls short and the final
coverage check raises InsufficientPrecision -- a wrong answer is never
returned.

``Dissect(child, m, j)`` through q^T asks its child for whole blocks of m
coefficients, through q^(m T + m - 1) whatever j is, so the classes of one
series ask the builders' caches for one window; the dissected window is
still exactly [0, T].
"""

from __future__ import annotations

from .series import InsufficientPrecision, LaurentSeries
from .products import (BILATERAL_SUMS, FQuotientSpec, bilateral,
                       cubic_theta_alpha, fquotient, h_level12)
from .records import FrozenRecord


class SeriesExpr(FrozenRecord):
    """Base class; nodes are frozen records (``records.FrozenRecord``),
    whose ``_fields`` the JSON form walks in declared order."""

    __slots__ = ()


class FQuot(SeriesExpr):
    spec: FQuotientSpec


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
        if self.name not in NAMED_SERIES:
            raise ValueError(f"named node: unknown series {self.name!r}; "
                             f"known: {', '.join(NAMED_SERIES)}")


class Literal(SeriesExpr):
    value: int


class Add(SeriesExpr):
    terms: tuple


class Mul(SeriesExpr):
    factors: tuple


class Pow(SeriesExpr):
    base: SeriesExpr
    exponent: int


class Scale(SeriesExpr):
    by: int
    child: SeriesExpr


class Shift(SeriesExpr):
    by: int
    child: SeriesExpr


class Subst(SeriesExpr):
    power: int
    child: SeriesExpr


class Dissect(SeriesExpr):
    child: SeriesExpr
    mod: int
    residue: int


def fq(factors, qshift=0):
    return FQuot(FQuotientSpec.of(factors, qshift))


def add(*terms):
    return Add(tuple(terms))


def mul(*factors):
    return Mul(tuple(factors))


def alpha_q(k=1):
    """The cubic theta with argument q^k."""
    return Named("alpha") if k == 1 else Subst(k, Named("alpha"))


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


def predicted_valuation(e):
    """Valuation prediction used for precision planning.

    Exact for f-quotients, the named series, and products/powers of them;
    a lower bound wherever an addition might cancel leading terms.
    """
    if isinstance(e, FQuot):
        return e.spec.qshift
    if isinstance(e, Named):
        return NAMED_SERIES[e.name][0]
    if isinstance(e, Literal):
        return 0
    if isinstance(e, Add):
        return min(predicted_valuation(t) for t in e.terms)
    if isinstance(e, Mul):
        return sum(predicted_valuation(f) for f in e.factors)
    if isinstance(e, Pow):
        return e.exponent * predicted_valuation(e.base)
    if isinstance(e, Scale):
        return predicted_valuation(e.child)
    if isinstance(e, Shift):
        return e.by + predicted_valuation(e.child)
    if isinstance(e, Subst):
        return e.power * predicted_valuation(e.child)
    if isinstance(e, Dissect):
        return 0
    raise TypeError(f"not a series expression: {e!r}")


def _eval(e, T, m):
    if isinstance(e, FQuot):
        return fquotient(e.spec, max(T, e.spec.qshift), m)
    if isinstance(e, Named):
        v, build = NAMED_SERIES[e.name]
        return build(max(T, v), m)
    if isinstance(e, Literal):
        return LaurentSeries.constant(e.value, max(T, 0), m)
    if isinstance(e, Add):
        parts = [_eval(t, T, m) for t in e.terms]
        r = parts[0]
        for p in parts[1:]:
            r = r.add(p)
        return r
    if isinstance(e, Mul):
        vs = [predicted_valuation(f) for f in e.factors]
        vtot = sum(vs)
        r = None
        for f, v in zip(e.factors, vs):
            s = _eval(f, T - (vtot - v), m)
            r = s if r is None else r.mul(s)
        return r
    if isinstance(e, Pow):
        vb = predicted_valuation(e.base)
        if e.exponent == 0:
            return LaurentSeries.one(max(T, 0), m)
        if e.exponent > 0:
            return _eval(e.base, T - (e.exponent - 1) * vb, m).pow(e.exponent)
        n = -e.exponent
        return _eval(e.base, (T + 2 * n * vb) - (n - 1) * vb, m).pow(n).invert()
    if isinstance(e, Scale):
        return _eval(e.child, T, m).scale(e.by)
    if isinstance(e, Shift):
        return _eval(e.child, T - e.by, m).shift(e.by)
    if isinstance(e, Subst):
        return _eval(e.child, max(T // e.power, 0), m).substitute(e.power)
    if isinstance(e, Dissect):
        return _eval(e.child, max(e.mod * T + e.mod - 1, 0), m).dissect(e.mod, e.residue)
    raise TypeError(f"not a series expression: {e!r}")


def evaluate(e, T, modulus=None):
    """Expand the expression exactly through at least q^T."""
    s = _eval(e, T, modulus)
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


def expr_from_dict(d):
    """Parse the JSON form back; a malformed node raises ValueError."""
    op = d.get("op")
    if op != "fquot" and op not in _NODES:
        raise ValueError(f"unknown expression op {op!r}")
    cls = _NODES.get(op)
    missing = [k for k in (("factors",) if op == "fquot" else cls._fields)
               if k not in d]
    if missing:
        raise ValueError(f"{op} node without {', '.join(missing)}: {d!r}")
    if op == "fquot":
        return fq({int(k): v for k, v in d["factors"].items()}, d.get("qshift", 0))
    return cls(*(expr_from_dict(v) if isinstance(v, dict) else
                 tuple(map(expr_from_dict, v)) if isinstance(v, list) else v
                 for v in map(d.__getitem__, cls._fields)))
