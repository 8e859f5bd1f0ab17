"""Expression trees: the symbolic currency of the whole package.

Nodes are immutable and hashable; structural equality is field equality.
A node with children keeps its hash and its sort key in two slots, and a
third slot marks a node that simplify has returned, so simplify hands it
back as it is.  The three exist from construction (and from unpickling or
copying) and hold None, None and False until first use fills them, so a
read is a plain test, never a caught miss.  None of the three takes part
in equality, hash, repr or pickled state; the hash is the dataclass hash
of the field tuple, so its values (and with them dict and set order) are
those of an uncached node.
Division is spelled Mul(a, Pow(b, -1)) and subtraction Add(a, Neg(b)), so
there are only seven node kinds.  Exact constants are kept until numeric
evaluation: an integral one as an int, any other as a fractions.Fraction
(an int hashes, compares and prints as the Fraction equal to it, and costs
less); floats are contagious once introduced.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

NumberLike = Union[int, float, Fraction]

# the grammar's functions with their one numeric meaning (evaluation, folding)
FUNCTIONS = {fn: getattr(np, fn) for fn in ("exp", "log", "sin", "cos", "sqrt")}


class Expr:
    """Base class; arithmetic operators build raw (uncanonicalized) trees
    (those of simplify.Canon build canonical ones)."""

    __slots__ = ()

    def __add__(self, other):
        return Add((self, coerce(other)))

    def __radd__(self, other):
        return Add((coerce(other), self))

    def __sub__(self, other):
        return Add((self, neg(coerce(other))))

    def __rsub__(self, other):
        return Add((coerce(other), neg(self)))

    def __mul__(self, other):
        return Mul((self, coerce(other)))

    def __rmul__(self, other):
        return Mul((coerce(other), self))

    def __truediv__(self, other):
        return Mul((self, Pow(coerce(other), MINUS_ONE)))

    def __rtruediv__(self, other):
        return Mul((coerce(other), Pow(self, MINUS_ONE)))

    def __pow__(self, other):
        return Pow(self, coerce(other))

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_text(self)


class _Branch(Expr):
    """A node with children.  Its hash and sort key walk the whole subtree
    (with a modular pow for each non-integral Fraction in it) and simplify
    asks for them again and again, so each is kept once computed (see
    _node, sort_key).
    _canon is set on every node simplify returns: simplify is idempotent, so
    a marked tree is its own canonical form (see simplify.simplify).
    The slots exist from construction: __post_init__, which the dataclass
    __init__ calls, sets them to None, None and False (unset), and _node's
    __setstate__ does the same for an unpickled or copied node.  They take
    no part in ==, hash, repr or pickled state, which hold the fields only.
    Leaves (Const, Var) keep none: theirs cost O(1), and a cache on every
    leaf would cost memory on ~40% of the live nodes."""

    __slots__ = ("_hash", "_key", "_canon")

    def __post_init__(self):
        _set_hash(self, None)
        _set_key(self, None)
        _set_canon(self, False)


# the slots' own setters: they write past the frozen dataclass __setattr__
_set_hash = _Branch._hash.__set__
_set_key = _Branch._key.__set__
_set_canon = _Branch._canon.__set__


def _node(cls):
    """Frozen slotted dataclass whose generated hash is computed only once,
    and whose unpickled or copied instances start with the slots unset."""
    cls = dataclass(frozen=True, slots=True)(cls)
    field_hash = cls.__hash__
    field_setstate = cls.__setstate__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = field_hash(self)
            _set_hash(self, h)
        return h

    def __setstate__(self, state):
        field_setstate(self, state)
        self.__post_init__()

    cls.__hash__ = __hash__
    cls.__setstate__ = __setstate__
    return cls


@dataclass(frozen=True, slots=True)
class Const(Expr):
    """A number: an int when it is exact and integral, a Fraction when it is
    exact otherwise, a finite float when it is not exact."""

    value: Union[int, Fraction, float]

    def __post_init__(self):
        v = self.value
        if type(v) is int:
            return
        if isinstance(v, bool) or not isinstance(v, (int, Fraction, float)):
            raise TypeError(f"Const value must be a number, got {type(v).__name__}")
        if isinstance(v, float):
            if not math.isfinite(v):
                raise ValueError("Const value must be finite")
        elif v.denominator == 1:  # an integral Fraction, or an int subclass
            object.__setattr__(self, "value", int(v))

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.value, float)


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str

    def __post_init__(self):
        if not self.name or not self.name[0].isalpha():
            raise ValueError(f"invalid variable name {self.name!r}")


@_node
class Add(_Branch):
    terms: tuple


@_node
class Mul(_Branch):
    factors: tuple


@_node
class Pow(_Branch):
    base: Expr
    exponent: Expr


@_node
class Neg(_Branch):
    child: Expr


@_node
class Call(_Branch):
    fn: str
    arg: Expr

    def __post_init__(self):
        if self.fn not in FUNCTIONS:
            raise ValueError(f"unknown function {self.fn!r}")
        _Branch.__post_init__(self)


ZERO = Const(0)
ONE = Const(1)
MINUS_ONE = Const(-1)  # the exponent of every division


def coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, Fraction)):
        return Const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def num(x: NumberLike, name: str = "") -> Const:
    """Exact constant from a number; floats go through their shortest decimal.

    Keeps coefficient arithmetic exact even when parameters arrive as floats
    (Fraction(str(0.1)) is 1/10, not the 2**-55 neighbour).  Anything else
    is malformed input: ValueError, its message prefixed with `name` (the
    input field being read) when one is given.
    """
    where = f"{name}: " if name else ""
    if isinstance(x, bool):
        raise ValueError(f"{where}bool is not a number here")
    if isinstance(x, (int, Fraction)):
        if abs(x) > sys.float_info.max:
            raise ValueError(f"{where}number beyond the float range")
        return Const(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"{where}must be a finite number")
        return Const(Fraction(str(x)))
    raise ValueError(f"{where}expected a number, got {type(x).__name__}")


def neg(e: Expr) -> Expr:
    """Negate, folding constants so that -5 is a Const, not Neg(Const)."""
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.child
    return Neg(e)


def Exp(arg) -> Call:
    return Call("exp", coerce(arg))


def Sin(arg) -> Call:
    return Call("sin", coerce(arg))


def Cos(arg) -> Call:
    return Call("cos", coerce(arg))


def children(e: Expr) -> tuple:
    """The child nodes of e, in field order; () for a leaf."""
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base, e.exponent)
    if isinstance(e, Neg):
        return (e.child,)
    if isinstance(e, Call):
        return (e.arg,)
    if isinstance(e, (Const, Var)):
        return ()
    raise TypeError(f"not an Expr: {e!r}")


def free_vars(e: Expr) -> frozenset:
    names, stack = set(), [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            names.add(e.name)
        else:
            stack.extend(children(e))
    return frozenset(names)


def check_vars(e: Expr, allowed: tuple, name: str, when: str = "") -> None:
    """Raise ValueError, prefixed with `name` (the input field e was read
    from) and saying `when` the variables were checked, unless every free
    variable of e is in `allowed`."""
    bad = free_vars(e) - set(allowed)
    if bad:
        raise ValueError(f"{name}: may only use {' and '.join(allowed)}"
                         f"{when}, found {sorted(bad)}")


def node_count(e: Expr) -> int:
    return 1 + sum(map(node_count, children(e)))


def sort_key(e: Expr):
    """Total order over trees; used to canonicalize Add/Mul child order.

    Flat: the kind tag, then the node's own fields, then its children's keys
    inline, e.g. (5, k1, k2, ...) for a Mul; computed once per branch node.
    It orders exactly as (tag, name, (numbers), (child keys)) would.
    Exact: two trees have equal keys only when they are the same tree down
    to the type of each constant, so Const(0.5) and Const(Fraction(1, 2)),
    or 0.0 and -0.0, differ here although they are == (see simplify's memo).
    An exact constant's key holds its numerator and denominator, so an int
    n has the key (0, n, 0.0, n, 1) a Fraction equal to it would have.
    """
    if isinstance(e, Const):
        v = e.value
        if type(v) is int:
            return (0, v, 0.0, v, 1)
        if isinstance(v, float):
            return (0, v, 1.0, math.copysign(1.0, v), 0.0)
        # Fractions, ints and floats compare exactly with one another
        return (0, v, 0.0, v.numerator, v.denominator)
    if isinstance(e, Var):
        return (1, e.name)
    if not isinstance(e, _Branch):
        raise TypeError(f"not an Expr: {e!r}")
    key = e._key
    if key is not None:
        return key
    if isinstance(e, Call):
        key = (2, e.fn, sort_key(e.arg))
    elif isinstance(e, Pow):
        key = (3, sort_key(e.base), sort_key(e.exponent))
    elif isinstance(e, Neg):
        key = (4, sort_key(e.child))
    elif isinstance(e, Mul):
        key = (5, *map(sort_key, e.factors))
    else:
        key = (6, *map(sort_key, e.terms))
    _set_key(e, key)
    return key


def _const_text(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if v.denominator == 1:
        return str(v.numerator)
    # exact decimal when the denominator is 2^a * 5^b (as <digits>e-<k>
    # when that is shorter), else p/q (reparses as Mul(p, Pow(q, -1)),
    # numerically equal)
    den = v.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{v.numerator}/{v.denominator}"
    k = max(twos, fives)
    scaled = v.numerator * 10**k // v.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled))
    if len(digits) + 2 + len(str(k)) < max(len(digits), k + 1) + 1:
        return f"{sign}{digits}e-{k}"
    digits = digits.rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def _atom_text(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({to_text(e.arg)})"
    if isinstance(e, Const) and e.value >= 0:
        return _const_text(e.value)
    return f"({to_text(e)})"


def _pow_text(e: Pow) -> str:
    base = _atom_text(e.base)
    x = e.exponent
    if isinstance(x, Const):
        ex = _const_text(x.value)
        if "/" in ex:  # p/q would parse as (b^p)/q
            ex = f"({ex})"
    elif isinstance(x, (Var, Call, Pow)):
        ex = _factor_text(x)
    elif isinstance(x, Neg):
        ex = "-" + _atom_text(x.child)
    else:
        ex = f"({to_text(x)})"
    return f"{base}^{ex}"


def _factor_text(e: Expr) -> str:
    if isinstance(e, Pow):
        return _pow_text(e)
    if isinstance(e, Const):
        return _const_text(e.value)
    if isinstance(e, Neg):
        return "-" + _atom_text(e.child)
    return _atom_text(e)


def _term_text(e: Expr) -> str:
    if not isinstance(e, Mul):
        return _factor_text(e)
    parts = [_factor_text(e.factors[0])]
    for f in e.factors[1:]:
        if isinstance(f, Pow) and f.exponent == MINUS_ONE:
            parts.append("/" + _factor_text(f.base))
        else:
            parts.append("*" + _factor_text(f))
    return "".join(parts)


def to_text(e: Expr) -> str:
    """Render to the surface grammar; parsing the result rebuilds the tree.

    The one normalization: Neg(Const c) renders as the literal -c, which the
    parser folds back to Const(-c).
    """
    if isinstance(e, Add):
        out = [_term_text(e.terms[0])]
        for t in e.terms[1:]:
            if isinstance(t, Neg):
                out.append(" - " + _term_text(t.child))
            elif isinstance(t, Const) and t.value < 0:
                out.append(" - " + _const_text(-t.value))
            else:
                out.append(" + " + _term_text(t))
        return "".join(out)
    return _term_text(e)
