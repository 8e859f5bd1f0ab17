"""Recursive-descent parser for the expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' factor)? | '-' unary
    unary  := '-' unary | atom
    atom   := NUMBER | IDENT | IDENT group | group
    group  := '(' expr ')'

Functions are exp, log, sin, cos, sqrt.  NUMBER is an unsigned integer or
decimal, optionally with an exponent part (2e-4); numeric literals become
exact constants (ints when integral).  Unary minus on a literal folds into
a negative constant.
'^' after '-' unary is a ParseError naming both readings, -(a^b) and (-a)^b.

Two bounds keep every input's cost in proportion to its length, each a
ParseError naming the offset where it is passed:
- nesting: each group (a call's included) and each '^' exponent opens one
  level, and a level deeper than MAX_NESTING is refused.  A tree nested up
  to the bound goes through every command's simplify, diff, evaluation
  and printing within Python's default recursion limit;
- a literal's exponent part beyond MAX_EXPONENT in magnitude is refused
  before its value is built (10**exponent grows with the exponent itself),
  as is one with more than MAX_DIGITS digits before or after its point.
A run of unary minus signs is read in a loop, so it opens no level.

A group's tree depends on its tokens alone, so a text's repeated groups are
parsed once: `simplify.parsed()` maps the exact text of each group parsed
(parentheses and whitespace included) to its tree and the number of levels
it opens, and a group found there is handed back as the same object, the
cursor resumed after its ')'.  The table is the job's inside
`memo_scope()` and a fresh one per call outside it.  A group that raises is
never stored, and a stored group that would pass the nesting bound where it
stands is parsed again, to raise where it would have raised; so trees,
texts and errors are those of a parse without the table.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .nodes import (
    Add, Call, Const, Expr, FUNCTIONS, MINUS_ONE, Mul, Pow, Var, neg,
)
from .simplify import parsed

MAX_NESTING = 40
MAX_EXPONENT = 10_000
MAX_DIGITS = 4_300  # CPython reads no longer digit string as an int

# whitespace matches no group and is skipped; any other character the
# grammar has no token for is `bad`
_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)"
)


class ParseError(ValueError):
    """Syntax error with the byte offset and the tokens that were expected."""

    def __init__(self, message: str, offset: int, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


def _tokenize(text: str):
    """The tokens of text, ending with an eof token, and a map from the
    index of each '(' that has a matching ')' to the index of that ')'."""
    tokens, opened, close = [], [], {}
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start(),
                             ("NUMBER", "IDENT", "operator"))
        value = m.group()
        if value == "(":
            opened.append(len(tokens))
        elif value == ")" and opened:
            close[opened.pop()] = len(tokens)
        tokens.append((kind, value, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens, close


def _literal(value: str, offset: int):
    """The exact value of a NUMBER token."""
    if len(value) > MAX_DIGITS:  # else no part of it can be longer
        mantissa = value.lower().partition("e")[0]
        if max(map(len, mantissa.split("."))) > MAX_DIGITS:
            raise ParseError(f"literal with more than {MAX_DIGITS} digits "
                             "before or after its point", offset)
    if value.isdigit():
        # an integer literal is an int, and skips Fraction's string parser
        return int(value)
    digits = value.lower().partition("e")[2].lstrip("+-").lstrip("0")
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
        raise ParseError(f"literal exponent beyond {MAX_EXPONENT} in magnitude",
                         offset)
    return Fraction(value)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens, self.close = _tokenize(text)
        self.i = 0
        self.groups = parsed()
        self.depth = 0  # levels open at the cursor
        self.peak = 0   # the deepest level opened in the innermost group

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"unexpected {value or 'end of input'!r}", offset, (repr(op),))
        return self.take()

    def enter(self, offset: int):
        """Open one nesting level at the token at offset."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             offset)
        self.peak = max(self.peak, self.depth)

    def expr(self) -> Expr:
        terms = [self.term()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                t = self.term()
                terms.append(neg(t) if value == "-" else t)
            else:
                break
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term(self) -> Expr:
        factors = [self.factor()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                f = self.factor()
                factors.append(Pow(f, MINUS_ONE) if value == "/" else f)
            else:
                break
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def factor(self) -> Expr:
        # only an op token reads "-" or "^"
        _, lead, at = self.peek()
        base = self.unary()
        _, value, offset = self.peek()
        if value == "^":
            if lead == "-":
                raise ParseError("'-' before '^' is ambiguous", at,
                                 ("-(a^b)", "(-a)^b"))
            self.take()
            self.enter(offset)
            exponent = self.factor()
            self.depth -= 1
            return Pow(base, exponent)
        return base

    def unary(self) -> Expr:
        signs = 0
        while self.peek()[1] == "-":
            self.take()
            signs += 1
        e = self.atom()
        for _ in range(signs):  # innermost first, as the grammar nests them
            e = neg(e)
        return e

    def group(self) -> Expr:
        """The tree of the group whose '(' is at the cursor; the cursor
        ends after its ')'."""
        start = self.i
        offset = self.tokens[start][2]
        end = self.close.get(start)
        key = None if end is None else self.text[offset:self.tokens[end][2] + 1]
        hit = self.groups.get(key)
        if hit is not None and self.depth + hit[1] <= MAX_NESTING:
            self.peak = max(self.peak, self.depth + hit[1])
            self.i = end + 1
            return hit[0]
        outer, self.peak = self.peak, self.depth
        self.take()
        self.enter(offset)
        inner = self.expr()
        self.expect_op(")")
        self.depth -= 1
        if key is not None:
            self.groups[key] = (inner, self.peak - self.depth)
        self.peak = max(self.peak, outer)
        return inner

    def atom(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "op" and value == "(":
            return self.group()
        self.take()
        if kind == "number":
            return Const(_literal(value, offset))
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset,
                                     tuple(FUNCTIONS))
                return Call(value, self.group())
            return Var(value)
        raise ParseError(f"unexpected {value or 'end of input'!r}", offset,
                         ("NUMBER", "IDENT", "'('", "'-'"))


def parse(text: str) -> Expr:
    p = _Parser(text)
    result = p.expr()
    kind, value, offset = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {value!r}", offset, ("end of input",))
    return result
