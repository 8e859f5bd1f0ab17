"""Recursive-descent parser for the expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' factor)? | '-' unary
    unary  := '-' unary | atom
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Functions are exp, log, sin, cos, sqrt.  NUMBER is an unsigned integer or
decimal, optionally with an exponent part (2e-4); numeric literals become
exact constants (ints when integral).  Unary minus on a literal folds into
a negative constant.
'^' after '-' unary is a ParseError naming both readings, -(a^b) and (-a)^b.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .nodes import (
    Add, Call, Const, Expr, FUNCTIONS, MINUS_ONE, Mul, Pow, Var, neg,
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
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
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at,
                             ("NUMBER", "IDENT", "operator"))
        if m.group("number") is not None:
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

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
        _, lead, at = self.peek()  # only an op token reads "-"
        base = self.unary()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            if lead == "-":
                raise ParseError("'-' before '^' is ambiguous", at,
                                 ("-(a^b)", "(-a)^b"))
            self.take()
            return Pow(base, self.factor())
        return base

    def unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return neg(self.unary())
        return self.atom()

    def atom(self) -> Expr:
        kind, value, offset = self.take()
        if kind == "number":
            # an integer literal is an int, and skips Fraction's string parser
            return Const(int(value) if value.isdigit() else Fraction(value))
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset,
                                     tuple(FUNCTIONS))
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            return Var(value)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {value or 'end of input'!r}", offset,
                         ("NUMBER", "IDENT", "'('", "'-'"))


def parse(text: str) -> Expr:
    p = _Parser(text)
    result = p.expr()
    kind, value, offset = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {value!r}", offset, ("end of input",))
    return result
