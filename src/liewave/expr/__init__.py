"""Minimal computer-algebra kernel: trees, parsing, printing, calculus,
rule-based simplification, numeric evaluation and sampled zero tests."""

from .calculus import (
    EvalError, diff, eval_checked, eval_numeric, eval_on_grid, substitute,
)
from .nodes import (
    Add, Call, Const, Cos, Exp, Expr, Mul, Neg, ONE, Pow, Sin, Var, ZERO,
    check_vars, coerce, free_vars, neg, node_count, num, to_text,
)
from .parser import ParseError, parse
from .sampling import (
    ZeroSample, check_nonvanishing, is_zero_sampled, sample_box,
)
from .simplify import Canon, expand, memo_scope, simplify

__all__ = [
    "Add", "Call", "Canon", "Const", "Cos", "EvalError", "Exp", "Expr", "Mul", "Neg",
    "ONE", "ParseError", "Pow", "Sin", "Var", "ZERO",
    "ZeroSample", "check_nonvanishing", "check_vars", "coerce", "diff",
    "eval_checked", "eval_numeric", "eval_on_grid", "expand", "free_vars",
    "is_zero_sampled", "memo_scope", "neg", "node_count", "num", "parse",
    "sample_box", "simplify", "substitute", "to_text",
]
