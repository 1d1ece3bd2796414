"""Bit-parallel compilation of expressions to machine-word bitwise code.

Brute-force sweeps — tautology checks by enumeration, assertion monitoring
over long traces, coverage scoring — all reduce to evaluating the same
expression under many assignments.  Doing that one assignment at a time
with :func:`repro.expr.evaluate.eval_expr` costs a full tree walk plus a
dictionary lookup per variable per row.

This module compiles a set of :class:`~repro.expr.ast.Expr` roots into
one flat sequence of Python integer bitwise operations (one temporary
per distinct sub-expression, shared sub-expressions evaluated once across
all roots) and then evaluates **64 assignments per operation**: assignment
*k* lives in bit *k* of every word, ``&``/``|``/``^`` act on all 64 lanes
at once, and negation is an XOR with the lane mask.  Python's
arbitrary-precision integers would allow even wider words, but 64 keeps
every operand in CPython's fast small-big-int path.

Each distinct formula set is compiled once per process: the generated
function is cached on the roots' content (structural equality, hashes
cached in the nodes) and the variable order, so a job repeats none of the
code generation of an earlier job over the same formulas.

Three layers of API:

* :func:`compile_outputs` — the compiler; returns a callable
  :class:`CompiledOutputs` with one result word per root.
* :func:`pack_bools` / :meth:`CompiledOutputs.evaluate_packed` — bulk
  evaluation over externally supplied rows, one packed column per root.
  :func:`pack_bools` is the one column packer: simulation traces pack
  their signal columns with it.
* :func:`bitparallel_tautology` / :func:`bitparallel_satisfiable` —
  exhaustive sweeps over all ``2**n`` assignments of the expression's
  variables.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .ast import And, Const, Expr, Iff, Implies, Ite, Not, Or, Var

WORD_BITS = 64
FULL_MASK = (1 << WORD_BITS) - 1


def tail_mask(num_rows: int, word_index: int) -> int:
    """Mask of the populated lanes in one word of a packed column.

    Every consumer of packed columns (the assertion monitor, the stall
    classifier, the exhaustive sweeps) needs the same tail handling: full
    words carry 64 rows, the last word only ``num_rows % 64``.
    """
    remaining = num_rows - word_index * WORD_BITS
    if remaining >= WORD_BITS:
        return FULL_MASK
    return (1 << remaining) - 1


def iter_set_bits(word: int) -> Iterator[int]:
    """The indexes of the set bits of a word, ascending."""
    while word:
        yield (word & -word).bit_length() - 1
        word &= word - 1

# PATTERNS[i]: the value column of enumeration variable i (i < 6) within one
# 64-assignment word — assignment k has variable i set iff bit i of k is set.
_PATTERNS = [
    sum(1 << b for b in range(WORD_BITS) if (b >> i) & 1) for i in range(6)
]


class CompiledOutputs:
    """Keyed expressions compiled into one word-level bitwise function.

    Calling the object evaluates one word: ``compiled(values, mask)`` takes
    one integer per variable (in :attr:`names` order), each holding up to
    64 assignments in its bits, plus the mask of populated lanes, and
    returns one result word per entry of :attr:`outputs`, in that order
    (bits outside the mask are unspecified).  Sub-expressions shared
    between outputs are evaluated once per call.
    """

    __slots__ = ("outputs", "names", "_func", "source")

    def __init__(
        self, outputs: Tuple[Hashable, ...], names: Tuple[str, ...], func: Callable, source: str
    ):
        self.outputs = outputs
        self.names = names
        self._func = func
        self.source = source

    def __call__(self, values: Sequence[int], mask: int = FULL_MASK) -> Tuple[int, ...]:
        return self._func(values, mask)

    def evaluate_packed(
        self, columns: Mapping[str, Sequence[int]], num_rows: int
    ) -> List[List[int]]:
        """Evaluate ``num_rows`` externally packed rows.

        ``columns`` maps each variable to its value words as
        :func:`pack_bools` packs them (the format of
        :meth:`repro.pipeline.trace.SimulationTrace.pack_signal_columns`); the
        result holds one packed column per output, in :attr:`outputs`
        order.  Bits at and beyond ``num_rows`` in the final word are zero.
        """
        try:
            series = [columns[name] for name in self.names]
        except KeyError as exc:
            raise KeyError(f"no packed column for variable {exc.args[0]!r}") from exc
        num_words = (num_rows + WORD_BITS - 1) // WORD_BITS
        if not num_words:
            return [[] for _ in self.outputs]
        func = self._func
        if series:
            words = [func(values, FULL_MASK) for values in islice(zip(*series), num_words)]
        else:
            words = [func((), FULL_MASK)] * num_words
        packed = [list(column) for column in zip(*words)]
        tail = tail_mask(num_rows, num_words - 1)
        for column in packed:
            column[-1] &= tail
        return packed


def _variable_names(exprs: Iterable[Expr], order: Optional[Sequence[str]]) -> Tuple[str, ...]:
    variables = set()
    for expr in exprs:
        variables |= expr.variables()
    if order is None:
        return tuple(sorted(variables))
    names = tuple(order)
    missing = variables - set(names)
    if missing:
        raise ValueError(f"order is missing variables {sorted(missing)}")
    return names


def _generate(roots: Sequence[Expr], names: Tuple[str, ...]) -> Tuple[Callable, str]:
    """Emit and compile ``def _bitwise(values, M)`` returning the roots' words.

    One temporary per distinct sub-expression across all roots; the
    function returns a tuple of words in root order.
    """
    index_of = {name: position for position, name in enumerate(names)}

    lines: List[str] = []
    memo: Dict[Expr, str] = {}
    used: List[bool] = [False] * len(names)

    def fresh(rhs: str) -> str:
        name = f"t{len(lines)}"
        lines.append(f"    {name} = {rhs}")
        return name

    def rec(node: Expr) -> str:
        ref = memo.get(node)
        if ref is not None:
            return ref
        if isinstance(node, Const):
            ref = "M" if node.value else "0"
        elif isinstance(node, Var):
            position = index_of[node.name]
            used[position] = True
            ref = f"v{position}"
        elif isinstance(node, Not):
            ref = fresh(f"M ^ {rec(node.operand)}")
        elif isinstance(node, And):
            ref = fresh(" & ".join(rec(operand) for operand in node.operands))
        elif isinstance(node, Or):
            ref = fresh(" | ".join(rec(operand) for operand in node.operands))
        elif isinstance(node, Implies):
            antecedent = rec(node.antecedent)
            consequent = rec(node.consequent)
            ref = fresh(f"(M ^ {antecedent}) | {consequent}")
        elif isinstance(node, Iff):
            ref = fresh(f"M ^ ({rec(node.left)} ^ {rec(node.right)})")
        elif isinstance(node, Ite):
            cond = rec(node.cond)
            then = rec(node.then)
            orelse = rec(node.orelse)
            ref = fresh(f"({cond} & {then}) | ((M ^ {cond}) & {orelse})")
        else:
            raise TypeError(f"cannot compile expression node {type(node).__name__}")
        memo[node] = ref
        return ref

    refs = [rec(root) for root in roots]
    result = "(" + "".join(f"{ref}, " for ref in refs) + ")"
    header = ["def _bitwise(values, M):"]
    header.extend(
        f"    v{position} = values[{position}]"
        for position in range(len(names))
        if used[position]
    )
    source = "\n".join(header + lines + [f"    return {result}"]) + "\n"
    namespace: Dict[str, object] = {}
    exec(compile(source, "<bitparallel>", "exec"), namespace)  # noqa: S102
    return namespace["_bitwise"], source


@lru_cache(maxsize=256)
def _compiled(
    roots: Tuple[Expr, ...], order: Optional[Tuple[str, ...]]
) -> Tuple[Tuple[str, ...], Callable, str]:
    """The word function of ``roots`` over ``order``, generated once per process.

    Keyed on expression content, never on BDD node ids or object
    identity: equal roots built apart share one function.
    """
    names = _variable_names(roots, order)
    func, source = _generate(roots, names)
    return names, func, source


def compile_outputs(
    exprs: Mapping[Hashable, Expr], order: Optional[Sequence[str]] = None
) -> CompiledOutputs:
    """Compile keyed expressions into one :class:`CompiledOutputs` function.

    ``order`` fixes the variable-to-argument mapping; it must cover every
    variable of the expressions.  By default the union of their variables
    is used in sorted order.  A consumer compiles its whole formula set at
    once: every moe flag of a closed-form interlock, every assertion of a
    monitor, every stall condition or coverage disjunct of a spec.  Each
    distinct formula set (roots in output order, plus ``order``) is
    compiled once per process; a later call with equal roots reuses that
    function under its own keys.
    """
    outputs = tuple(exprs)
    roots = tuple(exprs[key] for key in outputs)
    names, func, source = _compiled(roots, None if order is None else tuple(order))
    return CompiledOutputs(outputs, names, func, source)


# -- packing -----------------------------------------------------------------------


_BITS = bytes.maketrans(b"\x00\x01", b"01")


def pack_bools(values: Iterable[bool]) -> List[int]:
    """Pack a row-major boolean sequence into 64-bit words (row k → bit k%64).

    The bools become ``"0"``/``"1"`` bytes and each 64-row chunk is parsed,
    reversed, as one base-2 integer, so the per-row work runs in C.
    """
    digits = bytes(values).translate(_BITS)
    return [
        int(digits[start : start + WORD_BITS][::-1], 2)
        for start in range(0, len(digits), WORD_BITS)
    ]


# -- exhaustive sweeps --------------------------------------------------------------


def _enumeration_values(names: Tuple[str, ...], word_index: int) -> List[int]:
    """Per-variable value words for one 64-assignment block.

    Assignment index ``word_index * 64 + b`` assigns variable ``i`` the bit
    ``i`` of that index: the six lowest variables cycle within a word with
    fixed patterns, higher variables are constant per word.
    """
    values: List[int] = []
    for i in range(len(names)):
        if i < 6:
            values.append(_PATTERNS[i])
        else:
            values.append(FULL_MASK if (word_index >> (i - 6)) & 1 else 0)
    return values


def _sweep(compiled: CompiledOutputs) -> Iterable[Tuple[int, int]]:
    """Yield ``(result_word, mask)`` over all assignments.

    ``compiled`` has one output; its :attr:`~CompiledOutputs.names` are the
    enumerated variables.
    """
    names = compiled.names
    count = len(names)
    if count <= 6:
        mask = (1 << (1 << count)) - 1
        (word,) = compiled(_enumeration_values(names, 0), mask)
        yield word, mask
        return
    for word_index in range(1 << (count - 6)):
        (word,) = compiled(_enumeration_values(names, word_index), FULL_MASK)
        yield word, FULL_MASK


def _compile_one(expr: Expr) -> CompiledOutputs:
    return compile_outputs({"value": expr})


def bitparallel_tautology(expr: Expr) -> bool:
    """Is ``expr`` true under every assignment of its variables?"""
    return all((result & mask) == mask for result, mask in _sweep(_compile_one(expr)))


def bitparallel_satisfiable(expr: Expr) -> bool:
    """Is ``expr`` true under at least one assignment of its variables?"""
    return any(result & mask for result, mask in _sweep(_compile_one(expr)))
