"""Boolean expression abstract syntax tree.

This module defines the small expression language used throughout the
library to write pipeline flow-control specifications in the style of the
DAC 2002 paper.  Expressions are immutable, hashable trees over boolean
variables with the connectives NOT / AND / OR / IMPLIES / IFF / ITE.
Register addresses appear as one-hot indicator booleans (see
:mod:`repro.pipeline.signals`).

The classes here are deliberately plain data carriers; algorithms that walk
the tree (evaluation, substitution, conversion to normal forms, printing)
live in sibling modules so each stays small and testable.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple


class Expr:
    """Base class for all boolean expressions.

    Expressions overload the Python operators ``&``, ``|``, ``~`` and ``^``
    so that specifications read close to the paper's notation::

        stall = (rtm & ~next_moe) | wait
        spec = stall.implies(~moe)
    """

    __slots__ = ()

    # -- construction helpers -------------------------------------------------

    def __and__(self, other: "Expr") -> "Expr":
        return And(self, _coerce(other))

    def __rand__(self, other: "Expr") -> "Expr":
        return And(_coerce(other), self)

    def __or__(self, other: "Expr") -> "Expr":
        return Or(self, _coerce(other))

    def __ror__(self, other: "Expr") -> "Expr":
        return Or(_coerce(other), self)

    def __invert__(self) -> "Expr":
        return Not(self)

    def __xor__(self, other: "Expr") -> "Expr":
        other = _coerce(other)
        return Or(And(self, Not(other)), And(Not(self), other))

    def implies(self, other: "Expr") -> "Expr":
        """Logical implication ``self -> other``."""
        return Implies(self, _coerce(other))

    def iff(self, other: "Expr") -> "Expr":
        """Logical equivalence ``self <-> other``."""
        return Iff(self, _coerce(other))

    def ite(self, then: "Expr", orelse: "Expr") -> "Expr":
        """If-then-else with ``self`` as the condition."""
        return Ite(self, _coerce(then), _coerce(orelse))

    # -- structural queries ---------------------------------------------------

    def children(self) -> Tuple["Expr", ...]:
        """Immediate sub-expressions."""
        return ()

    def variables(self) -> frozenset:
        """The set of variable names appearing in the expression."""
        out = set()
        for node in self.walk():
            if isinstance(node, Var):
                out.add(node.name)
        return frozenset(out)

    def walk(self) -> Iterator["Expr"]:
        """Yield every node of the tree, pre-order, without recursion."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children())

    def size(self) -> int:
        """Number of nodes in the expression tree."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Height of the expression tree (a leaf has depth 1)."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(child.depth() for child in kids)

    # -- value protocol -------------------------------------------------------

    def __bool__(self) -> bool:  # pragma: no cover - guard rail
        raise TypeError(
            "Expr objects have no truth value; use eval_expr() or the SAT/BDD "
            "backends to decide them"
        )

    def __repr__(self) -> str:
        from .printer import to_text

        return to_text(self)


class Const(Expr):
    """A boolean constant, ``TRUE`` or ``FALSE``.

    Constants are interned (hash-consed): ``Const(True)`` always returns
    the module-level ``TRUE`` object, so equality on the hot memo-table
    paths is a pointer comparison.
    """

    __slots__ = ("value", "_hash")

    _interned: dict = {}

    def __new__(cls, value: bool):
        value = bool(value)
        if cls is Const:
            cached = cls._interned.get(value)
            if cached is not None:
                return cached
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("Const", value)))
        if cls is Const:
            cls._interned[value] = self
        return self

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Const is immutable")

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Const) and other.value == self.value)

    def __hash__(self) -> int:
        return self._hash


TRUE = Const(True)
FALSE = Const(False)


class Var(Expr):
    """A named boolean variable.

    Names are plain strings; the pipeline modelling layer uses dotted names
    such as ``"long.1.moe"`` or ``"scb[3]"`` to mirror the paper's notation.

    Variables are interned (hash-consed): constructing the same name twice
    yields the same object, so structurally equal leaves hash once and
    compare by identity in the compiler and transformation memo tables.
    """

    __slots__ = ("name", "_hash")

    _interned: dict = {}

    def __new__(cls, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError(f"variable name must be a non-empty string, got {name!r}")
        if cls is Var:
            cached = cls._interned.get(name)
            if cached is not None:
                return cached
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Var", name)))
        if cls is Var:
            cls._interned[name] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Var is immutable")

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Var) and other.name == self.name)

    def __hash__(self) -> int:
        return self._hash


class Not(Expr):
    """Logical negation."""

    __slots__ = ("operand", "_hash")

    def __init__(self, operand: Expr):
        object.__setattr__(self, "operand", _coerce(operand))
        object.__setattr__(self, "_hash", hash(("Not", self.operand)))

    def __setattr__(self, name, value):
        raise AttributeError("Not is immutable")

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Not) and other.operand == self.operand)

    def __hash__(self) -> int:
        return self._hash


class _NaryOp(Expr):
    """Shared implementation for AND / OR nodes.

    Operands are stored flat (n-ary) which keeps deep conjunctions readable
    when printed and cheap to traverse; nested nodes of the same operator
    are flattened on construction.
    """

    __slots__ = ("operands", "_hash")
    _symbol = "?"

    def __init__(self, *operands: Expr):
        flat = []
        for op in operands:
            op = _coerce(op)
            if isinstance(op, type(self)):
                flat.extend(op.operands)
            else:
                flat.append(op)
        if not flat:
            raise ValueError(f"{type(self).__name__} requires at least one operand")
        object.__setattr__(self, "operands", tuple(flat))
        object.__setattr__(self, "_hash", hash((type(self).__name__, self.operands)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def children(self) -> Tuple[Expr, ...]:
        return self.operands

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is type(self) and other.operands == self.operands
        )

    def __hash__(self) -> int:
        return self._hash


class And(_NaryOp):
    """N-ary conjunction."""

    __slots__ = ()
    _symbol = "&"


class Or(_NaryOp):
    """N-ary disjunction."""

    __slots__ = ()
    _symbol = "|"


class Implies(Expr):
    """Logical implication ``antecedent -> consequent``."""

    __slots__ = ("antecedent", "consequent", "_hash")

    def __init__(self, antecedent: Expr, consequent: Expr):
        object.__setattr__(self, "antecedent", _coerce(antecedent))
        object.__setattr__(self, "consequent", _coerce(consequent))
        object.__setattr__(
            self, "_hash", hash(("Implies", self.antecedent, self.consequent))
        )

    def __setattr__(self, name, value):
        raise AttributeError("Implies is immutable")

    def children(self) -> Tuple[Expr, ...]:
        return (self.antecedent, self.consequent)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Implies)
            and other.antecedent == self.antecedent
            and other.consequent == self.consequent
        )

    def __hash__(self) -> int:
        return self._hash


class Iff(Expr):
    """Logical equivalence ``left <-> right``."""

    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: Expr, right: Expr):
        object.__setattr__(self, "left", _coerce(left))
        object.__setattr__(self, "right", _coerce(right))
        object.__setattr__(self, "_hash", hash(("Iff", self.left, self.right)))

    def __setattr__(self, name, value):
        raise AttributeError("Iff is immutable")

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Iff)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return self._hash


class Ite(Expr):
    """If-then-else over booleans: ``cond ? then : orelse``."""

    __slots__ = ("cond", "then", "orelse", "_hash")

    def __init__(self, cond: Expr, then: Expr, orelse: Expr):
        object.__setattr__(self, "cond", _coerce(cond))
        object.__setattr__(self, "then", _coerce(then))
        object.__setattr__(self, "orelse", _coerce(orelse))
        object.__setattr__(
            self, "_hash", hash(("Ite", self.cond, self.then, self.orelse))
        )

    def __setattr__(self, name, value):
        raise AttributeError("Ite is immutable")

    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.then, self.orelse)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Ite)
            and other.cond == self.cond
            and other.then == self.then
            and other.orelse == self.orelse
        )

    def __hash__(self) -> int:
        return self._hash


def _coerce(value) -> Expr:
    """Accept Expr, bool or str (as a variable name) wherever an Expr is expected."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return TRUE if value else FALSE
    if isinstance(value, str):
        return Var(value)
    raise TypeError(f"cannot interpret {value!r} as a boolean expression")


def coerce(value) -> Expr:
    """Public wrapper around the coercion used by operator overloads."""
    return _coerce(value)


def variables_of(exprs: Iterable[Expr]) -> frozenset:
    """Union of the variables of all expressions in ``exprs``."""
    out = set()
    for e in exprs:
        out |= e.variables()
    return frozenset(out)
