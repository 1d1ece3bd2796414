"""A reduced ordered binary decision diagram (ROBDD) package.

The manager keeps a unique table of nodes so that structurally equal
functions share one node, which makes equivalence checking a pointer
comparison — exactly what the property checker in :mod:`repro.checking`
relies on to compare a pipeline interlock implementation with the derived
maximum-performance specification.

Nodes are integers indexing into the manager's node store.  The two
terminals are ``0`` (FALSE) and ``1`` (TRUE).  Complement edges are not
used; instead negation is a dedicated involution with its own cache, which
keeps the node representation simple while still making ``¬¬f`` and
``f ∧ ¬f`` constant time.

Storage layout (the array kernel)
---------------------------------

The node store is struct-of-arrays: three parallel flat vectors ``_var``
/ ``_lo`` / ``_hi`` hold the level and the two children of every node
(plain lists — on CPython an indexed list read is measurably faster than
``array('q')``, which re-boxes every element), and a fourth list ``_ref``
holds external protection counts for garbage collection.  A freed slot
has ``_var[i] == -1`` and sits on the free list; allocation reuses freed
slots before growing the vectors, so node ids are stable across
collections.

The unique table is split per level: each level owns a dict mapping the
packed ``(lo << 26) | hi`` key to the node id.  CPython dicts *are*
open-addressed tables implemented in C — a hand-rolled linear-probe
loop in bytecode is ~3x slower per probe — so the dict is the fastest
available open-addressed backing.  GC rebuilds the per-level tables
from the surviving nodes.

All memo tables are flat dictionaries keyed on packed machine integers:
an operation key packs its operands into one int with a 3-bit operation
tag in the low bits, so the hot loops of apply, fused quantification,
composition and ISOP never build key tuples.  Because every packed key
is at least ``2 ** 26`` (operands are shifted left past the node-id
width) an ``int`` result can be told apart from a pending task by a
single comparison against :data:`_NODE_LIMIT`.

The operation kernel is iterative (explicit work stack, no Python
recursion limit): conjunction and disjunction are normalised to a
standardized form — commuted operands are swapped into a canonical order
and if-then-else triples that denote them are rewritten to the tagged
binary form — so calls that commute or only differ syntactically hit the
same memo entry.  Quantification is a single multi-variable pass, and
the fused ``and_exists`` relational product conjoins and quantifies in
one sweep without building the intermediate conjunction.

Variable order and garbage collection
-------------------------------------

The variable order is static: variables take levels in declaration
order (normally the ``variable_order`` given at construction), and the
context's owner chooses that order — the register-interleaved
derivation order for the paper's fixed point.  Nothing in the kernel
moves a variable, so a raw node id stays valid until a :meth:`gc`.

:meth:`BddManager.gc` is a mark-and-sweep over the flat arrays: roots
are the nodes with a positive ``_ref`` count (see :meth:`protect` /
:meth:`release`; ``SymbolicFunction`` handles protect their node
automatically) plus any ``extra_roots``.  Sweeping clears the operation,
ISOP and deepest-level memo tables, filters the negation cache down to
live pairs, rebuilds the per-level unique tables and invokes registered
sweep hooks so higher layers can drop entries for reclaimed ids
(crucial: ids are reused, so a stale cache entry would silently alias a
new function).
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

FALSE_NODE = 0
TRUE_NODE = 1

_TERMINAL_LEVEL = 2**31

# Node ids are packed into 26-bit fields of the integer cache keys, so the
# store is capped at ~67M nodes — far beyond what fits in memory here, but
# checked on allocation so overflow can never corrupt a packed key.
_NODE_BITS = 26
_NODE_LIMIT = 1 << _NODE_BITS
_NODE_MASK = _NODE_LIMIT - 1

# Operation tags occupy the low 3 bits of every packed cache key.
_TAG_AND = 0
_TAG_OR = 1
_TAG_ITE = 2
_TAG_E = 3
_TAG_A = 4
_TAG_EA = 5

class CoverBudgetExceeded(RuntimeError):
    """Raised by :meth:`BddManager.isop` when a cover outgrows ``max_cubes``.

    Lets callers race the direct and the complemented cover of a function
    against each other without ever paying for the exponential side.
    """


@dataclass
class BddStats:
    """A snapshot of kernel health counters (see :meth:`BddManager.stats`)."""

    live_nodes: int
    allocated_slots: int
    free_slots: int
    num_vars: int
    unique_entries: int
    unique_capacity: int
    load_factor: float
    op_cache_entries: int
    not_cache_entries: int
    isop_cache_entries: int
    cache_hits: int
    cache_misses: int
    hit_rate: float
    gc_runs: int
    gc_reclaimed: int
    bands_folded: int

    def as_dict(self) -> Dict[str, float]:
        """The counters as a plain JSON-friendly dict."""
        return {
            "live_nodes": self.live_nodes,
            "allocated_slots": self.allocated_slots,
            "free_slots": self.free_slots,
            "num_vars": self.num_vars,
            "unique_entries": self.unique_entries,
            "unique_capacity": self.unique_capacity,
            "load_factor": round(self.load_factor, 4),
            "op_cache_entries": self.op_cache_entries,
            "not_cache_entries": self.not_cache_entries,
            "isop_cache_entries": self.isop_cache_entries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": round(self.hit_rate, 4),
            "gc_runs": self.gc_runs,
            "gc_reclaimed": self.gc_reclaimed,
            "bands_folded": self.bands_folded,
        }

    def describe(self) -> str:
        """A compact human-readable rendering for ``--verbose`` output."""
        return (
            f"nodes: {self.live_nodes} live / {self.allocated_slots} allocated"
            f" ({self.free_slots} free), {self.num_vars} variables\n"
            f"unique table: {self.unique_entries} entries in"
            f" {self.unique_capacity} slots (load {self.load_factor:.2f})\n"
            f"caches: op {self.op_cache_entries}, not {self.not_cache_entries},"
            f" isop {self.isop_cache_entries};"
            f" hit rate {self.hit_rate:.1%}"
            f" ({self.cache_hits} hits / {self.cache_misses} misses)\n"
            f"gc: {self.gc_runs} runs, {self.gc_reclaimed} nodes reclaimed"
        )


class BddManager:
    """Owns the node store, the variable order and all BDD operations."""

    def __new__(cls, *args, **kwargs):
        # REPRO_SANITIZE=1 transparently swaps every manager for the
        # contract-enforcing subclass (checked at construction time):
        # use-after-free and cross-manager node mixing raise instead of
        # silently aliasing, memo tables are validated after every sweep,
        # and unreleased protections are tracked by call site.  Zero cost when the variable is unset — this branch
        # is the only hook and the devtools package is never imported.
        if cls is BddManager and os.environ.get("REPRO_SANITIZE"):
            from ..devtools.sanitizer import SanitizedBddManager

            return super().__new__(SanitizedBddManager)
        return super().__new__(cls)

    def __init__(self, variable_order: Optional[Sequence[str]] = None):
        # Struct-of-arrays node store; terminals occupy ids 0 and 1 with a
        # sentinel level.  A freed slot has _var[i] == -1.
        self._var: List[int] = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self._lo: List[int] = [FALSE_NODE, TRUE_NODE]
        self._hi: List[int] = [FALSE_NODE, TRUE_NODE]
        self._ref: List[int] = [0, 0]
        self._free: List[int] = []
        # Per-level unique tables: packed (lo << 26) | hi key -> node id.
        self._utables: List[Dict[int, int]] = []
        self._entries = 0
        # Operation memo table shared by every operator, keyed on packed
        # integers (operands shifted left, 3-bit tag in the low bits).
        self._op_cache: Dict[int, int] = {}
        # Negation cache (an involution: both directions are stored).
        self._not_cache: Dict[int, int] = {}
        # Interned quantification variable sets: frozenset of levels -> key.
        self._quant_sets: Dict[frozenset, int] = {}
        self._quant_levels: List[Tuple[frozenset, int]] = []
        # ISOP memo: packed (lower << 26) | upper -> (node, cubes).
        # key -> (node, cube_count, spine); see isop() for the spine encoding.
        self._isop_cache: Dict[int, tuple] = {}
        # Deepest level reachable from a node (see _bands); keyed on node
        # ids, so cleared by every sweep like the operation caches.
        self._deepest: Dict[int, int] = {}
        self._var_levels: Dict[str, int] = {}
        self._level_vars: List[str] = []
        # Callbacks run after every GC sweep; see add_sweep_hook.
        self._sweep_hooks: List[Callable[[Callable[[int], bool]], None]] = []
        # Health counters.
        self._hits = 0
        self._misses = 0
        self._gc_runs = 0
        self._gc_reclaimed = 0
        self._bands_folded = 0
        if variable_order is not None:
            for name in variable_order:
                self.declare(name)

    # -- variable management --------------------------------------------------

    def declare(self, name: str) -> int:
        """Declare a variable (idempotent) and return its level."""
        level = self._var_levels.get(name)
        if level is not None:
            return level
        level = len(self._level_vars)
        self._var_levels[name] = level
        self._level_vars.append(name)
        self._utables.append({})
        return level

    def variable_order(self) -> List[str]:
        """The current variable order, outermost (top) first."""
        return list(self._level_vars)

    def level_of(self, name: str) -> int:
        """The level of a declared variable."""
        return self._var_levels[name]

    def var_at_level(self, level: int) -> str:
        """The variable name at a given level."""
        return self._level_vars[level]

    def num_nodes(self) -> int:
        """Number of live (allocated, not freed) nodes including terminals."""
        return self._entries + 2

    # -- node construction -----------------------------------------------------
    #
    # Each level's table maps the packed ``(lo << 26) | hi`` key to the node
    # id.  The mapping is a plain dict: CPython dicts are open-addressed
    # hash tables implemented in C, and a packed-int-keyed dict probe beats
    # any probe sequence interpreted in bytecode by ~3x.


    def _alloc(self, level: int, low: int, high: int) -> int:
        if self._free:
            node = self._free.pop()
            self._var[node] = level
            self._lo[node] = low
            self._hi[node] = high
        else:
            node = len(self._var)
            if node >= _NODE_LIMIT:  # pragma: no cover - 67M-node ceiling
                raise MemoryError("BDD node store exceeded 2**26 nodes")
            self._var.append(level)
            self._lo.append(low)
            self._hi.append(high)
            self._ref.append(0)
        return node

    def _make_node(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        table = self._utables[level]
        k = (low << _NODE_BITS) | high
        node = table.get(k)
        if node is None:
            node = self._alloc(level, low, high)
            table[k] = node
            self._entries += 1
        return node

    def var(self, name: str) -> int:
        """BDD for a single variable."""
        level = self.declare(name)
        return self._make_node(level, FALSE_NODE, TRUE_NODE)

    def true(self) -> int:
        """The TRUE terminal."""
        return TRUE_NODE

    def false(self) -> int:
        """The FALSE terminal."""
        return FALSE_NODE

    # -- normalisation ----------------------------------------------------------

    def _norm2(self, tag: int, a: int, b: int) -> int:
        """Standardize a binary operation.

        Returns either a decided node id (``< _NODE_LIMIT``) or a packed
        task key with canonically ordered operands.
        """
        if tag == _TAG_AND:
            if a == FALSE_NODE or b == FALSE_NODE:
                return FALSE_NODE
            if a == TRUE_NODE:
                return b
            if b == TRUE_NODE:
                return a
            if a == b:
                return a
            if self._not_cache.get(a) == b:
                return FALSE_NODE
        else:  # or
            if a == TRUE_NODE or b == TRUE_NODE:
                return TRUE_NODE
            if a == FALSE_NODE:
                return b
            if b == FALSE_NODE:
                return a
            if a == b:
                return a
            if self._not_cache.get(a) == b:
                return TRUE_NODE
        if a > b:
            a, b = b, a
        return (((a << _NODE_BITS) | b) << 3) | tag

    def _norm_ite(self, f: int, g: int, h: int) -> int:
        """Standardize an if-then-else triple into a decided node or a task key.

        Triples denoting a conjunction or disjunction are rewritten to the
        tagged commutative form so that, for example, ``ite(f, g, 0)`` and
        ``ite(g, f, 0)`` land on the same memo entry.  Rewrites that would
        require a negation only fire when the negation is already in the
        cache (a free dictionary lookup); materialising new negated cones
        here would blow the unique table up instead of speeding anything
        up.
        """
        if f == TRUE_NODE:
            return g
        if f == FALSE_NODE:
            return h
        if g == h:
            return g
        if g == TRUE_NODE:
            if h == FALSE_NODE:
                return f
            return self._norm2(_TAG_OR, f, h)
        if g == FALSE_NODE and h == TRUE_NODE:
            return self.not_(f)
        if h == FALSE_NODE:
            return self._norm2(_TAG_AND, f, g)
        if g == f:
            return self._norm2(_TAG_OR, f, h)
        if h == f:
            return self._norm2(_TAG_AND, f, g)
        nf = self._not_cache.get(f)
        if nf is not None:
            if h == TRUE_NODE or h == nf:
                return self._norm2(_TAG_OR, nf, g)
            if g == FALSE_NODE or g == nf:
                return self._norm2(_TAG_AND, nf, h)
        return ((((f << _NODE_BITS) | g) << _NODE_BITS | h) << 3) | _TAG_ITE

    def _norm_quant(self, tag: int, node: int, quant_key: int) -> int:
        if node <= TRUE_NODE:
            return node
        if self._var[node] > self._quant_levels[quant_key][1]:
            return node
        return (((node << _NODE_BITS) | quant_key) << 3) | tag

    def _norm_and_exists(self, f: int, g: int, quant_key: int) -> int:
        if f == FALSE_NODE or g == FALSE_NODE:
            return FALSE_NODE
        if f == g or g == TRUE_NODE:
            return self._norm_quant(_TAG_E, f, quant_key)
        if f == TRUE_NODE:
            return self._norm_quant(_TAG_E, g, quant_key)
        if self._not_cache.get(f) == g:
            return FALSE_NODE
        max_level = self._quant_levels[quant_key][1]
        if self._var[f] > max_level and self._var[g] > max_level:
            return self._norm2(_TAG_AND, f, g)
        if f > g:
            f, g = g, f
        return ((((f << _NODE_BITS) | g) << _NODE_BITS | quant_key) << 3) | _TAG_EA

    # -- the iterative operation kernel ------------------------------------------

    def _run_binary(self, tag: int, root_a: int, root_b: int) -> int:
        """Tight inlined work-stack loop for AND / OR (the hot operations).

        Conjunction and disjunction dominate every compile and check
        workload, so their cofactor expansion, child normalisation, memo
        lookup and unique-table insertion are all inlined into one loop.
        Frames and cache keys are packed machine integers — no per-frame
        tuple allocation at all.  Children of an AND/OR task are always
        same-op tasks, so the loop never leaves its operation.
        """
        cache = self._op_cache
        cache_get = cache.get
        var = self._var
        lows = self._lo
        highs = self._hi
        nots_get = self._not_cache.get
        utables = self._utables
        free = self._free
        ref_append = self._ref.append
        var_append = self._var.append
        lo_append = self._lo.append
        hi_append = self._hi.append
        entries_added = 0
        is_and = tag == _TAG_AND
        stack = [(root_a << _NODE_BITS) | root_b]
        push = stack.append
        while stack:
            frame = stack[-1]
            key = (frame << 3) | tag
            if key in cache:
                stack.pop()
                continue
            a = frame >> _NODE_BITS
            b = frame & _NODE_MASK
            la = var[a]
            lb = var[b]
            level = la if la < lb else lb
            if la == level:
                a0, a1 = lows[a], highs[a]
            else:
                a0 = a1 = a
            if lb == level:
                b0, b1 = lows[b], highs[b]
            else:
                b0 = b1 = b
            # Both children are normalised and probed before any push, so a
            # frame whose children both miss is reprocessed once, not twice.
            # -1 marks a cache miss (node ids and task results are >= 0).
            child_lo = child_hi = -1
            if is_and:
                if a0 == 0 or b0 == 0:
                    low = 0
                elif a0 == 1:
                    low = b0
                elif b0 == 1:
                    low = a0
                elif a0 == b0:
                    low = a0
                elif nots_get(a0) == b0:
                    low = 0
                else:
                    child_lo = (a0 << _NODE_BITS) | b0 if a0 < b0 else (b0 << _NODE_BITS) | a0
                    low = cache_get((child_lo << 3) | tag, -1)
                if a1 == 0 or b1 == 0:
                    high = 0
                elif a1 == 1:
                    high = b1
                elif b1 == 1:
                    high = a1
                elif a1 == b1:
                    high = a1
                elif nots_get(a1) == b1:
                    high = 0
                else:
                    child_hi = (a1 << _NODE_BITS) | b1 if a1 < b1 else (b1 << _NODE_BITS) | a1
                    high = cache_get((child_hi << 3) | tag, -1)
            else:
                if a0 == 1 or b0 == 1:
                    low = 1
                elif a0 == 0:
                    low = b0
                elif b0 == 0:
                    low = a0
                elif a0 == b0:
                    low = a0
                elif nots_get(a0) == b0:
                    low = 1
                else:
                    child_lo = (a0 << _NODE_BITS) | b0 if a0 < b0 else (b0 << _NODE_BITS) | a0
                    low = cache_get((child_lo << 3) | tag, -1)
                if a1 == 1 or b1 == 1:
                    high = 1
                elif a1 == 0:
                    high = b1
                elif b1 == 0:
                    high = a1
                elif a1 == b1:
                    high = a1
                elif nots_get(a1) == b1:
                    high = 1
                else:
                    child_hi = (a1 << _NODE_BITS) | b1 if a1 < b1 else (b1 << _NODE_BITS) | a1
                    high = cache_get((child_hi << 3) | tag, -1)
            if low < 0:
                push(child_lo)
                if high < 0 and child_hi != child_lo:
                    push(child_hi)
                continue
            if high < 0:
                push(child_hi)
                continue
            # Unique-table insertion, inlined (including allocation).
            if low == high:
                result = low
            else:
                table = utables[level]
                k = (low << _NODE_BITS) | high
                result = table.get(k)
                if result is None:
                    if free:
                        result = free.pop()
                        var[result] = level
                        lows[result] = low
                        highs[result] = high
                    else:
                        result = len(var)
                        if result >= _NODE_LIMIT:  # pragma: no cover
                            raise MemoryError("BDD node store exceeded 2**26 nodes")
                        var_append(level)
                        lo_append(low)
                        hi_append(high)
                        ref_append(0)
                    table[k] = result
                    entries_added += 1
            cache[key] = result
            stack.pop()
        self._entries += entries_added
        return cache[(((root_a << _NODE_BITS) | root_b) << 3) | tag]

    def _run_ite(self, root_f: int, root_g: int, root_h: int) -> int:
        """Inlined work-stack loop for general if-then-else triples.

        Mirrors :meth:`_run_binary`: cofactor expansion, memo lookup and
        unique-table insertion are inlined; child triples that normalise
        to a conjunction or disjunction are delegated to the binary loop.
        """
        cache = self._op_cache
        var = self._var
        lows = self._lo
        highs = self._hi
        norm_ite = self._norm_ite
        stack = [((root_f << _NODE_BITS) | root_g) << _NODE_BITS | root_h]
        push = stack.append
        while stack:
            frame = stack[-1]
            key = (frame << 3) | _TAG_ITE
            if key in cache:
                stack.pop()
                continue
            h = frame & _NODE_MASK
            g = (frame >> _NODE_BITS) & _NODE_MASK
            f = frame >> (2 * _NODE_BITS)
            lf = var[f]
            lg = var[g]
            lh = var[h]
            level = lf if lf < lg else lg
            if lh < level:
                level = lh
            if lf == level:
                f0, f1 = lows[f], highs[f]
            else:
                f0 = f1 = f
            if lg == level:
                g0, g1 = lows[g], highs[g]
            else:
                g0 = g1 = g
            if lh == level:
                h0, h1 = lows[h], highs[h]
            else:
                h0 = h1 = h
            low_key = norm_ite(f0, g0, h0)
            if low_key >= _NODE_LIMIT:
                low = cache.get(low_key)
                if low is None:
                    ctag = low_key & 7
                    if ctag == _TAG_ITE:
                        push(low_key >> 3)
                        continue
                    body = low_key >> 3
                    low = self._run_binary(ctag, body >> _NODE_BITS, body & _NODE_MASK)
            else:
                low = low_key
            high_key = norm_ite(f1, g1, h1)
            if high_key >= _NODE_LIMIT:
                high = cache.get(high_key)
                if high is None:
                    ctag = high_key & 7
                    if ctag == _TAG_ITE:
                        push(high_key >> 3)
                        continue
                    body = high_key >> 3
                    high = self._run_binary(ctag, body >> _NODE_BITS, body & _NODE_MASK)
            else:
                high = high_key
            cache[key] = self._make_node(level, low, high)
            stack.pop()
        return cache[((((root_f << _NODE_BITS) | root_g) << _NODE_BITS | root_h) << 3) | _TAG_ITE]

    def _expand(self, key: int):
        """One-time expansion of a quantification task frame.

        Returns ``(level, low_key, high_key, combine)`` where ``combine``
        names how the two child results are joined: ``-1`` for a plain
        node at ``level``, or a binary tag for a quantified level (where
        a dominant low result also short-circuits).
        """
        var = self._var
        lows = self._lo
        highs = self._hi
        tag = key & 7
        body = key >> 3
        if tag == _TAG_E or tag == _TAG_A:
            quant_key = body & _NODE_MASK
            node = body >> _NODE_BITS
            level = var[node]
            low_key = self._norm_quant(tag, lows[node], quant_key)
            high_key = self._norm_quant(tag, highs[node], quant_key)
            if level in self._quant_levels[quant_key][0]:
                combine = _TAG_OR if tag == _TAG_E else _TAG_AND
            else:
                combine = -1
            return level, low_key, high_key, combine
        # _TAG_EA
        quant_key = body & _NODE_MASK
        rest = body >> _NODE_BITS
        g = rest & _NODE_MASK
        f = rest >> _NODE_BITS
        lf, lg = var[f], var[g]
        level = lf if lf < lg else lg
        if lf == level:
            f0, f1 = lows[f], highs[f]
        else:
            f0 = f1 = f
        if lg == level:
            g0, g1 = lows[g], highs[g]
        else:
            g0 = g1 = g
        low_key = self._norm_and_exists(f0, g0, quant_key)
        high_key = self._norm_and_exists(f1, g1, quant_key)
        combine = _TAG_OR if level in self._quant_levels[quant_key][0] else -1
        return level, low_key, high_key, combine

    def _run(self, root: int) -> int:
        """Evaluate one normalised quantification task (and what it spawns).

        The generic engine for the quantification sweeps; AND/OR subtrees
        spawned by normalisation are delegated to the specialised inlined
        loop.  An explicit work stack replaces recursion, so operand depth
        is bounded by available memory rather than the Python recursion
        limit; a frame is re-examined after each missing child completes.
        """
        cache = self._op_cache
        stack = [root]
        push = stack.append
        while stack:
            key = stack[-1]
            if key in cache:
                stack.pop()
                continue
            level, low_key, high_key, combine = self._expand(key)
            if low_key >= _NODE_LIMIT:
                low = cache.get(low_key)
                if low is None:
                    ctag = low_key & 7
                    if ctag == _TAG_AND or ctag == _TAG_OR:
                        body = low_key >> 3
                        low = self._run_binary(ctag, body >> _NODE_BITS, body & _NODE_MASK)
                    else:
                        push(low_key)
                        continue
            else:
                low = low_key
            if combine >= 0 and low == (TRUE_NODE if combine == _TAG_OR else FALSE_NODE):
                cache[key] = low
                stack.pop()
                continue
            if high_key >= _NODE_LIMIT:
                high = cache.get(high_key)
                if high is None:
                    ctag = high_key & 7
                    if ctag == _TAG_AND or ctag == _TAG_OR:
                        body = high_key >> 3
                        high = self._run_binary(ctag, body >> _NODE_BITS, body & _NODE_MASK)
                    else:
                        push(high_key)
                        continue
            else:
                high = high_key
            if combine < 0:
                cache[key] = self._make_node(level, low, high)
            else:
                cache[key] = self._binary(combine, low, high)
            stack.pop()
        return cache[root]

    def _binary(self, tag: int, a: int, b: int) -> int:
        # _norm2 inlined: three-quarters of all calls are decided here, so
        # the extra call level would be pure overhead on the hot path.
        if tag == _TAG_AND:
            if a == FALSE_NODE or b == FALSE_NODE:
                return FALSE_NODE
            if a == TRUE_NODE:
                return b
            if b == TRUE_NODE:
                return a
            if a == b:
                return a
            if self._not_cache.get(a) == b:
                return FALSE_NODE
        else:  # or
            if a == TRUE_NODE or b == TRUE_NODE:
                return TRUE_NODE
            if a == FALSE_NODE:
                return b
            if b == FALSE_NODE:
                return a
            if a == b:
                return a
            if self._not_cache.get(a) == b:
                return TRUE_NODE
        if a > b:
            a, b = b, a
        cached = self._op_cache.get((((a << _NODE_BITS) | b) << 3) | tag)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        return self._run_binary(tag, a, b)

    # -- core operations --------------------------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: the function ``f ? g : h``; all boolean ops reduce to it."""
        key = self._norm_ite(f, g, h)
        if key < _NODE_LIMIT:
            return key
        cached = self._op_cache.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        tag = key & 7
        body = key >> 3
        if tag == _TAG_ITE:
            return self._run_ite(
                body >> (2 * _NODE_BITS),
                (body >> _NODE_BITS) & _NODE_MASK,
                body & _NODE_MASK,
            )
        return self._run_binary(tag, body >> _NODE_BITS, body & _NODE_MASK)

    def not_(self, f: int) -> int:
        """Negation (a cached involution: ``not_(not_(f))`` is free)."""
        if f <= TRUE_NODE:
            return TRUE_NODE - f
        cache = self._not_cache
        cached = cache.get(f)
        if cached is not None:
            return cached
        cache_get = cache.get
        var = self._var
        lows = self._lo
        highs = self._hi
        utables = self._utables
        stack = [f]
        push = stack.append
        while stack:
            node = stack[-1]
            if node in cache:
                stack.pop()
                continue
            low, high = lows[node], highs[node]
            # Probe both children before pushing (one reprocessing pass).
            if low <= TRUE_NODE:
                nlow = TRUE_NODE - low
            else:
                nlow = cache_get(low, -1)
            if high <= TRUE_NODE:
                nhigh = TRUE_NODE - high
            else:
                nhigh = cache_get(high, -1)
            if nlow < 0:
                push(low)
                if nhigh < 0:
                    push(high)
                continue
            if nhigh < 0:
                push(high)
                continue
            # Unique-table insertion, inlined (nlow != nhigh always: the
            # complement of a canonical node is canonical).
            level = var[node]
            table = utables[level]
            k = (nlow << _NODE_BITS) | nhigh
            result = table.get(k)
            if result is None:
                result = self._alloc(level, nlow, nhigh)
                table[k] = result
                self._entries += 1
            cache[node] = result
            cache[result] = node
            stack.pop()
        return cache[f]

    def and_(self, f: int, g: int) -> int:
        """Conjunction."""
        return self._binary(_TAG_AND, f, g)

    def or_(self, f: int, g: int) -> int:
        """Disjunction."""
        return self._binary(_TAG_OR, f, g)

    def xor(self, f: int, g: int) -> int:
        """Exclusive or."""
        return self.ite(f, self.not_(g), g)

    def implies(self, f: int, g: int) -> int:
        """Implication ``f -> g``."""
        return self.ite(f, g, TRUE_NODE)

    def iff(self, f: int, g: int) -> int:
        """Equivalence ``f <-> g``."""
        return self.ite(f, g, self.not_(g))

    def and_all(self, nodes: Iterable[int]) -> int:
        """Conjunction of many functions.

        A product of single-variable literals (every scoreboard stall cube
        is one) takes the zero-apply literal-chain fast path; anything
        else goes through :meth:`_reduce_connective`: a balanced pairwise
        tree per band of overlapping operands, the bands folded bottom-up.
        """
        items = [node for node in nodes if node != TRUE_NODE]
        if FALSE_NODE in items:
            return FALSE_NODE
        if not items:
            return TRUE_NODE
        cube = self._literal_cube(items)
        if cube is not None:
            return cube
        return self._reduce_connective(_TAG_AND, items, FALSE_NODE)

    def _reduce_connective(self, tag: int, items: List[int], absorbing: int) -> int:
        """Combine many operands under one commutative connective.

        The operands split into bands (see :meth:`_bands`): connected
        components of overlapping level spans, each a disjoint slice of
        the variable order.  Within a band the operands combine as a
        balanced pairwise tree in their given order — the intermediates
        stay proportional to their own span, where a sequential fold would
        rebuild the accumulated result once per operand (quadratic).  The
        band results then fold bottom-up: every support of the accumulated
        lower bands lies strictly below the next band, so each fold walks
        only that upper band and meets the accumulator at its leaves.  The
        verification flow orders every context register-interleaved, so a
        per-register stall condition is one band per register, and each
        band is built once instead of once per tree level.  With a single
        band this is exactly the balanced tree.
        """
        bands = self._bands(items) if len(items) >= 4 else [items]
        binary = self._binary
        folded = -1
        for band in reversed(bands):
            while len(band) > 1:
                paired: List[int] = []
                append = paired.append
                for i in range(1, len(band), 2):
                    result = binary(tag, band[i - 1], band[i])
                    if result == absorbing:
                        return absorbing
                    append(result)
                if len(band) & 1:
                    append(band[-1])
                band = paired
            folded = band[0] if folded < 0 else binary(tag, band[0], folded)
        return folded

    def _bands(self, items: List[int]) -> List[List[int]]:
        """Split operands into bands of overlapping level spans, top first.

        An operand's span runs from its top level to the deepest level in
        its DAG (memoised per node); operands whose spans overlap, directly
        or through others, share a band.  Each band keeps its operands in
        their given order, since reordering a band changes the size of
        the tree's intermediates.
        """
        var = self._var
        deepest = self._deepest_level
        spans = sorted((var[node], deepest(node), index) for index, node in enumerate(items))
        groups: List[List[int]] = []
        bottom = -1
        for top, deep, index in spans:
            if top > bottom:
                groups.append([index])
            else:
                groups[-1].append(index)
            if deep > bottom:
                bottom = deep
        if len(groups) == 1:
            return [items]
        self._bands_folded += len(groups)
        return [[items[index] for index in sorted(group)] for group in groups]

    def _deepest_level(self, root: int) -> int:
        """The deepest level of any decision node reachable from ``root``."""
        memo = self._deepest
        found = memo.get(root)
        if found is not None:
            return found
        var = self._var
        lows = self._lo
        highs = self._hi
        stack = [root]
        push = stack.append
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            low = lows[node]
            high = highs[node]
            deep_low = -1 if low <= TRUE_NODE else memo.get(low)
            deep_high = -1 if high <= TRUE_NODE else memo.get(high)
            if deep_low is None or deep_high is None:
                if deep_low is None:
                    push(low)
                if deep_high is None:
                    push(high)
                continue
            deep = var[node]
            if deep_low > deep:
                deep = deep_low
            if deep_high > deep:
                deep = deep_high
            memo[node] = deep
            stack.pop()
        return memo[root]

    def _literal_cube(self, items: List[int]) -> Optional[int]:
        """Direct unique-table chain for a conjunction of literals.

        A product of single-variable literals is an ``if``-chain with one
        node per distinct variable; when every operand is a literal the
        chain is built bottom-up with plain unique-table lookups — no
        apply sweeps, no operation-cache traffic.  Returns ``None`` when
        some operand is not a literal (the caller falls back to apply).
        """
        lows = self._lo
        highs = self._hi
        var = self._var
        literals: Dict[int, bool] = {}
        for node in items:
            lo = lows[node]
            if lo > TRUE_NODE or highs[node] > TRUE_NODE:
                return None
            polarity = lo == FALSE_NODE
            level = var[node]
            seen = literals.get(level)
            if seen is None:
                literals[level] = polarity
            elif seen != polarity:
                return FALSE_NODE
        result = TRUE_NODE
        for level in sorted(literals, reverse=True):
            if literals[level]:
                result = self._make_node(level, FALSE_NODE, result)
            else:
                result = self._make_node(level, result, FALSE_NODE)
        return result

    def or_all(self, nodes: Iterable[int]) -> int:
        """Disjunction of many functions (dual of :meth:`and_all`)."""
        items = [node for node in nodes if node != FALSE_NODE]
        if TRUE_NODE in items:
            return TRUE_NODE
        if not items:
            return FALSE_NODE
        clause = self._literal_clause(items)
        if clause is not None:
            return clause
        return self._reduce_connective(_TAG_OR, items, TRUE_NODE)

    def _literal_clause(self, items: List[int]) -> Optional[int]:
        """Direct unique-table chain for a disjunction of literals.

        Dual of :meth:`_literal_cube`: a sum of single-variable literals
        is an ``else``-chain built bottom-up without apply sweeps.
        Returns ``None`` when some operand is not a literal.
        """
        lows = self._lo
        highs = self._hi
        var = self._var
        literals: Dict[int, bool] = {}
        for node in items:
            lo = lows[node]
            if lo > TRUE_NODE or highs[node] > TRUE_NODE:
                return None
            polarity = lo == FALSE_NODE
            level = var[node]
            seen = literals.get(level)
            if seen is None:
                literals[level] = polarity
            elif seen != polarity:
                return TRUE_NODE
        result = FALSE_NODE
        for level in sorted(literals, reverse=True):
            if literals[level]:
                result = self._make_node(level, result, TRUE_NODE)
            else:
                result = self._make_node(level, TRUE_NODE, result)
        return result

    # -- restriction, composition, quantification -------------------------------

    def restrict(self, f: int, name: str, value: bool) -> int:
        """Cofactor of ``f`` with variable ``name`` fixed to ``value``."""
        level = self.declare(name)
        var = self._var
        lows = self._lo
        highs = self._hi
        cache: Dict[int, int] = {}
        if f <= TRUE_NODE or var[f] > level:
            return f
        stack = [f]
        push = stack.append
        while stack:
            node = stack[-1]
            if node in cache:
                stack.pop()
                continue
            node_level = var[node]
            if node_level == level:
                cache[node] = highs[node] if value else lows[node]
                stack.pop()
                continue
            c0 = lows[node]
            if c0 <= TRUE_NODE or var[c0] > level:
                low = c0
            else:
                low = cache.get(c0)
                if low is None:
                    push(c0)
                    continue
            c1 = highs[node]
            if c1 <= TRUE_NODE or var[c1] > level:
                high = c1
            else:
                high = cache.get(c1)
                if high is None:
                    push(c1)
                    continue
            cache[node] = self._make_node(node_level, low, high)
            stack.pop()
        return cache[f]

    def compose(self, f: int, name: str, g: int) -> int:
        """Substitute function ``g`` for variable ``name`` in ``f``."""
        return self.compose_many(f, {name: g})

    def compose_many(self, f: int, mapping: Dict[str, int]) -> int:
        """Simultaneous substitution of several variables by functions.

        Implemented by an iterative sweep over levels using ``ite`` so the
        substitution really is simultaneous (inner compositions do not see
        each other's replacements).  Nodes strictly below the deepest
        substituted level are returned unchanged without being visited —
        in the derivation fixed point the mode-enable flags sit at the top
        of the order, so this cutoff skips almost the whole operand.
        """
        if not mapping:
            return f
        subst = {self.declare(name): g for name, g in mapping.items()}
        max_level = max(subst)
        var = self._var
        lows = self._lo
        highs = self._hi
        if f <= TRUE_NODE or var[f] > max_level:
            return f
        cache: Dict[int, int] = {}
        stack = [f]
        push = stack.append
        while stack:
            node = stack[-1]
            if node in cache:
                stack.pop()
                continue
            c0 = lows[node]
            if c0 <= TRUE_NODE or var[c0] > max_level:
                low = c0
            else:
                low = cache.get(c0)
                if low is None:
                    push(c0)
                    continue
            c1 = highs[node]
            if c1 <= TRUE_NODE or var[c1] > max_level:
                high = c1
            else:
                high = cache.get(c1)
                if high is None:
                    push(c1)
                    continue
            level = var[node]
            g = subst.get(level)
            if g is not None:
                result = self.ite(g, high, low)
            elif var[low] > level and var[high] > level:
                result = self._make_node(level, low, high)
            else:
                # Substitution below pulled in variables at or above
                # this level; rebuild through ite to restore the order.
                result = self.ite(
                    self._make_node(level, FALSE_NODE, TRUE_NODE), high, low
                )
            cache[node] = result
            stack.pop()
        return cache[f]

    # -- covers ------------------------------------------------------------------

    @contextmanager
    def _level_bounded_recursion(self):
        """Lift the interpreter recursion limit to the depth the order needs.

        The operation kernel is iterative and never touches this, but the
        cover/cofactor algorithms below are clearest recursive and descend
        at most one frame per variable level — a *bounded* depth, unlike
        the operand-shaped recursion the kernel eliminated.  Wide orders
        (hundreds of registers expand to thousands of one-hot levels)
        would still trip CPython's default 1000-frame limit, so the limit
        is raised to cover the declared order and restored on exit.
        """
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        needed = depth + 2 * len(self._level_vars) + 512
        previous = sys.getrecursionlimit()
        if previous >= needed:
            yield
            return
        sys.setrecursionlimit(needed)
        try:
            yield
        finally:
            sys.setrecursionlimit(previous)

    def isop(
        self, lower: int, upper: int, max_cubes: Optional[int] = None
    ) -> Tuple[int, tuple]:
        """An irredundant sum-of-products between ``lower`` and ``upper``.

        Minato's ISOP algorithm: returns ``(node, cubes)`` where ``cubes``
        is a tuple of product terms — each a tuple of ``(level, polarity)``
        literals — whose disjunction denotes ``node``, with ``lower ≤ node ≤
        upper`` (callers must ensure ``lower`` implies ``upper``; pass the
        same node twice for an exact cover).  The cover is irredundant: no
        cube or literal can be dropped without uncovering part of ``lower``.
        Completed sub-covers are memoised structurally (as lazy cover
        spines), but a repeated call still flattens every cube again, and
        a call that aborted on its budget stored none of the frames it
        was inside, so a retry recomputes them.  Callers that need a cover
        more than once keep it: :class:`~repro.symbolic.SymbolicContext`
        stores one per node.

        ``max_cubes`` bounds the size of any intermediate cover; when
        exceeded :class:`CoverBudgetExceeded` is raised.  A mostly-true
        function has an exponential direct cover but a compact complement
        cover (or vice versa); the budget lets a caller try both sides
        without risking the exponential one.  Sub-results completed before
        an abort stay cached, so a retry (or the other polarity) reuses
        them.
        """
        cache = self._isop_cache
        binary = self._binary
        not_ = self.not_
        nots = self._not_cache
        var = self._var
        lows = self._lo
        highs = self._hi

        # The recursion carries a lazy *spine* instead of concrete cube
        # tuples: ``0`` is the empty cover, ``1`` the tautology cube, and
        # ``(level, s0, s1, sd)`` a branch.  Prepending this level's literal
        # to every cube below (as the textbook formulation does) makes the
        # total work quadratic in cover depth; the spine makes each combine
        # O(1) and the cubes are materialized once, at the top, only for
        # covers that actually complete within budget.

        def rec(lo: int, up: int) -> tuple:
            if lo == FALSE_NODE:
                return FALSE_NODE, 0, 0
            if up == TRUE_NODE:
                return TRUE_NODE, 1, 1
            key = (lo << _NODE_BITS) | up
            cached = cache.get(key)
            if cached is not None:
                if max_cubes is not None and cached[1] > max_cubes:
                    raise CoverBudgetExceeded(f"cover exceeds {max_cubes} cubes")
                return cached
            llo = var[lo]
            lup = var[up]
            level = llo if llo < lup else lup
            if llo == level:
                lo0, lo1 = lows[lo], highs[lo]
            else:
                lo0 = lo1 = lo
            if lup == level:
                up0, up1 = lows[up], highs[up]
            else:
                up0 = up1 = up
            # Cubes that must contain the negative literal of this variable
            # cover the part of the low on-set excluded from the high bound,
            # and dually for the positive literal.  The constant cases are
            # resolved inline — most of them are, and each saves a negation
            # lookup, an apply probe and a recursive call.
            if lo0 == FALSE_NODE or up1 == TRUE_NODE:
                node0 = count0 = s0 = 0
            else:
                n_up1 = nots.get(up1)
                if n_up1 is None:
                    n_up1 = not_(up1)
                node0, count0, s0 = rec(binary(_TAG_AND, lo0, n_up1), up0)
            if lo1 == FALSE_NODE or up0 == TRUE_NODE:
                node1 = count1 = s1 = 0
            else:
                n_up0 = nots.get(up0)
                if n_up0 is None:
                    n_up0 = not_(up0)
                node1, count1, s1 = rec(binary(_TAG_AND, lo1, n_up0), up1)
            # Whatever the literal cubes left uncovered may be covered by
            # cubes that do not mention the variable at all.
            if node0 == FALSE_NODE:
                part0 = lo0
            else:
                n_node0 = nots.get(node0)
                if n_node0 is None:
                    n_node0 = not_(node0)
                part0 = binary(_TAG_AND, lo0, n_node0)
            if node1 == FALSE_NODE:
                part1 = lo1
            else:
                n_node1 = nots.get(node1)
                if n_node1 is None:
                    n_node1 = not_(node1)
                part1 = binary(_TAG_AND, lo1, n_node1)
            if part0 == FALSE_NODE and part1 == FALSE_NODE:
                node_d = count_d = sd = 0
            else:
                rest_lower = binary(_TAG_OR, part0, part1)
                upper_d = up0 if up0 == up1 else binary(_TAG_AND, up0, up1)
                node_d, count_d, sd = rec(rest_lower, upper_d)
            # The cover node is x'·node0 + x·node1 + node_d; every summand's
            # support sits strictly below this level, so the Shannon form
            # (x ? node1 + node_d : node0 + node_d) builds it with two
            # disjunctions and one unique-table lookup instead of five
            # apply sweeps.
            if node_d == FALSE_NODE:
                branch0, branch1 = node0, node1
            else:
                branch0 = node_d if node0 == FALSE_NODE else binary(_TAG_OR, node0, node_d)
                branch1 = node_d if node1 == FALSE_NODE else binary(_TAG_OR, node1, node_d)
            node = self._make_node(level, branch0, branch1)
            count = count0 + count1 + count_d
            if max_cubes is not None and count > max_cubes:
                raise CoverBudgetExceeded(f"cover exceeds {max_cubes} cubes")
            result = (node, count, (level, s0, s1, sd))
            cache[key] = result
            return result

        cubes_out: List[tuple] = []
        prefix: List[Tuple[int, bool]] = []

        def flatten(spine) -> None:
            if spine == 1:
                cubes_out.append(tuple(prefix))
                return
            if spine == 0:
                return
            level, s0, s1, sd = spine
            prefix.append((level, False))
            flatten(s0)
            prefix[-1] = (level, True)
            flatten(s1)
            prefix.pop()
            flatten(sd)

        with self._level_bounded_recursion():
            node, _, spine = rec(lower, upper)
            flatten(spine)
            return node, tuple(cubes_out)

    def _quant_key(self, names: Iterable[str]) -> Optional[int]:
        levels = frozenset(self.declare(name) for name in names)
        if not levels:
            return None
        key = self._quant_sets.get(levels)
        if key is None:
            key = len(self._quant_levels)
            self._quant_sets[levels] = key
            self._quant_levels.append((levels, max(levels)))
        return key

    def _quantify(self, tag: int, f: int, names: Iterable[str]) -> int:
        quant_key = self._quant_key(names)
        if quant_key is None:
            return f
        key = self._norm_quant(tag, f, quant_key)
        if key < _NODE_LIMIT:
            return key
        cached = self._op_cache.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        return self._run(key)

    def exists(self, f: int, names: Iterable[str]) -> int:
        """Existential quantification over the given variables.

        A single memoised pass over the BDD quantifies every variable at
        once (rather than two cofactor rebuilds per variable), and the memo
        survives across calls with the same variable set.
        """
        return self._quantify(_TAG_E, f, names)

    def forall(self, f: int, names: Iterable[str]) -> int:
        """Universal quantification over the given variables (one fused pass)."""
        return self._quantify(_TAG_A, f, names)

    def and_exists(self, f: int, g: int, names: Iterable[str]) -> int:
        """The relational product ``∃ names . f ∧ g`` in one fused sweep.

        Equivalent to ``exists(and_(f, g), names)`` but never materialises
        the conjunction: quantified levels turn into disjunctions on the
        way back up, and a TRUE low branch short-circuits the high branch.
        """
        quant_key = self._quant_key(names)
        if quant_key is None:
            return self._binary(_TAG_AND, f, g)
        key = self._norm_and_exists(f, g, quant_key)
        if key < _NODE_LIMIT:
            return key
        cached = self._op_cache.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        tag = key & 7
        if tag == _TAG_AND:
            # Both operands sit below every quantified level; the product
            # degenerated to a plain conjunction.
            body = key >> 3
            return self._run_binary(tag, body >> _NODE_BITS, body & _NODE_MASK)
        return self._run(key)

    # -- garbage collection ------------------------------------------------------

    def protect(self, node: int) -> int:
        """Pin a node (and everything reachable from it) across :meth:`gc`.

        Every externally held raw node id must be protected — or held
        through a ``SymbolicFunction``, which protects automatically — for
        ``gc`` to be safe.  Returns the node for chaining.
        """
        if node > TRUE_NODE:
            self._ref[node] += 1
        return node

    def release(self, node: int) -> None:
        """Undo one :meth:`protect`; unpinned nodes become collectable."""
        if node > TRUE_NODE and self._ref[node] > 0:
            self._ref[node] -= 1

    def add_sweep_hook(self, hook: Callable[[Callable[[int], bool]], None]) -> None:
        """Register a callback invoked after every sweep with an ``alive``
        predicate, so higher-level caches can drop entries whose node ids
        were reclaimed (ids are reused — stale entries would alias new
        functions).
        """
        self._sweep_hooks.append(hook)

    def gc(self, extra_roots: Iterable[int] = ()) -> int:
        """Mark-and-sweep collection of dead nodes; returns the count reclaimed.

        Roots are all protected nodes (``_ref > 0``) plus ``extra_roots``.
        All operation, ISOP and deepest-level memo tables are cleared
        (their keys embed node ids), the negation cache is filtered down
        to live pairs, and the per-level unique tables are rebuilt from
        the survivors.
        """
        var = self._var
        lows = self._lo
        highs = self._hi
        size = len(var)
        ref = self._ref
        stack = [i for i in range(2, size) if ref[i]]
        stack.extend(node for node in extra_roots if node > TRUE_NODE)
        marked = bytearray(size)
        marked[0] = marked[1] = 1
        while stack:
            node = stack.pop()
            if marked[node]:
                continue
            marked[node] = 1
            child = lows[node]
            if child > TRUE_NODE and not marked[child]:
                stack.append(child)
            child = highs[node]
            if child > TRUE_NODE and not marked[child]:
                stack.append(child)
        # Sweep dead nodes onto the free list.
        free = self._free
        reclaimed = 0
        for i in range(2, size):
            if not marked[i] and var[i] >= 0:
                var[i] = -1
                free.append(i)
                reclaimed += 1
        # Memo keys embed node ids; drop everything that may be stale.
        self._op_cache.clear()
        self._isop_cache.clear()
        self._deepest.clear()
        self._not_cache = {
            a: b for a, b in self._not_cache.items() if marked[a] and marked[b]
        }
        self._rebuild_tables()
        alive = lambda node: 0 <= node < size and bool(marked[node])  # noqa: E731
        for hook in self._sweep_hooks:
            hook(alive)
        self._gc_runs += 1
        self._gc_reclaimed += reclaimed
        return reclaimed

    def _rebuild_tables(self) -> None:
        """Rebuild every per-level unique table from the live nodes."""
        var = self._var
        lows = self._lo
        highs = self._hi
        size = len(var)
        tables: List[dict] = [{} for _ in self._level_vars]
        total = 0
        for i in range(2, size):
            level = var[i]
            if level >= 0:
                tables[level][(lows[i] << _NODE_BITS) | highs[i]] = i
                total += 1
        self._utables = tables
        self._entries = total

    # -- health counters -----------------------------------------------------------

    def stats(self) -> BddStats:
        """A snapshot of node-store, cache and GC health counters."""
        # Slot-count estimate of the interpreter's open-addressed tables:
        # a CPython dict resizes at 2/3 load to the next power of two.
        capacity = 0
        for table in self._utables:
            slots = 8
            while 3 * len(table) >= 2 * slots:
                slots <<= 1
            capacity += slots
        hits = self._hits
        misses = self._misses
        total = hits + misses
        return BddStats(
            live_nodes=self.num_nodes(),
            allocated_slots=len(self._var),
            free_slots=len(self._free),
            num_vars=len(self._level_vars),
            unique_entries=self._entries,
            unique_capacity=capacity,
            load_factor=(self._entries / capacity) if capacity else 0.0,
            op_cache_entries=len(self._op_cache),
            not_cache_entries=len(self._not_cache),
            isop_cache_entries=len(self._isop_cache),
            cache_hits=hits,
            cache_misses=misses,
            hit_rate=(hits / total) if total else 0.0,
            gc_runs=self._gc_runs,
            gc_reclaimed=self._gc_reclaimed,
            bands_folded=self._bands_folded,
        )

    # -- queries -----------------------------------------------------------------

    def is_true(self, f: int) -> bool:
        """Is ``f`` the constant TRUE function?"""
        return f == TRUE_NODE

    def is_false(self, f: int) -> bool:
        """Is ``f`` the constant FALSE function?"""
        return f == FALSE_NODE

    def equivalent(self, f: int, g: int) -> bool:
        """Are ``f`` and ``g`` the same function?  Constant time."""
        return f == g

    def evaluate(self, f: int, assignment: Dict[str, bool]) -> bool:
        """Evaluate ``f`` under a total assignment of its support variables."""
        node = f
        while node > TRUE_NODE:
            name = self._level_vars[self._var[node]]
            try:
                value = assignment[name]
            except KeyError as exc:
                raise KeyError(f"assignment is missing variable {name!r}") from exc
            node = self._hi[node] if value else self._lo[node]
        return node == TRUE_NODE

    def support(self, f: int) -> frozenset:
        """The set of variables the function actually depends on."""
        var = self._var
        lows = self._lo
        highs = self._hi
        seen = set()
        seen_add = seen.add
        levels = set()
        levels_add = levels.add
        stack = [f]
        push = stack.append
        pop = stack.pop
        while stack:
            node = pop()
            if node <= TRUE_NODE or node in seen:
                continue
            seen_add(node)
            levels_add(var[node])
            push(lows[node])
            push(highs[node])
        names = self._level_vars
        return frozenset(names[level] for level in levels)

    def density(self, f: int) -> float:
        """Fraction of assignments satisfying ``f`` (each variable p=1/2).

        A cheap O(dag) float walk — no big-integer arithmetic, no need to
        name the counting universe (the fraction is the same over any
        superset of the support).  Used as a polarity heuristic: a density
        above one half means the direct SOP cover is likely the exponential
        side and the complement cover the compact one.
        """
        memo: Dict[int, float] = {FALSE_NODE: 0.0, TRUE_NODE: 1.0}
        lows = self._lo
        highs = self._hi
        stack = [f]
        push = stack.append
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            lo = lows[node]
            hi = highs[node]
            p_lo = memo.get(lo)
            p_hi = memo.get(hi)
            if p_lo is None or p_hi is None:
                if p_lo is None:
                    push(lo)
                if p_hi is None:
                    push(hi)
                continue
            memo[node] = 0.5 * (p_lo + p_hi)
            stack.pop()
        return memo[f]

    def sat_count(self, f: int, over: Optional[Sequence[str]] = None) -> int:
        """Number of satisfying assignments over ``over`` (default: support)."""
        names = list(over) if over is not None else sorted(self.support(f))
        for name in names:
            self.declare(name)
        levels = sorted(self._var_levels[name] for name in names)
        missing = self.support(f) - set(names)
        if missing:
            raise ValueError(f"counting variables {sorted(missing)} are not in 'over'")
        index_of_level = {level: idx for idx, level in enumerate(levels)}
        total_levels = len(levels)
        cache: Dict[int, int] = {}

        def count_below(node: int, from_index: int) -> int:
            # Number of solutions of the sub-function over variables at
            # positions >= from_index.
            if node == FALSE_NODE:
                return 0
            if node == TRUE_NODE:
                return 1 << (total_levels - from_index)
            key = node
            node_index = index_of_level[self._var[node]]
            gap = node_index - from_index
            if key in cache:
                return cache[key] << gap
            low = count_below(self._lo[node], node_index + 1)
            high = count_below(self._hi[node], node_index + 1)
            cache[key] = low + high
            return (low + high) << gap

        with self._level_bounded_recursion():
            return count_below(f, 0)

    def pick_one(self, f: int) -> Optional[Dict[str, bool]]:
        """One satisfying assignment over the support of ``f``, or None."""
        if f == FALSE_NODE:
            return None
        assignment: Dict[str, bool] = {}
        node = f
        while node > TRUE_NODE:
            name = self._level_vars[self._var[node]]
            if self._hi[node] != FALSE_NODE:
                assignment[name] = True
                node = self._hi[node]
            else:
                assignment[name] = False
                node = self._lo[node]
        for name in self.support(f):
            assignment.setdefault(name, False)
        return assignment

    def dag_size(self, f: int) -> int:
        """Number of distinct nodes reachable from ``f`` (excluding terminals)."""
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE_NODE or node in seen:
                continue
            seen.add(node)
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return len(seen)
