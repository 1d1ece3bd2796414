"""Runtime sanitizer for the BDD kernel and the service event loop.

``REPRO_SANITIZE=1`` turns the kernel's silent-wrong-answer bug classes
into immediate, diagnosable exceptions.  The env var is read when a
:class:`~repro.bdd.manager.BddManager` is *constructed*: construction
transparently yields a :class:`SanitizedBddManager`, so every layer
above — symbolic contexts, campaign workers, the service — runs
sanitized without a line of code changing.  When the variable is unset nothing here is imported
and the kernel pays zero cost.

What the sanitizer adds:

* **Use-after-free detection.**  Freed slots are *quarantined* instead
  of recycled and each carries a generation counter, so a raw node id
  that survives the GC keeps pointing at a tombstone
  forever — any public operation fed a stale id raises
  :class:`UseAfterFreeError` (with the slot's free generation and the
  sweep epoch) instead of returning whichever function reused the slot.
* **Cross-manager detection.**  Every public operation validates its
  node operands against this manager's store.  Ids from another manager
  land outside the store or on per-manager *poison padding* (each
  manager skews its id space by a distinct offset, so structurally equal
  nodes in two managers get different ids) and raise
  :class:`CrossManagerError`, naming the live manager that does own the
  id when one can be found.
* **Sweep-epoch memo validation.**  :meth:`SanitizedBddManager.check_integrity`
  runs after every ``gc()`` and raises
  :class:`MemoLeakError` if a unique-table, negation-cache or op-cache
  entry references a node that sweep should have evicted.
* **Protection leak accounting.**  ``protect()`` records its call site
  (skipping kernel/wrapper frames); :meth:`SanitizedBddManager.leak_report`
  aggregates the protections never released, by ``file:line`` — the
  shutdown-time answer to "who is pinning the node store".
* **Event-loop stall detection.**  :func:`loop_stall_monitor` measures
  scheduling lag and emits :class:`EventLoopStallWarning` when a
  coroutine step blocks the loop past its budget; the service wires it
  into ``start()``/``close()`` automatically under ``REPRO_SANITIZE=1``.

The sanitizer deliberately trades memory (quarantine never recycles
slots) and a constant per-operation check for diagnosis; it is a CI and
debugging mode, not a production one.  The full tier-1 suite runs green
under ``REPRO_SANITIZE=1`` in its own CI leg.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import itertools
import os
import sys
import warnings
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..bdd.manager import TRUE_NODE, BddManager, _NODE_BITS

__all__ = [
    "CrossManagerError",
    "EventLoopStallWarning",
    "MemoLeakError",
    "SanitizedBddManager",
    "SanitizerError",
    "UseAfterFreeError",
    "loop_stall_monitor",
]


class SanitizerError(RuntimeError):
    """Base class for sanitizer diagnoses (all are real contract bugs)."""


class UseAfterFreeError(SanitizerError):
    """A node id whose slot was reclaimed was fed back into the kernel."""


class CrossManagerError(SanitizerError):
    """A node id from one manager was fed into a different manager."""


class MemoLeakError(SanitizerError):
    """A memo/unique-table entry survived a sweep that should have evicted it."""


class EventLoopStallWarning(UserWarning):
    """The service event loop was blocked past the sanitizer's budget."""


#: Sentinel level for poison-padding slots: never allocated, never freed,
#: skipped by every kernel loop (which guard on ``_var[i] >= 0`` for live
#: and ``== -1`` for freed).
_POISON_LEVEL = -2

#: Live sanitized managers, so cross-manager errors can name the owner.
_LIVE_MANAGERS: "weakref.WeakSet[SanitizedBddManager]" = weakref.WeakSet()

_MANAGER_SEQ = itertools.count(1)

#: Frames from these files *inside the repro package* are skipped when
#: attributing a protect() call — the package check matters so that a
#: caller's module that merely shares a basename (``test_sanitizer.py``,
#: someone's own ``manager.py``) is still attributed.
_INTERNAL_FRAME_FILES = frozenset({"manager.py", "sanitizer.py", "function.py"})

_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _call_site() -> str:
    """``file:line`` of the nearest caller outside kernel/wrapper code."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        internal = (
            os.path.basename(filename) in _INTERNAL_FRAME_FILES
            and os.path.abspath(filename).startswith(_PACKAGE_DIR + os.sep)
        )
        if not internal:
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class SanitizedBddManager(BddManager):
    """A :class:`BddManager` with runtime contract enforcement.

    Drop-in compatible: same constructor, same public API, same results.
    Constructing one directly is how the tests exercise specific
    diagnoses; setting ``REPRO_SANITIZE=1`` makes every plain
    ``BddManager(...)`` call build one of these instead.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sanitize_seq = next(_MANAGER_SEQ)
        #: slot -> how many times it has been freed (quarantine generation).
        self._generation: Dict[int, int] = {}
        #: Slots retired forever — never returned to the allocator.
        self._quarantine: List[int] = []
        self._sweep_epoch = 0
        #: node -> stack of ``file:line`` sites holding a protection.
        self._protect_sites: Dict[int, List[str]] = {}
        # Poison padding: a per-manager run of dead slots directly after
        # the terminals, so distinct managers assign different ids to the
        # same structure and a foreign id lands on poison, not on a live
        # node.  Kernel loops skip them (level < 0, never on the free list).
        pad = 2 + (self._sanitize_seq * 29) % 61
        start = len(self._var)
        for _ in range(pad):
            self._var.append(_POISON_LEVEL)
            self._lo.append(0)
            self._hi.append(0)
            self._ref.append(0)
        self._poison_span = (start, start + pad)
        _LIVE_MANAGERS.add(self)

    # -- operand validation ----------------------------------------------------

    def _owner_description(self, node: int) -> Optional[str]:
        for manager in list(_LIVE_MANAGERS):
            if manager is self:
                continue
            # Deliberate peek at a *foreign* manager's store to name the
            # true owner in the diagnostic; read-only, no id is held.
            if 0 <= node < len(manager._var) and manager._var[node] >= 0:
                return f"SanitizedBddManager #{manager._sanitize_seq}"
        return None

    def _check_node(self, node: int, operation: str) -> None:
        """Raise unless ``node`` is a valid, live id of *this* manager."""
        if type(node) is not int:
            raise SanitizerError(
                f"{operation}() got {node!r} ({type(node).__name__}) — "
                "node ids are plain ints"
            )
        if node < 0 or node >= len(self._var):
            owner = self._owner_description(node)
            owned = f"; it is live in {owner}" if owner else ""
            raise CrossManagerError(
                f"{operation}() got node {node}, which is outside this "
                f"manager's store (manager #{self._sanitize_seq}, "
                f"{len(self._var)} slots){owned} — node ids never cross "
                "BddManager instances"
            )
        level = self._var[node]
        if level == _POISON_LEVEL:
            owner = self._owner_description(node)
            owned = f"; it is live in {owner}" if owner else ""
            raise CrossManagerError(
                f"{operation}() got node {node}, which falls on manager "
                f"#{self._sanitize_seq}'s poison padding{owned} — it was "
                "built by a different manager"
            )
        if level == -1:
            generation = self._generation.get(node, 1)
            raise UseAfterFreeError(
                f"{operation}() got node {node}, freed in sweep epoch "
                f"{self._sweep_epoch} (slot generation {generation}) — the "
                "id was held across a gc() without protect() or a "
                "SymbolicFunction wrap"
            )

    def _check_nodes(self, nodes: Iterable[int], operation: str) -> List[int]:
        items = list(nodes)
        for node in items:
            self._check_node(node, operation)
        return items

    # -- quarantine (use-after-free) -------------------------------------------

    def _quarantine_freed(self) -> None:
        """Retire everything the last sweep freed; stale ids stay tombstones."""
        free = self._free
        if not free:
            return
        for slot in free:
            self._generation[slot] = self._generation.get(slot, 0) + 1
        self._quarantine.extend(free)
        del free[:]

    def gc(self, extra_roots: Iterable[int] = ()) -> int:
        roots = self._check_nodes(extra_roots, "gc")
        reclaimed = super().gc(roots)
        self._sweep_epoch += 1
        self._quarantine_freed()
        self.check_integrity()
        return reclaimed

    # -- sweep-epoch memo validation -------------------------------------------

    def _is_live(self, node: int) -> bool:
        return 0 <= node < len(self._var) and (
            node <= TRUE_NODE or self._var[node] >= 0
        )

    def check_integrity(self) -> None:
        """Validate unique tables and memo caches against the live store.

        Called automatically after every sweep; raises
        :class:`MemoLeakError` when an entry references a reclaimed slot
        (the bug class where a stale memo resurrects a dead id) and
        :class:`SanitizerError` for structural damage (mis-levelled or
        mis-keyed unique-table entries).
        """
        epoch = self._sweep_epoch
        for level, table in enumerate(self._utables):
            for key, node in table.items():
                if not self._is_live(node) or node <= TRUE_NODE:
                    raise MemoLeakError(
                        f"unique table level {level} references dead node "
                        f"{node} after sweep epoch {epoch}"
                    )
                if self._var[node] != level:
                    raise SanitizerError(
                        f"unique table level {level} holds node {node} whose "
                        f"level is {self._var[node]}"
                    )
                if ((self._lo[node] << _NODE_BITS) | self._hi[node]) != key:
                    raise SanitizerError(
                        f"unique table level {level} key {key} does not match "
                        f"node {node}'s children"
                    )
        for a, b in self._not_cache.items():
            if not (self._is_live(a) and self._is_live(b)):
                raise MemoLeakError(
                    f"negation cache pair ({a}, {b}) survived sweep epoch "
                    f"{epoch} with a dead side"
                )
        for value in self._op_cache.values():
            if not self._is_live(value):
                raise MemoLeakError(
                    f"op cache result {value} is dead after sweep epoch {epoch}"
                )
        for node in self._deepest:
            if not self._is_live(node):
                raise MemoLeakError(
                    f"deepest-level memo node {node} is dead after sweep epoch {epoch}"
                )
        for entry in self._isop_cache.values():
            node = entry[0]
            if not self._is_live(node):
                raise MemoLeakError(
                    f"isop cache node {node} is dead after sweep epoch {epoch}"
                )

    # -- protection accounting --------------------------------------------------

    def protect(self, node: int) -> int:
        self._check_node(node, "protect")
        if node > TRUE_NODE:
            self._protect_sites.setdefault(node, []).append(_call_site())
        return super().protect(node)

    def release(self, node: int) -> None:
        self._check_node(node, "release")
        if node > TRUE_NODE and self._ref[node] > 0:
            sites = self._protect_sites.get(node)
            if sites:
                sites.pop()
                if not sites:
                    del self._protect_sites[node]
        super().release(node)

    def stats(self):
        """Kernel stats with the sanitizer's bookkeeping slots factored out.

        Poison padding is subtracted from ``allocated_slots`` (those slots
        were never allocatable) and quarantined slots count as free (they
        *are* reclaimed — just never recycled), so the public invariant
        ``allocated == live + free`` holds under the sanitizer too.
        """
        snapshot = super().stats()
        start, end = self._poison_span
        return dataclasses.replace(
            snapshot,
            allocated_slots=snapshot.allocated_slots - (end - start),
            free_slots=snapshot.free_slots + len(self._quarantine),
        )

    def leak_report(self) -> Dict[str, int]:
        """Unreleased protections, aggregated by ``file:line`` call site.

        Nodes still legitimately held (e.g. by live ``SymbolicFunction``
        objects) appear here too — at shutdown, after dropping every
        handle, a non-empty report means protect/release imbalance.
        """
        leaks: Dict[str, int] = {}
        for node, sites in self._protect_sites.items():
            if node < len(self._ref) and self._ref[node] > 0:
                for site in sites:
                    leaks[site] = leaks.get(site, 0) + 1
        return leaks

    def describe_leaks(self) -> str:
        """Human-readable :meth:`leak_report` (empty string when clean)."""
        leaks = self.leak_report()
        if not leaks:
            return ""
        lines = [
            f"repro sanitizer: manager #{self._sanitize_seq} has "
            f"{sum(leaks.values())} unreleased protection(s):"
        ]
        for site, count in sorted(leaks.items(), key=lambda item: -item[1]):
            lines.append(f"  {site}: {count}")
        return "\n".join(lines)


def _validated(name: str, positions: Tuple[int, ...]) -> Callable:
    base = getattr(BddManager, name)

    @functools.wraps(base)
    def method(self, *args, **kwargs):
        for position in positions:
            if position < len(args):
                self._check_node(args[position], name)
        return base(self, *args, **kwargs)

    return method


# Public operations taking node ids at fixed positions (0-based, after
# self).  protect/release/gc have bespoke overrides above;
# and_all/or_all/compose_many take collections and are overridden below.
_VALIDATED_OPERATIONS = {
    "ite": (0, 1, 2),
    "not_": (0,),
    "and_": (0, 1),
    "or_": (0, 1),
    "xor": (0, 1),
    "implies": (0, 1),
    "iff": (0, 1),
    "restrict": (0,),
    "compose": (0, 2),
    "exists": (0,),
    "forall": (0,),
    "and_exists": (0, 1),
    "isop": (0,),
    "is_true": (0,),
    "is_false": (0,),
    "equivalent": (0, 1),
    "evaluate": (0,),
    "support": (0,),
    "density": (0,),
    "sat_count": (0,),
    "pick_one": (0,),
    "dag_size": (0,),
}

for _name, _positions in _VALIDATED_OPERATIONS.items():
    setattr(SanitizedBddManager, _name, _validated(_name, _positions))
del _name, _positions


def _validated_collection(name: str) -> Callable:
    base = getattr(BddManager, name)

    @functools.wraps(base)
    def method(self, nodes, *args, **kwargs):
        return base(self, self._check_nodes(nodes, name), *args, **kwargs)

    return method


SanitizedBddManager.and_all = _validated_collection("and_all")
SanitizedBddManager.or_all = _validated_collection("or_all")


def _compose_many(self, f: int, mapping: Dict[str, int]) -> int:
    self._check_node(f, "compose_many")
    for node in mapping.values():
        self._check_node(node, "compose_many")
    return BddManager.compose_many(self, f, mapping)


SanitizedBddManager.compose_many = functools.wraps(BddManager.compose_many)(
    _compose_many
)


# -- event-loop stall detection ------------------------------------------------


async def loop_stall_monitor(
    interval: float = 0.05,
    budget: float = 0.25,
    warn: Optional[Callable[[str], None]] = None,
) -> None:
    """Warn whenever the running event loop stalls past ``budget`` seconds.

    Sleeps ``interval`` seconds in a loop and measures scheduling lag —
    the time the wakeup was *late*.  Lag beyond ``budget`` means some
    coroutine step blocked the loop (exactly the RPL005 bug class, caught
    at runtime).  Emits :class:`EventLoopStallWarning` through ``warn``
    (default: :func:`warnings.warn`).  Run as a task; cancel to stop —
    the service does both automatically under ``REPRO_SANITIZE=1``.
    """
    loop = asyncio.get_running_loop()

    def default_warn(message: str) -> None:
        warnings.warn(EventLoopStallWarning(message), stacklevel=2)

    emit = warn or default_warn
    while True:
        before = loop.time()
        await asyncio.sleep(interval)
        lag = loop.time() - before - interval
        if lag > budget:
            emit(
                f"event loop stalled for {lag:.3f}s (budget {budget:.3f}s) — "
                "a coroutine is doing blocking work on the loop thread"
            )
