"""Tests for the runtime sanitizer (REPRO_SANITIZE=1).

Each bug class the sanitizer exists to catch is injected deliberately
and must raise its dedicated exception with a diagnosable message; the
equivalence tests pin that sanitized managers compute the *same results*
as plain ones, so the whole tier-1 suite can run under the env flag.
"""

import asyncio
import time

import pytest

from repro.bdd.manager import BddManager
from repro.devtools.sanitizer import (
    CrossManagerError,
    MemoLeakError,
    SanitizedBddManager,
    SanitizerError,
    UseAfterFreeError,
    loop_stall_monitor,
)

VARS = ["a", "b", "c", "d"]


def build_xor_chain(manager):
    """An unprotected composite node: a ^ b ^ c."""
    return manager.xor(
        manager.xor(manager.var("a"), manager.var("b")), manager.var("c")
    )


# ---------------------------------------------------------------------------
# Use-after-free.
# ---------------------------------------------------------------------------


def test_use_after_free_raises():
    manager = SanitizedBddManager(VARS)
    f = build_xor_chain(manager)
    manager.gc()  # f is unprotected: its slots are swept and quarantined
    with pytest.raises(UseAfterFreeError, match="sweep epoch"):
        manager.not_(f)


def test_use_after_free_survives_slot_reuse_forever():
    # Quarantine never recycles slots, so the stale id stays a tombstone
    # even after lots of fresh allocation that would normally reuse it.
    manager = SanitizedBddManager(VARS)
    f = build_xor_chain(manager)
    manager.gc()
    for _ in range(3):
        g = manager.protect(build_xor_chain(manager))
        manager.gc()
        manager.release(g)
    with pytest.raises(UseAfterFreeError):
        manager.sat_count(f)


def test_protected_node_survives_gc():
    manager = SanitizedBddManager(VARS)
    f = manager.protect(build_xor_chain(manager))
    expected = manager.sat_count(f)
    manager.gc()
    assert manager.sat_count(f) == expected
    manager.release(f)


# ---------------------------------------------------------------------------
# Cross-manager detection.
# ---------------------------------------------------------------------------


def test_cross_manager_node_raises():
    small = SanitizedBddManager(["a", "b"])
    names = [f"v{i}" for i in range(80)]
    big = SanitizedBddManager(names)
    # An 80-variable chain's root id is far beyond the small manager's
    # store (a fresh two-variable manager holds well under 100 slots even
    # with maximal poison padding), so the check is deterministic.
    foreign = big.protect(big.and_all([big.var(name) for name in names]))
    with pytest.raises(CrossManagerError, match="never cross"):
        small.not_(foreign)


def test_cross_manager_error_names_owner():
    small = SanitizedBddManager(["a", "b"])
    names = [f"v{i}" for i in range(80)]
    big = SanitizedBddManager(names)
    foreign = big.protect(big.and_all([big.var(name) for name in names]))
    with pytest.raises(CrossManagerError, match="SanitizedBddManager #"):
        small.and_(small.var("a"), foreign)


def test_poison_padding_skews_id_spaces():
    # Identical structure in two fresh managers must not share ids —
    # that is exactly what makes in-range foreign ids detectable.
    one = SanitizedBddManager(VARS)
    two = SanitizedBddManager(VARS)
    assert build_xor_chain(one) != build_xor_chain(two)


def test_collection_operands_validated():
    manager = SanitizedBddManager(VARS)
    with pytest.raises(CrossManagerError):
        manager.and_all([manager.var("a"), 10**6])
    with pytest.raises(SanitizerError, match="plain ints"):
        manager.or_all([manager.var("a"), "b"])


def test_compose_many_mapping_values_validated():
    manager = SanitizedBddManager(VARS)
    f = manager.protect(build_xor_chain(manager))
    with pytest.raises(CrossManagerError):
        manager.compose_many(f, {"a": 10**6})


# ---------------------------------------------------------------------------
# Memo integrity after sweeps.
# ---------------------------------------------------------------------------


def test_injected_stale_memo_entry_raises():
    manager = SanitizedBddManager(VARS)
    f = build_xor_chain(manager)
    manager.gc()  # frees f; the caches were legitimately purged
    manager._op_cache[1 << 40] = f  # resurrect a dead id by hand
    with pytest.raises(MemoLeakError, match="op cache"):
        manager.check_integrity()


def test_clean_sweeps_pass_integrity():
    manager = SanitizedBddManager(VARS)
    f = manager.protect(build_xor_chain(manager))
    manager.gc()
    manager.check_integrity()  # must not raise
    manager.release(f)


# ---------------------------------------------------------------------------
# Protection-leak accounting.
# ---------------------------------------------------------------------------


def test_leak_report_names_this_call_site():
    manager = SanitizedBddManager(VARS)
    leaked = manager.protect(build_xor_chain(manager))  # never released
    report = manager.leak_report()
    assert sum(report.values()) == 1
    (site,) = report
    assert "test_sanitizer.py" in site
    assert "test_sanitizer.py" in manager.describe_leaks()
    manager.release(leaked)
    assert manager.leak_report() == {}
    assert manager.describe_leaks() == ""


def test_balanced_protect_release_reports_clean():
    manager = SanitizedBddManager(VARS)
    f = manager.protect(build_xor_chain(manager))
    g = manager.protect(manager.var("d"))
    manager.release(g)
    manager.release(f)
    assert manager.leak_report() == {}


# ---------------------------------------------------------------------------
# Equivalence: sanitized managers compute identical results.
# ---------------------------------------------------------------------------


def test_sanitized_results_match_plain_manager():
    plain = BddManager(VARS)
    sanitized = SanitizedBddManager(VARS)
    for manager in (plain, sanitized):
        manager._results = []  # scratch attribute local to this test
        f = manager.protect(build_xor_chain(manager))
        g = manager.protect(manager.ite(manager.var("d"), f, manager.not_(f)))
        manager.gc()
        manager._results = [
            manager.sat_count(f),
            manager.sat_count(g),
            manager.is_true(manager.or_(g, manager.not_(g))),
        ]
    assert plain._results == sanitized._results


def test_symbolic_context_flow_under_sanitize(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    from repro.symbolic import SymbolicContext
    from repro.symbolic.serialize import dump_functions, load_functions

    context = SymbolicContext(VARS)
    assert isinstance(context.manager, SanitizedBddManager)
    fn = context.function(build_xor_chain(context.manager))
    blob = dump_functions({"xor3": fn}, include_covers=True)
    loaded = load_functions(blob)
    assert isinstance(loaded.context.manager, SanitizedBddManager)
    reloaded = loaded.functions["xor3"]
    assert loaded.context.manager.sat_count(
        reloaded.node
    ) == context.manager.sat_count(fn.node)


# ---------------------------------------------------------------------------
# The construction hook.
# ---------------------------------------------------------------------------


def test_env_flag_swaps_construction(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert type(BddManager(["z"])) is SanitizedBddManager
    monkeypatch.delenv("REPRO_SANITIZE")
    assert type(BddManager(["z"])) is BddManager


def test_direct_subclass_construction_unaffected(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert type(SanitizedBddManager(["z"])) is SanitizedBddManager


# ---------------------------------------------------------------------------
# Event-loop stall detection.
# ---------------------------------------------------------------------------


def test_loop_stall_monitor_flags_blocking_step():
    events = []

    async def scenario():
        monitor = asyncio.create_task(
            loop_stall_monitor(interval=0.01, budget=0.05, warn=events.append)
        )
        await asyncio.sleep(0.03)  # let the monitor take its baseline
        time.sleep(0.2)  # the RPL005 bug class, committed on purpose
        await asyncio.sleep(0.03)  # give the late wakeup a chance to run
        monitor.cancel()
        try:
            await monitor
        except asyncio.CancelledError:
            pass

    asyncio.run(scenario())
    assert events
    assert "stalled" in events[0]


def test_loop_stall_monitor_quiet_when_loop_healthy():
    events = []

    async def scenario():
        monitor = asyncio.create_task(
            loop_stall_monitor(interval=0.01, budget=0.2, warn=events.append)
        )
        await asyncio.sleep(0.1)
        monitor.cancel()
        try:
            await monitor
        except asyncio.CancelledError:
            pass

    asyncio.run(scenario())
    assert events == []
