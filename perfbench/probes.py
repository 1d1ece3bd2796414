"""Layer probes: spans recorded from outside the program.

The benchmark never edits ``src/``.  To attribute time to layers it wraps
each layer's public functions and methods in place (``install``) and
restores them afterwards (``Probes.uninstall``).  Every wrapped call opens
a *frame*; a frame's self time is its duration minus the time of the
frames nested in it, so the self times of all layers add up to the time
of the outermost frames and nothing is counted twice.

Spans are kept in memory and written out as NDJSON when the benchmark
ends (``Recorder.dump``).  Frames are per thread, so the probes also work
inside the service daemon, whose runner and cache-probe threads execute
work concurrently (see ``serve_traced.py``).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-layer metrics, in report order: name -> unit.  Every traced run
#: reports every one of them; a layer the workload does not reach reads 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "spec.properties.busy_s": "s",
    "spec.properties.closure_s": "s",
    "faults.inject_s": "s",
    "faults.detect_s": "s",
    "faults.built": "count",
    "faults.used": "count",
    "faults.used_ratio": "ratio",
    "spec.derivation.calls": "count",
    "spec.derivation.busy_s": "s",
    "symbolic.isop_s": "s",
    "bdd.managers": "count",
    "bdd.cache_misses": "count",
    "bdd.peak_live_nodes": "count",
    "bdd.serialize.dump_s": "s",
    "bdd.serialize.load_s": "s",
    "bdd.serialize.bytes": "bytes",
    "checking.calls": "count",
    "checking.busy_s": "s",
    "pipeline.sim_s": "s",
    "pipeline.cycles": "count",
    "pipeline.us_per_cycle": "us",
    "assertions.monitor_s": "s",
    "analysis.stalls_s": "s",
    "analysis.coverage_s": "s",
    "campaign.runner.job_max_s": "s",
    "campaign.orchestrator.utilisation": "ratio",
    "campaign.orchestrator.tail_idle_s": "s",
    "campaign.store.writes": "count",
    "campaign.store.write_s": "s",
    "campaign.store.bytes": "bytes",
    "campaign.store.reads": "count",
    "campaign.store.read_s": "s",
    "campaign.store.hit_ratio": "ratio",
    "service.submit_ms": "ms",
    "service.wait_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.cache_answers": "count",
    "bench.traced_s": "s",
    "bench.properties_faults_share": "ratio",
    "bench.trace_overhead": "ratio",
}

#: Per-layer metrics the workload sets itself (orchestration figures from
#: ``on_result`` timestamps, daemon figures from ``GET /v1/metrics``, the
#: tracing overhead) rather than the probes.
EXTERNAL = (
    "campaign.runner.job_max_s",
    "campaign.orchestrator.utilisation",
    "campaign.orchestrator.tail_idle_s",
    "service.queue_wait_ms",
    "service.cache_answers",
    "bench.trace_overhead",
)


#: Client-side layers whose frames wrap work done in another process (the
#: daemon); they are left out of ``bench.traced_s`` so that the daemon's
#: job time is not counted twice.
REMOTE_LAYERS = ("service.submit", "service.wait")


class _Frame:
    __slots__ = ("layer", "span_id", "parent", "start", "child_s", "managers")

    def __init__(self, layer: str, span_id: int, parent: Optional[int]):
        self.layer = layer
        self.span_id = span_id
        self.parent = parent
        self.child_s = 0.0
        self.managers: List[Any] = []
        self.start = time.perf_counter()


class Recorder:
    """Thread-safe span recorder with per-layer self-time rollups."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        #: layer -> [calls, self seconds, inclusive seconds]
        self.layers: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[Dict[str, Any]] = []

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, layer: str) -> _Frame:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        frame = _Frame(layer, span_id, stack[-1].span_id if stack else None)
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        seconds = time.perf_counter() - frame.start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += seconds
        # Inclusive time counts only the outermost frame of a layer, so a
        # layer that re-enters itself is not counted twice.
        outermost = all(other.layer != frame.layer for other in stack)
        kernel = _kernel_totals(frame.managers) if frame.managers else {}
        with self._lock:
            entry = self.layers[frame.layer]
            entry[0] += 1
            entry[1] += seconds - frame.child_s
            if outermost:
                entry[2] += seconds
            if not stack and frame.layer not in REMOTE_LAYERS:
                self.counters["bench.traced_s"] += seconds
            for name, value in kernel.items():
                self.counters[name] += value
            self.spans.append(
                {
                    "id": frame.span_id,
                    "parent": frame.parent,
                    "name": frame.layer,
                    "thread": threading.get_ident(),
                    "start": frame.start,
                    "seconds": seconds,
                    "self_seconds": seconds - frame.child_s,
                }
            )

    def note_manager(self, manager: Any) -> None:
        """Attribute a new BDD manager to the outermost open frame.

        Its counters are read when that frame closes, so the work done on
        the manager anywhere inside the operation that built it counts.
        """
        stack = self._stack()
        if stack:
            stack[0].managers.append(manager)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    # -- rollups -----------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "layers": {name: list(entry) for name, entry in self.layers.items()},
                "counters": dict(self.counters),
            }

    def merge(self, exported: Dict[str, Any]) -> None:
        """Fold in another recorder's :meth:`export` (the daemon's)."""
        with self._lock:
            for name, (calls, self_s, incl_s) in exported.get("layers", {}).items():
                entry = self.layers[name]
                entry[0] += calls
                entry[1] += self_s
                entry[2] += incl_s
            for name, value in exported.get("counters", {}).items():
                self.counters[name] += value

    def dump(self, path: str) -> None:
        """Write the recorded spans as NDJSON."""
        with self._lock:
            lines = [json.dumps(span, sort_keys=True) for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))

    def metrics(self, external: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        layers = self.layers
        counters = self.counters

        def calls(layer: str) -> float:
            return layers[layer][0] if layer in layers else 0

        def self_s(layer: str) -> float:
            return layers[layer][1] if layer in layers else 0.0

        def incl_s(layer: str) -> float:
            return layers[layer][2] if layer in layers else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        built = counters.get("faults.built", 0)
        used = counters.get("faults.used", 0)
        cycles = counters.get("pipeline.cycles", 0)
        reads = calls("campaign.store.read")
        traced = counters.get("bench.traced_s", 0.0)
        values: Dict[str, float] = {
            "spec.properties.busy_s": self_s("spec.properties"),
            "spec.properties.closure_s": self_s("spec.properties.closure"),
            "faults.inject_s": self_s("faults.inject"),
            "faults.detect_s": self_s("faults.detect"),
            "faults.built": built,
            "faults.used": used,
            "faults.used_ratio": ratio(used, built),
            "spec.derivation.calls": calls("spec.derivation"),
            "spec.derivation.busy_s": self_s("spec.derivation"),
            "symbolic.isop_s": self_s("symbolic.isop"),
            "bdd.managers": counters.get("bdd.managers", 0),
            "bdd.cache_misses": counters.get("bdd.cache_misses", 0),
            "bdd.peak_live_nodes": counters.get("bdd.peak_live_nodes", 0),
            "bdd.serialize.dump_s": self_s("bdd.serialize.dump"),
            "bdd.serialize.load_s": self_s("bdd.serialize.load"),
            "bdd.serialize.bytes": counters.get("bdd.serialize.bytes", 0),
            "checking.calls": calls("checking"),
            "checking.busy_s": self_s("checking"),
            "pipeline.sim_s": self_s("pipeline.sim"),
            "pipeline.cycles": cycles,
            "pipeline.us_per_cycle": ratio(self_s("pipeline.sim") * 1e6, cycles),
            "assertions.monitor_s": self_s("assertions.monitor"),
            "analysis.stalls_s": self_s("analysis.stalls"),
            "analysis.coverage_s": self_s("analysis.coverage"),
            "campaign.store.writes": calls("campaign.store.write"),
            "campaign.store.write_s": self_s("campaign.store.write"),
            "campaign.store.bytes": counters.get("campaign.store.bytes", 0),
            "campaign.store.reads": reads,
            "campaign.store.read_s": self_s("campaign.store.read"),
            "campaign.store.hit_ratio": ratio(counters.get("campaign.store.hits", 0), reads),
            "service.submit_ms": ratio(self_s("service.submit") * 1e3, calls("service.submit")),
            "service.wait_ms": ratio(self_s("service.wait") * 1e3, calls("service.wait")),
            "bench.traced_s": traced,
            # Stage-inclusive share (the derivations, simulations and
            # checks nested in a stage count for it), the reading behind
            # "properties and faults take most of the job time".
            "bench.properties_faults_share": ratio(
                incl_s("spec.properties") + incl_s("faults.inject") + incl_s("faults.detect"),
                traced,
            ),
        }
        for name in EXTERNAL:
            values[name] = float(external.get(name, 0.0))
        return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def save_report(recorder: Recorder, path: str) -> None:
    """Write a recorder's rollups (JSON) and spans (NDJSON beside it)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recorder.export(), handle)
    recorder.dump(str(path).rsplit(".", 1)[0] + ".ndjson")


def load_report(path: str) -> Dict[str, Any]:
    """Read the rollups :func:`save_report` wrote."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _kernel_totals(managers: List[Any]) -> Dict[str, int]:
    totals = {"bdd.managers": 0, "bdd.cache_misses": 0, "bdd.peak_live_nodes": 0}
    for manager in managers:
        stats = manager.stats()
        totals["bdd.managers"] += 1
        totals["bdd.cache_misses"] += stats.cache_misses
        # The node store never shrinks (freed slots are reused), so its
        # length is the manager's high-water mark of live nodes.
        totals["bdd.peak_live_nodes"] += stats.allocated_slots
    return totals


# -- installing the wrappers ---------------------------------------------------

ResultHook = Callable[[Recorder, tuple, Any], None]


def _count_len(counter: str, arg_index: Optional[int] = None) -> ResultHook:
    def hook(recorder: Recorder, args: tuple, result: Any) -> None:
        value = result if arg_index is None else args[arg_index]
        recorder.count(counter, len(value))

    return hook


def _count_cycles(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.count("pipeline.cycles", result.num_cycles())


def _count_artifact_bytes(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.count("bdd.serialize.bytes", len(result))


def _count_read(recorder: Recorder, args: tuple, result: Any) -> None:
    if result is not None:
        recorder.count("campaign.store.hits")


def _count_written(recorder: Recorder, args: tuple, result: Any) -> None:
    # Every ResultStore.put* returns the path it wrote.
    recorder.count("campaign.store.bytes", result.stat().st_size)


class Probes:
    """Installed wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._restore: List[Tuple[Any, str, Any]] = []

    def _wrap(self, original: Callable, layer: str, hook: Optional[ResultHook]):
        recorder = self.recorder

        def wrapped(*args, **kwargs):
            frame = recorder.open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(frame)
            if hook is not None:
                hook(recorder, args, result)
            return result

        wrapped.__wrapped__ = original
        return wrapped

    def function(self, module: str, name: str, layer: str, hook: Optional[ResultHook] = None):
        """Wrap a module-level function at every ``repro`` binding of it.

        Modules bind imported functions under their own names
        (``from ..spec import check_all_properties``), so every loaded
        ``repro`` module whose attribute *is* the function is patched.
        """
        original = getattr(sys.modules[module], name)
        wrapped = self._wrap(original, layer, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def method(self, cls: type, name: str, layer: str, hook: Optional[ResultHook] = None):
        original = cls.__dict__[name]
        self._restore.append((cls, name, original))
        setattr(cls, name, self._wrap(original, layer, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def install(recorder: Recorder) -> Probes:
    """Wrap every layer's public entry points; returns the handle."""
    # Import every layer first: bindings must exist before they are patched.
    import repro.analysis  # noqa: F401
    import repro.campaign  # noqa: F401
    import repro.service  # noqa: F401
    import repro.symbolic.serialize  # noqa: F401
    from repro.assertions.monitor import AssertionMonitor
    from repro.bdd.manager import BddManager
    from repro.campaign.store import ResultStore
    from repro.checking.property_check import PropertyChecker
    from repro.faults.campaigns import FaultCampaign
    from repro.faults.injection import FaultInjector
    from repro.pipeline.simulator import PipelineSimulator
    from repro.service.client import ServiceClient
    from repro.symbolic.function import SymbolicContext

    probes = Probes(recorder)
    fn, meth = probes.function, probes.method
    fn("repro.campaign.runner", "run_verification_job", "campaign.runner")
    fn("repro.spec.properties", "check_all_properties", "spec.properties")
    fn("repro.spec.properties", "check_disjunction_closure", "spec.properties.closure")
    fn("repro.spec.derivation", "symbolic_most_liberal", "spec.derivation")
    meth(SymbolicContext, "minimized_cover", "symbolic.isop")
    meth(FaultInjector, "__init__", "faults.inject")
    meth(FaultInjector, "standard_fault_set", "faults.inject", _count_len("faults.built"))
    meth(FaultCampaign, "__init__", "faults.detect")
    meth(FaultCampaign, "run", "faults.detect", _count_len("faults.used", 1))
    for name in (
        "check_functional",
        "check_performance",
        "check_combined",
        "check_equivalence_with_derived",
        "check_obligations",
    ):
        meth(PropertyChecker, name, "checking")
    meth(PipelineSimulator, "run", "pipeline.sim", _count_cycles)
    meth(AssertionMonitor, "check_trace", "assertions.monitor")
    fn("repro.analysis.stalls", "classify_stalls", "analysis.stalls")
    fn("repro.analysis.coverage", "coverage_of", "analysis.coverage")
    fn("repro.bdd.serialize", "dump_nodes", "bdd.serialize.dump", _count_artifact_bytes)
    fn("repro.bdd.serialize", "parse_artifact", "bdd.serialize.load")
    fn("repro.bdd.serialize", "splice_nodes", "bdd.serialize.load")
    for name in ("get", "get_artifact", "get_stage"):
        meth(ResultStore, name, "campaign.store.read", _count_read)
    for name in ("put", "put_artifact", "put_stage", "put_trace"):
        meth(ResultStore, name, "campaign.store.write", _count_written)
    meth(ServiceClient, "submit", "service.submit")
    meth(ServiceClient, "wait", "service.wait")

    manager_init = BddManager.__dict__["__init__"]

    def init(self, *args, **kwargs):
        manager_init(self, *args, **kwargs)
        recorder.note_manager(self)

    probes._restore.append((BddManager, "__init__", manager_init))
    BddManager.__init__ = init
    return probes
