"""Per-layer attribution for the benchmark's traced samples.

A traced child runs its main-layer call three times in a row
(:meth:`Tracer.main_call`):

1. under ``cProfile``, for exact call counts only;
2. bare, as the reference for the tracing overhead;
3. under a stack sampler, for time: a timer signal reads the Python
   stack once per :data:`INTERVAL_S` of wall time and credits the time
   since the previous sample to that stack.

Time comes from sampling because per-call tracing distorts it.  Under
``cProfile`` the main call ran 2.2 to 4.3 times slower than bare on the
2-core VM the baseline was taken on, and subtracting a calibrated
per-call cost left the layer times off by -55% to +66%.  The sampler
costs about 1%, needs no correction, and its times add up to the sampled
wall time by construction.  A signal is handled where the interpreter
next checks for pending work (function entry, loop back-edge, return
from a built-in), so a straight run of bytecode with no such point is
credited to the function it calls next.

A sample's time is the *self* time of the innermost frame that belongs to
the program (library code it calls counts toward it) and the *inclusive*
time of every program function on the stack.  Functions are keyed
``"<layer>:<qualname>"``, the layer being looked up from the function's
module in :data:`LAYERS`.  The sampler also runs before the main call
(phase ``setup``) and after it (``post``), so one-off calls such as
workload generation and report rendering get inclusive times too.

Pool workers forked during the sampled or profiled pass are traced the
same way; each writes its numbers at exit and :meth:`Tracer.finish`
merges them under ``workers``.
"""

from __future__ import annotations

import cProfile
import json
import multiprocessing.util
import os
import signal
import time
from pathlib import Path
from typing import Callable, Dict, Optional

#: Module (or package) -> layer; the longest matching prefix wins.
LAYERS: Dict[str, str] = {
    "repro": "repro",
    "repro.core.policies": "policy",
    "repro.core.admission": "policy",
    "repro.core.store": "store",
    "repro.core.frequency": "frequency",
    "repro.sim": "kernel",
    "repro.sim.streaming": "streaming",
    "repro.streaming": "streaming",
    "repro.sim.faults": "faults",
    "repro.sim.events": "rekeyer",
    "repro.sim.hierarchy": "hierarchy",
    "repro.obs": "obs",
    "repro.obs.timeline": "timeline",
    "repro.network": "network",
    "repro.network.topology": "topology",
    "repro.network.measurement": "estimator",
    "repro.workload": "workload",
    "repro.analysis": "analysis",
    "repro.analysis.parallel": "parallel",
    "repro.analysis.report": "report",
    "repro.trace": "trace",
    "repro.trace.shm": "shm",
    "repro.trace.ingest": "ingest",
    "repro.trace.columnar": "columnar",
    "repro.cli": "cli",
}

#: Wall time between samples.
INTERVAL_S = 0.001


class FunctionKeys:
    """Maps code objects to ``"<layer>:<qualname>"``, or ``None`` outside the program."""

    def __init__(self) -> None:
        import repro

        self._package = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        self._keys: Dict[object, Optional[str]] = {}

    def __call__(self, code) -> Optional[str]:
        try:
            return self._keys[code]
        except KeyError:
            pass
        key = None
        filename = getattr(code, "co_filename", "")
        if filename.startswith(self._package):
            parts = filename[len(self._package):-len(".py")].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            module = ".".join(["repro", *parts])
            prefix = max(
                (p for p in LAYERS if module == p or module.startswith(p + ".")), key=len
            )
            key = f"{LAYERS[prefix]}:{getattr(code, 'co_qualname', code.co_name)}"
        self._keys[code] = key
        return key


class Sampler:
    """Samples the main thread's Python stack on a wall-clock interval timer.

    Each ``SIGALRM`` of an ``ITIMER_REAL`` timer runs :meth:`_sample` in
    the main thread, at the interpreter's next check for pending work.
    ``stacks`` maps ``(phase, ids of the code objects, innermost first)``
    to ``[seconds, code objects]``; ids hash far faster than code objects.
    The time since the previous sample goes to the current stack; the
    handler's own time goes to ``own_s`` instead.  A thread-based sampler
    cost about 100 us of main-thread time per sample in lock hand-overs;
    the handler costs about 10 us.
    """

    def __init__(self) -> None:
        self.stacks: Dict[tuple, list] = {}
        self.own_s: Dict[str, float] = {}
        self._phase: Optional[str] = None

    def start(self, phase: str) -> None:
        self._phase = phase
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._phase is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._phase = None

    def _sample(self, signum, frame) -> None:
        now = time.perf_counter()
        codes = []
        while frame is not None:
            codes.append(frame.f_code)
            frame = frame.f_back
        key = (self._phase, *map(id, codes))
        entry = self.stacks.get(key)
        if entry is None:
            self.stacks[key] = [now - self._last, codes]
        else:
            entry[0] += now - self._last
        self._last = time.perf_counter()
        self.own_s[self._phase] = self.own_s.get(self._phase, 0.0) + self._last - now


def summarise_samples(sampler: Sampler, keys: FunctionKeys) -> dict:
    """Per phase: self seconds by function, unattributed seconds and the
    sampler's own seconds; inclusive seconds by function over all phases."""
    own: Dict[str, Dict[str, float]] = {}
    unattributed: Dict[str, float] = {}
    inclusive: Dict[str, float] = {}
    for key, (seconds, codes) in sampler.stacks.items():
        phase = key[0]
        names = [name for name in map(keys, codes) if name is not None]
        if not names:
            unattributed[phase] = unattributed.get(phase, 0.0) + seconds
            continue
        by_function = own.setdefault(phase, {})
        by_function[names[0]] = by_function.get(names[0], 0.0) + seconds
        for name in set(names):
            inclusive[name] = inclusive.get(name, 0.0) + seconds
    return {"self": own, "unattributed": unattributed, "inclusive": inclusive,
            "sampler": dict(sampler.own_s)}


def count_calls(profiler: cProfile.Profile, keys: FunctionKeys) -> Dict[str, dict]:
    """Calls of every program function, in total and per calling function."""
    counts: Dict[str, dict] = {}
    for entry in profiler.getstats():
        caller = keys(entry.code)
        if caller is not None:
            record = counts.setdefault(caller, {"calls": 0, "callers": {}})
            record["calls"] += entry.callcount
        for sub in entry.calls or ():
            callee = keys(sub.code)
            if callee is not None:
                record = counts.setdefault(callee, {"calls": 0, "callers": {}})
                by = record["callers"]
                by[str(caller)] = by.get(str(caller), 0) + sub.callcount
    return counts


def merge(into: dict, other: dict) -> dict:
    """Add ``other``'s numbers into ``into`` (nested dicts of numbers)."""
    for key, value in other.items():
        if isinstance(value, dict):
            merge(into.setdefault(key, {}), value)
        else:
            into[key] = into.get(key, 0) + value
    return into


class Tracer:
    """Samples and profiles one child process and the pool workers it forks."""

    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = worker_dir
        self.sampler = Sampler()
        self.profiler: Optional[cProfile.Profile] = None
        self.counts: Dict[str, dict] = {}
        self.bare_s = 0.0
        self.sampled_s = 0.0
        #: What a pool worker forked right now must do: "sample",
        #: "profile" or nothing.
        self._mode: Optional[str] = None
        multiprocessing.util.register_after_fork(self, Tracer._start_worker)

    def start(self) -> None:
        self.sampler.start("setup")

    def main_call(self, fn: Callable[[], object]) -> tuple:
        """Run ``fn`` profiled, bare and sampled; returns the bare run's
        result and seconds.  ``fn`` must give the same result every time.

        The profiled run goes first and takes the one-off costs of a
        first call, so the bare and sampled runs compare like with like.
        """
        clock = time.perf_counter
        self.sampler.stop()
        self._mode = "profile"
        self.profiler = cProfile.Profile(builtins=False)
        self.profiler.enable()
        fn()
        self.profiler.disable()
        merge(self.counts, count_calls(self.profiler, FunctionKeys()))
        self._mode = None

        start = clock()
        result = fn()
        bare = clock() - start
        self.bare_s += bare

        self._mode = "sample"
        self.sampler.start("main")
        start = clock()
        fn()
        self.sampled_s += clock() - start
        self.sampler.stop()
        self._mode = None
        self.sampler.start("post")
        return result, bare

    def finish(self) -> dict:
        """The numbers of this process and, merged, of its pool workers."""
        self.sampler.stop()
        workers = {"samples": {}, "counts": {}}
        if self.worker_dir.is_dir():
            for path in sorted(self.worker_dir.glob("*.json")):
                merge(workers, json.loads(path.read_text()))
        return {
            "bare_s": self.bare_s,
            "sampled_s": self.sampled_s,
            "process": {
                "samples": summarise_samples(self.sampler, FunctionKeys()),
                "counts": self.counts,
            },
            "workers": workers,
        }

    # -- pool workers --------------------------------------------------
    def _start_worker(self) -> None:
        """In a freshly forked pool worker: trace it as its parent is traced."""
        if self._mode == "sample":
            self.sampler = Sampler()  # interval timers are not inherited
            self.sampler.start("main")
        elif self._mode == "profile":
            self.profiler.clear()  # inherited, still enabled, from the parent
        else:
            return
        multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        keys = FunctionKeys()
        if self._mode == "sample":
            self.sampler.stop()
            data = {"samples": summarise_samples(self.sampler, keys)}
        else:
            self.profiler.disable()
            data = {"counts": count_calls(self.profiler, keys)}
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        path = self.worker_dir / f"{self._mode}-{os.getpid()}.json"
        path.write_text(json.dumps(data))


# ----------------------------------------------------------------------
# Layer metrics (derived in the harness from one traced child's report).
# ----------------------------------------------------------------------
#: Per-layer metric name -> unit.  Order is the print order.
LAYER_METRICS = {
    "policy.self_s": "s",
    "policy.calls": "count",
    "policy.ns_per_call": "ns",
    "policy.utility_s": "s",
    "policy.target_s": "s",
    "policy.rekey_s": "s",
    "heap.peak_size": "count",
    "heap.compactions": "count",
    "heap.stale_share": "share",
    "store.self_s": "s",
    "store.calls": "count",
    "store.evictions": "count",
    "store.trims": "count",
    "frequency.self_s": "s",
    "frequency.calls": "count",
    "sim.run_s": "s",
    "kernel.self_s": "s",
    "kernel.ns_per_req": "ns",
    "topology.build_s": "s",
    "estimator.self_s": "s",
    "estimator.calls": "count",
    "workload.generate_s": "s",
    "streaming.self_s": "s",
    "streaming.calls": "count",
    "streaming.quantize_s": "s",
    "streaming.trim_s": "s",
    "faults.self_s": "s",
    "faults.calls": "count",
    "rekeyer.self_s": "s",
    "rekeyer.calls": "count",
    "rekeyer.rekeys_per_shift": "ratio",
    "timeline.self_s": "s",
    "timeline.windows": "count",
    "hierarchy.self_s": "s",
    "hierarchy.calls": "count",
    "parallel.jobs_s": "s",
    "parallel.jobs": "count",
    "report.render_s": "s",
    "cli.self_s": "s",
    "ingest.parse_s": "s",
    "ingest.lines_per_s": "lines/s",
    "ingest.malformed_share": "share",
    "columnar.npz_write_s": "s",
    "columnar.npz_read_s": "s",
    "columnar.concat_s": "s",
    "trace.overhead": "ratio",
    "trace.sampler_share": "share",
    "trace.unattributed_share": "share",
    "trace.attributed_ratio": "ratio",
}


def layer_metrics(trace: dict, facts: dict) -> Dict[str, float]:
    """Derive :data:`LAYER_METRICS` from one traced child's report.

    ``*.self_s`` is the layer's self time during the sampled main call;
    the other ``*_s`` are inclusive times of one named function.  Pool
    workers' numbers are included, so on ``sweep-fig7`` layer times are
    summed over both workers.  Layers a workload does not exercise
    report 0.
    """
    process = trace["process"]["samples"]
    samples = merge(merge({}, process), trace["workers"].get("samples", {}))
    counts = merge(merge({}, trace["process"]["counts"]), trace["workers"].get("counts", {}))
    own = samples.get("self", {}).get("main", {})
    inclusive = samples.get("inclusive", {})

    def matching(table: dict, layer: str, suffix: str) -> list:
        return [
            value for key, value in table.items()
            if key.startswith(layer + ":") and key.endswith(suffix)
        ]

    def self_s(layer: str, suffix: str = "") -> float:
        return sum(matching(own, layer, suffix))

    def incl_s(layer: str, suffix: str) -> float:
        return sum(matching(inclusive, layer, suffix))

    def calls(layer: str, suffix: str = "") -> int:
        return sum(record["calls"] for record in matching(counts, layer, suffix))

    requests = facts.get("requests", 0)
    policy_calls = calls("policy", ".on_request")
    trims = sum(
        count
        for record in matching(counts, "store", ".trim")
        for caller, count in record["callers"].items()
        if not caller.endswith(".evict")
    )
    shifts = facts.get("reactive_shifts", 0)
    parse_s = incl_s("ingest", ":ingest_access_log")
    lines = facts.get("lines", 0)
    kernel_self = self_s("kernel")
    main_own = process.get("self", {}).get("main", {})
    attributed = sum(main_own.values())
    sampled_total = attributed + process.get("unattributed", {}).get("main", 0.0)
    bare, sampled = trace["bare_s"], trace["sampled_s"]
    return {
        "policy.self_s": self_s("policy"),
        "policy.calls": policy_calls,
        "policy.ns_per_call": (
            incl_s("policy", ".on_request") / policy_calls * 1e9 if policy_calls else 0.0
        ),
        "policy.utility_s": self_s("policy", ".utility"),
        "policy.target_s": self_s("policy", ".target_cache_bytes"),
        "policy.rekey_s": self_s("policy", ".on_bandwidth_shift"),
        "heap.peak_size": facts.get("heap_peak_size", 0),
        "heap.compactions": facts.get("heap_compactions", 0),
        "heap.stale_share": facts.get("heap_stale_share", 0.0),
        "store.self_s": self_s("store"),
        "store.calls": calls("store"),
        "store.evictions": calls("store", ".evict"),
        "store.trims": trims,
        "frequency.self_s": self_s("frequency"),
        "frequency.calls": calls("frequency", ".record"),
        "sim.run_s": incl_s("kernel", "ProxyCacheSimulator.run"),
        "kernel.self_s": kernel_self,
        "kernel.ns_per_req": kernel_self / requests * 1e9 if requests else 0.0,
        "topology.build_s": incl_s("kernel", "ProxyCacheSimulator.build_topology"),
        "estimator.self_s": self_s("estimator"),
        "estimator.calls": calls("estimator"),
        "workload.generate_s": incl_s("workload", "GismoWorkloadGenerator.generate"),
        "streaming.self_s": self_s("streaming"),
        "streaming.calls": calls("streaming", ".serve"),
        "streaming.quantize_s": self_s("streaming", ".admission_target"),
        "streaming.trim_s": self_s("streaming", ".trim_victim"),
        "faults.self_s": self_s("faults"),
        "faults.calls": calls("faults", ".intercept"),
        "rekeyer.self_s": self_s("rekeyer"),
        "rekeyer.calls": calls("rekeyer", ".observe_request"),
        "rekeyer.rekeys_per_shift": (
            facts.get("reactive_rekeys", 0) / shifts if shifts else 0.0
        ),
        "timeline.self_s": self_s("timeline"),
        "timeline.windows": facts.get("timeline_windows", 0),
        "hierarchy.self_s": self_s("hierarchy"),
        "hierarchy.calls": calls("hierarchy", ".serve"),
        "parallel.jobs_s": incl_s("parallel", ":run_simulation_jobs"),
        "parallel.jobs": facts.get("jobs", 0),
        "report.render_s": incl_s("report", ":render_experiment"),
        "cli.self_s": self_s("cli"),
        "ingest.parse_s": parse_s,
        "ingest.lines_per_s": lines / parse_s if parse_s > 0 else 0.0,
        "ingest.malformed_share": facts.get("malformed", 0) / lines if lines else 0.0,
        "columnar.npz_write_s": incl_s("columnar", ".to_npz"),
        "columnar.npz_read_s": incl_s("columnar", ".from_npz"),
        "columnar.concat_s": incl_s("columnar", ".concat"),
        "trace.overhead": sampled / bare,
        "trace.sampler_share": process.get("sampler", {}).get("main", 0.0) / sampled,
        "trace.unattributed_share": (
            1.0 - attributed / sampled_total if sampled_total else 0.0
        ),
        "trace.attributed_ratio": attributed / bare,
    }
