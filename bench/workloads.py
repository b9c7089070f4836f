"""The five benchmark workloads, and the child-process entry point that runs one.

Every workload is a closed-loop batch: one caller, each request served
after the previous one, no arrival schedule.  Inputs are generated from
the seed alone; the program under test only ever sees the generated
inputs.  A workload function returns the program's outputs (compared
against ``bench/golden`` by the harness), the invariant violations found
in them, and the timing of its *main layer* -- the call a user waits on:
``ProxyCacheSimulator.run``, ``run_simulation_jobs`` or the two
``repro ingest`` invocations.  The main layer is passed as a callable
that gives the same result every time, so a traced child can run it
again under the sampler and the profiler (``bench/spans.py``).

Run one workload in a fresh interpreter (the harness does this for every
sample)::

    PYTHONPATH=src python3 bench/workloads.py --workload replay-pb --seed 0 \\
        --workdir DIR --out result.json [--trace 1] [--size tiny]

(``ingest-append`` first needs its logs: the same command with
``--prepare`` writes them to ``DIR``.)

Only entry points that the roadmap keeps are called here:
``build_workload``/``GismoWorkloadGenerator.generate``,
``ProxyCacheSimulator(...).build_topology``/``run(policy, topology=)``,
``repro.cli.main``, ``ingest_access_log`` and ``ColumnarTrace``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:  # imported only by traced children, to keep set-up lean
    from spans import Tracer

#: Workload sizes.  ``full`` is what the benchmark measures: each child
#: takes 1.5 to 2.5 seconds on a 2-core x86 VM, so a 15-second timed run
#: collects five or more samples.  ``tiny`` is for the tests.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "replay-pb": {"scale": 3.0},
        "sweep-fig7": {"scale": 0.25, "runs": 2},
        "stream-faults": {"scale": 0.5},
        "fleet-2tier": {"scale": 0.75},
        "ingest-append": {"scale": 1.5},
    },
    "tiny": {
        "replay-pb": {"scale": 0.05},
        "sweep-fig7": {"scale": 0.02, "runs": 1},
        "stream-faults": {"scale": 0.05},
        "fleet-2tier": {"scale": 0.05},
        "ingest-append": {"scale": 0.05},
    },
}

#: Clients drawn by the multi-client workloads.  Each client is its own
#: last-mile group (stream-faults, fleet-2tier): with 16 groups the few
#: NLANR bandwidth draws made the work per request swing by 24% between
#: seeds, against 15% with 64.  fleet-2tier pins clients to 4 pops.
NUM_CLIENTS = 64
CLIENT_GROUPS = 64

#: Lists longer than this are stored in outputs as a digest, not inline.
INLINE_LIST_MAX = 8

#: Relative slack of the float-sum invariants (different summation order).
REL_TOL = 1e-9


def monotonic_ns() -> int:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class MainLayer:
    """Runs and times the workload's main-layer calls.

    ``first_ns`` is the monotonic time of the first call into the main
    layer (the end of set-up); ``seconds`` is the wall time summed over
    every call.  With a tracer, each call runs profiled, then bare (the
    timed run), then sampled (:meth:`spans.Tracer.main_call`).
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.first_ns = None
        self.seconds = 0.0

    def timed(self, fn: Callable[[], object]):
        """Run ``fn``, which must give the same result every time it is called."""
        start = monotonic_ns()
        if self.first_ns is None:
            self.first_ns = start
        if self.tracer is not None:
            result, seconds = self.tracer.main_call(fn)
        else:
            result = fn()
            seconds = (monotonic_ns() - start) / 1e9
        self.seconds += seconds
        return result


def patch_everywhere(original: Callable, replacement: Callable) -> List[tuple]:
    """Replace every reference to ``original`` in the loaded ``repro`` modules.

    Modules that imported a function by name hold their own reference,
    so patching the defining module alone would miss them.  Returns the
    ``(module, attribute)`` pairs replaced.
    """
    replaced = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced.append((module, attr))
    return replaced


@contextlib.contextmanager
def capture(fn: Callable, calls: list, main: Optional[MainLayer] = None):
    """While active, every call of ``fn`` appends ``(args, result)`` to ``calls``.

    All references to ``fn`` in the ``repro`` modules are replaced and put
    back on exit.  With ``main``, each call is a main-layer call.
    """
    @functools.wraps(fn)
    def captured(*args, **kwargs):
        if main is not None:
            result = main.timed(lambda: fn(*args, **kwargs))
        else:
            result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    places = patch_everywhere(fn, captured)
    try:
        yield
    finally:
        for module, attr in places:
            setattr(module, attr, fn)


def digest(values) -> str:
    """Stable digest of a numpy array or a JSON-serialisable list."""
    if hasattr(values, "tobytes"):
        payload = values.dtype.str.encode() + values.tobytes()
    else:
        payload = json.dumps(values, sort_keys=True).encode()
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def flatten(data, prefix: str = "") -> Dict[str, object]:
    """Flatten nested outputs into ``{"a.b.c": scalar}`` golden form.

    Floats stay exact (JSON round-trips them); NaN becomes ``"nan"``;
    lists longer than :data:`INLINE_LIST_MAX` become a digest.
    """
    flat: Dict[str, object] = {}
    if isinstance(data, dict):
        for key, value in data.items():
            flat.update(flatten(value, f"{prefix}{key}."))
        return flat
    key = prefix[:-1]
    if isinstance(data, (list, tuple)):
        data = list(data)
        flat[key] = digest(data) if len(data) > INLINE_LIST_MAX else data
    elif isinstance(data, float) and math.isnan(data):
        flat[key] = "nan"
    elif isinstance(data, bool) or data is None or isinstance(data, str):
        flat[key] = data
    elif isinstance(data, int):
        flat[key] = int(data)
    else:
        flat[key] = float(data)
    return flat


# ----------------------------------------------------------------------
# Invariants.
# ----------------------------------------------------------------------
def check_result(result, requested_kb: float, exact_bytes: bool) -> List[str]:
    """Invariants every ``SimulationResult`` must satisfy.

    Cache plus server bytes equal the requested bytes of the measured
    requests (``exact_bytes``) or, when failed fetches and abandoned
    streaming sessions deliver less, never exceed them; every ratio lies
    in [0, 1]; timeline totals equal the aggregates.
    """
    errors: List[str] = []
    metrics = result.metrics
    delivered_kb = (metrics.bytes_from_cache_gb + metrics.bytes_from_server_gb) * 1e6
    slack = REL_TOL * max(requested_kb, 1.0)
    if exact_bytes and abs(delivered_kb - requested_kb) > slack:
        errors.append(
            f"cache + server bytes {delivered_kb!r} KB != requested {requested_kb!r} KB"
        )
    if delivered_kb > requested_kb + slack:
        errors.append(
            f"cache + server bytes {delivered_kb!r} KB exceed requested "
            f"{requested_kb!r} KB"
        )
    ratios = {
        key: value
        for key, value in metrics.as_dict().items()
        if "ratio" in key or key == "availability"
    }
    if result.streaming_report is not None:
        report = result.streaming_report
        ratios["streaming.rebuffer_ratio"] = report.rebuffer_ratio
        ratios["streaming.mean_quality"] = report.mean_quality
        ratios["streaming.abandonment_rate"] = report.abandonment_rate
    if result.hierarchy_report is not None:
        report = result.hierarchy_report
        for index, name in enumerate(report.tier_names):
            ratios[f"hierarchy.{name}.hit_ratio"] = report.tier_hit_ratios[index]
            ratios[f"hierarchy.{name}.byte_hit_ratio"] = report.tier_byte_hit_ratios[index]
        parts = report.tier_absorbed_bytes + report.origin_bytes
        if abs(parts - report.client_bytes) > REL_TOL * max(report.client_bytes, 1.0):
            errors.append(
                f"hierarchy tier + sibling + origin bytes {parts!r} != client "
                f"bytes {report.client_bytes!r}"
            )
    for key, value in ratios.items():
        if not 0.0 <= value <= 1.0:
            errors.append(f"ratio {key} = {value!r} outside [0, 1]")
    if result.timeline is not None:
        totals = result.timeline.totals()
        expected = {
            "requests": metrics.requests,
            "failed": metrics.failed_requests,
            "stale_served": metrics.stale_served_requests,
            "retried": metrics.retried_requests,
            "total_retries": metrics.total_retries,
        }
        for key, value in expected.items():
            if totals[key] != value:
                errors.append(f"timeline total {key} = {totals[key]!r} != {value!r}")
        for key, gb in (
            ("bytes_from_cache", metrics.bytes_from_cache_gb),
            ("bytes_from_server", metrics.bytes_from_server_gb),
        ):
            if totals[key] / 1_000_000.0 != gb:
                errors.append(f"timeline total {key} != aggregate {gb!r} GB")
        if metrics.requests and totals["hits"] / metrics.requests != metrics.hit_ratio:
            errors.append("timeline total hits disagree with the hit ratio")
    return errors


def requested_kb(workload, warmup_fraction: float) -> float:
    """KB requested by the measured (post-warm-up) part of a trace."""
    import numpy as np

    ids = workload.trace.object_ids_array
    cutoff = int(warmup_fraction * len(ids))
    sizes = np.zeros(int(ids.max()) + 1 if len(ids) else 0, dtype=np.float64)
    for obj in workload.catalog:
        if obj.object_id < sizes.size:
            sizes[obj.object_id] = obj.size
    return float(sizes[ids[cutoff:]].sum())


# ----------------------------------------------------------------------
# The replay workloads.
# ----------------------------------------------------------------------
def _faults(workload, seed: int):
    from repro.sim.faults import FaultConfig

    return FaultConfig(
        random_origin_outages=2,
        random_bandwidth_flaps=4,
        mean_duration_s=max(workload.trace.duration / 40.0, 1.0),
        seed=seed,
    )


def _timeline(workload):
    from repro.obs import ObservabilityConfig

    # num_windows = int(span / window) + 1, so span / 63.5 gives 64.
    return ObservabilityConfig(window_s=max(workload.trace.duration / 63.5, 1.0))


def _replay(main: MainLayer, workload, config) -> dict:
    """Build the topology, then time one PB ``run`` call and check its result."""
    import numpy as np

    from repro.core.policies import make_policy
    from repro.sim.simulator import ProxyCacheSimulator

    simulator = ProxyCacheSimulator(workload, config)
    topology = simulator.build_topology(np.random.default_rng(config.seed))
    result = main.timed(lambda: simulator.run(make_policy("PB"), topology=topology))

    outputs = {"result": result.as_dict()}
    outputs["result"].update(
        {
            "reactive_shifts": result.reactive_shifts,
            "reactive_rekeys": result.reactive_rekeys,
            "reactive_suppressed": result.reactive_suppressed,
        }
    )
    for name, report in (
        ("faults", result.fault_report),
        ("streaming", result.streaming_report),
        ("hierarchy", result.hierarchy_report),
        ("timeline", result.timeline),
    ):
        if report is not None:
            outputs[name] = report.as_dict()
    exact = config.faults is None and config.streaming is None
    errors = check_result(
        result, requested_kb(workload, config.warmup_fraction), exact_bytes=exact
    )
    heap = result.heap_statistics or {}
    return {
        "outputs": outputs,
        "errors": errors,
        "work": len(workload.trace),
        "facts": {
            "heap_peak_size": heap.get("peak_size", 0),
            "heap_compactions": heap.get("compactions", 0),
            "heap_stale_share": (
                heap["stale_entries"] / heap["size"] if heap.get("size") else 0.0
            ),
            "reactive_shifts": result.reactive_shifts,
            "reactive_rekeys": result.reactive_rekeys,
            "timeline_windows": result.timeline.num_windows if result.timeline else 0,
            "requests": len(workload.trace),
        },
    }


def _flat_pb(scale: float, seed: int):
    """The Table 1 workload with PB's flat configuration (see replay-pb)."""
    from repro.analysis.experiments import build_workload
    from repro.network.variability import NLANRRatioVariability
    from repro.sim.config import SimulationConfig

    workload = build_workload(scale=scale, seed=seed, columnar=True)
    config = SimulationConfig(
        cache_size_gb=0.01 * workload.catalog.total_size_gb,
        variability=NLANRRatioVariability(),
        seed=seed,
    )
    return workload, config


def replay_pb(main: MainLayer, seed: int, size: dict, workdir: Path) -> dict:
    """Table 1 workload, PB, NLANR ratio variability, oracle bandwidth,
    cache of 1% of unique bytes, no subsystem configured."""
    workload, config = _flat_pb(size["scale"], seed)
    return _replay(main, workload, config)


def stream_faults(main: MainLayer, seed: int, size: dict, workdir: Path) -> dict:
    """Every per-request subsystem of the single-proxy path switched on."""
    from repro.analysis.experiments import build_workload
    from repro.network.distributions import NLANRBandwidthDistribution
    from repro.network.variability import NLANRRatioVariability
    from repro.sim.config import BandwidthKnowledge, ClientCloudConfig, SimulationConfig
    from repro.sim.streaming import StreamingConfig

    workload = build_workload(
        scale=size["scale"], seed=seed, columnar=True, num_clients=NUM_CLIENTS
    )
    config = SimulationConfig(
        cache_size_gb=0.02 * workload.catalog.total_size_gb,
        variability=NLANRRatioVariability(),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        reactive_threshold=0.15,
        reactive_passive=True,
        reactive_hysteresis=0.05,
        client_clouds=ClientCloudConfig(
            groups=CLIENT_GROUPS, distribution=NLANRBandwidthDistribution()
        ),
        faults=_faults(workload, seed),
        streaming=StreamingConfig(fraction=1.0, seed=seed),
        observability=_timeline(workload),
        seed=seed,
    )
    return _replay(main, workload, config)


def fleet_2tier(main: MainLayer, seed: int, size: dict, workdir: Path) -> dict:
    """PB in both tiers of a 2-tier, 4-pop hierarchy, with client clouds,
    faults, passive knowledge and the timeline (re-keying is not allowed
    together with a hierarchy)."""
    from repro.analysis.experiments import build_workload
    from repro.network.distributions import NLANRBandwidthDistribution
    from repro.network.variability import NLANRRatioVariability
    from repro.sim.config import BandwidthKnowledge, ClientCloudConfig, SimulationConfig
    from repro.sim.hierarchy import CacheTier, HierarchyConfig

    workload = build_workload(
        scale=size["scale"], seed=seed, columnar=True, num_clients=NUM_CLIENTS
    )
    unique_kb = workload.catalog.total_size
    config = SimulationConfig(
        variability=NLANRRatioVariability(),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        client_clouds=ClientCloudConfig(
            groups=CLIENT_GROUPS, distribution=NLANRBandwidthDistribution()
        ),
        faults=_faults(workload, seed),
        hierarchy=HierarchyConfig(
            tiers=(
                CacheTier("edge", 0.01 * unique_kb, uplink_bandwidth=50.0),
                CacheTier("parent", 0.04 * unique_kb, uplink_bandwidth=40.0),
            ),
            num_pops=4,
        ),
        observability=_timeline(workload),
        seed=seed,
    )
    return _replay(main, workload, config)


# ----------------------------------------------------------------------
# The experiment sweep.
# ----------------------------------------------------------------------
def sweep_fig7(main: MainLayer, seed: int, size: dict, workdir: Path) -> dict:
    """``repro experiment fig7`` through the CLI, on a 2-worker pool."""
    import repro.analysis.parallel as parallel
    import repro.analysis.report as report
    from repro.cli import main as cli_main

    dispatched: list = []
    rendered: list = []
    argv = [
        "experiment", "fig7",
        "--scale", str(size["scale"]),
        "--runs", str(size["runs"]),
        "--jobs", "2",
        "--seed", str(seed),
    ]
    with capture(parallel.run_simulation_jobs, dispatched, main), \
            capture(report.render_experiment, rendered):
        status = cli_main(argv)
    if status != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited with {status}")

    (workload, jobs, *_), metrics_list = dispatched[0]
    sweep = rendered[0][0][0].data["sweep"]
    outputs = {"sweep": {"cache_fraction": list(sweep.parameter_values)}}
    errors: List[str] = []
    for policy, points in sweep.metrics.items():
        for index, point in enumerate(points):
            values = point.as_dict()
            outputs["sweep"][f"{policy}.{index}"] = values
            for key, value in values.items():
                if ("ratio" in key or key == "availability") and not 0.0 <= value <= 1.0:
                    errors.append(f"{policy}[{index}] {key} = {value!r} outside [0, 1]")
    requested = requested_kb(workload, jobs[0].config.warmup_fraction)
    for index, metrics in enumerate(metrics_list):
        delivered = (metrics.bytes_from_cache_gb + metrics.bytes_from_server_gb) * 1e6
        if abs(delivered - requested) > REL_TOL * requested:
            errors.append(f"job {index}: cache + server bytes != requested bytes")
    requests = len(workload.trace) * len(jobs)
    return {
        "outputs": outputs,
        "errors": errors,
        "work": requests,
        "facts": {"jobs": len(jobs), "requests": requests},
    }


# ----------------------------------------------------------------------
# The ingest workload.
# ----------------------------------------------------------------------
#: Share of rendered log lines that are malformed, POST and 404 lines.
MALFORMED_SHARE = 0.01
POST_SHARE = 0.01
NOT_FOUND_SHARE = 0.01
LOG_EPOCH = 1_700_000_000.0


def render_logs(seed: int, size: dict, workdir: Path) -> List[Path]:
    """Render the seed's workload as a two-day Squid access log.

    Written once per harness invocation, before timing starts.  About 1%
    of lines are malformed, 1% are POSTs and 1% are 404s, so the filter
    and error paths of the parser do work too.
    """
    import numpy as np

    from repro.analysis.experiments import build_workload

    workload = build_workload(
        scale=size["scale"], seed=seed, columnar=True, num_clients=NUM_CLIENTS
    )
    trace = workload.trace
    rng = np.random.default_rng((0x4C4F47, seed))
    n = len(trace)
    times = (trace.times_array + LOG_EPOCH).tolist()
    ids = trace.object_ids_array.tolist()
    clients = trace.client_ids_array.tolist()
    elapsed = rng.integers(5, 60_000, size=n).tolist()
    kind = rng.random(n)
    hit = (rng.random(n) < 0.3).tolist()
    sizes = {obj.object_id: int(obj.size * 1024) for obj in workload.catalog}
    servers = {obj.object_id: obj.server_id for obj in workload.catalog}
    lines = []
    for i in range(n):
        oid = ids[i]
        method, status = "GET", 200
        k = kind[i]
        if k < MALFORMED_SHARE:
            lines.append(f"{times[i]:.3f} {elapsed[i]} truncated-entry\n")
            continue
        if k < MALFORMED_SHARE + POST_SHARE:
            method = "POST"
        elif k < MALFORMED_SHARE + POST_SHARE + NOT_FOUND_SHARE:
            status = 404
        code = "TCP_HIT" if hit[i] else "TCP_MISS"
        client = clients[i]
        lines.append(
            f"{times[i]:.3f} {elapsed[i]} 10.0.{client // 256}.{client % 256} "
            f"{code}/{status} {sizes[oid]} {method} "
            f"http://media{servers[oid]}.example.net/v/{oid}.mpg - "
            f"DIRECT/10.1.{servers[oid] % 256}.1 video/mpeg\n"
        )
    half = len(lines) // 2
    paths = [workdir / "day1.log", workdir / "day2.log"]
    paths[0].write_text("".join(lines[:half]))
    paths[1].write_text("".join(lines[half:]))
    return paths


def ingest_append(main: MainLayer, seed: int, size: dict, workdir: Path) -> dict:
    """``repro ingest day1.log --out t.npz`` then ``day2.log --append``."""
    import numpy as np

    import repro.trace.ingest as ingest
    from repro.cli import main as cli_main

    logs = [workdir / "day1.log", workdir / "day2.log"]
    if not all(path.exists() for path in logs):
        raise FileNotFoundError("ingest logs missing; run with --prepare first")
    archive = workdir / f"trace-{os.getpid()}.npz"
    sidecar = archive.with_suffix(".urls.json")
    parsed: list = []

    def ingest_both() -> None:
        parsed.clear()
        for path in (archive, sidecar):
            if path.exists():
                path.unlink()
        for argv in (
            ["ingest", str(logs[0]), "--out", str(archive)],
            ["ingest", str(logs[1]), "--out", str(archive), "--append"],
        ):
            status = cli_main(argv)
            if status != 0:
                raise RuntimeError(f"repro {' '.join(argv)} exited with {status}")

    try:
        with capture(ingest.ingest_access_log, parsed):
            main.timed(ingest_both)
        with np.load(archive) as stored:
            arrays = {name: stored[name] for name in stored.files}
        maps = json.loads(sidecar.read_text())
    finally:
        for path in (archive, sidecar):
            if path.exists():
                path.unlink()

    summaries = [result.summary for _, result in parsed]
    lines = sum(summary.lines_total for summary in summaries)
    outputs = {
        "day1": summaries[0].as_dict(),
        "day2": summaries[1].as_dict(),
        "archive": {name: digest(values) for name, values in sorted(arrays.items())},
        "sidecar": {
            "urls": len(maps["urls"]),
            "clients": len(maps["clients"]),
            "maps": digest([sorted(maps["urls"].items()), sorted(maps["clients"].items())]),
        },
    }
    errors: List[str] = []
    requests = sum(summary.requests for summary in summaries)
    sizes = {len(values) for values in arrays.values()}
    if sizes != {requests}:
        errors.append(f"archive columns hold {sizes} rows, ingested {requests}")
    times = next(
        (values for name, values in arrays.items() if values.dtype.kind == "f"), None
    )
    if times is not None and np.any(np.diff(times) < 0):
        errors.append("archived times decrease")
    for summary in summaries:
        accounted = summary.lines_malformed + summary.records_parsed
        if accounted != summary.lines_total:
            errors.append(f"{accounted} lines accounted of {summary.lines_total}")
        if summary.records_parsed - summary.records_filtered != summary.requests:
            errors.append("parsed - filtered != requests")
    malformed = sum(summary.lines_malformed for summary in summaries)
    return {
        "outputs": outputs,
        "errors": errors,
        "work": lines,
        "facts": {"lines": lines, "malformed": malformed, "requests": requests},
    }


WORKLOADS: Dict[str, Callable] = {
    "replay-pb": replay_pb,
    "sweep-fig7": sweep_fig7,
    "stream-faults": stream_faults,
    "fleet-2tier": fleet_2tier,
    "ingest-append": ingest_append,
}

#: Workloads whose inputs are written to the work directory beforehand.
PREPARE = {"ingest-append": render_logs}


def run(name: str, seed: int, size_name: str, workdir: Path,
        tracer: Optional[Tracer] = None) -> dict:
    """Run one workload in this process; returns its outputs and timings,
    and with ``tracer`` its trace."""
    main = MainLayer(tracer)
    if tracer is not None:
        tracer.start()
    report = WORKLOADS[name](main, seed, SIZES[size_name][name], workdir)
    if tracer is not None:
        report["trace"] = tracer.finish()
    report["main_s"] = main.seconds
    report["first_main_ns"] = main.first_ns
    return report


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--out", type=Path, help="where to write the JSON report")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true",
                        help="only write the workload's input files")
    args = parser.parse_args(argv)

    started_ns = int(os.environ.get("BENCH_START_NS", monotonic_ns()))
    if args.prepare:
        prepare = PREPARE.get(args.workload)
        if prepare is not None:
            prepare(args.seed, SIZES[args.size][args.workload], args.workdir)
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(args.workdir / f"workers-{os.getpid()}")
    report = run(args.workload, args.seed, args.size, args.workdir, tracer)
    import numpy

    report["setup_s"] = (report.pop("first_main_ns") - started_ns) / 1e9
    report["peak_rss_mb"] = peak_rss_mb()
    report["numpy"] = numpy.__version__
    report["outputs"] = flatten(report["outputs"])
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
