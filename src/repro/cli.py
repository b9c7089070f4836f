"""Command-line front-end: ``repro-sim`` / ``python -m repro``.

Three sub-commands cover the common uses:

* ``repro-sim run`` — run one policy on a Table 1-style workload and print
  the headline metrics,
* ``repro-sim experiment`` — regenerate one of the paper's figures
  (``fig2`` … ``fig12`` or ``tab1``) and print its series,
* ``repro-sim ingest`` — parse a real proxy access log (Squid native or
  Common/Combined Log Format) into a columnar trace, print a
  catalog-sizing summary, optionally archive the trace as ``.npz``
  (``--append`` stitches rolling multi-day segments onto an existing
  archive) and run a policy comparison on the ingested workload.

``repro-sim run`` also exposes the bandwidth-knowledge model:
``--knowledge passive`` switches policies from oracle bandwidth to the
passive estimator, ``--remeasure-every SECONDS`` adds periodic bandwidth
re-measurement between requests, and ``--reactive-threshold FRACTION``
re-keys the policy heap the moment a believed bandwidth shifts — probe
driven by default, with ``--reactive-passive`` extending the trigger to
every request's passive observation, ``--reactive-hysteresis`` bounding
churn with a re-arm band, and ``--reactive-rekey-cap`` capping re-keys
per server (see ``docs/events.md``).  ``--client-clouds GROUPS`` (on ``run`` and on
``ingest --compare``) models per-client last-mile bandwidth — one
cache-to-client path per client group, homogeneous with
``--client-bandwidth`` or NLANR-heterogeneous by default (see
``docs/clients.md``).  The ``run --fault-*`` family injects origin
outages and bandwidth flaps with retry/timeout/serve-stale degradation
(``docs/faults.md``); ``repro-sim experiment faults`` runs the matching
ablation.  ``run --streaming-fraction`` marks that share of the catalog
as media streams delivered as segment-wise sessions with partial-object
(prefix) caching and per-session QoE metrics — ``--streaming-whole-object``
flips the ablation baseline, and ``repro-sim experiment streaming`` runs
the full prefix-vs-whole grid (``docs/streaming.md``).  ``ingest
--max-errors N`` tolerates up to ``N`` malformed log lines instead of
giving up on the first one.

Observability (``docs/observability.md``): ``run --metrics-out`` records
a windowed metrics timeline (``--metrics-window`` sets the bucket
width), ``run --trace-out`` writes a structured JSONL event trace
(``--trace-level``/``--trace-sample`` filter it), and ``run --profile``
prints a per-stage wall-clock breakdown.  The global ``-v``/``--quiet``
flags steer the stderr diagnostics through :mod:`repro.obs.log`.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from repro.analysis import experiments as exp
from repro.analysis.report import format_timeline, render_experiment
from repro.core.policies import PolicySpec, make_policy
from repro.exceptions import ConfigurationError, ReproError
from repro.network.distributions import NLANRBandwidthDistribution
from repro.obs import ObservabilityConfig
from repro.obs.log import configure as _configure_logging
from repro.obs.log import get_logger
from repro.network.variability import (
    ConstantVariability,
    MeasuredPathVariability,
    NLANRRatioVariability,
)
from repro.sim.config import BandwidthKnowledge, ClientCloudConfig, SimulationConfig
from repro.sim.events import RemeasurementConfig
from repro.sim.faults import FaultConfig
from repro.sim.simulator import ProxyCacheSimulator
from repro.sim.streaming import StreamingConfig
from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig

#: Experiment name to entry-point mapping for the ``experiment`` sub-command.
EXPERIMENTS: Dict[str, Callable[..., exp.ExperimentResult]] = {
    "fig2": exp.experiment_fig2_bandwidth_distribution,
    "fig3": exp.experiment_fig3_bandwidth_variability,
    "fig4": exp.experiment_fig4_measured_paths,
    "fig5": exp.experiment_fig5_constant_bandwidth,
    "fig6": exp.experiment_fig6_zipf_sweep,
    "fig7": exp.experiment_fig7_high_variability,
    "fig8": exp.experiment_fig8_low_variability,
    "fig9": exp.experiment_fig9_estimator_sweep,
    "fig10": exp.experiment_fig10_value_constant,
    "fig11": exp.experiment_fig11_value_variable,
    "fig12": exp.experiment_fig12_value_estimator,
    "faults": exp.experiment_fault_tolerance,
    "hetero": exp.experiment_client_heterogeneity,
    "hierarchy": exp.experiment_hierarchy,
    "reactive": exp.experiment_reactive_rekeying,
    "streaming": exp.experiment_streaming_delivery,
    "tab1": exp.experiment_table1_workload,
}

VARIABILITY_MODELS = {
    "constant": ConstantVariability,
    "nlanr": NLANRRatioVariability,
    "measured": lambda: MeasuredPathVariability("average"),
}

#: CLI diagnostics go through the shared ``repro`` logger so ``-v`` /
#: ``--quiet`` control them uniformly (stdout results are plain prints).
_log = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Network-aware partial caching simulator (Jin et al., ICDCS 2002).",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="show debug diagnostics on stderr (repeatable)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress notes and warnings on stderr "
                             "(errors still print)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run one policy and print its metrics")
    run.add_argument("--policy", default="PB", help="IF, PB, IB, PB-V, IB-V, LRU, LFU")
    run.add_argument("--estimator-e", type=float, default=None,
                     help="bandwidth under-estimation factor for PB/PB-V")
    run.add_argument("--cache-gb", type=float, default=8.0, help="cache size in GB")
    run.add_argument("--scale", type=float, default=0.1,
                     help="fraction of the paper's workload volume")
    run.add_argument("--variability", choices=sorted(VARIABILITY_MODELS), default="constant")
    run.add_argument("--knowledge", choices=("oracle", "passive"), default="oracle",
                     help="how the cache learns path bandwidth: exact long-term "
                          "averages (oracle) or passive per-transfer estimates")
    run.add_argument("--remeasure-every", type=float, default=None, metavar="SECONDS",
                     help="periodically re-measure every path's bandwidth between "
                          "requests on this cadence (feeds the passive estimator)")
    run.add_argument("--reactive-threshold", type=float, default=None, metavar="FRACTION",
                     help="re-key the policy's heap entries as soon as a path's "
                          "believed bandwidth shifts by more than this fraction "
                          "(requires --knowledge passive plus --remeasure-every "
                          "and/or --reactive-passive; see docs/events.md)")
    run.add_argument("--reactive-passive", action="store_true",
                     help="let every request's passive bandwidth observation "
                          "drive reactive re-keying too, not only periodic "
                          "probes (requires --reactive-threshold)")
    run.add_argument("--reactive-hysteresis", type=float, default=None,
                     metavar="FRACTION",
                     help="re-arm band for reactive re-keying: after a re-key "
                          "the shifted path must return within this fraction of "
                          "its new anchor before it may trigger again "
                          "(bounds churn under oscillating bandwidth)")
    run.add_argument("--reactive-rekey-cap", type=int, default=None, metavar="N",
                     help="hard per-server budget of reactive re-keys per run; "
                          "shifts past the budget are counted but not applied")
    run.add_argument("--client-clouds", type=int, default=None, metavar="GROUPS",
                     help="model per-client last-mile bandwidth: the workload gets "
                          "this many distinct clients, hashed into as many last-mile "
                          "groups, each with its own cache-to-client path "
                          "(see docs/clients.md)")
    run.add_argument("--client-bandwidth", type=float, default=None, metavar="KBPS",
                     help="homogeneous last-mile base bandwidth for --client-clouds; "
                          "default draws one base per group from the NLANR "
                          "distribution (heterogeneous clouds)")
    run.add_argument("--fault-origin-outages", type=int, default=0, metavar="N",
                     help="inject this many random origin-server outages "
                          "(bandwidth to one server drops to zero for the "
                          "episode; see docs/faults.md)")
    run.add_argument("--fault-bandwidth-flaps", type=int, default=0, metavar="N",
                     help="inject this many random origin bandwidth flaps "
                          "(one path collapses to --fault-severity of its base)")
    run.add_argument("--fault-link-flaps", type=int, default=0, metavar="N",
                     help="inject this many random last-mile link flaps "
                          "(requires --client-clouds)")
    # The tuning flags of a subsystem default to None ("not given"): the
    # subsystem's config builder refuses each one given while the subsystem
    # is off (_refuse_given), and the config's own default applies otherwise.
    run.add_argument("--fault-mean-duration", type=float, default=None,
                     metavar="SECONDS",
                     help="mean episode duration for the random faults "
                          "(exponentially distributed; default 600; requires "
                          "a fault episode count)")
    run.add_argument("--fault-severity", type=float, default=None, metavar="FRACTION",
                     help="bandwidth multiplier a flapping path collapses to "
                          "(default 0.1; requires a fault episode count)")
    run.add_argument("--fault-timeout-factor", type=float, default=None, metavar="X",
                     help="a fetch times out when the degraded transfer would "
                          "take more than X times its expected time (default "
                          "4; requires a fault episode count)")
    run.add_argument("--fault-max-retries", type=int, default=None, metavar="N",
                     help="retries per timed-out fetch (exponential backoff; "
                          "default 2; requires a fault episode count)")
    run.add_argument("--fault-backoff", type=float, default=None, metavar="SECONDS",
                     help="base backoff delay before the first retry (default "
                          "1; requires a fault episode count)")
    run.add_argument("--fault-no-serve-stale", action="store_true", default=None,
                     help="fail requests to unreachable origins outright "
                          "instead of serving the cached prefix stale "
                          "(requires a fault episode count)")
    run.add_argument("--fault-seed", type=int, default=None,
                     help="seed of the dedicated fault random stream (default "
                          "0; requires a fault episode count)")
    run.add_argument("--streaming-fraction", type=float, default=None,
                     metavar="FRACTION",
                     help="treat this fraction of the catalog as media streams "
                          "fetched as segment-wise sessions with partial-object "
                          "(prefix) caching and per-session QoE metrics "
                          "(see docs/streaming.md); enables streaming delivery")
    run.add_argument("--streaming-whole-object", action="store_true", default=None,
                     help="ablation: cache selected streams whole-or-nothing "
                          "instead of as segment-quantised prefixes "
                          "(requires --streaming-fraction)")
    run.add_argument("--streaming-segment-kb", type=float, default=None,
                     metavar="KB",
                     help="base segment size for the streaming segmentation "
                          "scheme (segments grow exponentially from this; "
                          "default 256; requires --streaming-fraction)")
    run.add_argument("--streaming-prefetch", type=int, default=None, metavar="N",
                     help="extra segments prefetched past each admission "
                          "target while a session is playing (default 1; "
                          "requires --streaming-fraction)")
    run.add_argument("--streaming-abandon-after", type=float, default=None,
                     metavar="SECONDS",
                     help="a session abandons rather than wait longer than "
                          "this for full-quality startup (it degrades to a "
                          "sustainable layer subset first when possible; "
                          "default 60; requires --streaming-fraction)")
    run.add_argument("--tiers", type=int, default=None, metavar="N",
                     help="replay against an N-tier cache hierarchy (edge pop "
                          "-> parents -> origin) instead of one proxy; each "
                          "tier runs its own cache and policy instance "
                          "(see docs/hierarchy.md)")
    run.add_argument("--tier-cache-kb", default=None, metavar="KB[,KB...]",
                     help="per-tier cache capacities for --tiers, edge first "
                          "(one value is reused for every tier)")
    run.add_argument("--tier-uplink", default=None, metavar="KBPS[,KBPS...]",
                     help="per-tier uplink bandwidths toward the next tier "
                          "(default: unconstrained inter-tier links)")
    run.add_argument("--pops", type=int, default=1, metavar="N",
                     help="edge pops in the fleet; clients are pinned to pops "
                          "by id (requires --tiers; widens the workload to at "
                          "least N clients)")
    run.add_argument("--sibling-lookup", action="store_true",
                     help="ICP-style whole-object lookup at the other pops' "
                          "edge caches before parent escalation "
                          "(requires --pops >= 2)")
    run.add_argument("--sibling-bandwidth", type=float, default=None,
                     metavar="KBPS",
                     help="bandwidth of a sibling-served transfer "
                          "(default: unconstrained; requires --sibling-lookup)")
    run.add_argument("--shards", type=int, default=None, metavar="N",
                     help="partition the trace into N client-group shards and "
                          "replay each in its own worker process, then merge "
                          "deterministically (incompatible with "
                          "--sibling-lookup)")
    run.add_argument("--metrics-out", default=None, metavar="FILE",
                     help="record a windowed metrics timeline and write it to "
                          "this JSON file (also prints a short table; see "
                          "docs/observability.md)")
    run.add_argument("--metrics-window", type=float, default=None,
                     metavar="SECONDS",
                     help="simulated-time window width for --metrics-out "
                          "(default 60; requires --metrics-out)")
    run.add_argument("--trace-out", default=None, metavar="FILE",
                     help="write a structured JSONL event trace (admissions, "
                          "evictions, re-keys, fault episodes, retries) to "
                          "this file")
    run.add_argument("--trace-level", choices=("info", "debug"), default=None,
                     help="lowest event level kept by --trace-out (debug adds "
                          "per-object cache admissions/evictions and retries; "
                          "default info; requires --trace-out)")
    run.add_argument("--trace-sample", type=float, default=None,
                     metavar="FRACTION",
                     help="deterministically keep this fraction of sampled "
                          "trace events (run-start/run-end are always kept; "
                          "default 1; requires --trace-out)")
    run.add_argument("--profile", action="store_true",
                     help="time the run's stages (workload draw, topology "
                          "build, replay, policy ops, estimator, fault "
                          "evaluation) and print a wall-clock breakdown")
    run.add_argument("--seed", type=int, default=0)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's figures/tables"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--scale", type=float, default=None,
                            help="workload scale (simulation experiments only)")
    experiment.add_argument("--runs", type=int, default=None,
                            help="number of runs to average (simulation experiments only)")
    experiment.add_argument("--jobs", "-j", type=int, default=1,
                            help="worker processes for the simulation runs "
                                 "(-1 = one per CPU; simulation experiments only)")
    experiment.add_argument("--seed", type=int, default=0)

    ingest = subparsers.add_parser(
        "ingest", help="turn a proxy access log into a columnar request trace"
    )
    ingest.add_argument("logfile", help="Squid native or Common/Combined Log Format file")
    ingest.add_argument("--format", choices=("auto", "squid", "clf"), default="auto",
                        help="log format (default: probe the first lines)")
    ingest.add_argument("--methods", default="GET",
                        help="comma-separated HTTP methods to keep ('*' keeps all)")
    ingest.add_argument("--max-status", type=int, default=399,
                        help="highest HTTP status code to keep")
    ingest.add_argument("--bitrate", type=float, default=None,
                        help="CBR bitrate (KB/s) used to derive object durations")
    ingest.add_argument("--max-errors", type=int, default=None, metavar="N",
                        help="abort once more than N lines fail to parse "
                             "(default: tolerate any number; malformed lines "
                             "are always counted and the first few quoted in "
                             "the summary)")
    ingest.add_argument("--out", default=None,
                        help="write the ingested trace to this .npz file")
    ingest.add_argument("--append", action="store_true",
                        help="stitch the ingested trace onto an existing --out "
                             "archive (the new segment is shifted to start where "
                             "the archived trace ends, preserving its spacing)")
    ingest.add_argument("--compare", action="store_true",
                        help="run compare_policies on the ingested workload")
    ingest.add_argument("--policies", default="PB,IB,LRU",
                        help="comma-separated policies for --compare")
    ingest.add_argument("--cache-gb", type=float, default=None,
                        help="cache size for --compare (default: 10%% of unique bytes)")
    ingest.add_argument("--client-clouds", type=int, default=None, metavar="GROUPS",
                        help="for --compare: hash the log's real client addresses "
                             "into this many last-mile groups, each with its own "
                             "cache-to-client path (see docs/clients.md)")
    ingest.add_argument("--client-bandwidth", type=float, default=None, metavar="KBPS",
                        help="homogeneous last-mile base bandwidth for "
                             "--client-clouds; default draws per group from the "
                             "NLANR distribution")
    ingest.add_argument("--runs", type=int, default=1,
                        help="runs to average for --compare")
    ingest.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes for --compare (-1 = one per CPU)")
    ingest.add_argument("--seed", type=int, default=0)
    return parser


def _refuse_given(enabler: str, *flags: tuple) -> None:
    """Refuse the first of ``flags`` (``(flag, value)`` pairs, ``value``
    ``None`` when the flag was not given) that was given: ``enabler``,
    which switches on what it tunes, is off, so it would change nothing."""
    for flag, value in flags:
        if value is not None:
            raise ConfigurationError(f"{flag} requires {enabler}")


def _given(**values) -> dict:
    """The keyword arguments among ``values`` whose flag was given."""
    return {name: value for name, value in values.items() if value is not None}


def _client_cloud_config(args: argparse.Namespace) -> Optional[ClientCloudConfig]:
    """Build a :class:`ClientCloudConfig` from the shared CLI flags."""
    if args.client_clouds is None:
        _refuse_given("--client-clouds", ("--client-bandwidth", args.client_bandwidth))
        return None
    if args.client_bandwidth is not None:
        return ClientCloudConfig(
            groups=args.client_clouds, bandwidth=args.client_bandwidth
        )
    return ClientCloudConfig(
        groups=args.client_clouds, distribution=NLANRBandwidthDistribution()
    )


def _fault_config(args: argparse.Namespace) -> Optional[FaultConfig]:
    """Build a :class:`FaultConfig` from the ``run --fault-*`` flags."""
    if not (args.fault_origin_outages or args.fault_bandwidth_flaps
            or args.fault_link_flaps):
        _refuse_given(
            "--fault-origin-outages, --fault-bandwidth-flaps or --fault-link-flaps",
            ("--fault-mean-duration", args.fault_mean_duration),
            ("--fault-severity", args.fault_severity),
            ("--fault-timeout-factor", args.fault_timeout_factor),
            ("--fault-max-retries", args.fault_max_retries),
            ("--fault-backoff", args.fault_backoff),
            ("--fault-no-serve-stale", args.fault_no_serve_stale),
            ("--fault-seed", args.fault_seed),
        )
        return None
    if args.fault_link_flaps and args.client_clouds is None:
        raise ConfigurationError("--fault-link-flaps requires --client-clouds "
                                 "(there is no modeled last mile to fail)")
    return FaultConfig(
        random_origin_outages=args.fault_origin_outages,
        random_bandwidth_flaps=args.fault_bandwidth_flaps,
        random_link_flaps=args.fault_link_flaps,
        serve_stale=not args.fault_no_serve_stale,
        **_given(
            mean_duration_s=args.fault_mean_duration,
            severity=args.fault_severity,
            seed=args.fault_seed,
            timeout_factor=args.fault_timeout_factor,
            max_retries=args.fault_max_retries,
            backoff_base_s=args.fault_backoff,
        ),
    )


def _streaming_config(args: argparse.Namespace) -> Optional[StreamingConfig]:
    """Build a :class:`StreamingConfig` from the ``run --streaming-*`` flags."""
    if args.streaming_fraction is None:
        _refuse_given(
            "--streaming-fraction",
            ("--streaming-whole-object", args.streaming_whole_object),
            ("--streaming-segment-kb", args.streaming_segment_kb),
            ("--streaming-prefetch", args.streaming_prefetch),
            ("--streaming-abandon-after", args.streaming_abandon_after),
        )
        return None
    return StreamingConfig(
        fraction=args.streaming_fraction,
        prefix_caching=not args.streaming_whole_object,
        seed=args.seed,
        **_given(
            base_segment_kb=args.streaming_segment_kb,
            prefetch_segments=args.streaming_prefetch,
            abandon_after_s=args.streaming_abandon_after,
        ),
    )


def _parse_tier_values(raw: Optional[str], tiers: int, flag: str,
                       default: float) -> list:
    """Expand a comma-separated per-tier flag to exactly ``tiers`` floats."""
    if raw is None:
        return [default] * tiers
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(f"{flag} expects comma-separated numbers, got {raw!r}")
    if len(values) == 1:
        return values * tiers
    if len(values) != tiers:
        raise ConfigurationError(f"{flag} needs 1 or {tiers} value(s), got {len(values)}")
    return values


def _hierarchy_config(args: argparse.Namespace):
    """Build a :class:`HierarchyConfig` from the ``run --tiers`` family."""
    from repro.sim.hierarchy import CacheTier, HierarchyConfig

    if not args.sibling_lookup:
        _refuse_given("--sibling-lookup", ("--sibling-bandwidth", args.sibling_bandwidth))
    if args.tiers is None:
        _refuse_given(
            "--tiers",
            ("--tier-cache-kb", args.tier_cache_kb),
            ("--tier-uplink", args.tier_uplink),
            ("--sibling-lookup", args.sibling_lookup or None),
            ("--shards", args.shards),
            ("--pops", None if args.pops == 1 else args.pops),
        )
        return None
    if args.tiers < 1:
        raise ConfigurationError(f"--tiers must be at least 1, got {args.tiers}")
    if args.tier_cache_kb is None:
        raise ConfigurationError("--tiers requires --tier-cache-kb")
    caches = _parse_tier_values(args.tier_cache_kb, args.tiers,
                                "--tier-cache-kb", 0.0)
    uplinks = _parse_tier_values(args.tier_uplink, args.tiers,
                                 "--tier-uplink", float("inf"))
    names = ["edge"] + [
        f"parent{index}" if args.tiers > 2 else "parent"
        for index in range(1, args.tiers)
    ]
    tiers = tuple(
        # Tier policies must come from the registry, so the tiers reuse the
        # run policy's registry name (estimator hybrids stay edge-only).
        CacheTier(name=name, cache_kb=cache, policy=args.policy,
                  uplink_bandwidth=uplink)
        for name, cache, uplink in zip(names, caches, uplinks)
    )
    return HierarchyConfig(
        tiers=tiers,
        num_pops=args.pops,
        sibling_lookup=args.sibling_lookup,
        sibling_bandwidth=(args.sibling_bandwidth
                           if args.sibling_bandwidth is not None
                           else float("inf")),
    )


def _observability_config(args: argparse.Namespace) -> Optional[ObservabilityConfig]:
    """Build an :class:`ObservabilityConfig` from the ``run`` obs flags."""
    if args.metrics_out is None:
        _refuse_given("--metrics-out", ("--metrics-window", args.metrics_window))
    if args.trace_out is None:
        _refuse_given(
            "--trace-out",
            ("--trace-level", args.trace_level),
            ("--trace-sample", args.trace_sample),
        )
    if not (args.metrics_out or args.trace_out or args.profile):
        return None
    return ObservabilityConfig(
        timeline=args.metrics_out is not None,
        trace_path=args.trace_out,
        profile=args.profile,
        **_given(
            window_s=args.metrics_window,
            trace_level=args.trace_level,
            trace_sample=args.trace_sample,
        ),
    )


def _require_directory(flag: str, path: Optional[str]) -> None:
    """Reject an output file whose directory does not exist, before any work."""
    if path is not None and not Path(path).parent.is_dir():
        raise ConfigurationError(
            f"{flag} {path}: directory {Path(path).parent} does not exist"
        )


def _run_single(args: argparse.Namespace) -> int:
    import time as _time

    _require_directory("--metrics-out", args.metrics_out)
    _require_directory("--trace-out", args.trace_out)
    workload_config = WorkloadConfig(seed=args.seed)
    if args.scale != 1.0:
        workload_config = workload_config.scaled(args.scale)
    # Every subsystem's flags are checked here, before the workload draw.
    client_clouds = _client_cloud_config(args)
    hierarchy = _hierarchy_config(args)
    faults = _fault_config(args)
    streaming = _streaming_config(args)
    observability = _observability_config(args)
    if client_clouds is not None:
        # One distinct client per last-mile group keeps the CLI surface
        # simple; the library supports many clients per group.
        workload_config = replace(workload_config, num_clients=client_clouds.groups)
    if hierarchy is not None and hierarchy.num_pops > workload_config.num_clients:
        # Pops (and fleet shards) partition clients by id, so the workload
        # needs at least one client per pop to exercise every chain.
        workload_config = replace(workload_config, num_clients=hierarchy.num_pops)
    if args.shards is not None and args.shards > workload_config.num_clients:
        workload_config = replace(workload_config, num_clients=args.shards)
    draw_started = _time.perf_counter()
    workload = GismoWorkloadGenerator(workload_config).generate()
    workload_draw_s = _time.perf_counter() - draw_started
    remeasurement = None
    if args.remeasure_every is not None:
        remeasurement = RemeasurementConfig(interval=args.remeasure_every)
    config = SimulationConfig(
        cache_size_gb=args.cache_gb,
        variability=VARIABILITY_MODELS[args.variability](),
        bandwidth_knowledge=BandwidthKnowledge(args.knowledge),
        remeasurement=remeasurement,
        client_clouds=client_clouds,
        reactive_threshold=args.reactive_threshold,
        reactive_passive=args.reactive_passive,
        reactive_hysteresis=args.reactive_hysteresis,
        reactive_rekey_cap=args.reactive_rekey_cap,
        faults=faults,
        streaming=streaming,
        hierarchy=hierarchy,
        observability=observability,
        seed=args.seed,
    )
    fleet = None
    if args.shards is not None:
        from repro.analysis.parallel import run_sharded_fleet

        if args.shards < 1:
            raise ConfigurationError(f"--shards must be at least 1, got {args.shards}")
        fleet = run_sharded_fleet(
            workload,
            config,
            PolicySpec(args.policy, estimator_e=args.estimator_e),
            num_shards=args.shards,
            n_jobs=args.shards,
        )
        result = fleet.merged
    else:
        policy = make_policy(args.policy, estimator_e=args.estimator_e)
        result = ProxyCacheSimulator(workload, config).run(policy)
    print(f"policy: {result.policy_name}")
    print(f"cache size: {args.cache_gb} GB "
          f"({config.cache_fraction_of(workload.catalog.total_size):.1%} of unique bytes)")
    if remeasurement is not None:
        print(f"bandwidth re-measurements: {result.auxiliary_events_fired} "
              f"(every {args.remeasure_every:g} s per path)")
    if client_clouds is not None:
        mode = (
            f"homogeneous {args.client_bandwidth:g} KB/s"
            if args.client_bandwidth is not None
            else "NLANR-distributed"
        )
        print(f"client clouds: {client_clouds.groups} last-mile groups ({mode})")
    if args.reactive_threshold is not None:
        sources = "probes + passive requests" if args.reactive_passive else "probes"
        print(f"reactive re-keying: {result.reactive_shifts} belief shifts "
              f"re-keyed {result.reactive_rekeys} heap entries "
              f"(threshold {args.reactive_threshold:g}, driven by {sources})")
        if args.reactive_hysteresis is not None:
            print(f"reactive hysteresis: re-arm band {args.reactive_hysteresis:g}")
        if args.reactive_rekey_cap is not None:
            print(f"reactive re-key cap: {args.reactive_rekey_cap} per server "
                  f"({result.reactive_suppressed} shifts suppressed)")
    if result.fault_report is not None:
        report = result.fault_report
        print(f"fault episodes: {report.episodes} "
              f"({report.origin_episodes} origin, {report.link_episodes} last-mile)")
        print(f"fault outcomes: {report.degraded_requests} degraded, "
              f"{report.retried_requests} retried ({report.total_retries} retries), "
              f"{report.failed_fetches} fetches failed -> "
              f"{report.stale_serves} served stale + {report.failed_requests} failed")
        if report.mean_time_to_recovery_s is not None:
            print(f"estimate recovery: {len(report.recoveries)} outage(s) recovered, "
                  f"mean time to recovery {report.mean_time_to_recovery_s:.6g} s")
    if result.streaming_report is not None:
        report = result.streaming_report
        mode = "prefix" if config.streaming.prefix_caching else "whole-object"
        print(f"streaming: {report.stream_objects} stream object(s), "
              f"{report.sessions} session(s), {mode} caching")
        print(f"streaming sessions: {report.waited_sessions} waited, "
              f"{report.degraded_sessions} degraded, "
              f"{report.abandoned_sessions} abandoned")
        print(f"streaming QoE: startup {report.mean_startup_delay_s:.6g} s, "
              f"rebuffer {report.rebuffer_ratio:.6g}, "
              f"quality {report.mean_quality:.6g}, "
              f"abandonment {report.abandonment_rate:.6g}")
        if config.streaming.prefix_caching:
            print(f"streaming cache: {report.prefetch_extensions} prefetch "
                  f"extension(s), {report.fragment_trims} fragment trim(s), "
                  f"{report.pressure_trimmed_kb:.6g} KB trimmed under pressure")
    if fleet is not None:
        shard_requests = [s.metrics.requests for s in fleet.shard_results]
        print(f"fleet shards: {fleet.num_shards} client-group shard(s), "
              f"per-shard measured requests {shard_requests}, "
              f"merged deterministically")
    if result.hierarchy_report is not None:
        report = result.hierarchy_report
        names = report.tier_names
        pops = config.hierarchy.num_pops
        print(f"hierarchy: {len(names)} tier(s) x {pops} pop(s)")
        for tier, requests, hits, ratio, byte_ratio in zip(
            names,
            report.tier_requests,
            report.tier_hits,
            report.tier_hit_ratios,
            report.tier_byte_hit_ratios,
        ):
            print(f"  tier {tier}: {requests} request(s), {hits} hit(s), "
                  f"hit ratio {ratio:.6g}, byte hit ratio {byte_ratio:.6g}")
        if config.hierarchy.sibling_lookup:
            print(f"  siblings: {report.sibling_hits} whole-object hit(s), "
                  f"{report.sibling_bytes:.6g} KB")
        print(f"  origin: {report.origin_bytes:.6g} KB "
              f"({report.origin_byte_ratio:.6g} of client bytes); "
              f"tiers absorbed {report.tier_absorbed_bytes:.6g} KB")
    for key, value in result.metrics.as_dict().items():
        print(f"{key}: {value:.6g}")
    if result.heap_statistics is not None:
        _log.debug("policy heap: %s", result.heap_statistics)
    if result.timeline is not None and args.metrics_out:
        import json as _json

        payload = result.timeline.as_dict()
        Path(args.metrics_out).write_text(_json.dumps(payload) + "\n")
        print(f"metrics timeline: {result.timeline.num_windows} window(s) of "
              f"{config.observability.window_s:g} s -> {args.metrics_out}")
        print(format_timeline(result.timeline))
    if args.trace_out:
        print(f"event trace: {args.trace_out}")
    if args.profile and result.profile is not None:
        profile = dict(result.profile)
        # The workload is drawn before the simulator exists, so the CLI
        # times that stage itself and folds it into the table.
        profile["workload_draw"] = {"seconds": workload_draw_s, "calls": 1}
        print("profile (wall-clock):")
        for stage in sorted(profile, key=lambda s: -profile[s]["seconds"]):
            entry = profile[stage]
            print(f"  {stage:<16} {entry['seconds']:10.4f} s "
                  f"{int(entry['calls']):>10} call(s)")
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    entry_point = EXPERIMENTS[args.name]
    kwargs = {"seed": args.seed}
    if args.name not in ("fig2", "fig3", "fig4", "tab1"):
        if args.scale is not None:
            kwargs["scale"] = args.scale
        if args.runs is not None:
            kwargs["num_runs"] = args.runs
        if args.jobs != 1:
            kwargs["n_jobs"] = args.jobs
    elif args.name == "tab1" and args.scale is not None:
        kwargs["scale"] = args.scale
    result = entry_point(**kwargs)
    print(render_experiment(result))
    return 0


def _run_ingest(args: argparse.Namespace) -> int:
    from repro.trace.ingest import ingest_access_log
    from repro.units import DEFAULT_BITRATE_KBPS

    if not args.out:
        _refuse_given("--out", ("--append", args.append or None))
    _require_directory("--out", args.out)
    # Validate the shared client-cloud flags up front (the bandwidth-
    # without-groups error in particular), and be loud about the one case
    # where they would otherwise be silently ignored.
    client_clouds = _client_cloud_config(args)
    if client_clouds is not None and not args.compare:
        _log.info("--client-clouds only affects --compare; the archived "
                  "trace always keeps the per-client ids for later runs")

    methods = None
    if args.methods and args.methods.strip() != "*":
        methods = tuple(m.strip().upper() for m in args.methods.split(",") if m.strip())
    bitrate = args.bitrate if args.bitrate is not None else DEFAULT_BITRATE_KBPS
    result = ingest_access_log(
        args.logfile,
        log_format=args.format,
        methods=methods,
        status_range=(100, args.max_status),
        max_errors=args.max_errors,
    )
    for key, value in result.summary.as_dict().items():
        if key == "malformed_samples":
            for sample in value:
                print(f"malformed sample: {sample}")
            continue
        if isinstance(value, float):
            print(f"{key}: {value:.6g}")
        else:
            print(f"{key}: {value}")

    if args.out:
        import json

        import numpy as np

        from repro.trace.columnar import ColumnarTrace

        out_path = Path(args.out)
        # Object and client ids are per-ingest first-seen indices, so
        # rolling segments only share an id space through the maps archived
        # next to the trace; --append remaps the new segment through them.
        # Sidecar schema: {"urls": {url: id}, "clients": {address: id}}
        # (legacy sidecars held the flat url map only — still readable, but
        # client ids then cannot be aligned across segments).
        sidecar = out_path.with_suffix(".urls.json")
        if args.append and out_path.exists():
            existing = ColumnarTrace.from_npz(out_path)
            new_trace = result.trace
            if sidecar.exists():
                stored = json.loads(sidecar.read_text())
                if "urls" in stored and isinstance(stored["urls"], dict):
                    merged = stored["urls"]
                    merged_clients = stored.get("clients")
                else:
                    merged = stored  # legacy flat url map
                    merged_clients = None
                if merged_clients is None:
                    merged_clients = {}
                    _log.warning(
                        "%s has no client map (legacy sidecar); client ids of "
                        "the archived segments cannot be aligned — the "
                        "appended segment's clients are renumbered after the "
                        "archive's %d observed ids",
                        sidecar.name,
                        int(existing.client_ids_array.max(initial=-1)) + 1,
                    )
                    # Renumber past the archive's id space so the new
                    # segment's clients at least never collide with it.
                    next_free = int(existing.client_ids_array.max(initial=-1)) + 1
                    merged_clients = {
                        f"unaligned-{index}": index for index in range(next_free)
                    }
                archived_count = len(merged)
                archived_clients = len(merged_clients)
                lut = np.empty(max(len(result.url_ids), 1), dtype=np.int64)
                for url, segment_id in result.url_ids.items():
                    merged_id = merged.get(url)
                    if merged_id is None:
                        merged_id = len(merged)
                        merged[url] = merged_id
                    lut[segment_id] = merged_id
                client_lut = np.empty(max(len(result.client_ids), 1), dtype=np.int32)
                for client, segment_id in result.client_ids.items():
                    merged_id = merged_clients.get(client)
                    if merged_id is None:
                        merged_id = len(merged_clients)
                        merged_clients[client] = merged_id
                    client_lut[segment_id] = merged_id
                new_trace = ColumnarTrace(
                    new_trace.times_array,
                    lut[new_trace.object_ids_array],
                    client_lut[new_trace.client_ids_array],
                    validate=False,
                )
            else:
                merged = None
                merged_clients = None
                _log.warning(
                    "%s not found next to the archive; appending with this "
                    "ingest's first-seen object and client ids, which may "
                    "not align with the archived segments",
                    sidecar.name,
                )
            stitched = ColumnarTrace.concat([existing, new_trace], rebase=True)
            writes = [(out_path, stitched.to_npz)]
            if merged is not None:
                writes.append((sidecar, lambda path: path.write_text(
                    json.dumps({"urls": merged, "clients": merged_clients})
                )))
            _replace_files(writes)
            if merged is not None:
                print(f"url map: {archived_count} archived urls, "
                      f"{len(merged) - archived_count} new ({sidecar.name})")
                print(f"client map: {archived_clients} archived clients, "
                      f"{len(merged_clients) - archived_clients} new")
            print(f"trace appended: {args.out} ({len(existing)} archived + "
                  f"{len(new_trace)} new = {len(stitched)} requests)")
        else:
            _replace_files(
                [
                    (out_path, result.trace.to_npz),
                    (sidecar, lambda path: path.write_text(json.dumps(
                        {"urls": result.url_ids, "clients": result.client_ids}
                    ))),
                ]
            )
            print(f"trace written: {args.out} ({len(result.trace)} requests)")

    if args.compare:
        if not len(result.trace):
            print("nothing to simulate: the filtered trace is empty")
            return 1
        if args.append:
            print("\nnote: --compare simulates the newly ingested segment only, "
                  "not the stitched archive (per-segment catalogs are not merged)")
        workload = result.to_workload(bitrate=bitrate)
        cache_gb = args.cache_gb
        if cache_gb is None:
            cache_gb = max(0.1 * workload.catalog.total_size_gb, 1e-6)
        config = SimulationConfig(
            cache_size_gb=cache_gb, client_clouds=client_clouds, seed=args.seed
        )
        if client_clouds is not None:
            print(f"\nclient clouds: {result.summary.unique_clients} ingested "
                  f"clients hashed into {client_clouds.groups} last-mile groups")
        factories = {
            name.strip().upper(): PolicySpec(name.strip().upper())
            for name in args.policies.split(",")
            if name.strip()
        }
        from repro.sim.runner import compare_policies

        comparison = compare_policies(
            workload, factories, config, num_runs=args.runs, n_jobs=args.jobs
        )
        print(f"\ncompare_policies on ingested workload "
              f"(cache {cache_gb:.4g} GB, {args.runs} run(s)):")
        metrics = ("traffic_reduction_ratio", "average_service_delay",
                   "average_stream_quality", "hit_ratio")
        header = "policy".ljust(8) + "".join(m.rjust(26) for m in metrics)
        print(header)
        for name in comparison.policies():
            row = comparison.metrics_by_policy[name]
            print(name.ljust(8) + "".join(
                f"{getattr(row, m):26.6g}" for m in metrics
            ))
    return 0


def _replace_files(writes) -> None:
    """Write each ``(path, write)`` pair, all or none.

    ``write(tmp)`` fills a temporary sibling of ``path`` (same directory,
    same suffix); only once every write succeeded are the temporaries
    renamed over their targets with :func:`os.replace`.  A failure midway
    therefore leaves every target as it was.  The archive is renamed
    before its sidecar, so the one remaining window — between the two
    renames — leaves a map that merely lacks the newest URLs (repairable
    by re-appending) rather than ids the archive never received.
    """
    temporaries = []
    try:
        for path, write in writes:
            handle, name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{path.name}.", suffix=path.suffix
            )
            os.close(handle)
            temporaries.append((Path(name), path))
            write(Path(name))
        for temporary, path in temporaries:
            os.replace(temporary, path)
    finally:
        for temporary, _ in temporaries:
            temporary.unlink(missing_ok=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by the ``repro-sim`` console script.

    Invalid input the library rejects (a :class:`~repro.exceptions.
    ReproError`, e.g. a negative cache size or an unknown policy) and a
    file that cannot be read or written (an :class:`OSError`, e.g. a
    missing log) print one ``error: <message>`` line on stderr and exit
    with status 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(verbosity=args.verbose, quiet=args.quiet)
    commands = {
        "run": _run_single,
        "experiment": _run_experiment,
        "ingest": _run_ingest,
    }
    try:
        # Every subcommand takes --seed; fig2-fig4 build no config that
        # would check it, so it is checked here, before any work.
        if args.seed < 0:
            raise ConfigurationError(f"--seed must be non-negative, got {args.seed}")
        return commands[args.command](args)
    except (ReproError, OSError) as error:
        _log.error("%s", error)
        return 2


if __name__ == "__main__":
    sys.exit(main())
