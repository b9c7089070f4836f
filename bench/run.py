"""Benchmark harness: runs the workloads, checks their outputs, reports metrics.

Every sample is one workload run in a fresh child process
(``bench/workloads.py``) with ``OMP/OPENBLAS/MKL_NUM_THREADS=1``.  The
outputs of every sample are checked against the workload's invariants,
against the other samples of the invocation (the program is
deterministic) and, for seeds with a recorded golden file, against
``bench/golden/seed-<n>.json``.  Times are normalised by a reference task
run on the sample's CPUs before and after it (``bench/README.md``
explains why and how).

Two ways to run it, from the repository root:

* all workloads, in interleaved rounds, then one traced round::

      python3 bench/run.py [--seed S] [--workload NAME ...] [--repeats N]
                           [--trace 0|1] [--json FILE]

* one workload for a fixed time (the form the benchmark contract in
  ``BENCHMARK.json`` uses)::

      python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

  With ``--trace 0`` the last line of stdout carries the end-to-end
  metrics, with ``--trace 1`` the per-layer metrics of the traced samples.

``--record-golden`` runs each selected workload once and writes its
outputs to the golden file of ``--seed``.  Temporary files go to a
directory of the run's own under ``.bench_build/``, removed on exit;
results go to stdout and to ``--json`` only.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import checks
import spans
from workloads import PREPARE, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Workloads that fan out over a 2-worker pool and so use two CPUs.
POOLED = ("sweep-fig7",)
ALL_CPUS = os.sched_getaffinity(0)

#: End-to-end metric -> unit.  Bounds live in BENCHMARK.json.
END_TO_END = {
    "req_per_s": "req/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150

#: Duration (s) of one :func:`reference_seconds` pass on a quiet host: the
#: median of 200 passes on the 2-core VM the baseline was taken on.
REFERENCE_S = 0.06


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class _Entry:
    __slots__ = ("key", "count", "size")

    def __init__(self, key: int, size: float) -> None:
        self.key = key
        self.count = 0
        self.size = size


_REFERENCE_RNG = random.Random(20021)
_REFERENCE_KEYS = [int(_REFERENCE_RNG.paretovariate(0.8)) % 50_000 for _ in range(160_000)]


def reference_seconds() -> float:
    """Time one pass of a fixed interpreter-bound task.

    A frequency-keyed heap cache over a heavy-tailed key stream: dict,
    heap, attribute and float work like the simulator's, but code the
    program under test never touches.  The harness runs it before and
    after every sample to measure how fast the host is running right
    then (see the README).
    """
    start = time.perf_counter()
    entries: Dict[int, _Entry] = {}
    heap: List[tuple] = []
    used = 0.0
    for seq, key in enumerate(_REFERENCE_KEYS):
        entry = entries.get(key)
        if entry is None:
            entry = entries[key] = _Entry(key, 1.0 + (key % 97) / 10.0)
            used += entry.size
        entry.count += 1
        heapq.heappush(heap, (entry.count / entry.size, seq, key))
        while used > 2_000.0:
            _, _, victim = heapq.heappop(heap)
            gone = entries.pop(victim, None)
            if gone is not None:
                used -= gone.size
    return time.perf_counter() - start


def quartiles(values: List[float]) -> dict:
    """Median, p25, p75 and n of ``values``."""
    if len(values) == 1:
        low = high = values[0]
    else:
        low, _, high = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "p25": low, "p75": high,
            "n": len(values)}


class Runner:
    """Runs workload children in one work directory and keeps every sample."""

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.golden = checks.load_golden(seed) if size == "full" else None
        self.samples: Dict[str, List[dict]] = {}
        self.first_outputs: Dict[str, dict] = {}
        self._count = 0
        reference_seconds()  # warm up the reference task

    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = "1"
        env["PYTHONHASHSEED"] = "0"
        # Children load compiled bytecode from a cache the warm-up sample
        # fills, so set-up time never includes compiling the sources,
        # whether or not the caller's environment lets Python write it.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(self.workdir / "pycache")
        return env

    def _cpus(self, workload: str) -> List[int]:
        """CPUs a sample runs on: the same one every time for
        single-process workloads (an idle vCPU runs slowly for a while
        once work lands on it, so keep one busy), every usable CPU (up to
        two) for the pool workload."""
        usable = sorted(ALL_CPUS)
        return usable[:2] if workload in POOLED else usable[-1:]

    def _references(self, cpus: List[int]) -> List[float]:
        """The faster of two reference passes on each of ``cpus`` (the
        first pass after moving to a CPU runs on cold caches)."""
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(min(reference_seconds(), reference_seconds()))
        os.sched_setaffinity(0, ALL_CPUS)
        return times

    def _spawn(self, workload: str, extra: List[str], cpus=None) -> tuple:
        """Run ``workloads.py`` in its own process group, on ``cpus`` if
        given; returns ``(returncode, stderr, wall seconds)``."""
        env = self._env()
        command = [
            sys.executable, str(BENCH_DIR / "workloads.py"),
            "--workload", workload, "--seed", str(self.seed),
            "--size", self.size, "--workdir", str(self.workdir), *extra,
        ]
        os.sched_setaffinity(0, set(cpus) if cpus else ALL_CPUS)
        start = monotonic_ns()
        env["BENCH_START_NS"] = str(start)
        proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True,
        )
        os.sched_setaffinity(0, ALL_CPUS)
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        finally:
            # Reap anything the child left in its group (pool workers).
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        wall = (monotonic_ns() - start) / 1e9
        return proc.returncode, stderr.decode(errors="replace"), wall

    def prepare(self, workload: str) -> None:
        if workload in PREPARE:
            code, stderr, _ = self._spawn(workload, ["--prepare"])
            if code != 0:
                raise RuntimeError(f"preparing {workload} failed:\n{stderr}")

    def sample(self, workload: str, trace: bool = False, timed: bool = True) -> dict:
        """Run one child and return its checked sample."""
        self._count += 1
        out = self.workdir / f"{workload}-{self._count}.json"
        cpus = self._cpus(workload)
        references = self._references(cpus)
        try:
            code, stderr, wall = self._spawn(
                workload, ["--out", str(out), "--trace", "1" if trace else "0"], cpus
            )
        except subprocess.TimeoutExpired:
            code, stderr, wall = -1, f"killed after {CHILD_TIMEOUT_S} s", float("nan")
        references += self._references(cpus)
        # Speed of the sample's CPUs right now relative to the quiet
        # baseline host: below 1 while the host is slowing them down.
        speed = REFERENCE_S / statistics.mean(references)
        sample = {"workload": workload, "traced": trace, "timed": timed,
                  "cpus": cpus, "reference_s": references, "speed": speed,
                  "raw_wall_s": wall, "wall_s": wall * speed, "errors": []}
        if code != 0 or not out.exists():
            sample["errors"].append(f"child exited with {code}: {stderr.strip()[-2000:]}")
        else:
            report = json.loads(out.read_text())
            out.unlink()
            sample.update(
                raw_setup_s=report["setup_s"],
                setup_s=report["setup_s"] * speed,
                raw_main_s=report["main_s"],
                work=report["work"],
                req_per_s=report["work"] / (report["main_s"] * speed),
                peak_rss_mb=report["peak_rss_mb"],
                numpy=report["numpy"],
                facts=report["facts"],
            )
            if trace:
                sample["trace"] = report["trace"]
            sample["errors"].extend(self._check(workload, report["outputs"]))
            sample["errors"].extend(report["errors"])
        self.samples.setdefault(workload, []).append(sample)
        return sample

    def _check(self, workload: str, outputs: dict) -> List[str]:
        errors = []
        if self.golden is not None and workload in self.golden:
            errors += [f"golden: {p}" for p in checks.compare(self.golden[workload], outputs)]
        first = self.first_outputs.setdefault(workload, outputs)
        if first is not outputs and first != outputs:
            errors += [f"differs from this run's first sample: {p}"
                       for p in checks.compare(first, outputs) or ["new keys"]]
        return errors

    # -- summaries -----------------------------------------------------
    def end_to_end(self, workload: str) -> Dict[str, dict]:
        good = [s for s in self.samples.get(workload, [])
                if s["timed"] and not s["traced"] and not s["errors"]]
        if not good:
            return {}
        return {
            name: {"unit": unit, **quartiles([s[name] for s in good])}
            for name, unit in END_TO_END.items()
        }

    def per_layer(self, workload: str) -> Dict[str, dict]:
        # Layer times are raw host time: a traced child runs for longer
        # than the two reference passes around it can vouch for.  Its
        # overhead is measured against a bare run in the same process.
        per_sample = [
            spans.layer_metrics(s["trace"], s["facts"])
            for s in self.samples.get(workload, [])
            if s["traced"] and not s["errors"]
        ]
        if not per_sample:
            return {}
        return {
            name: {"unit": unit, **quartiles([values[name] for values in per_sample])}
            for name, unit in spans.LAYER_METRICS.items()
        }

    def counts(self, workload: str) -> tuple:
        samples = self.samples.get(workload, [])
        return len(samples), sum(1 for s in samples if s["errors"])


def provenance(args, load_before) -> dict:
    info = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(ALL_CPUS),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "seed": args.seed,
        "size": args.size,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "git_commit": None,
        "git_dirty": None,
    }
    # Only ask git when the checkout is itself a repository, so git never
    # searches the directories above it.
    if (ROOT / ".git").exists():
        def git(*command):
            return subprocess.run(
                ["git", "-C", str(ROOT), *command], capture_output=True, text=True
            ).stdout.strip()

        info["git_commit"] = git("rev-parse", "HEAD") or None
        info["git_dirty"] = bool(git("status", "--porcelain"))
    return info


def run_timed(runner: Runner, workload: str, seconds: float, trace: bool) -> None:
    """The fixed-time form: warm up and sample untraced, or sample traced.

    A traced child measures its own overhead against a bare run of the
    main call, so a traced run needs no untraced samples.
    """
    runner.prepare(workload)
    if not trace:
        runner.sample(workload, timed=False)
    start = monotonic_ns()
    taken = 0
    while taken < (1 if trace else 3) or monotonic_ns() - start < seconds * 1e9:
        runner.sample(workload, trace=trace)
        taken += 1


def run_rounds(runner: Runner, workloads: List[str], repeats: int, trace: bool) -> None:
    """The full form: one warm-up round, interleaved timed rounds, a traced round."""
    for workload in workloads:
        runner.prepare(workload)
        runner.sample(workload, timed=False)
    for round_index in range(repeats):
        order = workloads if round_index % 2 == 0 else workloads[::-1]
        for workload in order:
            runner.sample(workload)
    if trace:
        for workload in workloads:
            runner.sample(workload, trace=True)


def print_table(runner: Runner, workloads: List[str], traced: bool) -> None:
    header = f"{'workload':<14} {'metric':<26} {'unit':<8} {'median':>14} {'p25':>14} {'p75':>14} {'n':>3}"
    print(header)
    for workload in workloads:
        attempted, failed = runner.counts(workload)
        blocks = [runner.end_to_end(workload)]
        if traced:
            blocks.append(runner.per_layer(workload))
        for block in blocks:
            for name, m in block.items():
                print(f"{workload:<14} {name:<26} {m['unit']:<8} {m['median']:>14.6g} "
                      f"{m['p25']:>14.6g} {m['p75']:>14.6g} {m['n']:>3}")
        print(f"{workload:<14} {'error_rate':<26} {'share':<8} "
              f"{failed / attempted if attempted else 0.0:>14.6g} "
              f"{'':>14} {'':>14} {attempted:>3}")
        for sample in runner.samples.get(workload, []):
            for error in sample["errors"][:10]:
                print(f"  error: {error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark workloads and report their metrics."
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed rounds when --seconds is not given")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure one workload for this long instead of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=None,
                        help="traced samples for per-layer metrics (default: on "
                             "for rounds, off with --seconds)")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the full result, raw samples included")
    parser.add_argument("--record-golden", action="store_true",
                        help="run each workload once and record its outputs as "
                             "the golden file of --seed")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="workload size ('tiny' is for the tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = args.workload or list(WORKLOADS)
    if args.seconds is not None and len(workloads) != 1:
        parser.error("--seconds measures exactly one --workload")
    trace = bool(args.trace) if args.trace is not None else args.seconds is None

    load_before = list(os.getloadavg())
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    workdir.mkdir()
    runner = Runner(args.seed, args.size, workdir)
    try:
        if args.record_golden:
            recorded = {}
            for workload in workloads:
                runner.prepare(workload)
                sample = runner.sample(workload, timed=False)
                if sample["errors"]:
                    print("\n".join(sample["errors"]), file=sys.stderr)
                    return 1
                recorded[workload] = runner.first_outputs[workload]
            print(f"recorded {', '.join(recorded)} in {checks.record(args.seed, recorded)}")
            return 0
        if args.seconds is not None:
            run_timed(runner, workloads[0], args.seconds, trace)
        else:
            run_rounds(runner, workloads, args.repeats, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"provenance": provenance(args, load_before), "workloads": {}}
    result["provenance"]["numpy"] = next(
        (s["numpy"] for ss in runner.samples.values() for s in ss if "numpy" in s), None
    )
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    for workload in workloads:
        tried, bad = runner.counts(workload)
        attempted += tried
        failed += bad
        e2e = runner.end_to_end(workload)
        layers = runner.per_layer(workload) if trace else {}
        result["workloads"][workload] = {
            "end_to_end": e2e,
            "per_layer": layers,
            "error_rate": bad / tried if tried else 0.0,
            "samples": [
                {k: v for k, v in s.items() if k != "trace"}
                for s in runner.samples.get(workload, [])
            ],
        }
        if args.seconds is not None and trace:
            chosen = layers
        elif args.seconds is not None:
            chosen = e2e
        else:
            chosen = {**e2e, **layers}
        if not chosen:
            print(f"error: no successful sample of {workload}", file=sys.stderr)
            print_table(runner, workloads, trace)
            return 1
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for name, m in chosen.items():
            metrics[prefix + name] = {"value": m["median"], "unit": m["unit"]}

    print_table(runner, workloads, trace)
    if args.json is not None:
        args.json.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
