"""The repository benchmark: one workload, timed end to end or traced by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fast_n1000 --seed 1 --seconds 36 --trace 0

``--trace 0`` times passes of the workload with nothing attached and
reports the end-to-end metrics.  ``--trace 1`` times one half of the
budget untraced and the other half with the layer tracer of
``tracing.py`` installed, checks that both halves produce the same
deterministic counters, and reports the per-layer metrics.  Every run
checks the workload's outputs and exits non-zero if a check fails.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in turn in the same process and ends with their
combined verdict (metrics named ``<workload>.<metric>``).  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("fast_n1000", "ec_small", "observed_sweep")
DEFAULT_SEED = 1
# Kept out of tuning, for confirming a later claim on fresh inputs.
HELD_OUT_SEED = 1009
# Seconds of extra set-up samples taken before the passes, on the workloads
# whose set-up can be repeated alone; setup_s is the median of all samples.
# The sweep's set-up happens inside its entry points, once per pass.
SETUP_SAMPLING_S = {"fast_n1000": 2.0, "ec_small": 5.0}
# Largest share of traced time that may fall outside every span.
UNATTRIBUTED_CEILING = 0.05

# The ROADMAP's committed fast-VRF point and the counters it reproduces.
FAST_SEED = 7
FAST_GOLDEN = {"deliveries": 1_606_000, "words": 178_261_000}

END_TO_END_UNITS = {
    "norm_wall_s": "s",
    "setup_s": "s",
    "norm_deliveries_per_s": "1/s",
    "words_per_decision": "words",
    "causal_depth": "steps",
    "peak_rss_mb": "MB",
}


def make_workload(name: str, seed: int, scratch: Path):
    from workloads import ObservedSweep, SingleInstance

    if name == "fast_n1000":
        return SingleInstance(1000, "simulated", seed,
                              pinned_seed=FAST_SEED, golden=FAST_GOLDEN)
    if name == "ec_small":
        return SingleInstance(12, "ec", seed)
    if name == "observed_sweep":
        return ObservedSweep(seed, scratch)
    raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")


# -- measuring -----------------------------------------------------------------


def measure(workload: Any, budget_s: float, tracer: Any = None,
            setup_sampling_s: float = 0.0) -> dict[str, Any]:
    """Time passes (set-up + run) until the next pass would overrun.

    First ``workload.setup()`` is timed alone, repeatedly, for
    ``setup_sampling_s`` seconds (``setup_samples``).  At least one pass
    runs.  Without a tracer, a set-up clock (a :class:`Tracer` with only
    the set-up boundaries patched) times every ``PKI.create`` and
    ``make_runner`` of a pass, inside the entry points too, and a
    :class:`SpeedProbe` samples the host's speed; ``walls`` is the pass
    time without that set-up and without the probe's own time, and
    ``norm_walls`` is the same scaled to the probe's reference speed, as
    are ``setups`` and ``setup_samples`` (see ``hostspeed.py``).  A
    tracer is installed around each pass only, so ``sections`` is exactly
    what it observed.
    """
    from hostspeed import SpeedProbe, factor
    from tracing import Tracer

    setups: list[float] = []
    walls: list[float] = []
    norm_walls: list[float] = []
    cpus: list[float] = []
    sections: list[float] = []
    results = []
    clock = time.perf_counter
    cpu_clock = time.process_time
    spans = tracer if tracer is not None else Tracer()
    setup_samples = sample_setups(workload, setup_sampling_s)
    started = clock()
    while True:
        gc.collect()
        probe = SpeedProbe() if tracer is None else None
        try:
            if tracer is not None:
                tracer.install()
            else:
                spans.install_setup()
            setup_before = spans.setup_s
            with probe or contextlib.nullcontext():
                t0 = clock()
                c0 = cpu_clock()
                result = workload.run(workload.setup())
                c1 = cpu_clock()
                t1 = clock()
            setup = spans.setup_s - setup_before
        finally:
            spans.uninstall()
        # The probe's samples ran inside the pass; they are not its time.
        section = t1 - t0 - (probe.spent(t0, t1) if probe else 0.0)
        walls.append(section - setup)
        if probe:
            speed = factor(probe.samples)
            norm_walls.append((section - setup) * speed)
            setup *= speed
        setups.append(setup)
        cpus.append(c1 - c0)
        sections.append(section)
        results.append(result)
        if len(results) == 1:
            # The high-water mark after the first pass: later passes can
            # only raise it, by an amount that depends on how many ran.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if clock() - started + sections[-1] > budget_s:
            break
    return {"setups": setups, "setup_samples": setup_samples, "walls": walls,
            "norm_walls": norm_walls, "cpus": cpus, "sections": sections,
            "results": results, "peak_rss_mb": peak_rss_mb}


def sample_setups(workload: Any, seconds: float) -> list[float]:
    """Time ``workload.setup()`` alone for about ``seconds``, normalized.

    A set-up may be shorter than the probe's interval, so each sample is
    normalized by the reference loops timed just before and just after
    it instead.
    """
    from hostspeed import factor, reference_sample

    samples: list[float] = []
    started = time.perf_counter()
    before = reference_sample()
    while time.perf_counter() - started < seconds:
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        after = reference_sample()
        samples.append(elapsed * factor([before, after]))
        before = after
    return samples


def end_to_end(measured: dict[str, Any]) -> dict[str, float]:
    results = measured["results"]
    instances = [inst for result in results for inst in result.instances]
    return {
        "norm_wall_s": statistics.median(measured["norm_walls"]),
        "setup_s": statistics.median(
            measured["setups"] + measured["setup_samples"]),
        "norm_deliveries_per_s": statistics.median(
            result.deliveries / wall
            for result, wall in zip(results, measured["norm_walls"])
        ),
        "words_per_decision": sum(i.words for i in instances) / len(instances),
        "causal_depth": statistics.median(i.duration for i in instances),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def host_times(measured: dict[str, Any]) -> dict[str, float]:
    """The unnormalized pass times, printed alongside the metrics."""
    walls = measured["walls"]
    return {
        "wall_s": statistics.median(walls),
        "deliveries_per_s": statistics.median(
            result.deliveries / wall
            for result, wall in zip(measured["results"], walls)
        ),
    }


def per_layer(tracer: Any, traced: dict[str, Any],
              untraced: dict[str, Any]) -> dict[str, tuple[float, str]]:
    passes = len(traced["results"])
    section = sum(traced["sections"])
    self_s = tracer.self_s
    calls = tracer.calls

    def seconds(name: str) -> tuple[float, str]:
        return self_s.get(name, 0.0) / passes, "s"

    def count(value: float) -> tuple[float, str]:
        return value / passes, "count"

    def ratio(part: float, whole: float) -> tuple[float, str]:
        return (part / whole if whole else 0.0), "ratio"

    artifact_bytes = sum(r.artifact_bytes for r in traced["results"])
    artifact_deliveries = sum(r.artifact_deliveries for r in traced["results"])
    metrics = {
        "setup.pki_keygen_s": seconds("setup.pki_keygen"),
        "setup.make_runner_s": seconds("setup.make_runner"),
        "kernel.self_s": seconds("kernel"),
        "kernel.submit_s": seconds("kernel.submit"),
        "kernel.batched_share": ratio(tracer.batched_deliveries, tracer.deliveries),
        "kernel.drain_batches": count(tracer.drain_batches),
        "kernel.wait_evaluations": count(tracer.wait_evaluations),
        "kernel.wait_skips": count(tracer.wait_skips),
        "scheduler.self_s": seconds("scheduler"),
        "scheduler.calls": count(calls.get("scheduler", 0)),
    }
    for module in ("approve", "whp_coin", "shared_coin", "mmr", "resume"):
        metrics[f"protocol.{module}.self_s"] = seconds(f"protocol.{module}")
    metrics["protocol.condition_calls"] = count(tracer.condition_calls)
    metrics["protocol.condition_hit_ratio"] = ratio(
        tracer.condition_hits, tracer.condition_calls)
    metrics["committees.self_s"] = seconds("committees")
    metrics["committees.calls"] = count(calls.get("committees", 0))
    for operation in ("vrf_prove", "vrf_verify", "sig_sign", "sig_verify"):
        metrics[f"crypto.{operation}.calls"] = count(
            calls.get(f"crypto.{operation}", 0))
        metrics[f"crypto.{operation}.self_s"] = seconds(f"crypto.{operation}")
    metrics["crypto.verify_cache_hit_ratio"] = ratio(
        tracer.cache_hits, tracer.verifications)
    for observer in ("monitors", "coverage", "recorder", "telemetry"):
        metrics[f"observers.{observer}.self_s"] = seconds(f"observers.{observer}")
    metrics["observers.events"] = count(tracer.events)
    metrics["artifacts.save_s"] = seconds("artifacts.save")
    metrics["artifacts.load_s"] = seconds("artifacts.load")
    metrics["artifacts.bytes"] = (artifact_bytes / passes, "bytes")
    metrics["artifacts.bytes_per_delivery"] = (
        artifact_bytes / artifact_deliveries if artifact_deliveries else 0.0,
        "bytes",
    )
    metrics["gc.pause_s"] = (tracer.gc_pause_s / passes, "s")
    metrics["gc.collections"] = count(tracer.gc_collections)
    metrics["trace.overhead_ratio"] = ratio(
        statistics.median(traced["sections"]),
        statistics.median(untraced["sections"]))
    metrics["trace.unattributed_share"] = ratio(
        section - tracer.covered_s, section)
    return metrics


def trace_checks(tracer: Any, traced: dict[str, Any]) -> dict[str, bool]:
    """The tracer's own soundness.

    Its kernel counters, summed over every ``Simulation.run`` it saw, equal
    what the passes report (so it saw every run and nothing else); every
    span it opened was closed; and the spans cover all but a small share of
    the traced time.
    """
    results = traced["results"]
    kernel_seen = all(
        getattr(tracer, key) == sum(result.kernel[key] for result in results)
        for key in results[0].kernel
    )
    section = sum(traced["sections"])
    return {
        "trace_kernel_counters_match_passes": kernel_seen,
        "trace_spans_closed": len(tracer.stack) == 1,
        "trace_unattributed_under_ceiling": (
            section - tracer.covered_s <= UNATTRIBUTED_CEILING * section),
    }


# -- reporting -----------------------------------------------------------------


def provenance(workload: Any, name: str, args: argparse.Namespace) -> dict[str, Any]:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": name,
        "config": workload.config(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str | None:
    """HEAD's commit id when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for base in (SRC / "repro", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


# -- main ----------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measuring budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        for name in names:
            workload = make_workload(name, args.seed, Path(scratch))
            print(f"workload {name}")
            print("provenance " + json.dumps(provenance(workload, name, args),
                                             sort_keys=True))
            summaries[name] = run(workload, name, args)
    if len(summaries) == 1:
        summary = summaries[names[0]]
    else:
        summary = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, s in summaries.items()
                        for metric, value in s["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def run(workload: Any, name: str, args: argparse.Namespace) -> dict[str, Any]:
    """Measure one workload, print its checks and metrics, return its summary."""
    from tracing import Tracer

    checks: dict[str, bool] = {}
    if args.trace:
        untraced = measure(workload, args.seconds / 2)
        tracer = Tracer()
        traced = measure(workload, args.seconds / 2, tracer)
        measured = [untraced, traced]
        reference = untraced["results"][0].counters
        checks["traced_counters_equal_untraced"] = all(
            result.counters == reference for result in traced["results"])
        checks.update(trace_checks(tracer, traced))
        for metric, value in end_to_end(untraced).items():
            print(f"untraced {metric} = {value!r} {END_TO_END_UNITS[metric]}")
        metrics = per_layer(tracer, traced, untraced)
    else:
        untraced = measure(workload, args.seconds,
                           setup_sampling_s=SETUP_SAMPLING_S.get(name, 0.0))
        measured = [untraced]
        metrics = {metric: (value, END_TO_END_UNITS[metric])
                   for metric, value in end_to_end(untraced).items()}
    results = [result for m in measured for result in m["results"]]
    reference = results[0].counters
    checks["passes_repeat_counters"] = all(
        result.counters == reference for result in results)
    for result in results:
        for check, ok in result.checks.items():
            checks[check] = checks.get(check, True) and ok

    instances = [inst for result in results for inst in result.instances]
    attempted = len(instances)
    failed = sum(1 for inst in instances if not inst.ok)
    for check, ok in sorted(checks.items()):
        print(f"check {check}: {'ok' if ok else 'FAILED'}")
    print(f"passes {len(results)} attempted {attempted} failed {failed} "
          f"failed_share {failed / attempted!r}")
    for m in measured:
        print("pass sections_s " + " ".join(f"{s:.3f}" for s in m["sections"])
              + " cpu_s " + " ".join(f"{s:.3f}" for s in m["cpus"])
              + " setup_ms " + " ".join(f"{1000 * s:.2f}" for s in m["setups"]))
        if m["norm_walls"]:
            print("pass speed_factor " + " ".join(
                f"{norm / wall:.3f}" for norm, wall in zip(m["norm_walls"], m["walls"])))
        if m["setup_samples"]:
            print(f"setup samples {len(m['setup_samples'])} median_ms "
                  f"{1000 * statistics.median(m['setup_samples']):.2f}")
    for metric, value in host_times(untraced).items():
        print(f"host {metric} = {value!r} {END_TO_END_UNITS['norm_' + metric]}")
    for metric, (value, unit) in metrics.items():
        print(f"metric {metric} = {value!r} {unit}")
    return {
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
