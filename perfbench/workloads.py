"""The benchmark's workloads: one set-up and one timed pass each.

A pass is the unit the runner times and repeats: ``run(setup())``.
``setup()`` does whatever trusted set-up the workload does outside the
entry points, and ``run(state)`` returns a :class:`PassResult` with one
:class:`Instance` per BA instance, the deterministic counters that must
not change under tracing, and the named correctness checks.  The runner
times set-up (``PKI.create`` plus ``make_runner``) wherever it happens,
in ``setup()`` or inside an entry point, by wrapping those two calls.

Only the program's public entry points are driven:
``experiments.protocols.make_runner``, ``sim.runner.run_protocol``,
``experiments.conformance.run_check``, ``experiments.report.record_run``
and ``sim.flightrecorder.load_recording`` (plus ``PKI.create`` and the
adversary classes they take as inputs).
"""

from __future__ import annotations

import json
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.crypto.hashing import derive_seed
from repro.crypto.pki import PKI
from repro.experiments import conformance, protocols, report
from repro.sim import flightrecorder, runner
from repro.sim.adversary import Adversary, FIFOScheduler, StaticCorruption
from repro.sim.events import DeliverEvent
from repro.sim.runner import RunResult, stop_when_all_decided
from repro.sim.telemetry import telemetry_path_for

# Entry points are called through their modules, never imported by name,
# so the tracer's patches of those module attributes see every call.


@dataclass
class Instance:
    """One BA instance's outcome."""

    words: int
    duration: int
    deliveries: int
    ok: bool  # live, every correct process decided, agreement, no safety flag


@dataclass
class PassResult:
    instances: list[Instance]
    counters: dict[str, Any]
    checks: dict[str, bool]
    # Kernel counters summed over every simulation run of the pass, as far
    # as the entry points report them (``Tracer`` attribute names).
    kernel: dict[str, int]
    artifact_bytes: int = 0
    artifact_deliveries: int = 0

    @property
    def deliveries(self) -> int:
        return sum(instance.deliveries for instance in self.instances)


KERNEL_COUNTERS = ("deliveries", "verifications", "cache_hits",
                   "wait_evaluations", "wait_skips")


def result_counters(result: RunResult) -> dict[str, int]:
    """The deterministic counters of one run (equal traced and untraced)."""
    rounds = [
        notes["decision_round"] + 1
        for notes in result.notes.values()
        if "decision_round" in notes
    ]
    metrics = result.metrics
    return {
        "deliveries": result.deliveries,
        "words": result.words,
        "duration": result.duration,
        "rounds": max(rounds, default=0),
        "verifications": metrics.verifications,
        "cache_hits": metrics.verification_cache_hits,
        "wait_evaluations": metrics.wait_evaluations,
        "wait_skips": metrics.wait_skips,
    }


def result_instance(result: RunResult) -> Instance:
    return Instance(
        words=result.words,
        duration=result.duration,
        deliveries=result.deliveries,
        ok=result.live and result.all_correct_decided and result.agreement,
    )


class SingleInstance:
    """One ``whp_ba`` instance: FIFO scheduler, batched kernel, split inputs.

    ``pinned_seed`` fixes the protocol seed (the committed fast-VRF point)
    and ``golden`` the counters that seed must reproduce; otherwise the
    workload seed is the protocol seed.
    """

    def __init__(self, n: int, backend: str, seed: int,
                 pinned_seed: int | None = None,
                 golden: dict[str, int] | None = None) -> None:
        self.n = n
        self.f = protocols.default_f("whp_ba", n)
        self.backend = backend
        self.seed = seed if pinned_seed is None else pinned_seed
        self.golden = golden or {}
        self.max_deliveries = 8_000_000

    def config(self) -> dict[str, Any]:
        return {
            "protocol": "whp_ba", "n": self.n, "f": self.f,
            "backend": self.backend, "protocol_seed": self.seed,
            "scheduler": "fifo", "delivery_mode": "batched",
            "inputs": "split (pid % 2)", "golden": self.golden,
        }

    def setup(self) -> Any:
        factory, params, f = protocols.make_runner("whp_ba", self.n, seed=self.seed)
        # The rng run_protocol would use for its own PKI, so the run is the
        # one `run_protocol(seed=...)` gives without an explicit PKI.
        pki = PKI.create(
            self.n, backend=self.backend,
            rng=random.Random(derive_seed(self.seed, "setup")),
        )
        return factory, params, f, pki

    def run(self, state: Any) -> PassResult:
        factory, params, f, pki = state
        adversary = Adversary(
            scheduler=FIFOScheduler(), corruption=StaticCorruption(set(range(f)))
        )
        result = runner.run_protocol(
            self.n, f, factory, adversary=adversary, params=params, pki=pki,
            stop_condition=stop_when_all_decided, seed=self.seed,
            max_deliveries=self.max_deliveries, delivery_mode="batched",
        )
        counters = result_counters(result)
        instance = result_instance(result)
        checks = {"instance_ok": instance.ok}
        for key, expected in self.golden.items():
            checks[f"golden_{key}"] = counters[key] == expected
        kernel = {key: counters[key] for key in KERNEL_COUNTERS}
        return PassResult([instance], counters, checks, kernel)


def key_digest(pki: PKI) -> int:
    """A digest of every process's VRF output on a fixed input.

    Shows that a seed changes the key material even where the message
    counters are fixed by the configuration.
    """
    return derive_seed(
        "perfbench-keys",
        *(pki.vrf_scheme.prove(pki.vrf_private(pid), b"digest").value
          for pid in range(pki.n)),
    )


CHECK_PROTOCOLS = ("whp_ba", "mmr+alg1")
RECORD_NAMES = ("whp_ba", "reorder_heavy")


class ObservedSweep:
    """The traffic of ``repro check`` plus ``repro record``.

    ``run_check`` sweeps ``CHECK_PROTOCOLS`` at ``check_n`` over the seeds
    ``0 .. check_seeds - 1`` (random scheduler, classic loop, MonitorSuite
    and CoverageProbe attached); ``record_run`` records ``RECORD_NAMES`` at
    ``record_n`` and the workload seed (FlightRecorder and TelemetryProbe
    attached, lossy links for the scenario); each recording is read back
    with ``load_recording``.  Every set-up happens inside those entry
    points, one ``make_runner`` and one ``PKI.create`` per instance.

    The check seeds are pinned: under the random scheduler ``mmr+alg1``
    needs a geometric number of rounds, so its work differs several-fold
    between seeds and a seeded check would move the pass time by more than
    the benchmark's bound.  The recordings carry the workload seed.
    """

    def __init__(self, seed: int, scratch: Path,
                 check_n: int = 32, check_seeds: int = 4, record_n: int = 40) -> None:
        self.seed = seed
        self.scratch = scratch
        self.check_n = check_n
        self.check_seeds = list(range(check_seeds))
        self.record_n = record_n

    def config(self) -> dict[str, Any]:
        return {
            "check": {"protocols": list(CHECK_PROTOCOLS), "n": self.check_n,
                      "seeds": self.check_seeds, "scheduler": "random",
                      "delivery_mode": "classic"},
            "record": {"names": list(RECORD_NAMES), "n": self.record_n,
                       "seed": self.seed},
        }

    def setup(self) -> None:
        """Nothing: the entry points set up each instance themselves."""
        return None

    def run(self, state: None) -> PassResult:
        payload = conformance.run_check(CHECK_PROTOCOLS, n=self.check_n,
                                        seeds=self.check_seeds)
        instances: list[Instance] = []
        checks = {"check_safety_violations_zero": payload["safety_violations"] == 0}
        for protocol in payload["protocols"].values():
            safe = protocol["conformance"]["safety_violations"] == 0
            for row in protocol["runs"]:
                instances.append(Instance(
                    words=row["words"], duration=row["duration"],
                    deliveries=row["deliveries"],
                    ok=row["live"] and row["all_correct_decided"] and safe,
                ))
        counters: dict[str, Any] = {
            "check_payload": json.dumps(payload, sort_keys=True),
        }
        artifact_bytes = artifact_deliveries = 0
        with tempfile.TemporaryDirectory(prefix="record-", dir=self.scratch) as tmp:
            for name in RECORD_NAMES:
                path, result = report.record_run(
                    Path(tmp) / f"{name}.jsonl", name=name, n=self.record_n,
                    seed=self.seed,
                )
                recording = flightrecorder.load_recording(path)
                reloaded = sum(1 for event in recording.events
                               if type(event) is DeliverEvent)
                checks[f"{name}_reloads_deliveries"] = (
                    reloaded == result.deliveries
                    and recording.summary["deliveries"] == result.deliveries
                )
                instances.append(result_instance(result))
                counters[f"record_{name}"] = result_counters(result)
                artifact_bytes += path.stat().st_size
                artifact_bytes += telemetry_path_for(path).stat().st_size
                artifact_deliveries += result.deliveries
        checks["instances_ok"] = all(instance.ok for instance in instances)
        # run_check reports deliveries but not the other kernel counters.
        kernel = {"deliveries": sum(i.deliveries for i in instances)}
        return PassResult(instances, counters, checks, kernel,
                          artifact_bytes=artifact_bytes,
                          artifact_deliveries=artifact_deliveries)
