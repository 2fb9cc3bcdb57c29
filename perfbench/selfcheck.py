"""Fast self-check of the benchmark at tiny sizes (well under a minute).

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py

Runs each workload's code at a tiny size once untraced and once traced
and checks that:

* the traced pass reproduces the untraced pass's deterministic counters;
* the tracer's kernel counters equal the passes' own, every span it
  opened was closed, and its spans cover the traced wall time up to the
  runner's ceiling;
* the untraced set-up clock sees the pass's set-up;
* the metrics and units reported are exactly those BENCHMARK.json names;
* observers report no events on the workloads that attach none;
* a different seed changes the counters, except on the pinned workload,
  and changes the key material on the EC workload.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

TINY = {
    "fast_n1000": dict(n=60, backend="simulated", pinned_seed=run.FAST_SEED),
    "ec_small": dict(n=7, backend="ec"),
}


def tiny_workload(name: str, seed: int, scratch: Path):
    from workloads import ObservedSweep, SingleInstance

    if name in TINY:
        return SingleInstance(seed=seed, **TINY[name])
    return ObservedSweep(seed, scratch, check_n=8, check_seeds=1, record_n=8)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")
    print(f"ok  {message}")


def main() -> int:
    if not (run.SRC / "repro" / "__init__.py").is_file():
        print(f"selfcheck: no program sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from tracing import Tracer
    from workloads import key_digest

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
          "BENCHMARK.json lists the runner's workloads")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        scratch = Path(tmp)
        for name in run.WORKLOADS:
            workload = tiny_workload(name, run.DEFAULT_SEED, scratch)
            untraced = run.measure(workload, 0.0)
            tracer = Tracer()
            traced = run.measure(workload, 0.0, tracer)
            plain, seen = untraced["results"][0], traced["results"][0]
            check(all(plain.checks.values()) and all(seen.checks.values()),
                  f"{name}: output checks pass")
            check(all(inst.ok for inst in plain.instances + seen.instances),
                  f"{name}: every instance live, decided and in agreement")
            check(plain.counters == seen.counters,
                  f"{name}: traced counters equal untraced")
            check(all(run.trace_checks(tracer, traced).values()),
                  f"{name}: the tracer saw every run, closed every span and "
                  "covers the traced wall")
            check(untraced["setups"][0] > 0,
                  f"{name}: the set-up clock sees the pass's set-up")
            e2e = {metric: run.END_TO_END_UNITS[metric]
                   for metric in run.end_to_end(untraced)}
            check(e2e == end_to_end_units,
                  f"{name}: end-to-end metrics and units match BENCHMARK.json")
            layers = run.per_layer(tracer, traced, untraced)
            check({metric: unit for metric, (_, unit) in layers.items()}
                  == per_layer_units,
                  f"{name}: per-layer metrics and units match BENCHMARK.json")
            events = layers["observers.events"][0]
            if name == "observed_sweep":
                check(events > 0, f"{name}: observers see events")
            else:
                check(events == 0, f"{name}: no observer events")

            other = tiny_workload(name, run.HELD_OUT_SEED, scratch)
            if name == "ec_small":
                check(key_digest(workload.setup()[3]) != key_digest(other.setup()[3]),
                      f"{name}: another seed changes the key material")
                continue
            other_counters = run.measure(other, 0.0)["results"][0].counters
            if name == "fast_n1000":
                check(other_counters == plain.counters,
                      f"{name}: pinned, the seed does not change the run")
            else:
                check(other_counters != plain.counters,
                      f"{name}: another seed changes the counters")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
