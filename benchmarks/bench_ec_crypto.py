"""secp256k1 backend: per-operation cost, known answers, and an n=100 run.

Three parts (the EC backend is row 2b of section 2, see DESIGN.md):

* the median milliseconds of ECVRF prove/verify and Schnorr sign/verify
  (recorded data only -- nothing asserts on wall-clock);
* the known-answer vectors of ``tests/crypto/ec_known_answers.json``:
  keys, proofs and signatures must be reproduced bit for bit, and verify;
* one ``whp_ba`` instance with ``backend="ec"`` at n=100, seed 1 (FIFO
  scheduler, batched kernel, split inputs).  It must be live and agree,
  and its deterministic counters must equal the committed ones.  The
  committees are drawn from the ECVRF outputs, so a changed VRF shows up
  here as changed deliveries and words.

Run standalone (the CI smoke)::

    PYTHONPATH=src python benchmarks/bench_ec_crypto.py --smoke
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

from repro.crypto.hashing import derive_seed
from repro.crypto.pki import PKI
from repro.crypto.signatures import SchnorrSignatureScheme
from repro.crypto.vrf import ECVRF
from repro.experiments.protocols import make_runner
from repro.sim.adversary import Adversary, FIFOScheduler, StaticCorruption
from repro.sim.runner import run_protocol, stop_when_all_decided

KNOWN_ANSWERS = (
    Path(__file__).resolve().parent.parent / "tests" / "crypto" / "ec_known_answers.json"
)
BA_N, BA_SEED = 100, 1
# Counters of that run, unchanged since the affine implementation.
BA_GOLDEN = {"deliveries": 64_800, "words": 2_982_600}


def _median_ms(fn, inputs) -> float:
    samples = []
    for item in inputs:
        start = time.perf_counter()
        fn(item)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def operation_costs(reps: int) -> dict[str, float]:
    """Median ms per operation over ``reps`` distinct inputs."""
    rng = random.Random(2020)
    vrf, sig = ECVRF(), SchnorrSignatureScheme()
    vrf_sk, vrf_pk = vrf.keygen(rng)
    sig_sk, sig_pk = sig.keygen(rng)
    inputs = [f"op-{i}".encode() for i in range(reps)]
    proofs = {alpha: vrf.prove(vrf_sk, alpha) for alpha in inputs}
    signatures = {message: sig.sign(sig_sk, message) for message in inputs}
    return {
        "ecvrf_prove": _median_ms(lambda a: vrf.prove(vrf_sk, a), inputs),
        "ecvrf_verify": _median_ms(
            lambda a: vrf.verify(vrf_pk, a, proofs[a]), inputs),
        "schnorr_sign": _median_ms(lambda m: sig.sign(sig_sk, m), inputs),
        "schnorr_verify": _median_ms(
            lambda m: sig.verify(sig_pk, m, signatures[m]), inputs),
    }


def _hex_point(entry: dict) -> tuple[int, int]:
    return int(entry["pk_x"], 16), int(entry["pk_y"], 16)


def check_known_answers() -> int:
    """Assert every committed vector; returns how many were checked."""
    doc = json.loads(KNOWN_ANSWERS.read_text())
    vrf, sig = ECVRF(), SchnorrSignatureScheme()
    checked = 0
    for entry in doc["ecvrf"]:
        sk, pk = vrf.keygen(random.Random(entry["seed"]))
        assert _hex_point(entry) == (pk.x, pk.y), entry["seed"]
        for vector in entry["proofs"]:
            alpha = vector["alpha"].encode()
            output = vrf.prove(sk, alpha)
            gx, gy, c, s = output.proof
            got = [output.value, gx, gy, c, s]
            want = [int(vector[key], 16)
                    for key in ("value", "gamma_x", "gamma_y", "c", "s")]
            assert got == want, (entry["seed"], vector["alpha"])
            assert vrf.verify(pk, alpha, output)
            checked += 1
    for entry in doc["schnorr"]:
        sk, pk = sig.keygen(random.Random(entry["seed"]))
        assert _hex_point(entry) == (pk.x, pk.y), entry["seed"]
        for vector in entry["signatures"]:
            message = vector["message"].encode()
            want = tuple(int(vector[key], 16) for key in ("r_x", "r_y", "s"))
            assert sig.sign(sk, message) == want, (entry["seed"], vector["message"])
            assert sig.verify(pk, message, want)
            checked += 1
    return checked


def run_ec_ba() -> tuple[dict[str, int], float, float]:
    """The n=100 EC run; returns its counters, set-up and run seconds."""
    start = time.perf_counter()
    factory, params, f = make_runner("whp_ba", BA_N, seed=BA_SEED)
    pki = PKI.create(BA_N, backend="ec",
                     rng=random.Random(derive_seed(BA_SEED, "setup")))
    setup_s = time.perf_counter() - start
    adversary = Adversary(
        scheduler=FIFOScheduler(), corruption=StaticCorruption(set(range(f)))
    )
    start = time.perf_counter()
    result = run_protocol(
        BA_N, f, factory, adversary=adversary, params=params, pki=pki,
        stop_condition=stop_when_all_decided, seed=BA_SEED,
        delivery_mode="batched",
    )
    run_s = time.perf_counter() - start
    assert result.live and result.all_correct_decided and result.agreement
    counters = {"deliveries": result.deliveries, "words": result.words}
    assert counters == BA_GOLDEN, f"EC run counters {counters} != {BA_GOLDEN}"
    return counters, setup_s, run_s


def run(reps: int) -> str:
    costs = operation_costs(reps)
    checked = check_known_answers()
    counters, setup_s, run_s = run_ec_ba()
    lines = [f"secp256k1 backend, median of {reps} operations:"]
    lines += [f"  {name:<15}{ms:8.2f} ms" for name, ms in costs.items()]
    lines.append(f"known-answer vectors: {checked} reproduced and verified")
    lines.append(
        f"whp_ba backend=ec n={BA_N} seed={BA_SEED}: live, agreed, "
        f"{counters['deliveries']:,} deliveries, {counters['words']:,} words "
        f"(set-up {setup_s:.2f}s, run {run_s:.2f}s)"
    )
    return "\n".join(lines)


def test_ec_crypto(benchmark, save_report):
    from conftest import once

    save_report("bench_ec_crypto", once(benchmark, lambda: run(reps=25)))


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized: fewer timed operations; every check still runs",
    )
    print(run(reps=5 if parser.parse_args(argv).smoke else 25))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
