"""secp256k1 arithmetic and the ECVRF / Schnorr constructions.

The Jacobian multiplications in :mod:`repro.crypto.ec` are checked
against a test-local affine double-and-add oracle (the module's former
implementation), and the two schemes against known-answer vectors that
the affine implementation produced (``ec_known_answers.json``, generated
at commit e39837e5de55a21272cb46ae0b7542dc635d5bb2).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec
from repro.crypto.numtheory import modinv
from repro.crypto.signatures import SchnorrSignatureScheme
from repro.crypto.vrf import ECVRF, VRFOutput

KNOWN_ANSWERS = Path(__file__).with_name("ec_known_answers.json")
KNOWN_ANSWERS_COMMIT = "e39837e5de55a21272cb46ae0b7542dc635d5bb2"

N = ec.CURVE_ORDER
EDGE_SCALARS = (0, 1, 2, N - 1, N, N + 1, 2**256 - 1)
# Small and edge integers, plus uniformly random full-width ones.
scalars = st.integers(0, 2**256 - 1) | st.binary(min_size=32, max_size=32).map(
    lambda raw: int.from_bytes(raw, "big")
)


def oracle_add(a: ec.Point, b: ec.Point) -> ec.Point:
    """Affine group addition, one inversion per call."""
    p = ec.FIELD_P
    if a.is_infinity:
        return b
    if b.is_infinity:
        return a
    if a.x == b.x and (a.y + b.y) % p == 0:
        return ec.INFINITY
    if a == b:
        slope = (3 * a.x * a.x) * modinv(2 * a.y, p) % p
    else:
        slope = (b.y - a.y) * modinv(b.x - a.x, p) % p
    x = (slope * slope - a.x - b.x) % p
    return ec.Point(x, (slope * (a.x - x) - a.y) % p)


def oracle_mult(k: int, point: ec.Point) -> ec.Point:
    """Affine double-and-add; ``k`` is reduced mod N."""
    k %= N
    result = ec.INFINITY
    while k:
        if k & 1:
            result = oracle_add(result, point)
        point = oracle_add(point, point)
        k >>= 1
    return result


# Two bases with unrelated discrete logs, fixed for every example.
BASE_A = ec.hash_to_point(b"oracle-base-a")
BASE_B = ec.hash_to_point(b"oracle-base-b")


class TestCurveArithmetic:
    def test_generator_on_curve(self):
        assert ec.is_on_curve(ec.GENERATOR)

    def test_infinity_is_identity(self):
        assert ec.point_add(ec.GENERATOR, ec.INFINITY) == ec.GENERATOR
        assert ec.point_add(ec.INFINITY, ec.GENERATOR) == ec.GENERATOR

    def test_inverse_sums_to_infinity(self):
        negated = ec.Point(ec.GENERATOR.x, ec.FIELD_P - ec.GENERATOR.y)
        assert ec.point_add(ec.GENERATOR, negated).is_infinity

    def test_doubling_matches_addition_chain(self):
        two_g = ec.point_add(ec.GENERATOR, ec.GENERATOR)
        three_g = ec.point_add(two_g, ec.GENERATOR)
        assert ec.scalar_mult(2, ec.GENERATOR) == two_g
        assert ec.scalar_mult(3, ec.GENERATOR) == three_g
        assert ec.is_on_curve(three_g)

    def test_order_annihilates_generator(self):
        assert ec.scalar_mult(ec.CURVE_ORDER, ec.GENERATOR).is_infinity

    @given(st.integers(1, 2**128), st.integers(1, 2**128))
    @settings(max_examples=10)
    def test_scalar_mult_is_homomorphic(self, a, b):
        left = ec.scalar_mult(a + b, ec.GENERATOR)
        right = ec.point_add(
            ec.scalar_mult(a, ec.GENERATOR), ec.scalar_mult(b, ec.GENERATOR)
        )
        assert left == right

    def test_known_vector_2g(self):
        # 2*G for secp256k1, a published test vector.
        two_g = ec.scalar_mult(2, ec.GENERATOR)
        assert two_g.x == int(
            "C6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5", 16
        )
        assert two_g.y == int(
            "1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A", 16
        )

    def test_compressed_encoding_distinguishes_parity(self):
        point = ec.scalar_mult(5, ec.GENERATOR)
        mirrored = ec.Point(point.x, ec.FIELD_P - point.y)
        assert point.encode() != mirrored.encode()
        assert point.encode()[0] in (2, 3)


class TestAgainstAffineOracle:
    @given(scalars)
    @settings(max_examples=25, deadline=None)
    def test_generator_table(self, k):
        assert ec.generator_mult(k) == oracle_mult(k, ec.GENERATOR)

    @given(scalars)
    @settings(max_examples=25, deadline=None)
    def test_scalar_mult(self, k):
        assert ec.scalar_mult(k, BASE_A) == oracle_mult(k, BASE_A)

    @given(scalars, scalars)
    @settings(max_examples=25, deadline=None)
    def test_joint_mult(self, a, b):
        expected = oracle_add(oracle_mult(a, BASE_A), oracle_mult(b, BASE_B))
        assert ec.joint_mult(a, BASE_A, b, BASE_B) == expected

    @pytest.mark.parametrize("k", EDGE_SCALARS)
    def test_edge_scalars(self, k):
        expected_g = oracle_mult(k, ec.GENERATOR)
        assert ec.generator_mult(k) == expected_g
        assert ec.scalar_mult(k, ec.GENERATOR) == expected_g
        assert ec.scalar_mult(k, BASE_A) == oracle_mult(k, BASE_A)
        assert ec.joint_mult(k, BASE_A, 3, BASE_B) == oracle_add(
            oracle_mult(k, BASE_A), oracle_mult(3, BASE_B)
        )

    def test_zero_and_order_give_infinity(self):
        for k in (0, N, 2 * N):
            assert ec.generator_mult(k).is_infinity
            assert ec.scalar_mult(k, BASE_A).is_infinity
            assert ec.joint_mult(k, BASE_A, k, BASE_B).is_infinity

    @pytest.mark.parametrize("a, b", [(5, 7), (N - 1, N - 1), (2**255, 3)])
    def test_equal_bases(self, a, b):
        assert ec.joint_mult(a, BASE_A, b, BASE_A) == oracle_mult(a + b, BASE_A)

    @pytest.mark.parametrize("a, b", [(5, 7), (7, 5), (2**200, 1)])
    def test_opposite_bases(self, a, b):
        assert ec.joint_mult(a, BASE_A, b, ec.negate(BASE_A)) == oracle_mult(a - b, BASE_A)

    @pytest.mark.parametrize("a", [1, 12345, N - 1, 2**256 - 1])
    def test_joint_sum_at_infinity(self, a):
        total = ec.joint_mult(a, BASE_A, N - a % N, BASE_A)
        assert total == ec.INFINITY
        assert total.encode() == b"\x00"
        assert ec.joint_mult(a, BASE_A, a, ec.negate(BASE_A)) == ec.INFINITY

    def test_negate(self):
        assert oracle_add(BASE_A, ec.negate(BASE_A)).is_infinity
        assert ec.negate(ec.negate(BASE_A)) == BASE_A
        assert ec.negate(ec.INFINITY).is_infinity

    def test_infinity_operands(self):
        assert ec.scalar_mult(5, ec.INFINITY).is_infinity
        assert ec.joint_mult(5, ec.INFINITY, 7, BASE_B) == oracle_mult(7, BASE_B)
        assert ec.point_add(ec.INFINITY, ec.INFINITY).is_infinity

    @pytest.mark.parametrize("z", [1, 2, 0xDEADBEEF, ec.FIELD_P - 1])
    def test_mixed_add_of_equal_inputs_doubles(self, z):
        p = ec.FIELD_P
        x, y = BASE_A.x, BASE_A.y
        # The same point in a Jacobian representation with Z = z.
        jac = (x * z * z % p, y * z * z * z % p, z)
        doubled = ec._add_mixed(jac, x, y)
        assert doubled[2] != 0
        assert ec._to_affine(doubled) == oracle_add(BASE_A, BASE_A)
        assert ec._add_mixed(jac, x, p - y)[2] == 0  # P + (−P)

    def test_point_add_matches_oracle(self):
        for a, b in [(BASE_A, BASE_B), (BASE_A, BASE_A), (BASE_A, ec.negate(BASE_A)),
                     (ec.GENERATOR, BASE_B)]:
            assert ec.point_add(a, b) == oracle_add(a, b)


class TestHashToPoint:
    def test_lands_on_curve(self):
        for i in range(10):
            assert ec.is_on_curve(ec.hash_to_point(str(i).encode()))

    def test_deterministic(self):
        assert ec.hash_to_point(b"a") == ec.hash_to_point(b"a")

    def test_input_sensitive(self):
        assert ec.hash_to_point(b"a") != ec.hash_to_point(b"b")


class TestECVRF:
    @pytest.fixture(scope="class")
    def keys(self):
        return ECVRF().keygen(random.Random(61))

    def test_roundtrip(self, keys):
        scheme = ECVRF()
        sk, pk = keys
        output = scheme.prove(sk, b"alpha")
        assert scheme.verify(pk, b"alpha", output)

    def test_uniqueness_and_binding(self, keys):
        scheme = ECVRF()
        sk, pk = keys
        output = scheme.prove(sk, b"alpha")
        assert scheme.prove(sk, b"alpha") == output  # deterministic
        assert not scheme.verify(pk, b"beta", output)
        assert not scheme.verify(
            pk, b"alpha", VRFOutput(value=output.value ^ 1, proof=output.proof)
        )

    def test_gamma_must_be_on_curve(self, keys):
        scheme = ECVRF()
        sk, pk = keys
        output = scheme.prove(sk, b"alpha")
        gx, gy, c, s = output.proof
        forged = VRFOutput(value=output.value, proof=(gx, gy ^ 1, c, s))
        assert not scheme.verify(pk, b"alpha", forged)

    def test_malformed_proofs_rejected(self, keys):
        scheme = ECVRF()
        _, pk = keys
        assert not scheme.verify(pk, b"a", VRFOutput(value=0, proof=b"bytes"))
        assert not scheme.verify(pk, b"a", VRFOutput(value=0, proof=(1, 2, 3)))
        assert not scheme.verify(pk, b"a", VRFOutput(value=0, proof=(1, 2, 3, "s")))

    def test_wrong_public_key_rejected(self, keys):
        scheme = ECVRF()
        sk, _ = keys
        _, other_pk = scheme.keygen(random.Random(62))
        output = scheme.prove(sk, b"alpha")
        assert not scheme.verify(other_pk, b"alpha", output)

    @pytest.mark.parametrize("dc, ds", [(1, 0), (0, 1), (N, 0), (0, N)])
    def test_transcript_tampering_rejected(self, keys, dc, ds):
        scheme = ECVRF()
        sk, pk = keys
        output = scheme.prove(sk, b"alpha")
        gx, gy, c, s = output.proof
        tampered = VRFOutput(value=output.value, proof=(gx, gy, c + dc, s + ds))
        # s is used mod N, so s + N is the same proof; c enters the hash as is.
        assert scheme.verify(pk, b"alpha", tampered) == (dc == 0 and ds == N)

    def test_crafted_proof_with_u_at_infinity(self, keys):
        scheme = ECVRF()
        sk, pk = keys
        output = scheme.prove(sk, b"alpha")
        gx, gy, c, _ = output.proof
        s = -c * sk % N  # U = s·G + c·pk = O
        assert ec.joint_mult(s, ec.GENERATOR, c, pk).is_infinity
        crafted = VRFOutput(value=output.value, proof=(gx, gy, c, s))
        assert scheme.verify(pk, b"alpha", crafted) is False

    def test_zero_nonce_proof_hashes_infinity(self, keys):
        # Nonce 0 makes U = V = O; the challenge must hash them as b"\x00"
        # for the key holder's crafted proof to verify.
        scheme = ECVRF()
        sk, pk = keys
        output = scheme.prove(sk, b"alpha")
        gamma = ec.Point(*output.proof[:2])
        h_point = ec.hash_to_point(b"alpha")
        c = scheme._challenge(h_point, pk, gamma, ec.INFINITY, ec.INFINITY)
        crafted = VRFOutput(value=output.value, proof=(gamma.x, gamma.y, c, -c * sk % N))
        assert scheme.verify(pk, b"alpha", crafted) is True

    def test_off_curve_gamma_rejected(self, keys):
        scheme = ECVRF()
        sk, pk = keys
        output = scheme.prove(sk, b"alpha")
        gx, gy, c, s = output.proof
        for gamma in [(gx + 1, gy), (gx, ec.FIELD_P + gy), (-gx, gy)]:
            forged = VRFOutput(value=output.value, proof=(*gamma, c, s))
            assert scheme.verify(pk, b"alpha", forged) is False

    def test_infinity_public_key_rejected(self, keys):
        scheme = ECVRF()
        sk, _ = keys
        output = scheme.prove(sk, b"alpha")
        assert scheme.verify(ec.INFINITY, b"alpha", output) is False


class TestSchnorr:
    @pytest.fixture(scope="class")
    def keys(self):
        return SchnorrSignatureScheme().keygen(random.Random(63))

    def test_roundtrip(self, keys):
        scheme = SchnorrSignatureScheme()
        sk, pk = keys
        signature = scheme.sign(sk, b"message")
        assert scheme.verify(pk, b"message", signature)

    def test_binding(self, keys):
        scheme = SchnorrSignatureScheme()
        sk, pk = keys
        signature = scheme.sign(sk, b"message")
        assert not scheme.verify(pk, b"other", signature)
        _, other_pk = scheme.keygen(random.Random(64))
        assert not scheme.verify(other_pk, b"message", signature)

    def test_s_tampering_rejected(self, keys):
        scheme = SchnorrSignatureScheme()
        sk, pk = keys
        r_x, r_y, s = scheme.sign(sk, b"message")
        assert not scheme.verify(pk, b"message", (r_x, r_y, s + 1))

    def test_malformed_rejected(self, keys):
        scheme = SchnorrSignatureScheme()
        _, pk = keys
        assert not scheme.verify(pk, b"m", None)
        assert not scheme.verify(pk, b"m", (1, 2))

    def test_crafted_signature_at_infinity(self, keys):
        from repro.crypto.hashing import hash_to_int

        scheme = SchnorrSignatureScheme()
        sk, pk = keys
        r_x, r_y, _ = scheme.sign(sk, b"message")
        challenge = hash_to_int(
            "schnorr-challenge", ec.Point(r_x, r_y).encode(), pk.encode(),
            b"message", bits=128,
        )
        s = challenge * sk % N  # s·G − c·pk = O
        assert ec.joint_mult(s, ec.GENERATOR, -challenge, pk).is_infinity
        assert scheme.verify(pk, b"message", (r_x, r_y, s)) is False

    def test_off_curve_r_rejected(self, keys):
        scheme = SchnorrSignatureScheme()
        sk, pk = keys
        r_x, r_y, s = scheme.sign(sk, b"message")
        for r_point in [(r_x, r_y ^ 1), (r_x + 1, r_y), (r_x, ec.FIELD_P + r_y)]:
            assert scheme.verify(pk, b"message", (*r_point, s)) is False

    def test_other_r_rejected(self, keys):
        scheme = SchnorrSignatureScheme()
        sk, pk = keys
        r_x, r_y, s = scheme.sign(sk, b"message")
        assert scheme.verify(pk, b"message", (r_x, ec.FIELD_P - r_y, s)) is False
        assert scheme.verify(pk, b"message", (r_x, r_y, s + N)) is True

    def test_infinity_public_key_rejected(self, keys):
        scheme = SchnorrSignatureScheme()
        sk, _ = keys
        signature = scheme.sign(sk, b"message")
        assert scheme.verify(ec.INFINITY, b"message", signature) is False


class TestECPKIEndToEnd:
    def test_shared_coin_over_ec(self):
        """The full protocol stack over the genuine elliptic-curve VRF."""
        from repro.core.params import ProtocolParams
        from repro.core.shared_coin import shared_coin
        from repro.crypto.pki import PKI
        from repro.sim.runner import run_protocol

        n = 5
        pki = PKI.create(n, backend="ec", rng=random.Random(70))
        result = run_protocol(
            n, 0, lambda ctx: shared_coin(ctx, 0),
            pki=pki, params=ProtocolParams(n=n, f=0), seed=70,
        )
        assert result.live
        assert len(result.returned_values) == 1
        assert result.returned_values <= {0, 1}


def _known_answers() -> dict:
    return json.loads(KNOWN_ANSWERS.read_text())


class TestKnownAnswers:
    """Keys, proofs and signatures are bit-for-bit those of the affine code."""

    def test_vectors_name_their_commit(self):
        doc = _known_answers()
        assert doc["generated_at_commit"] == KNOWN_ANSWERS_COMMIT
        assert len(doc["ecvrf"]) == len(doc["schnorr"]) == 4

    @pytest.mark.parametrize("entry", _known_answers()["ecvrf"],
                             ids=lambda entry: f"seed{entry['seed']}")
    def test_ecvrf(self, entry):
        scheme = ECVRF()
        sk, pk = scheme.keygen(random.Random(entry["seed"]))
        assert (pk.x, pk.y) == (int(entry["pk_x"], 16), int(entry["pk_y"], 16))
        for vector in entry["proofs"]:
            alpha = vector["alpha"].encode()
            expected = tuple(
                int(vector[key], 16) for key in ("gamma_x", "gamma_y", "c", "s")
            )
            output = scheme.prove(sk, alpha)
            assert output.value == int(vector["value"], 16)
            assert output.proof == expected
            assert scheme.verify(pk, alpha, output)

    @pytest.mark.parametrize("entry", _known_answers()["schnorr"],
                             ids=lambda entry: f"seed{entry['seed']}")
    def test_schnorr(self, entry):
        scheme = SchnorrSignatureScheme()
        sk, pk = scheme.keygen(random.Random(entry["seed"]))
        assert (pk.x, pk.y) == (int(entry["pk_x"], 16), int(entry["pk_y"], 16))
        for vector in entry["signatures"]:
            message = vector["message"].encode()
            expected = tuple(int(vector[key], 16) for key in ("r_x", "r_y", "s"))
            assert scheme.sign(sk, message) == expected
            assert scheme.verify(pk, message, expected)
