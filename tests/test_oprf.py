"""Oblivious randomness protocol tests: correctness, verifiability, blinding."""

import random

import pytest

from nebula import oprf
from nebula.group import GENERATOR, ORDER, GroupElement
from test_group import window_base_mult


@pytest.fixture(scope="module")
def kp():
    return oprf.keygen(b"\x42" * 32)


class TestKeygen:
    def test_deterministic(self):
        a = oprf.keygen(b"\x01" * 32)
        b = oprf.keygen(b"\x01" * 32)
        assert a.msk == b.msk
        assert a.mpk.encode() == b.mpk.encode()

    def test_distinct_seeds_distinct_keys(self):
        a = oprf.keygen(b"\x01" * 32)
        b = oprf.keygen(b"\x02" * 32)
        assert a.msk != b.msk

    def test_public_commitment_matches_secret(self, kp):
        assert window_base_mult(kp.msk).encode() == kp.mpk.encode()


class TestBlind:
    def test_fresh_blindings_differ(self, kp):
        rng = random.Random(1)
        b1, _ = oprf.blind(b"value", rng)
        b2, _ = oprf.blind(b"value", rng)
        assert b1.encode() != b2.encode()

    def test_blinded_element_is_encodable(self):
        rng = random.Random(2)
        b, _ = oprf.blind(b"value", rng)
        assert GroupElement.decode(b.encode()).encode() == b.encode()

    def test_unit_blind_scalar_exposes_hash(self):
        b, _ = oprf.blind(b"value", None, blind_scalar=1)
        from nebula.group import hash_to_group

        assert b.encode() == hash_to_group(b"value", oprf.DST_HASH_TO_GROUP).encode()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            oprf.blind(b"", random.Random(0))

    @pytest.mark.parametrize("scalar", [0, ORDER, -1])
    def test_blind_scalar_out_of_range_rejected(self, scalar):
        with pytest.raises(ValueError, match="^blinding scalar out of range$"):
            oprf.blind(b"value", None, blind_scalar=scalar)


class TestEvaluate:
    def test_generator_maps_to_public_key(self, kp):
        ev = oprf.evaluate_batch([GENERATOR], kp)
        assert ev.elements[0].encode() == kp.mpk.encode()

    def test_proof_verifies(self, kp):
        rng = random.Random(3)
        b, st = oprf.blind(b"value", rng)
        ev = oprf.evaluate_batch([b], kp)
        # finalize_batch performs the verification; must not raise
        oprf.finalize_batch([b"value"], [st], ev, kp.mpk)

    def test_flipped_proof_byte_rejected(self, kp):
        rng = random.Random(4)
        b, st = oprf.blind(b"value", rng)
        ev = oprf.evaluate_batch([b], kp)
        raw = bytearray(ev.proof.to_bytes())
        raw[7] ^= 0x01
        bad = oprf.BatchEvaluation(ev.elements, oprf.DleqProof.from_bytes(bytes(raw)))
        with pytest.raises(oprf.VerificationError):
            oprf.finalize_batch([b"value"], [st], bad, kp.mpk)

    @pytest.mark.parametrize("size", [0, 63, 65])
    def test_proof_of_wrong_length_rejected(self, size):
        with pytest.raises(oprf.DecodeError, match="^proof must be 64 bytes$"):
            oprf.DleqProof.from_bytes(bytes(size))

    def test_tampered_element_rejected(self, kp):
        rng = random.Random(5)
        b, st = oprf.blind(b"value", rng)
        ev = oprf.evaluate_batch([b], kp)
        bad = oprf.BatchEvaluation((ev.elements[0] + GENERATOR,), ev.proof)
        with pytest.raises(oprf.VerificationError):
            oprf.finalize_batch([b"value"], [st], bad, kp.mpk)


class TestFinalize:
    def test_end_to_end_equals_direct_evaluation(self, kp):
        rng = random.Random(6)
        x = b"the value"
        b, st = oprf.blind(x, rng)
        (r,) = oprf.finalize_batch([x], [st], oprf.evaluate_batch([b], kp), kp.mpk)
        assert r == oprf.evaluate_directly(x, kp)
        assert len(r) == oprf.RANDOMNESS_SIZE

    def test_independent_clients_same_value_same_output(self, kp):
        rng1, rng2 = random.Random(7), random.Random(8)
        x = b"shared"
        b1, st1 = oprf.blind(x, rng1)
        b2, st2 = oprf.blind(x, rng2)
        (r1,) = oprf.finalize_batch([x], [st1], oprf.evaluate_batch([b1], kp), kp.mpk)
        (r2,) = oprf.finalize_batch([x], [st2], oprf.evaluate_batch([b2], kp), kp.mpk)
        assert r1 == r2

    def test_different_server_keys_different_output(self):
        kp1 = oprf.keygen(b"\x05" * 32)
        kp2 = oprf.keygen(b"\x06" * 32)
        assert oprf.evaluate_directly(b"x", kp1) != oprf.evaluate_directly(b"x", kp2)


class TestBatch:
    def test_batch_matches_direct(self, kp):
        rng = random.Random(9)
        xs = [f"value-{i}".encode() for i in range(8)]
        pairs = [oprf.blind(x, rng) for x in xs]
        ev = oprf.evaluate_batch([b for b, _ in pairs], kp)
        outs = oprf.finalize_batch(xs, [st for _, st in pairs], ev, kp.mpk)
        assert outs == [oprf.evaluate_directly(x, kp) for x in xs]

    def test_batch_tamper_rejected(self, kp):
        rng = random.Random(10)
        xs = [b"a", b"b"]
        pairs = [oprf.blind(x, rng) for x in xs]
        ev = oprf.evaluate_batch([b for b, _ in pairs], kp)
        swapped = oprf.BatchEvaluation(
            elements=(ev.elements[1], ev.elements[0]), proof=ev.proof
        )
        with pytest.raises(oprf.VerificationError):
            oprf.finalize_batch(xs, [st for _, st in pairs], swapped, kp.mpk)

    def test_identity_element_rejected(self, kp):
        # The identity is its own evaluation under any key, so a batch that
        # holds it carries a valid proof; finalize_batch must still refuse
        # it (RFC 9497 section 2.1), as it refuses a substituted identity.
        rng = random.Random(12)
        b, st = oprf.blind(b"a", rng)
        identity = GroupElement.decode(bytes(32))
        assert identity.is_identity()
        ev = oprf.evaluate_batch([b, identity], kp)
        states = [st, oprf.BlindState(blind_scalar=1, blinded=identity)]
        with pytest.raises(oprf.VerificationError):
            oprf.finalize_batch([b"a", b"b"], states, ev, kp.mpk)
        substituted = oprf.BatchEvaluation((identity, ev.elements[1]), ev.proof)
        with pytest.raises(oprf.VerificationError):
            oprf.finalize_batch([b"a", b"b"], states, substituted, kp.mpk)

    def test_short_response_is_server_misbehaviour(self, kp):
        # Seven elements, with a valid proof over them, answering eight
        # blinded ones: the server's fault, not the caller's.
        rng = random.Random(13)
        xs = [f"value-{i}".encode() for i in range(8)]
        blinded, states = zip(*(oprf.blind(x, rng) for x in xs))
        short = oprf.evaluate_batch(blinded[:7], kp)
        with pytest.raises(oprf.VerificationError):
            oprf.finalize_batch(xs, states, short, kp.mpk)
        # A caller passing values and states that do not pair up stays a
        # ValueError.
        full = oprf.evaluate_batch(blinded, kp)
        with pytest.raises(ValueError):
            oprf.finalize_batch(xs[:7], states, full, kp.mpk)

    def test_empty_batch_rejected(self, kp):
        with pytest.raises(ValueError):
            oprf.evaluate_batch([], kp)


class TestObliviousness:
    def test_blinding_transcripts_never_repeat(self, kp):
        # Server-visible transcripts of the same value must look fresh every
        # time: 10^4 blindings of one value produce 10^4 distinct encodings.
        rng = random.Random(11)
        seen = set()
        for _ in range(10_000):
            b, _ = oprf.blind(b"fixed value", rng)
            seen.add(b.encode())
        assert len(seen) == 10_000
