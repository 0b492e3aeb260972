"""Verifiable oblivious pseudorandom function between client and server.

Flow: the client hashes its value to a group element and blinds it with a
fresh random exponent; the server raises the blinded element to its secret
key and proves (Chaum-Pedersen / Fiat-Shamir) that it used the same key it
committed to publicly; the client verifies, unblinds, and hashes the result
together with the value into 32 bytes of randomness.

Two clients holding the same value obtain identical randomness without the
server learning the value, and any deviation by the server from its
committed key is caught by the proof check.

Every evaluation is a batch (one element per attribute prefix; a single
value is a batch of one) and carries a single aggregate proof over a
random-weighted combination of the request/response pairs; weights are
derived from the transcript, so prover and verifier agree on them without
extra messages.  The client computes both weighted composites as sums of
scalar products (``multi_mult``); the server, which knows its key, derives
the second as ``k * M`` (ComputeCompositesFast, RFC 9497 section 2.2.1).
Neither side accepts the identity as an element, as RFC 9497 section 2.1
requires of deserialization.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from .group import (
    GENERATOR,
    ORDER,
    DecodeError,
    GroupElement,
    base_mult,
    decode_scalar,
    double_mult,
    encode_scalar,
    hash_to_group,
    hash_to_scalar,
    multi_mult,
    random_scalar,
    scalar_inverse,
)
from .sharing import tagged_hash

# Domain-separation personalization strings (random-oracle hygiene).
DST_HASH_TO_GROUP = b"nebula:v1:hash-to-group"
DST_RANDOMNESS = b"nebula:v1:randomness"
DST_KEYGEN = b"nebula:v1:keygen"
DST_DLEQ_CHALLENGE = b"nebula:v1:dleq-challenge"
DST_DLEQ_NONCE = b"nebula:v1:dleq-nonce"
DST_BATCH_WEIGHTS = b"nebula:v1:dleq-batch-weights"

PROOF_SIZE = 64
RANDOMNESS_SIZE = 32


class VerificationError(Exception):
    """The server's proof of correct evaluation did not verify."""


@dataclass(frozen=True)
class ServerKeypair:
    msk: int
    mpk: GroupElement


@dataclass(frozen=True)
class DleqProof:
    """Proof that log_g(mpk) equals log_b(z): (challenge, response) scalars."""

    challenge: int
    response: int

    def to_bytes(self) -> bytes:
        return encode_scalar(self.challenge) + encode_scalar(self.response)

    @staticmethod
    def from_bytes(data: bytes) -> "DleqProof":
        if len(data) != PROOF_SIZE:
            raise DecodeError("proof must be 64 bytes")
        return DleqProof(decode_scalar(data[:32]), decode_scalar(data[32:]))


@dataclass(frozen=True)
class BatchEvaluation:
    """Server response for a batch: per-element results, one aggregate proof."""

    elements: tuple[GroupElement, ...]
    proof: DleqProof


@dataclass(frozen=True)
class BlindState:
    """Client-side secret kept between blind and finalize."""

    blind_scalar: int
    blinded: GroupElement


def keygen(seed: bytes) -> ServerKeypair:
    """Deterministic keypair from a 32-byte seed.  The seed is hashed under a
    public DST, so any other length raises ValueError: a short seed is a guessable key."""
    if len(seed) != 32:
        raise ValueError(f"key seed must be 32 bytes, not {len(seed)}")
    msk = hash_to_scalar(seed, DST_KEYGEN)
    return ServerKeypair(msk=msk, mpk=base_mult(msk))


def _hash_input(x: bytes) -> GroupElement:
    """The group element an evaluation of ``x`` starts from."""
    if not x:
        raise ValueError("input value must be non-empty")
    return hash_to_group(x, DST_HASH_TO_GROUP)


def blind(x: bytes, rng, blind_scalar: int | None = None) -> tuple[GroupElement, BlindState]:
    """Hash the value to the group and mask it with a fresh exponent.

    ``blind_scalar`` is a test hook pinning the exponent (1 makes the output
    equal the bare hash).
    """
    h = _hash_input(x)
    r = blind_scalar if blind_scalar is not None else random_scalar(rng)
    if not 0 < r < ORDER:
        raise ValueError("blinding scalar out of range")
    b = h * r
    return b, BlindState(blind_scalar=r, blinded=b)


def _challenge(mpk: GroupElement, b: GroupElement, z: GroupElement,
               commit_g: GroupElement, commit_b: GroupElement) -> int:
    transcript = b"".join(
        p.encode() for p in (GENERATOR, mpk, b, z, commit_g, commit_b)
    )
    return hash_to_scalar(transcript, DST_DLEQ_CHALLENGE)


def _prove(kp: ServerKeypair, b: GroupElement, z: GroupElement) -> DleqProof:
    # Deterministic nonce bound to the secret key and transcript: no rng
    # needed server-side and proofs are reproducible.
    k = hash_to_scalar(
        encode_scalar(kp.msk) + b.encode() + z.encode(), DST_DLEQ_NONCE
    )
    commit_g = base_mult(k)
    commit_b = b * k
    c = _challenge(kp.mpk, b, z, commit_g, commit_b)
    s = (k - c * kp.msk) % ORDER
    return DleqProof(challenge=c, response=s)


def _verify(mpk: GroupElement, b: GroupElement, z: GroupElement, proof: DleqProof) -> None:
    commit_g = double_mult(proof.response, GENERATOR, proof.challenge, mpk)
    commit_b = double_mult(proof.response, b, proof.challenge, z)
    if _challenge(mpk, b, z, commit_g, commit_b) != proof.challenge:
        raise VerificationError("evaluation proof rejected")


def _batch_weights(mpk: GroupElement, blinded: Sequence[GroupElement],
                   elements: Sequence[GroupElement]) -> list[int]:
    h = hashlib.sha512()
    h.update(mpk.encode())
    h.update(len(blinded).to_bytes(2, "big"))
    for e in blinded:
        h.update(e.encode())
    for e in elements:
        h.update(e.encode())
    seed = h.digest()
    return [
        hash_to_scalar(seed + i.to_bytes(2, "big"), DST_BATCH_WEIGHTS)
        for i in range(len(blinded))
    ]


def evaluate_batch(blinded: Sequence[GroupElement], kp: ServerKeypair) -> BatchEvaluation:
    """Evaluate several blinded elements under one aggregate proof."""
    if not blinded:
        raise ValueError("empty batch")
    elements = tuple(b * kp.msk for b in blinded)
    weights = _batch_weights(kp.mpk, blinded, elements)
    m = multi_mult(weights, blinded)
    # ComputeCompositesFast (RFC 9497, section 2.2.1): only the key holder
    # may take this shortcut; the client computes both composites.
    zc = m * kp.msk
    return BatchEvaluation(elements=elements, proof=_prove(kp, m, zc))


def _randomness(w: GroupElement, x: bytes) -> bytes:
    return tagged_hash(hashlib.sha256, DST_RANDOMNESS, w.encode(), x)


def finalize_batch(
    xs: Sequence[bytes],
    states: Sequence[BlindState],
    ev: BatchEvaluation,
    mpk: GroupElement,
) -> list[bytes]:
    """Verify the batch proof, unblind, and derive each 32-byte randomness.

    Raises VerificationError (and yields nothing) on a bad proof or a
    response with a different number of elements than were blinded.
    """
    if len(xs) != len(states):
        raise ValueError("batch length mismatch")
    if len(ev.elements) != len(states):
        raise VerificationError("response length differs from the request")
    if any(z.is_identity() for z in ev.elements):
        raise VerificationError("evaluated element is the identity")
    blinded = [st.blinded for st in states]
    weights = _batch_weights(mpk, blinded, ev.elements)
    m = multi_mult(weights, blinded)
    zc = multi_mult(weights, ev.elements)
    _verify(mpk, m, zc, ev.proof)
    return [
        _randomness(z * scalar_inverse(st.blind_scalar), x)
        for x, st, z in zip(xs, states, ev.elements)
    ]


def evaluate_directly(x: bytes, kp: ServerKeypair) -> bytes:
    """Randomness for ``x`` computed with key in hand (test/simulation oracle).

    Equals what any client obtains for ``x`` through blind/evaluate_batch/finalize_batch
    against this keypair; the blinding exponent cancels.
    """
    return _randomness(_hash_input(x) * kp.msk, x)
