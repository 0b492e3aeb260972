"""Sub-threshold dummy-data groups that randomize the unrevealed histogram.

For every multiplicity i below the threshold, a noise count c_i is drawn
from the truncated shifted discrete Laplace distribution and c_i groups of i
identical-looking submissions are created, each group under its own fresh
random tag.  No group ever reaches the threshold, so dummy data is filtered
out by the recovery step and the revealed histogram is untouched; only the
multiplicity histogram of unrevealed tags is noised.

Dummy tags are drawn locally from the same 32-byte space as real tags (no
oblivious-randomness interaction is needed).  Within a group all members
share one ciphertext encrypting an empty value under a throwaway random key,
mirroring the byte-identical ciphertexts of a genuine same-value group;
shares are uniform random field points, so even a group force-assembled
above the threshold fails authentication during recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from . import sharing
from .encode import KeyShare, Submission, ZERO_NONCE
from .params import DpParams, tsdlap_sample


@dataclass(frozen=True)
class DummyBatch:
    submissions: tuple[Submission, ...]


def _dummy_ciphertext(rng) -> bytes:
    # Empty value under a fresh key nobody retains; the 32-byte header slot
    # is filled with random bytes so the layout matches real ciphertexts.
    key = rng.randbytes(32)
    return ChaCha20Poly1305(key).encrypt(ZERO_NONCE, rng.randbytes(32), None)


def create_dummy_batch(params: DpParams, rng) -> DummyBatch:
    """Draw group counts per multiplicity and expand them into submissions."""
    if params.threshold < 2:
        raise ValueError("dummy generation needs threshold >= 2")
    submissions: list[Submission] = []
    for multiplicity in range(1, params.threshold):
        count = tsdlap_sample(rng, params.tsdlap_scale, params.tsdlap_shift)
        for _ in range(count):
            tag = rng.randbytes(32)
            ciphertext = _dummy_ciphertext(rng)
            for _ in range(multiplicity):
                share = KeyShare(
                    x_coord=sharing.random_nonzero_element(rng),
                    y_coord=sharing.random_nonzero_element(rng),
                )
                submissions.append(
                    Submission(ciphertext=ciphertext, share=share, tag=tag)
                )
    return DummyBatch(submissions=tuple(submissions))

