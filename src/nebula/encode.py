"""Client-side data preparation: sub-randomness, key share, ciphertext, tag.

From the 32 bytes of oblivious randomness ``r`` obtained for a value, the
client derives three independent sub-values: a key seed (r1), a polynomial
seed (r2), and a tag (r3).  The symmetric key is a pseudorandom expansion of
the share-field encoding of r1, so recovering the shared field secret is
enough to decrypt; the original r1 rides in the plaintext header and is
re-checked against the field secret on recovery.

Ciphertexts are deliberately deterministic (fixed all-zero nonce): clients
holding the same value derive the same key and plaintext and therefore emit
byte-identical ciphertexts, which the aggregation side uses as a group
consistency check.  Equality of submissions is already visible through tags,
so no additional leakage is introduced.

No client identity enters any field: the share's evaluation point is a fresh
random field element per submission.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from . import sharing
from .params import DpParams

DST_SUBRAND = b"nebula:v1:sub-randomness"
DST_PRG_KEY = b"nebula:v1:prg-key"

TAG_SIZE = 32
ZERO_NONCE = bytes(12)
AEAD_OVERHEAD = 16
# Plaintext layout: 32-byte key-seed header, then the value.
HEADER_SIZE = 32
MAX_VALUE_SIZE = 256
# Serialized submission: tag, share x||y (each coordinate fixed-width
# big-endian), u32 ciphertext length, ciphertext.  The share ends at
# SHARE_END, where the length prefix begins; the ciphertext starts at
# CIPHERTEXT_AT, past every fixed-size field.
SHARE_END = TAG_SIZE + 2 * sharing.FIELD_BYTES
CIPHERTEXT_AT = SHARE_END + 4


@dataclass(frozen=True)
class SubRandomness:
    r1: bytes  # key seed
    r2: bytes  # share-polynomial seed
    r3: bytes  # tag


@dataclass(frozen=True)
class KeyShare:
    x_coord: int
    y_coord: int


@dataclass(frozen=True)
class Submission:
    """One client message: ciphertext, key share, 32-byte tag."""

    ciphertext: bytes
    share: KeyShare
    tag: bytes

    def to_bytes(self) -> bytes:
        return b"".join(
            (
                self.tag,
                sharing.encode_element(self.share.x_coord),
                sharing.encode_element(self.share.y_coord),
                struct.pack("<I", len(self.ciphertext)),
                self.ciphertext,
            )
        )

    @staticmethod
    def from_bytes(data: bytes) -> "Submission":
        if submission_size_at(data, 0) != len(data):
            raise ValueError("submission ciphertext length mismatch")
        return submission_at(data, 0, len(data))


# Big-endian bytes of the field prime: a 16-byte coordinate is canonical
# exactly when it compares below these.
_PRIME_BYTES = sharing.encode_element(sharing.FIELD_PRIME)
_ZERO_ELEMENT = bytes(sharing.FIELD_BYTES)


def submission_size_at(data: bytes, offset: int) -> int:
    """Declared size of the serialized submission at ``offset``.

    The rules every submission obeys, checked on the raw bytes: the fixed
    prefix fits in ``data``, both share coordinates are canonical field
    elements and x is nonzero.  The caller checks that the declared size
    fits what it holds.
    """
    if offset + CIPHERTEXT_AT > len(data):
        raise ValueError("truncated submission")
    x_at = offset + TAG_SIZE
    y_at = x_at + sharing.FIELD_BYTES
    x = data[x_at:y_at]
    if x >= _PRIME_BYTES or data[y_at : y_at + sharing.FIELD_BYTES] >= _PRIME_BYTES:
        raise ValueError("non-canonical field element")
    if x == _ZERO_ELEMENT:
        raise ValueError("zero x-coordinate")
    (ct_len,) = struct.unpack_from("<I", data, offset + SHARE_END)
    return CIPHERTEXT_AT + ct_len


def submission_end(data: bytes, offset: int) -> int:
    """Offset just past the submission at ``offset``, by its declared
    ciphertext length; checks nothing."""
    (ct_len,) = struct.unpack_from("<I", data, offset + SHARE_END)
    return offset + CIPHERTEXT_AT + ct_len


def submission_at(data: bytes, offset: int, end: int) -> Submission:
    """The submission in ``data[offset:end]``, already checked by
    ``submission_size_at``; only slices and decodes integers."""
    x_at = offset + TAG_SIZE
    y_at = x_at + sharing.FIELD_BYTES
    share = KeyShare(
        int.from_bytes(data[x_at:y_at], "big"),
        int.from_bytes(data[y_at : y_at + sharing.FIELD_BYTES], "big"),
    )
    return Submission(
        ciphertext=bytes(data[offset + CIPHERTEXT_AT : end]),
        share=share,
        tag=bytes(data[offset:x_at]),
    )


def parse_randomness(r: bytes) -> SubRandomness:
    """Split the oblivious randomness into three domain-separated values."""
    r1, r2, r3 = (
        sharing.tagged_hash(hashlib.sha256, DST_SUBRAND, r, bytes([index]))
        for index in (1, 2, 3)
    )
    return SubRandomness(r1=r1, r2=r2, r3=r3)


def encryption_key(r1: bytes) -> bytes:
    """Symmetric key expanded from the share-field encoding of the key seed."""
    return key_from_field_secret(sharing.secret_from_key_seed(r1))


def key_from_field_secret(secret: int) -> bytes:
    """The key derivation, starting from a (possibly interpolated) field secret."""
    return sharing.tagged_hash(hashlib.sha256, DST_PRG_KEY, sharing.encode_element(secret))


def make_share(r1: bytes, r2: bytes, threshold: int, rng) -> KeyShare:
    """Evaluate the seed-derived polynomial at a fresh random nonzero point.

    The zero point would expose the constant term directly and is excluded.
    """
    coeffs = sharing.polynomial_from_seeds(r1, r2, threshold)
    x = sharing.random_nonzero_element(rng)
    return KeyShare(x_coord=x, y_coord=sharing.polynomial_eval(coeffs, x))


def encrypt_value(r1: bytes, value: bytes) -> bytes:
    """Authenticated encryption of (key-seed header, value) under the derived key.

    The all-zero nonce is safe here: a given key only ever encrypts this one
    plaintext (same r1 implies same value by construction).
    """
    if len(value) > MAX_VALUE_SIZE:
        raise ValueError(f"value exceeds {MAX_VALUE_SIZE} bytes")
    aead = ChaCha20Poly1305(encryption_key(r1))
    return aead.encrypt(ZERO_NONCE, r1 + value, None)


def decrypt_with_key(key: bytes, ciphertext: bytes) -> tuple[bytes, bytes]:
    """Inverse of encrypt_value given the symmetric key: (r1, value).

    Raises cryptography.exceptions.InvalidTag when the key is wrong or the
    ciphertext was tampered with.
    """
    plaintext = ChaCha20Poly1305(key).decrypt(ZERO_NONCE, ciphertext, None)
    if len(plaintext) < HEADER_SIZE:
        raise ValueError("plaintext shorter than key-seed header")
    return plaintext[:HEADER_SIZE], plaintext[HEADER_SIZE:]


def participate(p_s: float, rng) -> bool:
    """Bernoulli participation test with success probability exactly p_s."""
    if not 0 <= p_s <= 1:
        raise ValueError("p_s must lie in [0, 1]")
    return rng.random() < p_s


def build_submission(x: bytes, r: bytes, params: DpParams, rng) -> Submission:
    """Assemble the tagged submission for value ``x`` from its randomness."""
    sub = parse_randomness(r)
    share = make_share(sub.r1, sub.r2, params.threshold, rng)
    ciphertext = encrypt_value(sub.r1, x)
    return Submission(ciphertext=ciphertext, share=share, tag=sub.r3)


def submission_wire_size(value_size: int) -> int:
    """Serialized size of a submission carrying a value of the given length."""
    return CIPHERTEXT_AT + AEAD_OVERHEAD + HEADER_SIZE + value_size
