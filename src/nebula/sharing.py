"""Threshold secret sharing over a 128-bit prime field.

Shares are points on a polynomial whose constant term is the shared secret;
any ``threshold`` points with distinct x-coordinates determine the
polynomial, fewer are consistent with every candidate secret.  Coefficients
above the constant term are derived deterministically from a per-client
seed, so independent shares of the same (secret, seed) pair lie on one
polynomial and interpolate together.
"""

from __future__ import annotations

import hashlib

# Largest 128-bit prime.
FIELD_PRIME = 2**128 - 159
FIELD_BYTES = 16

DST_SECRET = b"nebula:v1:share-secret"
DST_COEFF = b"nebula:v1:share-coeff"


def field_element_from_hash(domain: bytes, data: bytes) -> int:
    """Map bytes to a field element (256-bit digest mod p; bias ~2^-128)."""
    h = hashlib.sha256()
    h.update(len(domain).to_bytes(2, "big"))
    h.update(domain)
    h.update(data)
    return int.from_bytes(h.digest(), "big") % FIELD_PRIME


def secret_from_key_seed(r1: bytes) -> int:
    """Field encoding of the key seed; the constant term of the polynomial."""
    return field_element_from_hash(DST_SECRET, r1)


def polynomial_from_seeds(r1: bytes, r2: bytes, threshold: int) -> list[int]:
    """Degree-(threshold-1) coefficients [a_0, a_1, ...]; a_0 encodes r1."""
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    coeffs = [secret_from_key_seed(r1)]
    for j in range(1, threshold):
        coeffs.append(field_element_from_hash(DST_COEFF, r2 + j.to_bytes(2, "big")))
    return coeffs


def polynomial_eval(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % FIELD_PRIME
    return acc


def random_nonzero_element(rng) -> int:
    while True:
        v = rng.getrandbits(192) % FIELD_PRIME
        if v != 0:
            return v


def interpolate_at_zero(points: list[tuple[int, int]]) -> int:
    """Lagrange interpolation of the constant term.

    Requires pairwise-distinct nonzero x-coordinates.  The constant term is
    (prod of all x) * sum of y_i / d_i with d_i = x_i * prod_{j != i} (x_j - x_i);
    the sum is accumulated as one fraction, so the whole interpolation takes
    a single modular inversion.
    """
    p = FIELD_PRIME
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate x-coordinates")
    if any(x % p == 0 for x in xs):
        raise ValueError("zero x-coordinate")
    num, den, prod = 0, 1, 1
    for xi, yi in points:
        d = xi
        for xj in xs:
            if xj != xi:
                d = d * (xj - xi) % p
        num = (num * d + yi * den) % p
        den = den * d % p
        prod = prod * xi % p
    return prod * num * pow(den, -1, p) % p


def encode_element(v: int) -> bytes:
    return v.to_bytes(FIELD_BYTES, "big")

