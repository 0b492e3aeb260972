"""Prime-order group with 32-byte canonical encodings (ristretto255, RFC 9496).

Implements exactly the operations the oblivious-randomness protocol needs:
decode/encode with strict canonicality, point addition, scalar
multiplication, hashing arbitrary bytes to a group element, and scalar
arithmetic modulo the group order.  The one-way map and the square-root
conventions follow the RFC pseudocode; all curve constants are derived at
import time rather than hardcoded.

Field and point arithmetic use native big integers.  Every scalar
product, fixed-base (``base_mult``) or variable-base, goes through one
kernel (``_mul``): OpenSSL's X25519 Montgomery ladder (RFC 7748, through
``cryptography``) on the birationally equivalent Curve25519 gives the
u-coordinates of m*R and (m+1)*R, the Okeya-Sakurai formula recovers v,
and the point is mapped back to Edwards coordinates.  The kernel returns
a torsion-free half H of the product, and an element keeps H beside its
point: ``encode`` computes the encoding of 2H from H with one inversion
and no square root (the batched double-and-encode of the ristretto.group
notes).  Only decoding, the one-way map and the curve constants take
square roots, all through RFC 9496's ``_sqrt_ratio_m1``.
The ladder is constant-time; the Python before and after it (clamping,
the inversion, the y-recovery) is not, and neither is anything else here
(this is a research artifact, not a hardened library).
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from .sharing import tagged_hash

P = 2**255 - 19
# Group order (prime).
ORDER = 2**252 + 27742317777372353535851937790883648493

D = (-121665 * pow(121666, -1, P)) % P
_2D = (2 * D) % P


def _even_root(x: int) -> int:
    """The representative of {x, -x} with even low bit ("non-negative")."""
    return P - x if x & 1 else x


SQRT_M1 = _even_root(pow(2, (P - 1) // 4, P))
assert (SQRT_M1 * SQRT_M1 + 1) % P == 0


def _is_negative(x: int) -> bool:
    return bool(x & 1)


def _sqrt_ratio_m1(u: int, v: int) -> tuple[bool, int]:
    """Return (was_square, r) with r = sqrt(u/v) or sqrt(SQRT_M1*u/v)."""
    v3 = v * v % P * v % P
    v7 = v3 * v3 % P * v % P
    r = u * v3 % P * pow(u * v7 % P, (P - 5) // 8, P) % P
    check = v * r % P * r % P
    u_neg = (P - u) % P
    correct_sign = check == u % P
    flipped_sign = check == u_neg
    flipped_sign_i = check == u_neg * SQRT_M1 % P
    if flipped_sign or flipped_sign_i:
        r = r * SQRT_M1 % P
    return correct_sign or flipped_sign, _even_root(r)


def _sqrt_ratio(u: int, v: int) -> int:
    """The non-negative square root of u/v.  Only the import-time constants
    call it, each on a square, and RFC 9496's test vectors pin them."""
    return _sqrt_ratio_m1(u, v)[1]


# a = -1, so a*d - 1 = -d - 1.  The standard constant is the odd root.
SQRT_AD_MINUS_ONE = P - _sqrt_ratio((-D - 1) % P, 1)
INVSQRT_A_MINUS_D = _sqrt_ratio(1, (-1 - D) % P)
ONE_MINUS_D_SQ = (1 - D * D) % P
D_MINUS_ONE_SQ = (D - 1) * (D - 1) % P


# Extended coordinates (X, Y, Z, T) with x = X/Z, y = Y/Z, T = X*Y/Z.
_Point = tuple[int, int, int, int]

_IDENTITY: _Point = (0, 1, 1, 0)


def _add(p: _Point, q: _Point) -> _Point:
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = t1 * _2D % P * t2 % P
    d = z1 * 2 * z2 % P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _double(p: _Point) -> _Point:
    x1, y1, z1, _ = p
    a = x1 * x1 % P
    b = y1 * y1 % P
    c = 2 * z1 * z1 % P
    h = a + b
    e = (h - (x1 + y1) * (x1 + y1)) % P
    g = a - b
    f = c + g
    return (e * f % P, g * h % P, f * g % P, e * h % P)


# Curve25519 (RFC 7748) in the form B*v^2 = u^3 + A*u^2 + u with B = -486664:
# u = (1+y)/(1-y) and v = u/x map it to edwards25519 with no square root.
# Curve25519 proper (B = 1) scales v by sqrt(-486664), which the x-only
# ladder never reads, and the root would cancel between the two directions.
_A = 486662
_B = -486664 % P
_INV8 = pow(8, -1, ORDER)
_INV2 = pow(2, -1, ORDER)
# The kernel multiplies R = [8]p by m = n/_DIV, so 2*m*R is n*p up to
# 4-torsion: it returns the half that ``encode`` doubles.
_DIV = 16
_INV_DIV = pow(_DIV, -1, ORDER)


def _clamped(m: int) -> bytes | None:
    """An X25519 private key s = 2^254 + 8k (k < 2^251) with s = +-m mod ORDER.

    One sign fits unless m is 8i with |i| <= ORDER - 2^252 (about 2^-126 of
    all scalars); then there is no key and the caller halves m.
    """
    for signed in (m, ORDER - m):
        k = (signed - 2**254) * _INV8 % ORDER
        if k < 2**251:
            return (2**254 + 8 * k).to_bytes(32, "little")
    return None


def _mul(n: int, p: _Point) -> _Point:
    """The torsion-free half H of n*p, through X25519: 2H is n*p up to 4-torsion.

    R = [8]p is torsion-free, and H = mR for m = n/16, so 2H = (n/8)*R
    encodes as n*p does.  Two X25519 ladders on u(R) give u(mR) and
    u((m+1)R); Okeya and Sakurai's formula recovers v(mR) from them and
    the point R, and the result goes back to extended coordinates.  One
    inversion in all.
    """
    r = _double(_double(_double(p)))
    m = n * _INV_DIV % ORDER
    if m == 0 or r[0] == 0:
        return _IDENTITY
    while True:
        if m == 1:
            return r
        if m == ORDER - 1:
            return (P - r[0], r[1], r[2], P - r[3])
        key, key1 = _clamped(m), _clamped(m + 1)
        if key and key1:
            break
        r, m = _double(r), m * _INV2 % ORDER
    x, y, z, _ = r
    inv = pow((z - y) * x % P, -1, P)
    u = (z + y) * x % P * inv % P
    w = 2 * _B * (z + y) % P * z % P * inv % P  # 2*B*v(R), with v(R) = u/x
    peer = X25519PublicKey.from_public_bytes(u.to_bytes(32, "little"))
    uq, uq1 = (
        int.from_bytes(X25519PrivateKey.from_private_bytes(k).exchange(peer), "little")
        for k in (key, key1)
    )
    # v(mR) = num / (2*B*v(R)), then x = u/v and y = (u-1)/(u+1).
    num = ((u * uq + 1) * (u + uq + 2 * _A) - 2 * _A - (u - uq) ** 2 * uq1) % P
    xn = uq * w % P
    return (xn * (uq + 1) % P, (uq - 1) * num % P, num * (uq + 1) % P, xn * (uq - 1) % P)


def _double_encode(h: _Point) -> bytes:
    """The RFC 9496 encoding of 2h, for a torsion-free h: one inversion, no
    square root (curve25519-dalek's ``double_and_compress_batch``, one point).

    With e = 2XY, f = Y^2 - X^2 = Z^2 + dT^2, g = Y^2 + X^2 and
    h' = Z^2 - dT^2, 2h is (e*h' : f*g : f*h' : e*g) in extended
    coordinates, and the inverse square root that the generic encoder
    computes is a product of these terms, so 1/(efgh') gives all of it.
    """
    x, y, z, t = h
    zz = z * z % P
    dtt = D * t % P * t % P
    e = 2 * x * y % P
    f = (zz + dtt) % P
    g = (y * y + x * x) % P
    hh = (zz - dtt) % P
    eg = e * g % P
    fh = f * hh % P
    efgh = eg * fh % P
    if efgh == 0:
        # f and h' never vanish on the curve; e or g does only where 2h has
        # order 1, 2 or 4, which for a torsion-free h is the identity.
        return bytes(32)
    inv = pow(efgh, -1, P)
    z_inv = eg * inv % P
    t_inv = fh * inv % P
    if _is_negative(eg * z_inv % P):
        e, g, hh, magic = g, P - e, f * SQRT_M1 % P, SQRT_M1
    else:
        magic = INVSQRT_A_MINUS_D
    if _is_negative(hh * e % P * z_inv % P):
        g = P - g
    s = _even_root((hh - g) * magic % P * g % P * t_inv % P)
    return s.to_bytes(32, "little")


def _decode(data: bytes) -> _Point:
    if len(data) != 32:
        raise DecodeError("group element encoding must be 32 bytes")
    s = int.from_bytes(data, "little")
    if s >= P or _is_negative(s):
        raise DecodeError("non-canonical group element encoding")
    ss = s * s % P
    u1 = (1 - ss) % P
    u2 = (1 + ss) % P
    u2_sqr = u2 * u2 % P
    v = (-(D * u1 % P * u1) - u2_sqr) % P
    was_square, invsqrt = _sqrt_ratio_m1(1, v * u2_sqr % P)
    den_x = invsqrt * u2 % P
    den_y = invsqrt * den_x % P * v % P
    x = _even_root(2 * s * den_x % P)
    y = u1 * den_y % P
    t = x * y % P
    if not was_square or _is_negative(t) or y == 0:
        raise DecodeError("invalid group element encoding")
    return (x, y, 1, t)


def _map_to_curve(t: int) -> _Point:
    """One-way map from a field element to a point (RFC 9496, section 4.3.4)."""
    r = SQRT_M1 * t % P * t % P
    u = (r + 1) * ONE_MINUS_D_SQ % P
    v = (-1 - r * D) % P * (r + D) % P
    was_square, s = _sqrt_ratio_m1(u, v)
    if not was_square:
        s = (P - _even_root(s * t % P)) % P
        c = r
    else:
        c = P - 1
    n = (c * (r - 1) % P * D_MINUS_ONE_SQ - v) % P
    w0 = 2 * s * v % P
    w1 = n * SQRT_AD_MINUS_ONE % P
    w2 = (1 - s * s) % P
    w3 = (1 + s * s) % P
    return (w0 * w3 % P, w2 * w1 % P, w1 * w3 % P, w0 * w2 % P)


def _from_uniform(data: bytes) -> _Point:
    if len(data) != 64:
        raise ValueError("uniform input must be 64 bytes")
    mask = (1 << 255) - 1
    t1 = (int.from_bytes(data[:32], "little") & mask) % P
    t2 = (int.from_bytes(data[32:], "little") & mask) % P
    return _add(_map_to_curve(t1), _map_to_curve(t2))


class DecodeError(ValueError):
    """Byte string is not the canonical encoding of a group element."""


class GroupElement:
    """Immutable group element; equality and hashing use the canonical encoding.

    ``half``, when known, is a torsion-free point H whose double is ``pt``
    up to 4-torsion; products and their sums carry one (``_from_half``).
    """

    __slots__ = ("_pt", "_enc", "_half")

    def __init__(self, pt: _Point, enc: bytes | None = None, half: _Point | None = None):
        self._pt = pt
        self._enc = enc
        self._half = half

    def encode(self) -> bytes:
        """The canonical 32 bytes: double-and-encode of the half point.

        An element built without a half (the generator, a sum made with
        ``+``, a hashed element) takes one from the kernel, ``_mul(1, pt)``.
        """
        if self._enc is None:
            if self._half is None:
                self._half = _mul(1, self._pt)
            self._enc = _double_encode(self._half)
        return self._enc

    @staticmethod
    def decode(data: bytes) -> "GroupElement":
        pt = _decode(data)
        # Re-encoding is canonical by construction; keep the original bytes.
        return GroupElement(pt, bytes(data))

    @staticmethod
    def from_uniform_bytes(data: bytes) -> "GroupElement":
        return GroupElement(_from_uniform(data))

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(_add(self._pt, other._pt))

    def __mul__(self, scalar: int) -> "GroupElement":
        return _from_half(_mul(scalar, self._pt))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        # X1*Y2 == Y1*X2 or Y1*Y2 == X1*X2 (same coset of the 4-torsion).
        x1, y1, _, _ = self._pt
        x2, y2, _, _ = other._pt
        return (x1 * y2 - y1 * x2) % P == 0 or (y1 * y2 - x1 * x2) % P == 0

    def __hash__(self) -> int:
        return hash(self.encode())

    def is_identity(self) -> bool:
        return self == IDENTITY

    def __repr__(self) -> str:
        return f"GroupElement({self.encode().hex()})"


def _base_point() -> _Point:
    y = 4 * pow(5, P - 2, P) % P
    x = _sqrt_ratio((y * y - 1) % P, (D * y * y + 1) % P)
    return (x, y, 1, x * y % P)


def _from_half(h: _Point) -> GroupElement:
    """The element 2h, keeping h for ``encode``."""
    return GroupElement(_double(h), half=h)


IDENTITY = GroupElement(_IDENTITY)
GENERATOR = GroupElement(_base_point())


def base_mult(scalar: int) -> GroupElement:
    """GENERATOR * scalar: the fixed-base entry, for keys and proof commitments.

    It runs on the same kernel as every other product.  It calls ``_mul``
    rather than ``GroupElement.__mul__``, so a count of ``__mul__`` calls
    stays a count of variable-base products.  The tests check the kernel
    against an independent window-table oracle.
    """
    return _from_half(_mul(scalar, GENERATOR._pt))


def double_mult(a: int, p: GroupElement, b: int, q: GroupElement) -> GroupElement:
    """p*a + q*b (the two-pair case of ``multi_mult``)."""
    return multi_mult((a, b), (p, q))


def multi_mult(scalars: Sequence[int], points: Sequence[GroupElement]) -> GroupElement:
    """Sum of scalars[i] * points[i], added up as the kernel's halves."""
    acc = _IDENTITY
    for n, q in zip(scalars, points, strict=True):
        acc = _add(acc, _mul(n, q._pt))
    return _from_half(acc)


# --- hashing and scalar helpers --------------------------------------------


def hash_to_group(data: bytes, domain: bytes) -> GroupElement:
    """Map arbitrary bytes to a group element via 64 uniform hash bytes."""
    return GroupElement.from_uniform_bytes(tagged_hash(hashlib.sha512, domain, data))


def hash_to_scalar(data: bytes, domain: bytes) -> int:
    """Map arbitrary bytes to a scalar in [0, ORDER) with negligible bias."""
    return int.from_bytes(tagged_hash(hashlib.sha512, domain, data), "little") % ORDER


def random_scalar(rng) -> int:
    """Uniform nonzero scalar from an rng exposing getrandbits()."""
    while True:
        s = rng.getrandbits(512) % ORDER
        if s != 0:
            return s


def scalar_inverse(s: int) -> int:
    s %= ORDER
    if s == 0:
        raise ValueError("zero scalar has no inverse")
    return pow(s, -1, ORDER)


def encode_scalar(s: int) -> bytes:
    return (s % ORDER).to_bytes(32, "little")


def decode_scalar(data: bytes) -> int:
    if len(data) != 32:
        raise DecodeError("scalar encoding must be 32 bytes")
    s = int.from_bytes(data, "little")
    if s >= ORDER:
        raise DecodeError("non-canonical scalar encoding")
    return s
