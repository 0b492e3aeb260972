"""Prime-order group with 32-byte canonical encodings (ristretto255, RFC 9496).

Implements exactly the operations the oblivious-randomness protocol needs:
decode/encode with strict canonicality, point addition, scalar
multiplication, hashing arbitrary bytes to a group element, and scalar
arithmetic modulo the group order.  The one-way map and the square-root
conventions follow the RFC pseudocode; all curve constants are derived at
import time rather than hardcoded.

Pure Python on top of native big integers.  Every variable-base product
goes through one signed-window multi-scalar multiplication (``_msm``): a
single scalar multiplication costs about 1.6-2.0 ms on a 2-core x86-64 VM
under CPython 3.11, and eight pairs together about 5 ms instead of eight
times that.  No constant-time guarantees are attempted (this is a research
artifact, not a hardened library).
"""

from __future__ import annotations

import hashlib
from typing import Sequence

P = 2**255 - 19
# Group order (prime).
ORDER = 2**252 + 27742317777372353535851937790883648493

D = (-121665 * pow(121666, -1, P)) % P
_2D = (2 * D) % P


def _even_root(x: int) -> int:
    """The representative of {x, -x} with even low bit ("non-negative")."""
    return P - x if x & 1 else x


def _sqrt(x: int) -> int:
    """Square root mod P for quadratic residues (raises otherwise)."""
    r = pow(x, (P + 3) // 8, P)
    if (r * r - x) % P != 0:
        r = r * SQRT_M1 % P
    if (r * r - x) % P != 0:
        raise ValueError("not a square")
    return _even_root(r)


SQRT_M1 = _even_root(pow(2, (P - 1) // 4, P))
assert (SQRT_M1 * SQRT_M1 + 1) % P == 0

# a = -1, so a*d - 1 = -d - 1.  The standard constant is the odd root.
SQRT_AD_MINUS_ONE = P - _sqrt((-D - 1) % P)
INVSQRT_A_MINUS_D = _sqrt(pow((-1 - D) % P, P - 2, P))
ONE_MINUS_D_SQ = (1 - D * D) % P
D_MINUS_ONE_SQ = (D - 1) * (D - 1) % P


def _is_negative(x: int) -> bool:
    return bool(x & 1)


def _abs(x: int) -> int:
    return P - x if x & 1 else x


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
    return correct_sign or flipped_sign, _abs(r)


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


def _msm(pairs) -> _Point:
    """Sum of n*p over (n, p) pairs: Straus's interleaved multi-exponentiation.

    Each scalar is recoded into signed radix-32 digits in [-16, 16) and each
    point gets a table of 1*p .. 16*p; a negative digit adds the negated
    entry (-X, Y, Z, -T).  All pairs share one run of five doublings per
    digit, and only the last doubling of a run computes T, because only the
    following addition reads it.
    """
    rows = []
    for n, p in pairs:
        n %= ORDER
        digits = []
        while n:
            d = n & 31
            n >>= 5
            if d > 15:
                d -= 32
                n += 1
            digits.append(d)
        if digits:
            table = [p, _double(p)]
            for _ in range(14):
                table.append(_add(table[-1], p))
            # Index by digit: entries 1..16 are positive, 17..32 are -16..-1.
            lookup = [None] + table + [(P - x, y, z, P - t) for x, y, z, t in reversed(table)]
            rows.append([lookup[d] for d in digits])
    if not rows:
        return _IDENTITY
    acc = None
    for i in range(max(map(len, rows)) - 1, -1, -1):
        if acc is not None:
            x, y, z, _ = acc
            for _ in range(4):
                a = x * x % P
                b = y * y % P
                h = a + b
                g = a - b
                e = (h - (x + y) * (x + y)) % P
                f = 2 * z * z % P + g
                x, y, z = e * f % P, g * h % P, f * g % P
            acc = _double((x, y, z, 0))
        for row in rows:
            if i < len(row) and row[i] is not None:
                acc = row[i] if acc is None else _add(acc, row[i])
    return acc


def _encode(p: _Point) -> bytes:
    x0, y0, z0, t0 = p
    u1 = (z0 + y0) * (z0 - y0) % P
    u2 = x0 * y0 % P
    _, invsqrt = _sqrt_ratio_m1(1, u1 * u2 % P * u2 % P)
    den1 = invsqrt * u1 % P
    den2 = invsqrt * u2 % P
    z_inv = den1 * den2 % P * t0 % P
    if _is_negative(t0 * z_inv % P):
        x, y = y0 * SQRT_M1 % P, x0 * SQRT_M1 % P
        den_inv = den1 * INVSQRT_A_MINUS_D % P
    else:
        x, y = x0, y0
        den_inv = den2
    if _is_negative(x * z_inv % P):
        y = (P - y) % P
    s = _abs(den_inv * (z0 - y) % P)
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
    x = _abs(2 * s * den_x % P)
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
        s = (P - _abs(s * t % P)) % P
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
    """Immutable group element; equality and hashing use the canonical encoding."""

    __slots__ = ("_pt", "_enc")

    def __init__(self, pt: _Point, enc: bytes | None = None):
        self._pt = pt
        self._enc = enc

    def encode(self) -> bytes:
        if self._enc is None:
            self._enc = _encode(self._pt)
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
        return GroupElement(_msm([(scalar, self._pt)]))

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
    xx = (y * y - 1) * pow(D * y * y + 1, P - 2, P) % P
    x = _sqrt(xx)
    return (x, y, 1, x * y % P)


IDENTITY = GroupElement(_IDENTITY)
GENERATOR = GroupElement(_base_point())

# Fixed-base acceleration for GENERATOR: tables of 16 multiples per 4-bit
# window, built lazily on first use (64 windows cover the 253-bit order).
_BASE_TABLES: list[list[_Point]] = []


def _build_base_tables() -> None:
    step = GENERATOR._pt
    for _ in range(64):
        row = [_IDENTITY, step]
        for _ in range(14):
            row.append(_add(row[-1], step))
        _BASE_TABLES.append(row)
        step = _double(_double(_double(_double(row[1]))))


def base_mult(scalar: int) -> GroupElement:
    """GENERATOR * scalar from precomputed 4-bit window tables, no doublings.

    About 4x faster than ``GENERATOR * scalar``; it shares no code with
    ``_msm``, so tests use it as an independent oracle for that path.
    """
    if not _BASE_TABLES:
        _build_base_tables()
    n = scalar % ORDER
    acc = _IDENTITY
    started = False
    for i in range(64):
        window = (n >> (4 * i)) & 15
        if window:
            acc = _add(acc, _BASE_TABLES[i][window]) if started else _BASE_TABLES[i][window]
            started = True
    return GroupElement(acc)


def double_mult(a: int, p: GroupElement, b: int, q: GroupElement) -> GroupElement:
    """p*a + q*b with shared doublings (the two-pair case of ``multi_mult``)."""
    return GroupElement(_msm([(a, p._pt), (b, q._pt)]))


def multi_mult(scalars: Sequence[int], points: Sequence[GroupElement]) -> GroupElement:
    """Sum of scalars[i] * points[i], all pairs sharing one run of doublings."""
    return GroupElement(_msm(zip(scalars, (q._pt for q in points), strict=True)))


# --- hashing and scalar helpers --------------------------------------------


def hash_to_group(data: bytes, domain: bytes) -> GroupElement:
    """Map arbitrary bytes to a group element via 64 uniform hash bytes."""
    h = hashlib.sha512()
    h.update(len(domain).to_bytes(2, "big"))
    h.update(domain)
    h.update(data)
    return GroupElement.from_uniform_bytes(h.digest())


def hash_to_scalar(data: bytes, domain: bytes) -> int:
    """Map arbitrary bytes to a scalar in [0, ORDER) with negligible bias."""
    h = hashlib.sha512()
    h.update(len(domain).to_bytes(2, "big"))
    h.update(domain)
    h.update(data)
    return int.from_bytes(h.digest(), "little") % ORDER


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
