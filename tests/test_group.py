"""Group backend tests against the published ristretto255 vectors (RFC 9496)."""

import functools
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nebula import group

# Appendix A.1: encodings of 0*B .. 15*B for the canonical generator B.
SMALL_MULTIPLES = [
    "0000000000000000000000000000000000000000000000000000000000000000",
    "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76",
    "6a493210f7499cd17fecb510ae0cea23a110e8d5b901f8acadd3095c73a3b919",
    "94741f5d5d52755ece4f23f044ee27d5d1ea1e2bd196b462166b16152a9d0259",
    "da80862773358b466ffadfe0b3293ab3d9fd53c5ea6c955358f568322daf6a57",
    "e882b131016b52c1d3337080187cf768423efccbb517bb495ab812c4160ff44e",
    "f64746d3c92b13050ed8d80236a7f0007c3b3f962f5ba793d19a601ebb1df403",
    "44f53520926ec81fbd5a387845beb7df85a96a24ece18738bdcfa6a7822a176d",
    "903293d8f2287ebe10e2374dc1a53e0bc887e592699f02d077d5263cdd55601c",
    "02622ace8f7303a31cafc63f8fc48fdc16e1c8c8d234b2f0d6685282a9076031",
    "20706fd788b2720a1ed2a5dad4952b01f413bcf0e7564de8cdc816689e2db95f",
    "bce83f8ba5dd2fa572864c24ba1810f9522bc6004afe95877ac73241cafdab42",
    "e4549ee16b9aa03099ca208c67adafcafa4c3f3e4e5303de6026e3ca8ff84460",
    "aa52e000df2e16f55fb1032fc33bc42742dad6bd5a8fc0be0167436c5948501f",
    "46376b80f409b29dc2b5f6f0c52591990896e5716f41477cd30085ab7f10301e",
    "e0c418f7c8d9c4cdd7395b93ea124f3ad99021bb681dfc3302a9d99a2e53e64e",
]


@functools.cache
def _base_tables() -> list[list[tuple[int, int, int, int]]]:
    """16 multiples of GENERATOR per 4-bit window; 64 windows cover the
    253-bit order."""
    tables = []
    step = group.GENERATOR._pt
    for _ in range(64):
        row = [group._IDENTITY, step]
        for _ in range(14):
            row.append(group._add(row[-1], step))
        tables.append(row)
        step = group._double(group._double(group._double(group._double(row[1]))))
    return tables


def sqrt_encode(pt: tuple[int, int, int, int]) -> bytes:
    """The RFC 9496 section 4.3.2 encoder, with its inverse square root: the
    reference for ``GroupElement.encode``, which doubles a half point."""
    P = group.P
    x0, y0, z0, t0 = pt
    u1 = (z0 + y0) * (z0 - y0) % P
    u2 = x0 * y0 % P
    _, invsqrt = group._sqrt_ratio_m1(1, u1 * u2 % P * u2 % P)
    den1 = invsqrt * u1 % P
    den2 = invsqrt * u2 % P
    z_inv = den1 * den2 % P * t0 % P
    if group._is_negative(t0 * z_inv % P):
        x, y = y0 * group.SQRT_M1 % P, x0 * group.SQRT_M1 % P
        den_inv = den1 * group.INVSQRT_A_MINUS_D % P
    else:
        x, y = x0, y0
        den_inv = den2
    if group._is_negative(x * z_inv % P):
        y = (P - y) % P
    s = group._even_root(den_inv * (z0 - y) % P)
    return s.to_bytes(32, "little")


def window_base_mult(scalar: int) -> group.GroupElement:
    """GENERATOR * scalar from the window tables, additions only: the
    reference for every product, sharing no code with the X25519 kernel."""
    tables = _base_tables()
    n = scalar % group.ORDER
    acc = group._IDENTITY
    started = False
    for i in range(64):
        window = (n >> (4 * i)) & 15
        if window:
            acc = group._add(acc, tables[i][window]) if started else tables[i][window]
            started = True
    return group.GroupElement(acc)


def test_small_multiples_by_addition():
    acc = group.IDENTITY
    for expected in SMALL_MULTIPLES:
        assert acc.encode().hex() == expected
        acc = acc + group.GENERATOR


def test_small_multiples_by_scalar_mult():
    for n, expected in enumerate(SMALL_MULTIPLES):
        assert window_base_mult(n).encode().hex() == expected
        assert (group.GENERATOR * n).encode().hex() == expected
        assert group.base_mult(n).encode().hex() == expected


def test_base_mult_matches_generic_for_large_scalars():
    rng = random.Random(1)
    for s in [rng.getrandbits(260) for _ in range(20)] + EDGE_SCALARS:
        expected = window_base_mult(s).encode()
        assert group.base_mult(s).encode() == expected
        assert (group.GENERATOR * s).encode() == expected
    top = group.ORDER - 1
    assert (group.GENERATOR * top + group.GENERATOR).is_identity()


def test_double_mult_matches_separate():
    rng = random.Random(2)
    p = group.GENERATOR * 7
    q = group.GENERATOR * 11
    for _ in range(10):
        a = rng.getrandbits(253) % group.ORDER
        b = rng.getrandbits(253) % group.ORDER
        assert group.double_mult(a, p, b, q) == p * a + q * b
        assert group.double_mult(a, p, b, q).encode() == (
            window_base_mult(7 * a + 11 * b).encode()
        )


# Products against the window-table oracle, which shares no code with the
# kernel: with P_i = k_i * G, sum a_i * P_i must equal (sum a_i k_i) * G.
# The kernel takes m = n/_DIV and needs an X25519 key for +-m and for
# +-(m+1).  For m = 2^254 + 8(2^251 + 1) neither sign of m has one, so the
# kernel doubles its base and halves m first; for m = 7, m has a key and
# m + 1 = 8 has none.
NEITHER_SIGN_FITS = group._DIV * (2**254 + 8 * (2**251 + 1)) % group.ORDER
ONLY_NEXT_MISFITS = group._DIV * 7
EDGE_SCALARS = [
    0, 1, 8, 16, 17, group.ORDER - 8, group.ORDER - 1, group.ORDER, group.ORDER + 5,
    group.ORDER + 8, 2**256 - 1, NEITHER_SIGN_FITS, ONLY_NEXT_MISFITS,
]
# A ristretto255 representative may carry any point of the 4-torsion, in
# extended coordinates: (0, -1) and (+-sqrt(-1), 0).
TORSION_4 = [
    (0, group.P - 1, 1, 0),
    (group.SQRT_M1, 0, 1, 0),
    (group.P - group.SQRT_M1, 0, 1, 0),
]


def _assert_msm_matches_base(scalars, ks):
    points = [window_base_mult(k) for k in ks]
    expected = window_base_mult(sum(a * k for a, k in zip(scalars, ks)))
    assert group.multi_mult(scalars, points).encode() == expected.encode()


def _assert_mul_matches_base(n, k, torsion=group._IDENTITY):
    p = group.GroupElement(group._add(window_base_mult(k)._pt, torsion))
    assert p.encode() == window_base_mult(k).encode()
    assert (p * n).encode() == window_base_mult(n * k).encode()


def test_mul_negates_r_for_m_of_order_minus_one():
    # n = ORDER - 16 makes m = n/16 = ORDER - 1, which _mul answers by
    # negating R without a ladder.
    n = group.ORDER - 16
    assert n * pow(group._DIV, -1, group.ORDER) % group.ORDER == group.ORDER - 1
    assert (group.GENERATOR * n).encode() == window_base_mult(n).encode()
    for torsion in [group._IDENTITY] + TORSION_4:
        _assert_mul_matches_base(n, 0xDEADBEEF, torsion)


def test_constructed_scalars_reach_the_retry():
    inv16 = pow(16, -1, group.ORDER)
    assert group._clamped(NEITHER_SIGN_FITS * inv16 % group.ORDER) is None
    m = ONLY_NEXT_MISFITS * inv16 % group.ORDER
    assert group._clamped(m) is not None and group._clamped(m + 1) is None


@pytest.mark.parametrize("n", range(9))
def test_multi_mult_matches_base_mult(n):
    rng = random.Random(100 + n)
    ks = [rng.getrandbits(256) % group.ORDER for _ in range(n)]
    scalars = [EDGE_SCALARS[(n + i) % len(EDGE_SCALARS)] for i in range(n)]
    _assert_msm_matches_base(scalars, ks)
    _assert_msm_matches_base([rng.getrandbits(256) for _ in range(n)], ks)


@pytest.mark.parametrize("a", EDGE_SCALARS)
def test_multi_mult_edge_scalars(a):
    k = 0x1234567890ABCDEF
    _assert_msm_matches_base([a], [k])
    _assert_msm_matches_base([a, a + 3], [k, 77])
    assert (window_base_mult(k) * a).encode() == window_base_mult(a * k).encode()


@pytest.mark.parametrize("n", EDGE_SCALARS)
def test_mul_edge_scalars_with_torsion(n):
    for k in (1, 0xDEADBEEF, group.ORDER - 2):
        for t in TORSION_4:
            _assert_mul_matches_base(n, k, t)


def test_multi_mult_cancelling_pair_is_identity():
    p = window_base_mult(987654321)
    assert group.multi_mult([5, 5], [p, p * (group.ORDER - 1)]).is_identity()
    assert group.double_mult(5, p, group.ORDER - 5, p).is_identity()


def test_multi_mult_identity_input_point():
    p = window_base_mult(31337)
    for a in EDGE_SCALARS:
        assert (group.IDENTITY * a).is_identity()
        assert group.multi_mult([a, 9], [group.IDENTITY, p]).encode() == (
            window_base_mult(9 * 31337).encode()
        )
        for t in TORSION_4:
            assert (group.GroupElement(t) * a).encode() == bytes(32)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**256 - 1), st.integers(0, group.ORDER - 1)),
                max_size=8))
def test_multi_mult_property(pairs):
    _assert_msm_matches_base([a for a, _ in pairs], [k for _, k in pairs])


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**256 - 1), st.integers(1, group.ORDER - 1),
       st.sampled_from([group._IDENTITY] + TORSION_4))
def test_mul_property(n, k, torsion):
    _assert_mul_matches_base(n, k, torsion)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**256 - 1), st.integers(0, 2**256 - 1),
       st.integers(1, group.ORDER - 1), st.sampled_from([group._IDENTITY] + TORSION_4))
def test_encode_matches_sqrt_encoder(a, b, k, torsion):
    p = group.GroupElement(group._add(window_base_mult(k)._pt, torsion))
    q = window_base_mult(k + 1)
    identities = [
        group.multi_mult([0, 0], [p, q]),
        group.multi_mult([a, group.ORDER - a], [p, p]),
    ]
    for e in identities:
        assert e.encode() == bytes(32)
    no_half = [p, p + q, group.GENERATOR + group.GENERATOR,
               group.hash_to_group(k.to_bytes(32, "little"), b"dst")]
    products = [p * a, group.base_mult(a), group.multi_mult([a, b], [p, q])]
    for e in identities + no_half + products:
        assert e.encode() == sqrt_encode(e._pt)


def test_decode_encode_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        e = group.GENERATOR * (rng.getrandbits(252) % group.ORDER)
        enc = e.encode()
        assert group.GroupElement.decode(enc).encode() == enc


@pytest.mark.parametrize(
    "bad_hex",
    [
        "01" + "00" * 31,            # negative (odd) field element
        "ed" + "ff" * 30 + "7f",     # s = p, non-canonical
        "ee" + "ff" * 30 + "7f",     # s = p + 1
        "ff" * 32,                   # way out of range
        "02" + "00" * 31,            # s=2: canonical field element, no point
    ],
)
def test_decode_rejects_bad_encodings(bad_hex):
    with pytest.raises(group.DecodeError):
        group.GroupElement.decode(bytes.fromhex(bad_hex))


def test_decode_rejects_wrong_length():
    with pytest.raises(group.DecodeError):
        group.GroupElement.decode(b"\x00" * 31)


def test_one_way_map_vector():
    # Appendix A.2, first "element derivation" input.
    uniform = hashlib.sha512(
        b"Ristretto is traditionally a short shot of espresso coffee"
    ).digest()
    elt = group.GroupElement.from_uniform_bytes(uniform)
    assert (
        elt.encode().hex()
        == "3066f82a1a747d45120d1740f14358531a8f04bbffe6a819f86dfe50f44a0a46"
    )


def test_map_outputs_valid_elements():
    for i in range(40):
        uniform = hashlib.sha512(bytes([i]) * 3).digest()
        e = group.GroupElement.from_uniform_bytes(uniform)
        assert group.GroupElement.decode(e.encode()) == e


def test_exponent_algebra():
    rng = random.Random(4)
    h = group.hash_to_group(b"some value", b"dst")
    r = group.random_scalar(rng)
    k = group.random_scalar(rng)
    blinded = h * r
    evaluated = blinded * k
    unblinded = evaluated * group.scalar_inverse(r)
    assert unblinded == h * k
    assert unblinded.encode() == (h * k).encode()


def test_hash_to_group_domain_separation():
    a = group.hash_to_group(b"x", b"domain-1")
    b = group.hash_to_group(b"x", b"domain-2")
    assert a.encode() != b.encode()


@pytest.mark.parametrize("size", [0, 31, 33])
def test_decode_scalar_refuses_wrong_length(size):
    with pytest.raises(group.DecodeError, match="^scalar encoding must be 32 bytes$"):
        group.decode_scalar(bytes(size))


def test_scalar_encoding():
    s = 1234567890123456789
    assert group.decode_scalar(group.encode_scalar(s)) == s
    with pytest.raises(group.DecodeError):
        group.decode_scalar(group.ORDER.to_bytes(32, "little"))
    with pytest.raises(ValueError):
        group.scalar_inverse(0)
