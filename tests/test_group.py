"""Group backend tests against the published ristretto255 vectors (RFC 9496)."""

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


def test_small_multiples_by_addition():
    acc = group.IDENTITY
    for expected in SMALL_MULTIPLES:
        assert acc.encode().hex() == expected
        acc = acc + group.GENERATOR


def test_small_multiples_by_scalar_mult():
    for n, expected in enumerate(SMALL_MULTIPLES):
        assert (group.GENERATOR * n).encode().hex() == expected
        assert group.base_mult(n).encode().hex() == expected


def test_base_mult_matches_generic_for_large_scalars():
    rng = random.Random(1)
    for _ in range(20):
        s = rng.getrandbits(260) % group.ORDER
        assert group.base_mult(s).encode() == (group.GENERATOR * s).encode()
    top = group.ORDER - 1
    assert group.base_mult(top).encode() == (group.GENERATOR * top).encode()
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
            group.base_mult((7 * a + 11 * b) % group.ORDER).encode()
        )


# Multi-scalar multiplication against the fixed-base path, which shares no
# code with it: with P_i = k_i * G, sum a_i * P_i must equal (sum a_i k_i) * G.
EDGE_SCALARS = [
    0, 1, 16, 17, group.ORDER - 1, group.ORDER, group.ORDER + 5, 2**256 - 1,
]


def _assert_msm_matches_base(scalars, ks):
    points = [group.base_mult(k) for k in ks]
    expected = group.base_mult(sum(a * k for a, k in zip(scalars, ks)) % group.ORDER)
    assert group.multi_mult(scalars, points).encode() == expected.encode()


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
    assert (group.base_mult(k) * a).encode() == group.base_mult(a * k % group.ORDER).encode()


def test_multi_mult_cancelling_pair_is_identity():
    p = group.base_mult(987654321)
    assert group.multi_mult([5, 5], [p, p * (group.ORDER - 1)]).is_identity()
    assert group.double_mult(5, p, group.ORDER - 5, p).is_identity()


def test_multi_mult_identity_input_point():
    p = group.base_mult(31337)
    for a in EDGE_SCALARS:
        assert (group.IDENTITY * a).is_identity()
        assert group.multi_mult([a, 9], [group.IDENTITY, p]).encode() == (
            group.base_mult(9 * 31337).encode()
        )


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**256 - 1), st.integers(0, group.ORDER - 1)),
                max_size=8))
def test_multi_mult_property(pairs):
    _assert_msm_matches_base([a for a, _ in pairs], [k for _, k in pairs])


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


def test_scalar_encoding():
    s = 1234567890123456789
    assert group.decode_scalar(group.encode_scalar(s)) == s
    with pytest.raises(group.DecodeError):
        group.decode_scalar(group.ORDER.to_bytes(32, "little"))
    with pytest.raises(ValueError):
        group.scalar_inverse(0)
