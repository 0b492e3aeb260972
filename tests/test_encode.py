"""Client encoding tests: sub-randomness, shares, ciphertexts, submissions."""

import hashlib
import random

import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from hypothesis import given, settings
from hypothesis import strategies as st

from nebula import oprf, sharing, wire
from nebula.encode import (
    CIPHERTEXT_AT,
    HEADER_SIZE,
    MAX_VALUE_SIZE,
    TAG_SIZE,
    ZERO_NONCE,
    KeyShare,
    Submission,
    build_submission,
    decrypt_with_key,
    encrypt_value,
    encryption_key,
    make_share,
    parse_randomness,
    participate,
    submission_wire_size,
)
from nebula.params import DpBudget, derive_params


@pytest.fixture(scope="module")
def params():
    return derive_params(
        DpBudget(1.0, 1e-8, 1.0, 1e-8, 1 / 6), overrides={"tsdlap_shift": 15}
    )


@pytest.fixture(scope="module")
def kp():
    return oprf.keygen(b"\x21" * 32)


class TestTaggedHash:
    @given(
        st.sampled_from([hashlib.sha256, hashlib.sha512]),
        st.binary(max_size=40),
        st.lists(st.binary(max_size=40), max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_explicit_framing(self, ctor, domain, parts):
        framed = len(domain).to_bytes(2, "big") + domain + b"".join(parts)
        assert sharing.tagged_hash(ctor, domain, *parts) == ctor(framed).digest()

    @given(st.binary(max_size=40), st.binary(min_size=1, max_size=40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_length_prefix_separates_domains(self, domain, data, draw):
        # Move the boundary between domain and data: the concatenation stays
        # the same, and only the length prefix tells the pairs apart.
        cut = draw.draw(st.integers(1, len(data)))
        other_domain, other_data = domain + data[:cut], data[cut:]
        assert domain + data == other_domain + other_data
        assert sharing.tagged_hash(hashlib.sha256, domain, data) != sharing.tagged_hash(
            hashlib.sha256, other_domain, other_data
        )


class TestParseRandomness:
    def test_deterministic(self):
        r = b"\xaa" * 32
        assert parse_randomness(r) == parse_randomness(r)

    def test_flipping_input_changes_all_components(self):
        r = bytearray(b"\x55" * 32)
        a = parse_randomness(bytes(r))
        r[0] ^= 1
        b = parse_randomness(bytes(r))
        assert a.r1 != b.r1 and a.r2 != b.r2 and a.r3 != b.r3

    def test_components_pairwise_distinct(self):
        rng = random.Random(1)
        for _ in range(10_000):
            sub = parse_randomness(rng.randbytes(32))
            assert sub.r1 != sub.r2 != sub.r3 != sub.r1


class TestMakeShare:
    def test_threshold_shares_recover(self):
        rng = random.Random(2)
        r1, r2 = b"\x01" * 32, b"\x02" * 32
        tau = 6
        shares = [make_share(r1, r2, tau, rng) for _ in range(tau)]
        secret = sharing.interpolate_at_zero(
            [(s.x_coord, s.y_coord) for s in shares]
        )
        assert secret == sharing.secret_from_key_seed(r1)

    def test_below_threshold_underdetermined(self):
        # tau-1 points plus any guessed constant term always interpolate to a
        # valid polynomial, so the shares pin down nothing about the secret.
        rng = random.Random(3)
        r1, r2 = b"\x03" * 32, b"\x04" * 32
        tau = 5
        shares = [make_share(r1, r2, tau, rng) for _ in range(tau - 1)]
        pts = [(s.x_coord, s.y_coord) for s in shares]
        for guess in (0, 1, 12345, sharing.FIELD_PRIME - 1):
            # Fit through the guess at x=0 plus the tau-1 real points: any
            # such interpolation must agree with all given points.
            fitted = _poly_through([(0, guess)] + pts)
            for x, y in pts:
                assert _poly_eval(fitted, x) == y

    def test_same_seeds_same_polynomial_fresh_point(self):
        rng = random.Random(4)
        r1, r2 = b"\x05" * 32, b"\x06" * 32
        tau = 4
        a = make_share(r1, r2, tau, rng)
        b = make_share(r1, r2, tau, rng)
        assert a.x_coord != b.x_coord
        coeffs = sharing.polynomial_from_seeds(r1, r2, tau)
        assert sharing.polynomial_eval(coeffs, a.x_coord) == a.y_coord
        assert sharing.polynomial_eval(coeffs, b.x_coord) == b.y_coord

    def test_evaluation_point_never_zero(self):
        rng = random.Random(5)
        for _ in range(200):
            assert make_share(b"\x07" * 32, b"\x08" * 32, 3, rng).x_coord != 0

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_polynomial_needs_a_positive_threshold(self, threshold):
        with pytest.raises(ValueError, match="^threshold must be at least 1$"):
            sharing.polynomial_from_seeds(b"\x05" * 32, b"\x06" * 32, threshold)


class TestInterpolateAtZero:
    @given(data=st.data(), t=st.integers(min_value=1, max_value=32))
    @settings(max_examples=100, deadline=None)
    def test_recovers_constant_term_in_any_order(self, data, t):
        p = sharing.FIELD_PRIME
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=t, max_size=t))
        xs = data.draw(st.lists(st.integers(1, p - 1), min_size=t, max_size=t, unique=True))
        points = data.draw(st.permutations([(x, _poly_eval(coeffs, x)) for x in xs]))
        assert sharing.interpolate_at_zero(points) == coeffs[0]

    @given(
        xs=st.lists(
            st.integers(1, sharing.FIELD_PRIME - 1), min_size=1, max_size=31, unique=True
        ),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_duplicate_or_zero_x_raises(self, xs, data):
        points = [(x, x + 1) for x in xs]
        dup = data.draw(st.sampled_from(points))
        with pytest.raises(ValueError, match="duplicate"):
            sharing.interpolate_at_zero(data.draw(st.permutations(points + [dup])))
        with pytest.raises(ValueError, match="zero"):
            sharing.interpolate_at_zero(data.draw(st.permutations(points + [(0, 5)])))


def _poly_through(points):
    """Lagrange coefficients through the given points (small, test-only)."""
    p = sharing.FIELD_PRIME
    n = len(points)
    coeffs = [0] * n
    for i, (xi, yi) in enumerate(points):
        # numerator polynomial prod_{j != i} (x - xj), scaled
        num = [1]
        den = 1
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            num = _poly_mul(num, [(-xj) % p, 1])
            den = den * (xi - xj) % p
        scale = yi * pow(den, p - 2, p) % p
        for d in range(len(num)):
            coeffs[d] = (coeffs[d] + scale * num[d]) % p
    return coeffs


def _poly_mul(a, b):
    p = sharing.FIELD_PRIME
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_eval(coeffs, x):
    p = sharing.FIELD_PRIME
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


class TestEncryptValue:
    def test_roundtrip(self):
        r1 = b"\x11" * 32
        ct = encrypt_value(r1, b"payload")
        header, value = decrypt_with_key(encryption_key(r1), ct)
        assert header == r1
        assert value == b"payload"

    def test_wrong_key_fails_authentication(self):
        r1 = bytearray(b"\x22" * 32)
        ct = encrypt_value(bytes(r1), b"payload")
        r1[0] ^= 1
        with pytest.raises(InvalidTag):
            decrypt_with_key(encryption_key(bytes(r1)), ct)

    def test_identical_inputs_identical_ciphertexts(self):
        # Clients sharing a value must emit byte-identical ciphertexts.
        r1 = b"\x33" * 32
        assert encrypt_value(r1, b"same") == encrypt_value(r1, b"same")

    def test_oversize_value_rejected(self):
        with pytest.raises(ValueError):
            encrypt_value(b"\x44" * 32, b"x" * (MAX_VALUE_SIZE + 1))

    def test_plaintext_shorter_than_header_rejected(self):
        # Authentic under the key, but too short to hold the key seed.
        key = encryption_key(b"\x55" * 32)
        ct = ChaCha20Poly1305(key).encrypt(ZERO_NONCE, bytes(HEADER_SIZE - 1), None)
        with pytest.raises(ValueError, match="^plaintext shorter than key-seed header$"):
            decrypt_with_key(key, ct)


class TestParticipate:
    def test_zero_never(self):
        rng = random.Random(6)
        assert not any(participate(0.0, rng) for _ in range(1000))

    def test_one_always(self):
        rng = random.Random(7)
        assert all(participate(1.0, rng) for _ in range(1000))

    def test_empirical_rate(self):
        rng = random.Random(20240303)
        n = 10**6
        p = 0.105
        hits = sum(participate(p, rng) for _ in range(n))
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(hits / n - p) <= 3 * sigma

    def test_domain_check(self):
        with pytest.raises(ValueError):
            participate(1.5, random.Random(0))


class TestBuildSubmission:
    def test_wire_size_within_bound(self, params, kp):
        rng = random.Random(8)
        x = b"x" * 42  # representative payload size
        r = oprf.evaluate_directly(x, kp)
        sub = build_submission(x, r, params, rng)
        assert len(sub.to_bytes()) <= 300
        assert len(sub.to_bytes()) == submission_wire_size(42)

    def test_threshold_copies_decode(self, params, kp):
        from nebula.aggregate import decode_submissions

        rng = random.Random(9)
        x = b"popular"
        r = oprf.evaluate_directly(x, kp)
        subs = [build_submission(x, r, params, rng) for _ in range(params.threshold)]
        report = decode_submissions(subs, params.threshold, params)
        assert report.revealed == {(x,): params.threshold}

    def test_distinct_values_distinct_tags(self, randomness_for):
        tags = set()
        for i in range(10_000):
            tags.add(parse_randomness(randomness_for(f"v{i}".encode())).r3)
        assert len(tags) == 10_000

    def test_serialization_roundtrip(self, params, kp):
        rng = random.Random(11)
        r = oprf.evaluate_directly(b"roundtrip", kp)
        sub = build_submission(b"roundtrip", r, params, rng)
        assert Submission.from_bytes(sub.to_bytes()) == sub

    @staticmethod
    def _payload(size):
        # A submission that keeps the rules, its ciphertext making it ``size`` bytes.
        return Submission(bytes(size - CIPHERTEXT_AT), KeyShare(1, 2), bytes(TAG_SIZE)).to_bytes()

    def test_largest_frame_payload_parses(self):
        payload = self._payload(wire.MAX_PAYLOAD_SIZE)
        assert len(payload) == wire.MAX_PAYLOAD_SIZE
        assert Submission.from_bytes(payload).to_bytes() == payload

    def test_payload_over_the_frame_limit_refused_as_framing_refuses_it(self):
        # Ingest never receives such a payload, so the parser refuses it too.
        payload = self._payload(wire.MAX_PAYLOAD_SIZE + 1)
        with pytest.raises(wire.FrameError) as framed:
            wire.encode_frame(wire.MSG_SUBMISSION, payload)
        with pytest.raises(wire.FrameError) as parsed:
            Submission.from_bytes(payload)
        assert (type(parsed.value), str(parsed.value)) == (type(framed.value), str(framed.value))

    def test_no_identifier_bytes(self, params, kp):
        # The submission consists solely of tag, share point, ciphertext;
        # nothing identifies the submitting client.
        rng = random.Random(12)
        r = oprf.evaluate_directly(b"anon", kp)
        a = build_submission(b"anon", r, params, rng)
        b = build_submission(b"anon", r, params, rng)
        blob_a, blob_b = a.to_bytes(), b.to_bytes()
        # same value: identical tag and ciphertext, fresh share point only
        assert blob_a[:32] == blob_b[:32]
        assert blob_a[68:] == blob_b[68:]
        assert blob_a[32:64] != blob_b[32:64]


class TestTagConsistency:
    def test_tag_is_deterministic_per_value_and_key(self, kp):
        r1 = oprf.evaluate_directly(b"value", kp)
        r2 = oprf.evaluate_directly(b"value", kp)
        assert parse_randomness(r1).r3 == parse_randomness(r2).r3

    def test_tag_differs_across_server_keys(self):
        kp1 = oprf.keygen(b"\x31" * 32)
        kp2 = oprf.keygen(b"\x32" * 32)
        t1 = parse_randomness(oprf.evaluate_directly(b"value", kp1)).r3
        t2 = parse_randomness(oprf.evaluate_directly(b"value", kp2)).r3
        assert t1 != t2
