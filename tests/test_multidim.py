"""Chained-prefix encoding and layered decoding tests."""

import random
import time

import pytest

from nebula import oprf
from nebula.encode import submission_wire_size
from nebula.harness import value_randomness
from nebula.multidim import (
    MAX_ATTRIBUTES,
    SuperSubmission,
    decode_multidim,
    encode_multidim,
    geo_attributes,
    layered_reports_from_csv,
    layered_reports_to_csv,
    make_prefixes,
)
from nebula.params import DpBudget, derive_params


def make_params(threshold):
    return derive_params(
        DpBudget(1.0, 1e-8, 1.0, 1e-8, 1 / 6),
        overrides={"threshold": threshold, "tsdlap_shift": 15},
    )


def encode_record(attrs, params, kp, rng):
    chain = make_prefixes(attrs)
    rs = [value_randomness(p, kp) for p in chain.prefixes]
    return encode_multidim(attrs, rs, params, rng)


class TestMakePrefixes:
    def test_two_attributes(self):
        chain = make_prefixes([b"UK", b"iOS"])
        assert len(chain.prefixes) == 2
        assert chain.prefixes[0] == b"\x02\x00UK"
        assert chain.prefixes[1] == b"\x02\x00UK\x03\x00iOS"

    def test_single_attribute_degenerate(self):
        chain = make_prefixes([b"only"])
        assert chain.prefixes == (b"\x04\x00only",)

    def test_framing_prevents_boundary_collisions(self):
        a = make_prefixes([b"a", b"bc"])
        b = make_prefixes([b"ab", b"c"])
        assert a.prefixes[0] != b.prefixes[0]
        assert a.prefixes[1] != b.prefixes[1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_prefixes([])

    def test_attribute_cap(self):
        with pytest.raises(ValueError):
            make_prefixes([b"x"] * (MAX_ATTRIBUTES + 1))


class TestEncodeMultidim:
    def test_per_attribute_size_bound(self, shared_kp):
        params = make_params(20)
        rng = random.Random(1)
        attrs = [f"attribute-{i}".encode() for i in range(8)]
        super_sub = encode_record(attrs, params, shared_kp, rng)
        single = encode_record(attrs[:1], params, shared_kp, rng)
        assert len(super_sub.to_bytes()) <= 8 * 300
        assert len(super_sub.to_bytes()) <= 8 * (len(single.to_bytes()) + 64)

    def test_each_attribute_adds_one_wrapped_layer(self, shared_kp):
        # Attribute k adds exactly a 4-byte length and the AEAD (16-byte tag)
        # of its own layer's submission, and a record stays <= 300 B per
        # attribute, for 1..8 attributes.
        params = make_params(20)
        rng = random.Random(6)
        attrs = [f"attr{i}".encode() * (i + 1) for i in range(8)]
        size = 1 + submission_wire_size(len(attrs[0]))
        for k in range(1, 9):
            payload = encode_record(attrs[:k], params, shared_kp, rng).to_bytes()
            if k > 1:
                size += 4 + submission_wire_size(len(attrs[k - 1])) + 16
            assert len(payload) == size
            assert len(payload) <= 300 * k

    def test_encode_under_ten_ms(self, shared_kp):
        params = make_params(20)
        rng = random.Random(7)
        for k in range(1, 9):
            attrs = [f"attr{i:02d}-payload".encode() for i in range(k)]
            rs = [value_randomness(p, shared_kp) for p in make_prefixes(attrs).prefixes]
            t0 = time.perf_counter()
            for _ in range(3):
                encode_multidim(attrs, rs, params, rng)
            assert (time.perf_counter() - t0) / 3 < 0.010

    def test_shared_first_attribute_shares_layer1_tag(self, shared_kp):
        params = make_params(20)
        rng = random.Random(2)
        a = encode_record([b"UK", b"iOS"], params, shared_kp, rng)
        b = encode_record([b"UK", b"android"], params, shared_kp, rng)
        assert a.layer1.tag == b.layer1.tag
        # layer-2 wrapped blobs differ (different prefix values)
        assert a.wrapped_layers[0] != b.wrapped_layers[0]

    def test_key_chain_unlocks_every_layer(self, shared_kp):
        from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

        from nebula.encode import Submission, encryption_key, parse_randomness

        params = make_params(20)
        rng = random.Random(3)
        attrs = [b"x1", b"x2", b"x3"]
        chain = make_prefixes(attrs)
        rs = [value_randomness(p, shared_kp) for p in chain.prefixes]
        super_sub = encode_multidim(attrs, rs, params, rng)
        for i in range(1, len(attrs)):
            key = encryption_key(parse_randomness(rs[i - 1]).r1)
            nonce = (i + 1).to_bytes(12, "big")
            inner = Submission.from_bytes(
                ChaCha20Poly1305(key).decrypt(nonce, super_sub.wrapped_layers[i - 1], None)
            )
            assert inner.tag == parse_randomness(rs[i]).r3

    def test_randomness_count_mismatch_rejected(self, shared_kp):
        params = make_params(20)
        with pytest.raises(ValueError):
            encode_multidim([b"a", b"b"], [b"\x00" * 32], params, random.Random(0))

    def test_serialization_roundtrip(self, shared_kp):
        params = make_params(20)
        rng = random.Random(4)
        super_sub = encode_record([b"one", b"two", b"three"], params, shared_kp, rng)
        assert SuperSubmission.from_bytes(super_sub.to_bytes()) == super_sub


class TestDecodeMultidim:
    def test_threshold_per_layer_halting(self, shared_kp):
        # 30 share the first attribute but split 15/15 on the second:
        # layer 1 reveals, layer 2 stays sealed.
        params = make_params(20)
        rng = random.Random(5)
        supers = [
            encode_record([b"F", b"married"], params, shared_kp, rng) for _ in range(15)
        ] + [
            encode_record([b"F", b"single"], params, shared_kp, rng) for _ in range(15)
        ]
        reports = decode_multidim(supers, 20, params)
        assert reports[0].revealed == {(b"F",): 30}
        assert reports[1].revealed == {}
        assert reports[1].unrevealed_multiplicities == {15: 2}

    def test_single_layer_reduces_to_plain_aggregation(self, shared_kp):
        from nebula.aggregate import decode_submissions
        from nebula.encode import build_submission

        params = make_params(4)
        rng = random.Random(6)
        values = {b"a": 6, b"b": 3}
        supers = []
        plain = []
        for v, n in values.items():
            r = value_randomness(make_prefixes([v]).prefixes[0], shared_kp)
            for _ in range(n):
                supers.append(encode_record([v], params, shared_kp, rng))
        rng = random.Random(6)  # identical share stream
        for v, n in values.items():
            r = value_randomness(make_prefixes([v]).prefixes[0], shared_kp)
            for _ in range(n):
                plain.append(build_submission(v, r, params, rng))
        reports = decode_multidim(supers, 4, params)
        flat = decode_submissions(plain, 4, params)
        assert reports[0].revealed == flat.revealed
        assert reports[0].unrevealed_multiplicities == flat.unrevealed_multiplicities

    def test_revealed_prefix_monotonicity(self, shared_kp):
        # Any revealed (i+1)-prefix truncates to a revealed i-prefix.
        params = make_params(4)
        rng = random.Random(7)
        pool = [
            [b"A", b"x", b"1"],
            [b"A", b"x", b"2"],
            [b"A", b"y", b"1"],
            [b"B", b"x", b"1"],
        ]
        supers = []
        pick = random.Random(8)
        for _ in range(120):
            supers.append(encode_record(pick.choice(pool), params, shared_kp, rng))
        reports = decode_multidim(supers, 4, params)
        for depth in range(1, len(reports)):
            parents = set(reports[depth - 1].revealed)
            for path in reports[depth].revealed:
                assert path[:depth] in parents

    def test_deep_layer_counts(self, shared_kp):
        params = make_params(3)
        rng = random.Random(9)
        supers = [
            encode_record([b"r", b"s", b"t", b"u"], params, shared_kp, rng)
            for _ in range(5)
        ]
        reports = decode_multidim(supers, 3, params)
        assert reports[3].revealed == {(b"r", b"s", b"t", b"u"): 5}

    def test_inner_layers_flagged_no_dummy_noise(self, shared_kp):
        params = make_params(3)
        rng = random.Random(10)
        supers = [encode_record([b"p", b"q"], params, shared_kp, rng) for _ in range(4)]
        reports = decode_multidim(supers, 3, params)
        assert reports[0].dummy_noise_applied is True
        assert reports[1].dummy_noise_applied is False

    def test_inner_tags_independent_across_parents(self, shared_kp):
        # The same second attribute under different parents yields unrelated
        # inner tags (randomness is per prefix value, not per attribute).
        from nebula.encode import parse_randomness
        from nebula.harness import value_randomness

        r_a = value_randomness(make_prefixes([b"A", b"shared"]).prefixes[1], shared_kp)
        r_b = value_randomness(make_prefixes([b"B", b"shared"]).prefixes[1], shared_kp)
        assert parse_randomness(r_a).r3 != parse_randomness(r_b).r3

    def test_tampered_wrapped_layer_counted_malformed(self, shared_kp):
        params = make_params(3)
        rng = random.Random(11)
        supers = [encode_record([b"m", b"n"], params, shared_kp, rng) for _ in range(4)]
        broken = supers[0]
        blob = bytearray(broken.wrapped_layers[0])
        blob[-1] ^= 1
        supers[0] = SuperSubmission(
            layer1=broken.layer1, wrapped_layers=(bytes(blob),)
        )
        reports = decode_multidim(supers, 3, params)
        assert reports[0].revealed == {(b"m",): 4}
        assert reports[1].malformed_groups == 1
        assert reports[1].revealed == {(b"m", b"n"): 3}

    @pytest.mark.parametrize("rule", ["x_zero", "ct_len_mismatch"])
    def test_inner_submission_breaking_a_rule_counted_per_member(self, shared_kp, rule):
        # Each layer-2 blob authenticates under the true layer-1 key but
        # holds a submission the record check refuses: one malformed per
        # member at layer 2, and the decode goes on.
        from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

        from nebula.encode import encryption_key, parse_randomness
        from nebula.multidim import _wrap_nonce

        params = make_params(3)
        rng = random.Random(13)
        attrs = [b"m", b"n"]
        supers = [encode_record(attrs, params, shared_kp, rng) for _ in range(4)]
        r1 = value_randomness(make_prefixes(attrs).prefixes[0], shared_kp)
        aead = ChaCha20Poly1305(encryption_key(parse_randomness(r1).r1))
        bad = []
        for sup in supers:
            inner = bytearray(aead.decrypt(_wrap_nonce(2), sup.wrapped_layers[0], None))
            if rule == "x_zero":
                inner[32:48] = bytes(16)
            else:
                ct_len = int.from_bytes(inner[64:68], "little")
                inner[64:68] = (ct_len + 1).to_bytes(4, "little")
            blob = aead.encrypt(_wrap_nonce(2), bytes(inner), None)
            bad.append(SuperSubmission(layer1=sup.layer1, wrapped_layers=(blob,)))
        reports = decode_multidim(bad, 3, params)
        assert reports[0].revealed == {(b"m",): 4}
        assert reports[1].malformed_groups == 4
        assert reports[1].revealed == {} and reports[1].unrevealed_multiplicities == {}


class TestLayeredCsv:
    def test_roundtrip(self, shared_kp):
        params = make_params(3)
        rng = random.Random(12)
        supers = [encode_record([b"g", b"h"], params, shared_kp, rng) for _ in range(4)]
        supers += [encode_record([b"g", b"i"], params, shared_kp, rng) for _ in range(2)]
        reports = decode_multidim(supers, 3, params)
        text = layered_reports_to_csv(reports)
        back = layered_reports_from_csv(text)
        assert len(back) == len(reports)
        for a, b in zip(back, reports):
            assert a.revealed == b.revealed
            assert a.unrevealed_multiplicities == b.unrevealed_multiplicities
            assert a.dummy_noise_applied == b.dummy_noise_applied


class TestGeoAttributes:
    def test_eight_attributes(self):
        attrs = geo_attributes("TR", 41.029717, 28.974420)
        assert len(attrs) == 8
        assert attrs[0] == b"TR"

    def test_rounding_to_three_decimals(self):
        a = geo_attributes("US", 10.00049, -75.0)
        b = geo_attributes("US", 10.0, -75.0)
        assert a == b

    def test_nearby_points_share_coarse_attributes(self):
        a = geo_attributes("US", 40.7128, -74.0060)
        b = geo_attributes("US", 40.7589, -73.9851)
        assert a[:3] == b[:3]
        assert a != b

    def test_hemisphere_disambiguation(self):
        north = geo_attributes("EC", 1.0, -78.0)
        south = geo_attributes("EC", -1.0, -78.0)
        assert north != south
