"""The whole decode against an independent reference decoder.

``oracle_decode`` is written from README.md's record layout and the paper's
recovery rule, sharing no decode code with the program: it parses every
record into tuples, groups them with a dict, sorts each group by (x, y),
takes the first threshold distinct x, interpolates by textbook Lagrange,
decrypts, re-derives the header and recurses per recovered branch.  It
derives the AEAD key and the header's field secret with ``hashlib`` from
README.md's tagged-hash framing, and reuses only the AEAD.
A Hypothesis strategy builds multisets with the program's encoder, perturbs
them, and ``service.decode_log`` must give the oracle's reports and CSV.
"""

import hashlib
import random
import struct
from dataclasses import replace

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from nebula import dummy, service, wire
from nebula.aggregate import HistogramReport, reports_to_csv
from nebula.encode import KeyShare, build_submission, encryption_key, parse_randomness
from nebula.harness import value_randomness
from nebula.multidim import SuperSubmission, encode_multidim, make_prefixes
from nebula.params import DpBudget, derive_params

# --- the reference decoder --------------------------------------------------

PRIME = 2**128 - 159


def parse_submission(b: bytes):
    """(tag, x, y, ciphertext) of the submission filling ``b``, or None if it
    breaks a rule."""
    if len(b) < 68:
        return None
    tag, x, y = b[:32], int.from_bytes(b[32:48], "big"), int.from_bytes(b[48:64], "big")
    (ct_len,) = struct.unpack("<I", b[64:68])
    if not 0 < x < PRIME or y >= PRIME or len(b) != 68 + ct_len:
        return None
    return tag, x, y, b[68:]


def parse_log(log: bytes):
    """Every record as (layer-1 submission, [wrapped blobs]), and whether
    any record is chained."""
    records, chained, at = [], False, 0
    while at < len(log):
        version, msg_type, length = struct.unpack_from("<BBI", log, at)
        payload, at = log[at + 6 : at + 6 + length], at + 6 + length
        assert version == 1 and msg_type in (3, 4)
        if msg_type == 3:
            records.append((parse_submission(payload), []))
            continue
        chained = True
        (ct_len,) = struct.unpack_from("<I", payload, 1 + 64)
        pos = 1 + 68 + ct_len
        blobs = []
        for _ in range(payload[0] - 1):
            (n,) = struct.unpack_from("<I", payload, pos)
            blobs.append(payload[pos + 4 : pos + 4 + n])
            pos += 4 + n
        assert pos == len(payload)
        records.append((parse_submission(payload[1 : 1 + 68 + ct_len]), blobs))
    assert all(sub is not None for sub, _ in records)
    return records, chained


def tagged_sha256(domain: bytes, data: bytes) -> bytes:
    """SHA-256 of the DST's 2-byte big-endian length, the DST, then the data."""
    return hashlib.sha256(len(domain).to_bytes(2, "big") + domain + data).digest()


def aead_key(secret: int) -> bytes:
    return tagged_sha256(b"nebula:v1:prg-key", secret.to_bytes(16, "big"))


def field_secret(r1: bytes) -> int:
    return int.from_bytes(tagged_sha256(b"nebula:v1:share-secret", r1), "big") % PRIME


def lagrange_at_zero(points) -> int:
    secret = 0
    for j, (xj, yj) in enumerate(points):
        num = den = 1
        for m, (xm, _) in enumerate(points):
            if m != j:
                num, den = num * xm % PRIME, den * (xm - xj) % PRIME
        secret += yj * num * pow(den, -1, PRIME)
    return secret % PRIME


def recover(group, threshold):
    """(value, key) of a group at or above the threshold, or None if malformed."""
    if any(sub[3] != group[0][0][3] for sub, _ in group):
        return None
    points = []
    for x, y in sorted((sub[1], sub[2]) for sub, _ in group):
        if not points or points[-1][0] != x:
            points.append((x, y))
    if len(points) < threshold:
        return None
    secret = lagrange_at_zero(points[:threshold])
    key = aead_key(secret)
    try:
        plain = ChaCha20Poly1305(key).decrypt(bytes(12), group[0][0][3], None)
    except InvalidTag:
        return None
    if len(plain) < 32 or field_secret(plain[:32]) != secret:
        return None
    return plain[32:], key


def oracle_decode(log: bytes, threshold: int, params):
    records, chained = parse_log(log)
    depth = max([1 + len(blobs) for _, blobs in records], default=1)
    reports = [HistogramReport(params_used=params, dummy_noise_applied=i == 0) for i in range(depth)]

    def decode(layer: int, members, path):
        report = reports[layer - 1]
        groups = {}
        for member in members:
            groups.setdefault(member[0][0], []).append(member)
        for group in groups.values():
            if len(group) < threshold:
                hist = report.unrevealed_multiplicities
                hist[len(group)] = hist.get(len(group), 0) + 1
                continue
            found = recover(group, threshold)
            if found is None:
                report.malformed_groups += 1
                continue
            value, key = found
            child = path + (value,)
            report.revealed[child] = report.revealed.get(child, 0) + len(group)
            inner = []
            for _, blobs in group:
                if not blobs:
                    continue
                nonce = (layer + 1).to_bytes(12, "big")
                try:
                    sub = parse_submission(ChaCha20Poly1305(key).decrypt(nonce, blobs[0], None))
                except InvalidTag:
                    sub = None
                if sub is None:
                    reports[layer].malformed_groups += 1
                else:
                    inner.append((sub, blobs[1:]))
            if inner:
                decode(layer + 1, inner, child)

    decode(1, records, ())
    return reports, reports_to_csv(reports, layered=chained)


# --- perturbed multisets from the program's encoder -------------------------

PLAIN_VALUES = (b"a", b"b", b"c")
CHAIN_ATTRS = (b"p", b"q")
PERTURBATIONS = ("dup_x", "dup_share", "foreign_ct", "off_poly", "bad_blob", "bad_inner")


def layer1(message):
    return message.layer1 if isinstance(message, SuperSubmission) else message


def with_layer1(message, sub):
    return replace(message, layer1=sub) if isinstance(message, SuperSubmission) else sub


def perturb(op, i, messages, attrs, kp):
    """Apply ``op`` to message ``i``, borrowing from another where it must."""
    m, sub = messages[i], layer1(messages[i])
    same = [layer1(o) for o in messages if o is not m and layer1(o).tag == sub.tag]
    other = [layer1(o) for o in messages if layer1(o).tag != sub.tag]
    if op == "dup_x" and same:
        sub = replace(sub, share=KeyShare(same[0].share.x_coord, sub.share.y_coord))
    elif op == "dup_share" and same:
        sub = replace(sub, share=same[0].share)
    elif op == "foreign_ct" and other:
        sub = replace(sub, ciphertext=other[0].ciphertext)
    elif op == "off_poly":
        sub = replace(sub, share=KeyShare(sub.share.x_coord, (sub.share.y_coord + 1) % PRIME))
    blobs = list(m.wrapped_layers) if isinstance(m, SuperSubmission) else []
    if op == "bad_blob" and blobs:
        blobs[-1] = blobs[-1][:-1] + bytes([blobs[-1][-1] ^ 1])
    elif op == "bad_inner" and blobs:
        # Authentic under the layer-1 key, but the inner x is zero.
        r = value_randomness(make_prefixes(attrs[i]).prefixes[0], kp)
        aead = ChaCha20Poly1305(encryption_key(parse_randomness(r).r1))
        try:
            inner = bytearray(aead.decrypt((2).to_bytes(12, "big"), blobs[0], None))
        except InvalidTag:  # already broken by an earlier perturbation
            return m
        inner[32:48] = bytes(16)
        blobs[0] = aead.encrypt((2).to_bytes(12, "big"), bytes(inner), None)
    m = with_layer1(m, sub)
    return replace(m, wrapped_layers=tuple(blobs)) if blobs else m


@st.composite
def perturbed_logs(draw, kp):
    threshold = draw(st.integers(2, 4))
    params = derive_params(
        DpBudget(1.0, 1e-8, 1.0, 1e-8, 1 / 6),
        overrides={"threshold": threshold, "tsdlap_shift": 1},
    )
    chained = draw(st.booleans())
    if chained:
        record = st.lists(st.sampled_from(CHAIN_ATTRS), min_size=1, max_size=3)
    else:
        record = st.sampled_from(PLAIN_VALUES).map(lambda v: [v])
    spec = draw(st.lists(st.tuples(record, st.integers(1, threshold + 2)), max_size=6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    attrs, messages = [], []
    for values, copies in spec:
        for _ in range(copies):
            if chained:
                rs = [value_randomness(p, kp) for p in make_prefixes(values).prefixes]
                messages.append(encode_multidim(values, rs, params, rng))
            else:
                messages.append(build_submission(values[0], value_randomness(values[0], kp), params, rng))
            attrs.append(values)
    if messages:
        ops = st.tuples(st.integers(0, len(messages) - 1), st.sampled_from(PERTURBATIONS))
        for i, op in draw(st.lists(ops, max_size=4)):
            messages[i] = perturb(op, i, messages, attrs, kp)
    if draw(st.booleans()):
        for sub in dummy.create_dummy_batch(params, rng).submissions:
            messages.append(SuperSubmission(sub, ()) if chained else sub)
    rng.shuffle(messages)
    # A chained log may carry its one-layer records as plain submissions.
    plain_ok = draw(st.booleans())
    frames = []
    for m in messages:
        if isinstance(m, SuperSubmission) and not (plain_ok and not m.wrapped_layers):
            frames.append(wire.encode_frame(wire.MSG_SUPER_SUBMISSION, m.to_bytes()))
        else:
            frames.append(wire.encode_frame(wire.MSG_SUBMISSION, layer1(m).to_bytes()))
    return b"".join(frames), params


@given(data=st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_decode_log_matches_oracle(shared_kp, data):
    log, params = data.draw(perturbed_logs(shared_kp))
    reports, csv_text = service.decode_log(log, params)
    expected_reports, expected_csv = oracle_decode(log, params.threshold, params)
    event(f"layers with a revealed value: {sum(bool(r.revealed) for r in expected_reports)}")
    event(f"malformed: {sum(r.malformed_groups for r in expected_reports) > 0}")
    assert reports == expected_reports
    assert csv_text == expected_csv


def test_oracle_sees_every_outcome(shared_kp):
    """The oracle itself reveals, withholds and refuses: a chained log with a
    revealed branch, a sub-threshold group and a poisoned group."""
    params = derive_params(
        DpBudget(1.0, 1e-8, 1.0, 1e-8, 1 / 6), overrides={"threshold": 2, "tsdlap_shift": 1}
    )
    rng = random.Random(5)

    def record(values):
        rs = [value_randomness(p, shared_kp) for p in make_prefixes(values).prefixes]
        return encode_multidim(values, rs, params, rng)

    good = [record([b"p", b"q"]) for _ in range(3)] + [record([b"r"])]
    poisoned = [record([b"q", b"p"]) for _ in range(2)]
    poisoned[0] = replace(poisoned[0], layer1=replace(poisoned[0].layer1, ciphertext=b"x" * 60))
    log = b"".join(
        wire.encode_frame(wire.MSG_SUPER_SUBMISSION, m.to_bytes()) for m in good + poisoned
    )
    reports, _ = oracle_decode(log, 2, params)
    assert reports[0].revealed == {(b"p",): 3}
    assert reports[0].unrevealed_multiplicities == {1: 1}
    assert reports[0].malformed_groups == 1
    assert reports[1].revealed == {(b"p", b"q"): 3}
