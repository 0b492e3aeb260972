"""Daemon and wire tests: framing, endpoints, log lifecycle, isolation."""

import functools
import itertools
import os
import random
import shutil
import socket
import stat
import struct
import sys
import tempfile
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from nebula import multidim, oprf, service, sharing, wire
from nebula.aggregate import decode_submissions, report_to_csv
from nebula.encode import (
    CIPHERTEXT_AT, SHARE_END, KeyShare, Submission, build_submission, submission_end,
)
from nebula.harness import value_randomness
from nebula.multidim import (
    SuperSubmission, decode_multidim, encode_multidim, layered_reports_to_csv, make_prefixes,
)
from nebula.net import _RECV, RandomnessServer, ServiceClient, ServiceError, parse_listen
from nebula.params import DpBudget, derive_params, params_to_config
from nebula.service import (
    AggregationServer, SealedError, SubmissionLog, decode_log, read_log, seal_and_report,
)
from test_log_index import check_record, frame_bounds, refusal

PARAMS = derive_params(
    DpBudget(1.0, 1e-8, 1.0, 1e-8, 1 / 6),
    overrides={"threshold": 3, "tsdlap_shift": 15},
)


@pytest.fixture()
def randomness_server():
    server = RandomnessServer(("127.0.0.1", 0), b"\x2f" * 32)
    server.start_background()
    yield server
    server.stop()


@pytest.fixture()
def aggregation_server(tmp_path):
    server = AggregationServer(
        ("127.0.0.1", 0), tmp_path / "log.bin", PARAMS, tmp_path / "report.csv"
    )
    server.start_background()
    yield server
    server.stop()


class TestWireFormat:
    @given(
        msg_type=st.sampled_from(sorted(wire._KNOWN_TYPES)),
        payload=st.binary(min_size=0, max_size=2000),
    )
    @settings(max_examples=200, deadline=None)
    def test_frame_roundtrip(self, msg_type, payload):
        raw = wire.encode_frame(msg_type, payload)
        assert wire.parse_header(raw[: wire.HEADER_SIZE]) == (msg_type, len(payload))
        assert raw[wire.HEADER_SIZE :] == payload

    def test_unknown_version_rejected_from_header(self):
        raw = bytearray(wire.encode_frame(wire.MSG_ACK))
        raw[0] = 9
        with pytest.raises(wire.FrameError):
            wire.parse_header(bytes(raw[:6]))

    def test_unknown_type_rejected_from_header(self):
        raw = bytearray(wire.encode_frame(wire.MSG_ACK))
        raw[1] = 200
        with pytest.raises(wire.FrameError):
            wire.parse_header(bytes(raw[:6]))

    def test_oversize_length_rejected_from_header(self):
        header = bytes([1, wire.MSG_ACK]) + (wire.MAX_PAYLOAD_SIZE + 1).to_bytes(4, "little")
        with pytest.raises(wire.FrameError):
            wire.parse_header(header)

    def test_randomness_payload_roundtrip(self):
        elems = [bytes([i]) * 32 for i in range(5)]
        assert wire.unpack_randomness_request(wire.pack_randomness_request(elems)) == elems
        resp = wire.pack_randomness_response(elems, b"\x07" * 64)
        back, proof = wire.unpack_randomness_response(resp)
        assert back == elems and proof == b"\x07" * 64

    def test_batch_cap(self):
        with pytest.raises(wire.FrameError):
            wire.pack_randomness_request([b"\x00" * 32] * 9)

    # How the client refuses what an untrusted randomness server sends, and
    # how either side refuses a frame it cannot carry: the class and message.
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: wire.pack_randomness_request([]), "batch size must be 1..8"),
            (lambda: wire.pack_randomness_request([bytes(32)] * 9), "batch size must be 1..8"),
            (lambda: wire.pack_randomness_request([bytes(31)]), "blinded elements must be 32 bytes"),
            (lambda: wire.unpack_randomness_request(b""), "empty randomness request"),
            (lambda: wire.unpack_randomness_request(b"\x00"), "batch size must be 1..8"),
            (lambda: wire.unpack_randomness_request(bytes([9]) + bytes(9 * 32)),
             "batch size must be 1..8"),
            (lambda: wire.unpack_randomness_request(bytes([2]) + bytes(32)),
             "randomness request length mismatch"),
            (lambda: wire.pack_randomness_response([bytes(33)], bytes(64)),
             "evaluated elements must be 32 bytes"),
            (lambda: wire.pack_randomness_response([bytes(32)], bytes(63)), "proof must be 64 bytes"),
            (lambda: wire.unpack_randomness_response(bytes(95)), "randomness response too short"),
            (lambda: wire.unpack_randomness_response(bytes(97)),
             "randomness response length mismatch"),
            (lambda: wire.unpack_randomness_response(bytes(9 * 32 + 64)), "batch size must be 1..8"),
            (lambda: wire.unpack_error(b""), "empty error payload"),
            (lambda: wire.encode_frame(0), "unknown message type 0"),
            (lambda: wire.encode_frame(10, b"x"), "unknown message type 10"),
            (lambda: wire.encode_frame(wire.MSG_SUBMISSION, bytes(wire.MAX_PAYLOAD_SIZE + 1)),
             "payload exceeds maximum frame size"),
            (lambda: wire.parse_header(bytes(wire.HEADER_SIZE - 1)), "short frame header"),
        ],
    )
    def test_refusals(self, call, message):
        with pytest.raises(wire.FrameError, match=f"^{message}$"):
            call()


class TestIterFrames:
    A = wire.encode_frame(wire.MSG_SUBMISSION, b"first")
    B = wire.encode_frame(wire.MSG_ACK)

    def test_empty_input(self):
        assert list(wire.iter_frames(b"")) == []

    def test_partial_header_stops(self):
        buf = self.A + self.B[:3]
        assert list(wire.iter_frames(buf)) == [(wire.MSG_SUBMISSION, b"first", len(self.A))]

    def test_partial_payload_stops(self):
        buf = self.B + self.A[:-1]
        assert list(wire.iter_frames(buf)) == [(wire.MSG_ACK, b"", len(self.B))]

    def test_bad_header_after_two_good_frames(self):
        bad = bytes([9, wire.MSG_ACK, 0, 0, 0, 0])
        frames = wire.iter_frames(self.A + self.B + bad + self.B)
        assert next(frames) == (wire.MSG_SUBMISSION, b"first", len(self.A))
        assert next(frames) == (wire.MSG_ACK, b"", len(self.A) + len(self.B))
        with pytest.raises(wire.FrameError):
            next(frames)


class TestRandomnessEndpoint:
    def test_single_element_sizes(self, randomness_server):
        # Request payload is exactly 1 + 32 bytes; the response element
        # section is exactly 32 bytes (plus the 64-byte proof).
        rng = random.Random(1)
        b, st_ = oprf.blind(b"value", rng)
        payload = wire.pack_randomness_request([b.encode()])
        assert len(payload) == 33
        with ServiceClient("127.0.0.1", randomness_server.port) as client:
            frame = client.request(wire.MSG_RANDOMNESS_REQUEST, payload)
        assert len(frame.payload) == 32 + 64
        elems, proof = wire.unpack_randomness_response(frame.payload)
        assert len(elems[0]) == 32

    def test_batched_eight(self, randomness_server):
        rng = random.Random(2)
        blinded = [oprf.blind(f"v{i}".encode(), rng)[0] for i in range(8)]
        with ServiceClient("127.0.0.1", randomness_server.port) as client:
            ev = client.evaluate_blinded(blinded)
        assert len(ev.elements) == 8

    def test_end_to_end_randomness_matches_local(self, randomness_server):
        rng = random.Random(3)
        kp = oprf.keygen(b"\x2f" * 32)
        with ServiceClient("127.0.0.1", randomness_server.port) as client:
            outs = client.oblivious_randomness([b"x", b"y"], rng)
        assert outs == [
            oprf.evaluate_directly(b"x", kp),
            oprf.evaluate_directly(b"y", kp),
        ]

    def test_oblivious_randomness_batches_past_max_batch(self, randomness_server):
        # 11 values need two RANDOMNESS_REQUEST frames of at most 8 each.
        values = [f"batched-{i}".encode() for i in range(wire.MAX_BATCH + 3)]
        kp = oprf.keygen(b"\x2f" * 32)
        with ServiceClient("127.0.0.1", randomness_server.port) as client:
            outs = client.oblivious_randomness(values, random.Random(5))
        assert outs == [oprf.evaluate_directly(v, kp) for v in values]

    def test_server_close_is_connection_error(self):
        listener = socket.create_server(("127.0.0.1", 0))
        with listener, ServiceClient("127.0.0.1", listener.getsockname()[1]) as client:
            listener.accept()[0].close()
            with pytest.raises(ConnectionError):
                client.read_frame()

    def test_timeout_leaves_client_unusable(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        with listener, ServiceClient("127.0.0.1", port, timeout=0.2) as client:
            with pytest.raises(TimeoutError):
                client.fetch_public_key()
            # The cause is named, not reported as a closed server.
            with pytest.raises(ConnectionError, match="unusable after TimeoutError"):
                client.fetch_public_key()
            with pytest.raises(ConnectionError, match="unusable after TimeoutError"):
                client.read_frame()

    def test_garbage_payload_error_connection_reusable(self, randomness_server):
        with ServiceClient("127.0.0.1", randomness_server.port) as client:
            with pytest.raises(ServiceError):
                client.request(wire.MSG_RANDOMNESS_REQUEST, b"\xff\xff")
            # connection still usable afterwards
            key = client.fetch_public_key()
            assert len(key.encode()) == 32

    def test_bad_element_encoding_rejected(self, randomness_server):
        with ServiceClient("127.0.0.1", randomness_server.port) as client:
            with pytest.raises(ServiceError):
                client.request(
                    wire.MSG_RANDOMNESS_REQUEST,
                    wire.pack_randomness_request([b"\x01" + b"\x00" * 31]),
                )

    def test_identity_element_rejected_connection_reusable(self, randomness_server):
        # RFC 9497 section 2.1: deserialization rejects the identity, so a
        # request carrying it is malformed, alone or inside a batch.
        rng = random.Random(4)
        b, _ = oprf.blind(b"value", rng)
        identity = bytes(32)
        with ServiceClient("127.0.0.1", randomness_server.port) as client:
            for batch in ([identity], [b.encode(), identity]):
                with pytest.raises(ServiceError) as err:
                    client.request(
                        wire.MSG_RANDOMNESS_REQUEST, wire.pack_randomness_request(batch)
                    )
                assert err.value.code == wire.ERR_MALFORMED
            ev = client.evaluate_blinded([b])
        assert len(ev.elements) == 1 and not ev.elements[0].is_identity()

    def test_submission_to_wrong_daemon_rejected(self, randomness_server):
        with ServiceClient("127.0.0.1", randomness_server.port) as client:
            with pytest.raises(ServiceError):
                client.request(wire.MSG_SUBMISSION, b"\x00" * 100)


def _log_of(subs) -> bytes:
    """The log bytes that hold ``subs`` as SUBMISSION records, in order."""
    return b"".join(wire.encode_frame(wire.MSG_SUBMISSION, s.to_bytes()) for s in subs)


def _append(log: SubmissionLog, frames: bytes) -> None:
    """Append whole ``frames`` to ``log`` as ingest does, with their offsets."""
    log.append(frames, frame_bounds(frames))


def _make_submissions(spec, seed=0):
    kp = oprf.keygen(b"\x77" * 32)
    rng = random.Random(seed)
    subs = []
    for value, copies in spec.items():
        r = value_randomness(value, kp)
        subs.extend(build_submission(value, r, PARAMS, rng) for _ in range(copies))
    return subs


class TestAggregationEndpoint:
    def test_randomness_messages_to_wrong_daemon_rejected(self, aggregation_server):
        [sub] = _make_submissions({b"alpha": 1})
        with ServiceClient("127.0.0.1", aggregation_server.port) as client:
            for msg_type, payload in (
                (wire.MSG_RANDOMNESS_REQUEST, wire.pack_randomness_request([bytes(32)])),
                (wire.MSG_PUBLIC_KEY_REQUEST, b""),
            ):
                with pytest.raises(ServiceError, match=f"unexpected message type {msg_type} ") as err:
                    client.request(msg_type, payload)
                assert err.value.code == wire.ERR_MALFORMED
            # The connection keeps working.
            assert client.request(wire.MSG_SUBMISSION, sub.to_bytes()).msg_type == wire.MSG_ACK

    def test_submit_seal_decode(self, aggregation_server, tmp_path):
        subs = _make_submissions({b"alpha": 4, b"beta": 2})
        with ServiceClient("127.0.0.1", aggregation_server.port) as client:
            for s in subs:
                client.submit(s.to_bytes())
            summary = client.seal_and_decode()
        assert "revealed=1" in summary
        csv_text = (tmp_path / "report.csv").read_text()
        expected = report_to_csv(decode_submissions(subs, 3, PARAMS))
        assert csv_text == expected

    def test_submission_after_seal_rejected(self, aggregation_server):
        subs = _make_submissions({b"gamma": 1})
        with ServiceClient("127.0.0.1", aggregation_server.port) as client:
            client.submit(subs[0].to_bytes())
            client.seal_and_decode()
            with pytest.raises(ServiceError) as exc:
                client.submit(subs[0].to_bytes())
            assert exc.value.code == wire.ERR_SEALED

    def test_malformed_submission_rejected_not_logged(self, aggregation_server):
        with ServiceClient("127.0.0.1", aggregation_server.port) as client:
            with pytest.raises(ServiceError):
                client.request(wire.MSG_SUBMISSION, b"short")
            client.seal_and_decode()
        assert aggregation_server.log.path.read_bytes() == b""

    def test_log_stores_only_submission_bytes(self, aggregation_server):
        # Unlinkability: the stored log is exactly the submission payloads
        # framed; no transport metadata or client identifiers are persisted.
        subs = _make_submissions({b"delta": 2})
        with ServiceClient("127.0.0.1", aggregation_server.port) as client:
            for s in subs:
                client.submit(s.to_bytes())
            client.seal_and_decode()
        raw = aggregation_server.log.path.read_bytes()
        expected = b"".join(
            wire.encode_frame(wire.MSG_SUBMISSION, s.to_bytes()) for s in subs
        )
        assert raw == expected

    def test_pipelined_stream(self, aggregation_server):
        subs = _make_submissions({b"bulk": 50, b"more": 30})
        frames = [wire.encode_frame(wire.MSG_SUBMISSION, s.to_bytes()) for s in subs]
        with ServiceClient("127.0.0.1", aggregation_server.port) as client:
            acked, errors = client.submit_raw(b"".join(frames), len(frames))
            assert (acked, errors) == (80, 0)
            client.seal_and_decode()

    def test_large_pipelined_stream(self, aggregation_server):
        # Over 2 MiB through a kernel socket, so the daemon takes it in
        # many receives; one refused record mid-stream.
        frames = _interleaved(_maximum_frames(34))
        bad = _BAD_RECORDS["x_zero"]()
        stream = b"".join(frames[:35]) + bad + b"".join(frames[35:])
        assert len(stream) >= 2 << 20
        with ServiceClient("127.0.0.1", aggregation_server.port) as client:
            assert client.submit_raw(stream, len(frames) + 1) == (len(frames), 1)
        # Every ACK left after the log was flushed to the OS.
        assert aggregation_server.log.path.read_bytes() == b"".join(frames)

    def test_connections_send_without_nagle(self, tmp_path):
        # A short batch of ACKs after an unacknowledged one must leave at
        # once, not when the client's delayed ACK fires.
        server = AggregationServer(("127.0.0.1", 0), tmp_path / "log.bin", PARAMS)
        try:
            with socket.create_connection(("127.0.0.1", server.port)):
                conn, _ = server.get_request()
                with conn:
                    assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            server.stop()

    def test_zero_x_share_refused_report_survives(self, aggregation_server, tmp_path):
        # A share at x = 0 cannot be interpolated; accepting it would make
        # its whole group, and so the seal, fail for good.
        subs = _make_submissions({b"zero": 4})
        forged = Submission(
            ciphertext=subs[0].ciphertext,
            share=KeyShare(0, subs[0].share.y_coord),
            tag=subs[0].tag,
        )
        with ServiceClient("127.0.0.1", aggregation_server.port) as client:
            for s in subs:
                client.submit(s.to_bytes())
            with pytest.raises(ServiceError) as err:
                client.submit(forged.to_bytes())
            assert err.value.code == wire.ERR_MALFORMED
            assert "revealed=1" in client.seal_and_decode()
        assert aggregation_server.log.path.read_bytes() == _log_of(subs)
        expected = report_to_csv(decode_submissions(subs, 3, PARAMS))
        assert (tmp_path / "report.csv").read_text() == expected


def _when_handled(server) -> threading.Event:
    """An event set once ``server`` has closed a connection it served."""
    done = threading.Event()
    shutdown_request = server.shutdown_request

    def shut_down(request):
        shutdown_request(request)
        done.set()

    server.shutdown_request = shut_down
    return done


class TestNoPeerInOutput:
    """No byte a daemon prints identifies a client, whatever the client does."""

    @pytest.mark.parametrize("daemon", ["randomness_server", "aggregation_server"])
    def test_reset_mid_frame_prints_nothing(self, request, capfd, daemon):
        server = request.getfixturevalue(daemon)
        done = _when_handled(server)
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError):  # no daemon takes an ACK; the handler runs
            client.request(wire.MSG_ACK)
        client.sock.sendall(wire.encode_frame(*_model_payloads()[0])[:40])
        client.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        client.close()  # a reset, not a FIN
        assert done.wait(10)
        with ServiceClient("127.0.0.1", server.port) as again:
            with pytest.raises(ServiceError, match="unexpected message type"):
                again.request(wire.MSG_ACK)
        assert capfd.readouterr().err == ""

    def test_internal_error_prints_traceback_without_peer(
        self, aggregation_server, capfd, monkeypatch
    ):
        done = _when_handled(aggregation_server)

        def dispatch(buf, replies):
            raise RuntimeError("forced failure")

        monkeypatch.setattr(aggregation_server, "dispatch", dispatch)
        with ServiceClient("127.0.0.1", aggregation_server.port) as client:
            host, port = client.sock.getsockname()
            with pytest.raises(ConnectionError):
                client.request(wire.MSG_ACK)
        assert done.wait(10)
        err = capfd.readouterr().err
        assert "RuntimeError: forced failure" in err
        assert host not in err and str(port) not in err


def _ingest_payloads():
    """A plain submission and 1- and 3-layer chained ones, as (type, bytes)."""
    kp = oprf.keygen(b"\x77" * 32)
    rng = random.Random(5)
    out = [(wire.MSG_SUBMISSION, _make_submissions({b"plain": 1})[0].to_bytes())]
    for attrs in ([b"one"], [b"a", b"bb", b"ccc"]):
        rs = [value_randomness(p, kp) for p in make_prefixes(attrs).prefixes]
        out.append(
            (wire.MSG_SUPER_SUBMISSION, encode_multidim(attrs, rs, PARAMS, rng).to_bytes())
        )
    return out


@pytest.fixture(scope="module")
def ingest_case(tmp_path_factory):
    server = AggregationServer(
        ("127.0.0.1", 0), tmp_path_factory.mktemp("ingest") / "log.bin", PARAMS
    )
    yield server, _ingest_payloads()
    server.stop()


# Mutations that no reading of the layout can accept.  A ciphertext or blob
# length off by one inside a longer chain shifts every later field, so only
# agreement is required there.
_ALWAYS_BAD = {"truncate", "extra", "x", "y", "layers"}


def _mutate(payload: bytes, chained: bool, data) -> tuple[str, bytes]:
    at = 1 if chained else 0  # offset of the (layer-1) submission
    kinds = ["truncate", "extra", "x", "y", "ct_len", "flip"]
    if chained:
        kinds += ["layers"] + (["blob_len"] if payload[0] > 1 else [])
    kind = data.draw(st.sampled_from(kinds))
    out = bytearray(payload)
    if kind == "truncate":
        del out[len(out) - data.draw(st.integers(1, len(out))) :]
    elif kind == "extra":
        out.append(data.draw(st.integers(0, 255)))
    elif kind in ("x", "y"):
        bad = [sharing.FIELD_PRIME, 2**128 - 1] + ([0] if kind == "x" else [])
        start = at + 32 + (16 if kind == "y" else 0)
        out[start : start + 16] = data.draw(st.sampled_from(bad)).to_bytes(16, "big")
    elif kind == "ct_len":
        ct_len = int.from_bytes(out[at + 64 : at + 68], "little")
        out[at + 64 : at + 68] = (ct_len + data.draw(st.sampled_from([1, -1]))).to_bytes(
            4, "little"
        )
    elif kind == "layers":
        out[0] = data.draw(st.sampled_from([0, 9]))
    elif kind == "blob_len":
        start = at + 68 + int.from_bytes(out[at + 64 : at + 68], "little")
        blob_len = int.from_bytes(out[start : start + 4], "little")
        out[start : start + 4] = (blob_len - 1).to_bytes(4, "little")
    else:
        out[data.draw(st.integers(0, len(out) - 1))] ^= data.draw(st.integers(1, 255))
    return kind, bytes(out)


def _lone_records() -> tuple[bytes, bytes]:
    """A plain submission and a 3-layer chain, each alone in its group."""
    return _make_submissions({b"lone": 1}, seed=3)[0].to_bytes(), _ingest_payloads()[2][1]


def _patched(payload: bytes, at: int, raw: bytes) -> bytes:
    return payload[:at] + raw + payload[at + len(raw) :]


def _ct_len_plus_one(payload: bytes) -> bytes:
    ct_len = int.from_bytes(payload[64:68], "little")
    return _patched(payload, 64, (ct_len + 1).to_bytes(4, "little"))


def _blob_len_minus_one(chain: bytes) -> bytes:
    at = 1 + 68 + int.from_bytes(chain[65:69], "little")
    blob_len = int.from_bytes(chain[at : at + 4], "little")
    return _patched(chain, at, (blob_len - 1).to_bytes(4, "little"))


# One record ingest refuses, as a log tail; each sits alone in its tag group.
_BAD_RECORDS = {
    "x_not_below_p": lambda: wire.encode_frame(
        wire.MSG_SUBMISSION,
        _patched(_lone_records()[0], 32, sharing.FIELD_PRIME.to_bytes(16, "big")),
    ),
    "x_zero": lambda: wire.encode_frame(
        wire.MSG_SUBMISSION, _patched(_lone_records()[0], 32, bytes(16))
    ),
    "ct_len_mismatch": lambda: wire.encode_frame(
        wire.MSG_SUBMISSION, _ct_len_plus_one(_lone_records()[0])
    ),
    "unknown_record_type": lambda: wire.encode_frame(wire.MSG_ACK, _lone_records()[0]),
    "bad_layer_count": lambda: wire.encode_frame(
        wire.MSG_SUPER_SUBMISSION, _patched(_lone_records()[1], 0, bytes([9]))
    ),
    "bad_blob_length": lambda: wire.encode_frame(
        wire.MSG_SUPER_SUBMISSION, _blob_len_minus_one(_lone_records()[1])
    ),
    "truncated_tail": lambda: wire.encode_frame(wire.MSG_SUBMISSION, _lone_records()[0])[:-1],
}


def _dispatch_one(server, msg_type: int, payload: bytes) -> bytes:
    """The daemon's replies to one frame received alone."""
    replies: list[bytes] = []
    server.dispatch(wire.encode_frame(msg_type, payload), replies)
    return b"".join(replies)


class TestIngestValidation:
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_ingest_refuses_exactly_what_the_record_rules_refuse(self, ingest_case, data):
        # Ingest and ``from_bytes`` refuse as the reference check does, with
        # its exception class and message.
        server, payloads = ingest_case
        msg_type, payload = data.draw(st.sampled_from(payloads))
        chained = msg_type == wire.MSG_SUPER_SUBMISSION
        kind, mutated = _mutate(payload, chained, data)
        expected = refusal(lambda p: check_record(p, msg_type, 0, len(p)), mutated)
        parse = (SuperSubmission if chained else Submission).from_bytes
        assert refusal(parse, mutated) == expected
        reply = _dispatch_one(server, msg_type, mutated)
        if expected is None:
            assert reply == wire.encode_frame(wire.MSG_ACK)
        else:
            assert reply == wire.error_frame(wire.ERR_MALFORMED, f"bad submission: {expected[1]}")
        if kind in _ALWAYS_BAD or (kind == "ct_len" and not chained):
            assert expected is not None

    def test_unmutated_payloads_ingested(self, ingest_case):
        server, payloads = ingest_case
        for msg_type, payload in payloads:
            assert _dispatch_one(server, msg_type, payload) == wire.encode_frame(wire.MSG_ACK)


def reference_ingest(server, stream: bytes) -> bytes:
    """The replies to ``stream`` by the per-frame path ingest used to take,
    writing to ``server.log``: each submission frame checked, logged and
    answered alone.  Any other frame goes to ``server.dispatch`` alone."""
    replies: list[bytes] = []
    end = 0
    try:
        for msg_type, payload, end in wire.iter_frames(stream):
            if msg_type not in (wire.MSG_SUBMISSION, wire.MSG_SUPER_SUBMISSION):
                server.dispatch(wire.encode_frame(msg_type, payload), replies)
                continue
            try:
                check_record(payload, msg_type, 0, len(payload))
            except ValueError as exc:
                replies.append(wire.error_frame(wire.ERR_MALFORMED, f"bad submission: {exc}"))
                continue
            try:
                _append(server.log, wire.encode_frame(msg_type, payload))
            except SealedError:
                replies.append(wire.error_frame(wire.ERR_SEALED, "log sealed"))
            except ValueError as exc:  # the log is closed
                replies.append(wire.error_frame(wire.ERR_INTERNAL, str(exc)))
            else:
                replies.append(wire.encode_frame(wire.MSG_ACK))
        if len(stream) - end >= wire.HEADER_SIZE:
            raise wire.FrameError("connection closed mid-frame")
    except wire.FrameError:
        replies.append(wire.error_frame(wire.ERR_MALFORMED, "bad frame"))
    return b"".join(replies)


class _Socket:
    """A connection whose peer sends ``chunks``, one per ``recv``, then
    closes; what is sent to it is kept in ``sent``, the size each ``recv``
    asked for in ``asked`` and, given a ``log`` path, that file's bytes at
    each send in ``logged``."""

    def __init__(self, chunks, log=None):
        self.chunks = list(chunks)
        self.sent = bytearray()
        self.asked: list[int] = []
        self.log = log
        self.logged: list[bytes] = []

    def recv(self, size: int) -> bytes:
        self.asked.append(size)
        assert not self.chunks or len(self.chunks[0]) <= size
        return self.chunks.pop(0) if self.chunks else b""

    def sendall(self, data) -> None:
        if self.log is not None:
            self.logged.append(self.log.read_bytes())
        self.sent += data

    def close(self) -> None:
        pass


def _cut(data, stream: bytes) -> list[bytes]:
    """``stream`` split at random points, mid-header and mid-payload too."""
    cuts = data.draw(st.lists(st.integers(1, max(1, len(stream) - 1)), max_size=8))
    bounds = [0, *sorted(set(cuts)), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


_OTHER_FRAMES = {
    "randomness_request": wire.encode_frame(
        wire.MSG_RANDOMNESS_REQUEST, wire.pack_randomness_request([bytes(32)])
    ),
    "seal": wire.encode_frame(wire.MSG_SEAL_DECODE),
    "bad_version": wire.HEADER.pack(9, wire.MSG_SUBMISSION, 0),
    "oversized": wire.HEADER.pack(1, wire.MSG_SUBMISSION, wire.MAX_PAYLOAD_SIZE + 1),
}


def _maximum_frames(count: int) -> list[bytes]:
    """``count`` frames of the maximum size, each a record ingest accepts:
    plain submissions and 2-layer chains, filled out by filler ciphertext
    or wrapped blob bytes."""
    sub = _model_payloads()[0][1]
    rng = random.Random(17)
    frames = []
    for i in range(count):
        if i % 2:
            ct = rng.randbytes(wire.MAX_PAYLOAD_SIZE - CIPHERTEXT_AT)
            payload = sub[:SHARE_END] + struct.pack("<I", len(ct)) + ct
            frames.append(wire.encode_frame(wire.MSG_SUBMISSION, payload))
        else:
            blob = rng.randbytes(wire.MAX_PAYLOAD_SIZE - 1 - len(sub) - 4)
            payload = bytes([2]) + sub + struct.pack("<I", len(blob)) + blob
            frames.append(wire.encode_frame(wire.MSG_SUPER_SUBMISSION, payload))
    assert {len(frame) for frame in frames} == {wire.MAX_FRAME_SIZE}
    return frames


def _interleaved(large: list[bytes]) -> list[bytes]:
    """``large`` with a small good frame after each, so the large frames
    drift off frame-size boundaries and straddle the receives of a stream."""
    small = [wire.encode_frame(*r) for r in _model_payloads()]
    return [f for i, frame in enumerate(large) for f in (frame, small[i % len(small)])]


class TestBatchIngest:
    """The daemon takes each receive buffer as one checked batch; its replies
    and log equal those of the per-frame reference for any stream, however
    the stream arrives."""

    @pytest.mark.parametrize("first", [wire.MAX_FRAME_SIZE, 1000])
    def test_large_receives_match_per_frame_reference(self, tmp_path, first):
        # Over 2.5 MiB: good frames around a refused record and a frame that
        # is no submission, maximum-size frames cut across receives, and a
        # torn tail at EOF.
        frames = _interleaved(_maximum_frames(44))
        frames[41:41] = [_BAD_RECORDS["x_zero"](), _OTHER_FRAMES["randomness_request"]]
        stream = b"".join(frames) + frames[-1][:-1]
        assert len(stream) >= 2.5 * _RECV
        # The peer sends all that each receive asks for, but for a short
        # first receive of ``first`` bytes.
        cuts = [0, first]
        while cuts[-1] < len(stream):
            cuts.append(min(cuts[-1] + _RECV, len(stream)))
        chunks = [stream[a:b] for a, b in zip(cuts, cuts[1:])]
        heads = [0, *itertools.accumulate(map(len, frames))]
        spans = [(h, h + len(f)) for h, f in zip(heads, frames) if len(f) == wire.MAX_FRAME_SIZE]
        assert sum(a < cut < b for cut in cuts for a, b in spans) >= 2

        servers = [
            AggregationServer(("127.0.0.1", 0), tmp_path / f"{n}.log", PARAMS)
            for n in ("batch", "reference")
        ]
        try:
            sock = _Socket(chunks)
            servers[0].finish_request(sock, ("client", 0))
            expected = reference_ingest(servers[1], stream)
            for server in servers:
                server.log.flush()
            assert bytes(sock.sent) == expected
            assert servers[0].log.path.read_bytes() == servers[1].log.path.read_bytes()
        finally:
            for server in servers:
                server.stop()
        assert sock.asked == [_RECV] * (len(chunks) + 1)

    @pytest.mark.parametrize("split", [None, 7, -1])
    def test_lone_frame_is_answered_once_whole(self, tmp_path, split):
        # An interactive client's frame, whole or in two receives, gets its
        # one reply once the receive that completes it is in.
        frame = wire.encode_frame(*_model_payloads()[-2])
        chunks = [frame] if split is None else [frame[:split], frame[split:]]
        server = AggregationServer(("127.0.0.1", 0), tmp_path / "log.bin", PARAMS)
        try:
            sock = _Socket(chunks)
            server.finish_request(sock, ("client", 0))
        finally:
            server.stop()
        assert bytes(sock.sent) == wire.encode_frame(wire.MSG_ACK)
        assert sock.asked == [_RECV] * (len(chunks) + 1)

    @pytest.mark.parametrize("tail", [b"", _OTHER_FRAMES["bad_version"]])
    def test_acks_leave_after_their_records_reach_the_file(self, tmp_path, tail):
        # Good records, then maybe a bad header, in one receive: the one
        # send that ACKs them finds them all in the log file already.
        good = b"".join(wire.encode_frame(*r) for r in _model_payloads()[:5])
        server = AggregationServer(("127.0.0.1", 0), tmp_path / "log.bin", PARAMS)
        try:
            sock = _Socket([good + tail], server.log.path)
            server.finish_request(sock, ("client", 0))
        finally:
            server.stop()
        bad = wire.error_frame(wire.ERR_MALFORMED, "bad frame") if tail else b""
        assert bytes(sock.sent) == wire.encode_frame(wire.MSG_ACK) * 5 + bad
        assert sock.logged == [good]

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_batch_ingest_matches_per_frame_reference(self, data):
        frames = []
        for kind in data.draw(st.lists(st.sampled_from(
            ["good"] * 4 + ["mutated", "bad_record", "randomness_request", "seal", "header"]
        ), max_size=14)):
            if kind == "good":
                frames.append(wire.encode_frame(*data.draw(_RECORDS)))
            elif kind == "mutated":
                msg_type, payload = data.draw(_RECORDS)
                chained = msg_type == wire.MSG_SUPER_SUBMISSION
                frames.append(wire.encode_frame(msg_type, _mutate(payload, chained, data)[1]))
            elif kind == "bad_record":
                bad = data.draw(st.sampled_from(sorted(set(_BAD_RECORDS) - {"truncated_tail"})))
                frames.append(_BAD_RECORDS[bad]())
            elif kind == "header":
                bad = data.draw(st.sampled_from(["bad_version", "oversized"]))
                frames.append(_OTHER_FRAMES[bad])
            else:
                frames.append(_OTHER_FRAMES[kind])
        stream = b"".join(frames)
        if data.draw(st.booleans()):  # a torn tail at EOF
            tail = wire.encode_frame(*data.draw(_RECORDS))
            stream += tail[: data.draw(st.integers(1, len(tail) - 1))]
        closed = data.draw(st.booleans())  # the daemon was stopped

        root = Path(tempfile.mkdtemp())
        servers = [
            AggregationServer(("127.0.0.1", 0), root / f"{n}.log", PARAMS, root / f"{n}.csv")
            for n in ("batch", "reference")
        ]
        try:
            if closed:
                for server in servers:
                    server.log.close()
            sock = _Socket(_cut(data, stream))
            servers[0].finish_request(sock, ("client", 0))
            expected = reference_ingest(servers[1], stream)
            for server in servers:
                server.log.flush()
            assert bytes(sock.sent) == expected
            assert servers[0].log.path.read_bytes() == servers[1].log.path.read_bytes()
        finally:
            for server in servers:
                server.stop()
            shutil.rmtree(root, ignore_errors=True)

    def test_good_stretches_are_logged_as_received(self, tmp_path, monkeypatch):
        # Two good runs around a refused record: two writes, each the
        # received bytes, and one reply batch in frame order.
        good = [wire.encode_frame(*r) for r in _model_payloads()[:5]]
        bad = _BAD_RECORDS["x_zero"]()
        server = AggregationServer(("127.0.0.1", 0), tmp_path / "log.bin", PARAMS)
        writes = []
        append = SubmissionLog.append

        def recording_append(log, frames, bounds):
            writes.append(bytes(frames))
            append(log, frames, bounds)

        monkeypatch.setattr(SubmissionLog, "append", recording_append)
        try:
            replies: list[bytes] = []
            stream = b"".join(good[:2]) + bad + b"".join(good[2:])
            assert server.dispatch(stream, replies) == len(stream)
        finally:
            server.stop()
        assert writes == [b"".join(good[:2]), b"".join(good[2:])]
        ack = wire.encode_frame(wire.MSG_ACK)
        error = wire.error_frame(wire.ERR_MALFORMED, "bad submission: zero x-coordinate")
        assert b"".join(replies) == ack * 2 + error + ack * 3


def _client_reading(chunks) -> ServiceClient:
    """A client whose server sends ``chunks``, one per receive, then closes."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = ServiceClient("127.0.0.1", listener.getsockname()[1])
    client.sock.close()
    client.sock = _Socket(chunks)
    return client


_REPLIES = [wire.encode_frame(wire.MSG_ACK)] * 6 + [
    wire.encode_frame(wire.MSG_ACK, b"revealed=1"),
    wire.error_frame(wire.ERR_MALFORMED, "bad submission: zero x-coordinate"),
    wire.error_frame(wire.ERR_SEALED, "log sealed"),
]


class TestSubmitRawReplies:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_counts_equal_a_per_frame_count(self, data):
        replies = data.draw(st.lists(st.sampled_from(_REPLIES), min_size=1, max_size=60))
        count = data.draw(st.integers(1, len(replies)))
        frames = [wire.WireFrame(t, bytes(p)) for t, p, _ in wire.iter_frames(b"".join(replies))]
        acks = sum(f.msg_type == wire.MSG_ACK for f in frames[:count])
        with _client_reading(_cut(data, b"".join(replies))) as client:
            assert client.submit_raw(b"", count) == (acks, count - acks)
            # The replies past the count stay for the next reader, intact.
            for frame in frames[count:]:
                assert client.read_frame() == frame
            with pytest.raises(ConnectionError, match="server closed connection"):
                client.read_frame()

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_server_close_mid_run_is_connection_error(self, data):
        replies = data.draw(st.lists(st.sampled_from(_REPLIES), max_size=40))
        with _client_reading(_cut(data, b"".join(replies))) as client:
            with pytest.raises(ConnectionError, match="server closed connection"):
                client.submit_raw(b"", len(replies) + data.draw(st.integers(1, 3)))


    @pytest.mark.parametrize("acks", [0, 3])
    def test_bad_header_mid_run_closes_the_client(self, acks):
        ack = wire.encode_frame(wire.MSG_ACK)
        with _client_reading([ack * acks + _OTHER_FRAMES["bad_version"] + ack]) as client:
            with pytest.raises(wire.FrameError):
                client.submit_raw(b"", acks + 2)
            with pytest.raises(ConnectionError, match="unusable after FrameError"):
                client.read_frame()

    @pytest.mark.parametrize("count", [20_003, 12_345])
    def test_long_ack_runs_across_receives(self, count):
        # Runs of thousands of ACKs, far past the lists above, so the
        # halving probes deep; receives cut them mid-frame.
        ack, bad, sealed = _REPLIES[0], _REPLIES[-2], _REPLIES[-1]
        stream = b"".join([ack * 7_001, bad, ack * 4_999, sealed, ack * 3, bad, ack * 7_997])
        cuts = sorted(random.Random(5).sample(range(1, len(stream)), 12))
        bounds = [0, *cuts, len(stream)]
        frames = [wire.WireFrame(t, bytes(p)) for t, p, _ in wire.iter_frames(stream)]
        acks = sum(f.msg_type == wire.MSG_ACK for f in frames[:count])
        with _client_reading([stream[a:b] for a, b in zip(bounds, bounds[1:])]) as client:
            assert client.submit_raw(b"", count) == (acks, count - acks)
            for frame in frames[count:]:
                assert client.read_frame() == frame
            with pytest.raises(ConnectionError, match="server closed connection"):
                client.read_frame()


class TestLogLifecycle:
    def test_empty_log_empty_report(self, tmp_path):
        log = SubmissionLog(tmp_path / "log.bin")
        log.seal()
        reports, csv_text = decode_log((tmp_path / "log.bin").read_bytes(), PARAMS)
        assert reports[0].revealed == {}
        assert "section,revealed" in csv_text

    def test_append_after_seal_raises(self, tmp_path):
        log = SubmissionLog(tmp_path / "log.bin")
        log.seal()
        with pytest.raises(SealedError):
            _append(log, wire.encode_frame(wire.MSG_SUBMISSION, b"\x00"))

    def test_append_after_close_raises(self, tmp_path):
        subs = _make_submissions({b"x": 1})
        log = SubmissionLog(tmp_path / "log.bin")
        _append(log, _log_of(subs))
        log.close()
        before = (tmp_path / "log.bin").read_bytes()
        with pytest.raises(ValueError, match="submission log is closed"):
            _append(log, _log_of(subs))
        assert (tmp_path / "log.bin").read_bytes() == before == _log_of(subs)

    def test_seal_after_stop_is_an_error_not_a_seal(self, tmp_path):
        # A connection still open after stop() asks to seal the closed log:
        # it gets the error append gives, and no seal marker is written.
        server = AggregationServer(("127.0.0.1", 0), tmp_path / "log.bin", PARAMS)
        server.start_background()
        with ServiceClient("127.0.0.1", server.port) as client:
            client.submit(_make_submissions({b"x": 1})[0].to_bytes())
            server.stop()
            with pytest.raises(ServiceError, match="submission log is closed") as err:
                client.seal_and_decode()
        assert err.value.code == wire.ERR_INTERNAL
        assert not server.log.sealed and not server.log.seal_marker.exists()

    def test_seal_syncs_directory_and_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        subs = _make_submissions({b"x": 3, b"y": 1})
        log = SubmissionLog(tmp_path / "log.bin")
        _append(log, _log_of(subs))
        (tmp_path / "log.bin.report.csv").write_text("stale")
        synced = []
        fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        _, out = seal_and_report(log, PARAMS, None)
        assert synced == [False, True]  # the log, then its directory
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "log.bin", "log.bin.report.csv", "log.bin.sealed"
        ]
        assert out.read_text() == report_to_csv(decode_submissions(subs, 3, PARAMS))

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_seal_refuses_a_report_it_cannot_write(self, tmp_path, where):
        # The seal is permanent, so the report path is checked before it:
        # nothing is sealed, and the log keeps taking submissions.
        report = tmp_path / "nodir" / "report.csv"
        if where == "directory":
            report = tmp_path / "report.csv"
            report.mkdir()
        message = (f"report {report}: no directory {report.parent}" if where == "missing directory"
                   else f"report {report} is a directory")
        subs = _make_submissions({b"x": 3})
        log = SubmissionLog(tmp_path / "log.bin")
        _append(log, _log_of(subs[:2]))
        with pytest.raises(ValueError) as err:
            seal_and_report(log, PARAMS, report)
        assert str(err.value) == message
        assert not log.sealed and not log.seal_marker.exists()
        _append(log, _log_of(subs[2:]))
        log.close()
        assert (tmp_path / "log.bin").read_bytes() == _log_of(subs)

    def test_daemon_refuses_a_report_it_cannot_write_at_start_up(self, tmp_path):
        report = tmp_path / "nodir" / "report.csv"
        with pytest.raises(ValueError) as err:
            AggregationServer(("127.0.0.1", 0), tmp_path / "log.bin", PARAMS, report)
        assert str(err.value) == f"report {report}: no directory {report.parent}"
        assert list(tmp_path.iterdir()) == []

    def test_seal_frame_refuses_a_report_gone_since_start_up(self, tmp_path):
        # The report's directory goes while the daemon runs: SEAL_DECODE
        # answers an error and seals nothing, ingest goes on, and the seal
        # succeeds once the directory is back.
        (tmp_path / "reports").mkdir()
        report = tmp_path / "reports" / "report.csv"
        subs = _make_submissions({b"x": 3})
        server = AggregationServer(("127.0.0.1", 0), tmp_path / "log.bin", PARAMS, report)
        server.start_background()
        try:
            with ServiceClient("127.0.0.1", server.port) as client:
                client.submit(subs[0].to_bytes())
                (tmp_path / "reports").rmdir()
                with pytest.raises(ServiceError) as err:
                    client.seal_and_decode()
                assert err.value.code == wire.ERR_INTERNAL
                assert str(err.value) == (
                    f"error {wire.ERR_INTERNAL}: report {report}: no directory {report.parent}"
                )
                assert not server.log.sealed and not server.log.seal_marker.exists()
                for s in subs[1:]:
                    client.submit(s.to_bytes())
                (tmp_path / "reports").mkdir()
                assert "revealed=1" in client.seal_and_decode()
        finally:
            server.stop()
        assert report.read_text() == report_to_csv(decode_submissions(subs, 3, PARAMS))

    def test_sealing_again_writes_the_same_report(self, tmp_path):
        # A second SEAL_DECODE, or --seal-and-decode on a sealed log, finds
        # the log sealed and decodes it again.
        log = SubmissionLog(tmp_path / "log.bin")
        _append(log, _log_of(_make_submissions({b"x": 3, b"y": 1})))
        _, first = seal_and_report(log, PARAMS, tmp_path / "first.csv")
        _, again = seal_and_report(SubmissionLog(tmp_path / "log.bin"), PARAMS, tmp_path / "again.csv")
        assert again.read_text() == first.read_text()

    def test_seal_marker_survives_reopen(self, tmp_path):
        log = SubmissionLog(tmp_path / "log.bin")
        log.seal()
        again = SubmissionLog(tmp_path / "log.bin")
        assert again.sealed

    def test_decode_log_matches_in_process(self, tmp_path):
        subs = _make_submissions({b"x": 5, b"y": 2, b"z": 3})
        log = SubmissionLog(tmp_path / "log.bin")
        _append(log, _log_of(subs))
        log.seal()
        _, csv_text = decode_log((tmp_path / "log.bin").read_bytes(), PARAMS)
        assert csv_text == report_to_csv(decode_submissions(subs, 3, PARAMS))

    def test_mixed_log_read_in_order_and_decoded_layered(self):
        # One index in log order; a single SUPER_SUBMISSION anywhere selects
        # the layered grammar and the plain submissions join as one layer.
        payloads = _ingest_payloads()[::-1]
        data = _frames(payloads)
        index = read_log(data)
        # A chained record's layer-1 submission follows its layer-count
        # byte, and its cursor sits at its first wrapped blob, just past it.
        payload_at = [end - len(p) for _, p, end in wire.iter_frames(data)]
        assert (index.starts - payload_at).tolist() == [1, 1, 0]
        assert index.depths.tolist() == [3, 1, 1]
        assert index.cursors.tolist() == [submission_end(data, s) for s in index.starts.tolist()]
        assert (index.layers, index.chained) == (3, True)
        messages = [
            (SuperSubmission if t == wire.MSG_SUPER_SUBMISSION else Submission).from_bytes(p)
            for t, p in payloads
        ]
        reports, csv_text = decode_log(data, PARAMS)
        assert csv_text == layered_reports_to_csv(decode_multidim(messages, 3, PARAMS))
        assert csv_text.startswith("nebula-layered-report,v1\n") and len(reports) == 3

    def test_stop_closes_log_and_a_new_server_seals_it(self, tmp_path):
        subs = _make_submissions({b"x": 3, b"y": 1})
        server = AggregationServer(("127.0.0.1", 0), tmp_path / "log.bin", PARAMS)
        server.start_background()
        with ServiceClient("127.0.0.1", server.port) as client:
            for s in subs:
                client.submit(s.to_bytes())
        handle = server.log._file
        server.stop()
        assert handle.closed
        again = AggregationServer(
            ("127.0.0.1", 0), tmp_path / "log.bin", PARAMS, tmp_path / "report.csv"
        )
        again.start_background()
        try:
            with ServiceClient("127.0.0.1", again.port) as client:
                assert "revealed=1" in client.seal_and_decode()
        finally:
            again.stop()
        assert again.log.sealed
        expected = report_to_csv(decode_submissions(subs, 3, PARAMS))
        assert (tmp_path / "report.csv").read_text() == expected

    @pytest.mark.parametrize("bad", sorted(_BAD_RECORDS))
    def test_bad_record_in_sub_threshold_group_fails_decode(self, bad):
        # The decoder never parses a sub-threshold group, yet it must refuse
        # a log that ingest could not have written, as parsing every record
        # did.
        good = _log_of(_make_submissions({b"ok": 4}))
        reports, _ = decode_log(good, PARAMS)
        assert reports[0].revealed == {(b"ok",): 4}
        with pytest.raises(ValueError):
            decode_log(good + _BAD_RECORDS[bad](), PARAMS)

    @pytest.mark.parametrize("cut", [3, 20], ids=["in-header", "in-payload"])
    def test_log_ending_inside_a_record_is_truncated(self, cut):
        log = _log_of(_make_submissions({b"ok": 2}))
        tail = _log_of(_make_submissions({b"cut": 1}))
        with pytest.raises(wire.FrameError, match="^truncated log record$"):
            read_log(log + tail[:cut])

    def test_non_submission_record_in_log_refused(self):
        log = _log_of(_make_submissions({b"ok": 2})) + wire.encode_frame(wire.MSG_ACK)
        with pytest.raises(wire.FrameError, match="^unexpected record type 6$"):
            read_log(log)

    def test_decode_log_builds_no_submission(self, monkeypatch):
        # Groups at, above and below the threshold, plain and chained: the
        # decoder reads shares and ciphertexts from the log bytes in place.
        data = _frames(_model_payloads())
        built = []
        init = Submission.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Submission, "__init__", counting_init)
        reports, _ = decode_log(data, PARAMS)
        assert len(reports) == 3 and reports[0].revealed and reports[0].unrevealed_multiplicities
        assert built == []

    def test_torn_tail_trimmed_on_reopen(self, tmp_path):
        # A crash mid-write leaves the last record short; reopening must drop
        # only that record, so later appends and the decode still work.
        subs = _make_submissions({b"x": 5, b"w": 1})
        path = tmp_path / "log.bin"
        log = SubmissionLog(path)
        _append(log, _log_of(subs[:4]))
        log.close()
        with open(path, "r+b") as f:
            f.truncate(path.stat().st_size - 10)
        log = SubmissionLog(path)
        _append(log, _log_of(subs[4:5]))
        log.seal()
        assert path.read_bytes() == _log_of(subs[:3] + subs[4:5])
        _, csv_text = decode_log(path.read_bytes(), PARAMS)
        assert csv_text == report_to_csv(decode_submissions(subs[:3] + subs[4:5], 3, PARAMS))

    def test_acked_submissions_survive_sigkill(self, tmp_path):
        # An ACK means the record reached the OS: killing the daemon right
        # after must lose none of them, and a restart on the log seals them.
        from nebula.harness import DaemonPair

        subs = _make_submissions({b"kept": 4, b"also": 1})
        with DaemonPair(PARAMS, b"\x55" * 32, tmp_path) as pair:
            with ServiceClient("127.0.0.1", pair.aggregation_port) as client:
                for s in subs:
                    client.submit(s.to_bytes())
            pair._procs[1].kill()
            pair._procs[1].wait(timeout=5)
        restarted = AggregationServer(
            ("127.0.0.1", 0), pair.log_path, PARAMS, tmp_path / "after.csv"
        )
        restarted.start_background()
        try:
            with ServiceClient("127.0.0.1", restarted.port) as client:
                assert "revealed=1" in client.seal_and_decode()
        finally:
            restarted.stop()
        assert pair.log_path.read_bytes() == _log_of(subs)
        expected = report_to_csv(decode_submissions(subs, 3, PARAMS))
        assert (tmp_path / "after.csv").read_text() == expected

    def test_bad_header_mid_log_stays_an_error(self, tmp_path):
        subs = _make_submissions({b"x": 3})
        path = tmp_path / "log.bin"
        log = SubmissionLog(path)
        _append(log, _log_of(subs))
        log.close()
        raw = bytearray(path.read_bytes())
        raw[len(wire.encode_frame(wire.MSG_SUBMISSION, subs[0].to_bytes()))] = 16
        path.write_bytes(bytes(raw))
        with pytest.raises(wire.FrameError):
            SubmissionLog(path)

    @pytest.mark.parametrize("sealed", [False, True])
    def test_log_checked_a_receive_at_a_time_when_it_opens(self, tmp_path, sealed):
        # Over 2 MiB, with frames straddling the chunk bounds: a clean log
        # opens unchanged, and what ingest would refuse in a later chunk is
        # refused as read_log words it.
        frames = _interleaved(_maximum_frames(36))
        assert len(b"".join(frames)) > 2 * _RECV
        path = tmp_path / "log.bin"
        path.write_bytes(b"".join(frames))
        if sealed:
            (tmp_path / "log.bin.sealed").touch()
        opened = SubmissionLog(path)
        opened.close()
        assert path.read_bytes() == b"".join(frames)
        assert opened.bounds.tolist() == frame_bounds(b"".join(frames)).tolist()
        for bad, message in [
            (_BAD_RECORDS["x_zero"](), "zero x-coordinate"),
            (_BAD_RECORDS["unknown_record_type"](), "unexpected record type 6"),
            (_OTHER_FRAMES["bad_version"], "unsupported frame version 9"),
        ]:
            data = b"".join(frames[:-3]) + bad + b"".join(frames[-3:])
            path.write_bytes(data)
            with pytest.raises(ValueError, match=f"^{message}$") as raised:
                SubmissionLog(path)
            with pytest.raises(raised.type, match=f"^{message}$"):
                read_log(data)
            assert path.read_bytes() == data

    def test_sealed_log_with_torn_tail_refused(self, tmp_path):
        # A sealed log was flushed whole before its marker: a short last
        # frame is damage, not a crash mid-write, and is kept for a look.
        path = tmp_path / "log.bin"
        log = SubmissionLog(path)
        _append(log, _log_of(_make_submissions({b"x": 3})))
        log.seal()
        with open(path, "r+b") as f:
            f.truncate(path.stat().st_size - 10)
        torn = path.read_bytes()
        with pytest.raises(wire.FrameError, match="^truncated log record$"):
            SubmissionLog(path)
        assert path.read_bytes() == torn


class TestDaemonIsolation:
    def test_processes_share_nothing(self, tmp_path):
        # Both daemons as separate OS processes: the randomness process never
        # sees the log or params; the aggregation process never sees the key
        # seed. Killing one leaves the other responsive.
        from nebula.harness import DaemonPair

        with DaemonPair(PARAMS, b"\x55" * 32, tmp_path) as pair:
            with ServiceClient("127.0.0.1", pair.randomness_port) as rc:
                mpk = rc.fetch_public_key()
            subs = _make_submissions({b"iso": 3})
            with ServiceClient("127.0.0.1", pair.aggregation_port) as ac:
                for s in subs:
                    ac.submit(s.to_bytes())
            pair._procs[0].terminate()
            pair._procs[0].wait(timeout=5)
            with ServiceClient("127.0.0.1", pair.aggregation_port) as ac:
                summary = ac.seal_and_decode()
            assert "revealed=1" in summary
            assert pair.report_path.exists()

    def test_two_pairs_get_four_distinct_ports(self, tmp_path):
        # Each daemon binds port 0 and reports the port it got, so pairs
        # started side by side cannot collide.
        from nebula.harness import DaemonPair

        with DaemonPair(PARAMS, b"\x55" * 32, tmp_path / "a") as a, DaemonPair(
            PARAMS, b"\x55" * 32, tmp_path / "b"
        ) as b:
            ports = {p.randomness_port for p in (a, b)} | {p.aggregation_port for p in (a, b)}
            assert len(ports) == 4 and 0 not in ports
            for port in (a.randomness_port, b.randomness_port):
                with ServiceClient("127.0.0.1", port) as rc:
                    assert len(rc.fetch_public_key().encode()) == 32
            for port in (a.aggregation_port, b.aggregation_port):
                with ServiceClient("127.0.0.1", port) as ac:
                    assert "revealed=0" in ac.seal_and_decode()

    def test_pair_starts_without_pythonpath(self, tmp_path, monkeypatch):
        # The daemons import the package the test imported, though nothing
        # on the inherited environment points at it.
        from nebula.harness import DaemonPair

        monkeypatch.delenv("PYTHONPATH", raising=False)
        with DaemonPair(PARAMS, b"\x55" * 32, tmp_path) as pair:
            with ServiceClient("127.0.0.1", pair.randomness_port) as rc:
                assert len(rc.fetch_public_key().encode()) == 32

    def test_parse_listen(self):
        assert parse_listen("127.0.0.1:9000") == ("127.0.0.1", 9000)
        with pytest.raises(ValueError):
            parse_listen("no-port")


# --- a stateful model of the aggregation daemon ------------------------------


@functools.cache
def _model_payloads() -> tuple[tuple[int, bytes], ...]:
    """Valid (type, payload) pairs: groups at, above and below the threshold,
    as plain submissions and as 1-, 2- and 3-layer chains."""
    kp = oprf.keygen(b"\x77" * 32)
    rng = random.Random(11)
    out = [(wire.MSG_SUBMISSION, s.to_bytes()) for s in _make_submissions({b"a": 4, b"b": 2})]
    for attrs, copies in (([b"a", b"bb", b"ccc"], 4), ([b"a", b"xy"], 3), ([b"one"], 1)):
        rs = [value_randomness(p, kp) for p in make_prefixes(attrs).prefixes]
        out += [
            (wire.MSG_SUPER_SUBMISSION, encode_multidim(attrs, rs, PARAMS, rng).to_bytes())
            for _ in range(copies)
        ]
    return tuple(out)


_RECORDS = st.deferred(lambda: st.sampled_from(_model_payloads()))


def _frames(records) -> bytes:
    return b"".join(wire.encode_frame(t, p) for t, p in records)


class AggregationDaemonModel(RuleBasedStateMachine):
    """Drives an in-process aggregation daemon against a model: the list of
    ACKed payloads, and whether the log is sealed.

    The submit rules keep running after the seal, where every submission
    that passes validation must get ERR_SEALED and reach no log.
    """

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp())
        self.log_path = self.dir / "log.bin"
        self.report_path = self.dir / "report.csv"
        self.acked: list[tuple[int, bytes]] = []
        self.sealed = False
        self._start()

    def _start(self) -> None:
        self.server = AggregationServer(
            ("127.0.0.1", 0), self.log_path, PARAMS, self.report_path
        )
        self.server.start_background()
        self.client = ServiceClient("127.0.0.1", self.server.port)

    def _stop(self) -> None:
        self.client.close()
        self.server.stop()

    def _submit(self, msg_type: int, payload: bytes, valid: bool) -> None:
        """Send one payload; ``valid`` says whether the record rules accept it."""
        try:
            self.client.request(msg_type, payload)
        except ServiceError as exc:
            expected = wire.ERR_SEALED if valid else wire.ERR_MALFORMED
            assert exc.code == expected
            assert self.sealed or not valid
        else:
            assert valid and not self.sealed
            self.acked.append((msg_type, payload))

    # Start from a few valid records, so that most seals decode a group.
    @initialize(records=st.lists(_RECORDS, min_size=3, max_size=8))
    def submit_first(self, records):
        self.submit_valid(records)

    @rule(records=st.lists(_RECORDS, min_size=1, max_size=8))
    def submit_valid(self, records):
        for record in records:
            self._submit(*record, valid=True)

    @rule(record=_RECORDS, data=st.data())
    def submit_mutated(self, record, data):
        msg_type, payload = record
        chained = msg_type == wire.MSG_SUPER_SUBMISSION
        _, mutated = _mutate(payload, chained, data)
        try:
            check_record(mutated, msg_type, 0, len(mutated))
            valid = True
        except ValueError:
            valid = False
        self._submit(msg_type, mutated, valid)

    @rule(record=_RECORDS, data=st.data())
    def drop_mid_frame(self, record, data):
        frame = wire.encode_frame(*record)
        cut = data.draw(st.integers(1, len(frame) - 1))
        with socket.create_connection(("127.0.0.1", self.server.port), timeout=5) as sock:
            sock.sendall(frame[:cut])

    @rule(record=_RECORDS, data=st.data())
    def restart(self, record, data):
        self._stop()
        if not self.sealed:
            # What a crash mid-write leaves: the head of one more frame.
            frame = wire.encode_frame(*record)
            with open(self.log_path, "ab") as f:
                f.write(frame[: data.draw(st.integers(0, len(frame) - 1))])
        self._start()

    @precondition(lambda self: not self.sealed)
    @rule()
    def seal(self):
        self.client.seal_and_decode()
        self.sealed = True
        # A pure function of the multiset: decode the model in another order.
        _, expected = decode_log(_frames(sorted(self.acked)), PARAMS)
        assert self.report_path.read_text() == expected

    @invariant()
    def log_holds_exactly_the_acked_payloads(self):
        # Every reply is sent after the log is flushed, so the file is
        # current whenever a rule returns.
        assert self.log_path.read_bytes() == _frames(self.acked)

    def teardown(self):
        self._stop()
        shutil.rmtree(self.dir, ignore_errors=True)


TestAggregationDaemonModel = AggregationDaemonModel.TestCase
TestAggregationDaemonModel.settings = settings(
    max_examples=16, stateful_step_count=12, deadline=None
)


@pytest.fixture()
def seal_walks(monkeypatch):
    """The length of each buffer that ``multidim._frame_bounds`` walks while
    ``service.decode_log`` runs, the seal's decode included."""
    walks: list[int] = []
    decoding = threading.Event()
    frame_bounds, decode = multidim._frame_bounds, service.decode_log

    def spy(data, at):
        if decoding.is_set():
            walks.append(len(data) - at)
        return frame_bounds(data, at)

    def traced(*args):
        decoding.set()
        try:
            return decode(*args)
        finally:
            decoding.clear()

    monkeypatch.setattr(multidim, "_frame_bounds", spy)
    monkeypatch.setattr(service, "decode_log", traced)
    return walks


class TestSealFromRecordedBounds:
    """The seal reads the log's frames from the bounds the log recorded as
    it opened and appended, so it never walks their headers again, and it
    reports what the walk would."""

    def test_a_decode_without_bounds_walks_the_log(self, seal_walks):
        # The spy sees the walk it must not see at a seal.
        data = _frames(_model_payloads())
        service.decode_log(data, PARAMS)
        assert seal_walks == [len(data)]

    @given(records=st.lists(_RECORDS, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_recorded_bounds_decode_as_the_walk_does(self, records):
        data = _frames(records)
        reports, csv_text = decode_log(data, PARAMS, frame_bounds(data))
        assert (reports, csv_text) == decode_log(data, PARAMS)

    def test_daemon_fed_by_concurrent_connections_seals_without_a_walk(
        self, aggregation_server, tmp_path, seal_walks
    ):
        # More connections than cores, each handler thread switched out
        # often: bounds recorded out of file order or lost would make the
        # seal walk.
        records = _model_payloads() * 30
        stream = _frames(records)

        def send(_):
            with ServiceClient("127.0.0.1", aggregation_server.port) as client:
                return client.submit_raw(stream, len(records))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(3) as pool:
                assert list(pool.map(send, range(3), timeout=60)) == [(len(records), 0)] * 3
        finally:
            sys.setswitchinterval(interval)
        with ServiceClient("127.0.0.1", aggregation_server.port) as client:
            client.seal_and_decode()
        assert seal_walks == []
        log = aggregation_server.log.path.read_bytes()
        assert len(log) == 3 * len(stream)
        assert aggregation_server.log.bounds.tolist() == frame_bounds(log).tolist()
        assert (tmp_path / "report.csv").read_text() == decode_log(log, PARAMS)[1]

    def test_restarted_daemon_seals_without_a_walk(self, tmp_path, seal_walks):
        # The first daemon's log loses the end of a last write; the second
        # cuts it when the log opens, takes more and seals.
        records = _model_payloads()
        stream, path = _frames(records), tmp_path / "log.bin"
        for restarted in (False, True):
            server = AggregationServer(("127.0.0.1", 0), path, PARAMS, tmp_path / "report.csv")
            server.start_background()
            try:
                with ServiceClient("127.0.0.1", server.port) as client:
                    assert client.submit_raw(stream, len(records)) == (len(records), 0)
                    if restarted:
                        client.seal_and_decode()
            finally:
                server.stop()
            if not restarted:
                with open(path, "ab") as f:
                    f.write(stream[:100])
        assert seal_walks == []
        assert path.read_bytes() == stream + stream
        assert (tmp_path / "report.csv").read_text() == decode_log(stream + stream, PARAMS)[1]

    def test_bounds_recorded_frame_by_frame_and_at_reopen(self, tmp_path, seal_walks):
        # One append per frame, then the open check and one more append.
        records = _model_payloads()
        path = tmp_path / "log.bin"
        log = SubmissionLog(path)
        for record in records:
            _append(log, wire.encode_frame(*record))
        assert log.bounds.tolist() == frame_bounds(_frames(records)).tolist()
        log.close()
        again = SubmissionLog(path)
        _append(again, _frames(records))
        _, out = seal_and_report(again, PARAMS, tmp_path / "report.csv")
        assert seal_walks == []
        assert again.bounds.tolist() == frame_bounds(path.read_bytes()).tolist()
        assert out.read_text() == decode_log(path.read_bytes(), PARAMS)[1]

    def test_frame_cut_short_across_the_last_read_is_cut_at_open(self, tmp_path, seal_walks):
        # The log's last receive-sized read holds no whole frame: a crash
        # cut short the frame that began in the read before.  The open check
        # records a chunk with no frames, and an append after it must still
        # land at the end of the whole frames.
        frames = _interleaved(_maximum_frames(16))
        ends = list(itertools.accumulate(map(len, frames)))
        i = next(i for i, end in enumerate(ends) if end > _RECV + 1)
        whole = b"".join(frames[:i])
        assert len(whole) < _RECV
        torn, path = whole + frames[i][: _RECV + 1 - len(whole)], tmp_path / "log.bin"
        path.write_bytes(torn)
        opened = SubmissionLog(path)
        opened.close()
        assert path.read_bytes() == whole
        assert opened.bounds.tolist() == frame_bounds(whole).tolist()
        path.write_bytes(torn)
        log, more = SubmissionLog(path), _frames(_model_payloads())
        _append(log, more)
        _, out = seal_and_report(log, PARAMS, tmp_path / "report.csv")
        assert seal_walks == []
        assert path.read_bytes() == whole + more
        assert log.bounds.tolist() == frame_bounds(whole + more).tolist()
        assert out.read_text() == decode_log(whole + more, PARAMS)[1]

    def test_bounds_of_one_frame_appends_cost_eight_bytes_a_frame(self, tmp_path):
        # A request/response client sends one frame per receive, so each
        # append may record a single frame; its bounds must not cost more
        # than the frame's end does.
        frame, count = wire.encode_frame(*_model_payloads()[0]), 20_000
        bounds, log = frame_bounds(frame), SubmissionLog(tmp_path / "log.bin")
        tracemalloc.start()
        try:
            for _ in range(count):
                log.append(frame, bounds)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        log.close()
        assert held < 16 * count
        assert log.bounds.tolist() == list(range(0, len(frame) * count + 1, len(frame)))

    def test_offline_seal_and_decode_without_a_walk(self, tmp_path, seal_walks):
        from nebula.cli import main

        stream, path, cfg = _frames(_model_payloads()), tmp_path / "log.bin", tmp_path / "params.cfg"
        path.write_bytes(stream)
        cfg.write_text(params_to_config(PARAMS))
        report = tmp_path / "report.csv"
        argv = ["aggregation-server", "--log", str(path), "--params", str(cfg), "--report", str(report)]
        assert main([*argv, "--seal-and-decode"]) == 0
        assert seal_walks == []
        assert report.read_text() == decode_log(stream, PARAMS)[1]
