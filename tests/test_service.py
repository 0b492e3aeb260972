"""Daemon and wire tests: framing, endpoints, log lifecycle, isolation."""

import random
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nebula import oprf, wire
from nebula.aggregate import decode_submissions, report_to_csv
from nebula.encode import Submission, build_submission
from nebula.harness import value_randomness
from nebula.params import DpBudget, derive_params
from nebula.service import (
    AggregationServer,
    RandomnessServer,
    SealedError,
    ServiceClient,
    ServiceError,
    SubmissionLog,
    decode_log,
    parse_listen,
    read_log,
)

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


def _make_submissions(spec, seed=0):
    kp = oprf.keygen(b"\x77" * 32)
    rng = random.Random(seed)
    subs = []
    for value, copies in spec.items():
        r = value_randomness(value, kp)
        subs.extend(build_submission(value, r, PARAMS, rng) for _ in range(copies))
    return subs


class TestAggregationEndpoint:
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
        singles, supers = read_log(aggregation_server.log.path)
        assert singles == [] and supers == []

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
            acked, errors = client.submit_stream(frames)
            assert (acked, errors) == (80, 0)
            client.seal_and_decode()


class TestLogLifecycle:
    def test_empty_log_empty_report(self, tmp_path):
        log = SubmissionLog(tmp_path / "log.bin")
        log.seal()
        reports, csv_text = decode_log(tmp_path / "log.bin", PARAMS)
        assert reports[0].revealed == {}
        assert "section,revealed" in csv_text

    def test_append_after_seal_raises(self, tmp_path):
        log = SubmissionLog(tmp_path / "log.bin")
        log.seal()
        with pytest.raises(SealedError):
            log.append(wire.MSG_SUBMISSION, b"\x00")

    def test_seal_marker_survives_reopen(self, tmp_path):
        log = SubmissionLog(tmp_path / "log.bin")
        log.seal()
        again = SubmissionLog(tmp_path / "log.bin")
        assert again.sealed

    def test_decode_log_matches_in_process(self, tmp_path):
        subs = _make_submissions({b"x": 5, b"y": 2, b"z": 3})
        log = SubmissionLog(tmp_path / "log.bin")
        for s in subs:
            log.append(wire.MSG_SUBMISSION, s.to_bytes())
        log.seal()
        _, csv_text = decode_log(tmp_path / "log.bin", PARAMS)
        assert csv_text == report_to_csv(decode_submissions(subs, 3, PARAMS))


    def test_torn_tail_trimmed_on_reopen(self, tmp_path):
        # A crash mid-write leaves the last record short; reopening must drop
        # only that record, so later appends and the decode still work.
        subs = _make_submissions({b"x": 5, b"w": 1})
        path = tmp_path / "log.bin"
        log = SubmissionLog(path)
        for s in subs[:4]:
            log.append(wire.MSG_SUBMISSION, s.to_bytes())
        log.close()
        with open(path, "r+b") as f:
            f.truncate(path.stat().st_size - 10)
        log = SubmissionLog(path)
        log.append(wire.MSG_SUBMISSION, subs[4].to_bytes())
        log.seal()
        singles, supers = read_log(path)
        assert singles == subs[:3] + subs[4:5] and supers == []
        _, csv_text = decode_log(path, PARAMS)
        assert csv_text == report_to_csv(decode_submissions(singles, 3, PARAMS))

    def test_bad_header_mid_log_stays_an_error(self, tmp_path):
        subs = _make_submissions({b"x": 3})
        path = tmp_path / "log.bin"
        log = SubmissionLog(path)
        for s in subs:
            log.append(wire.MSG_SUBMISSION, s.to_bytes())
        log.close()
        raw = bytearray(path.read_bytes())
        raw[len(wire.encode_frame(wire.MSG_SUBMISSION, subs[0].to_bytes()))] = 16
        path.write_bytes(bytes(raw))
        with pytest.raises(wire.FrameError):
            SubmissionLog(path)


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

    def test_parse_listen(self):
        assert parse_listen("127.0.0.1:9000") == ("127.0.0.1", 9000)
        with pytest.raises(ValueError):
            parse_listen("no-port")
