"""``read_log``'s columnar checks against the record-by-record walk.

The reference is the walk ``read_log`` used to be: ``wire.iter_frames`` and
``check_record`` per frame.  ``check_record`` is the scalar statement of the
record rules the program checks as array operations; it lives here, and
the ingest tests in ``test_service.py`` take it as their reference too.  On
logs with injected faults the columnar index must raise the same exception
class with the same message, for the first faulty record in log order, and
on clean logs index the same records.
"""

import random
import struct

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nebula import multidim, sharing, wire
from nebula.encode import CIPHERTEXT_AT, SHARE_END, TAG_SIZE, Submission, submission_end
from nebula.multidim import MAX_ATTRIBUTES, LogIndex, SuperSubmission, check_frames, read_log


def check_record(data: bytes, msg_type: int, start: int, end: int) -> int:
    """Check the payload ``data[start:end]`` of a ``msg_type`` record in place
    and return its layer count; builds nothing.

    Ingest, the log reader and the inner-layer decode all apply these rules.
    A SUBMISSION is the one-layer record, with no count byte and no wrapped
    layers.  Raises FrameError for a type that is no submission record and
    ValueError for a payload that breaks a rule.
    """
    if msg_type == wire.MSG_SUBMISSION:
        if end - start < CIPHERTEXT_AT:
            raise ValueError("submission too short")
        if start + submission_size_at(data, start) != end:
            raise ValueError("submission ciphertext length mismatch")
        return 1
    if msg_type != wire.MSG_SUPER_SUBMISSION:
        raise wire.FrameError(f"unexpected record type {msg_type}")
    if start >= end:
        raise ValueError("empty super-submission")
    num_layers = data[start]
    if not 1 <= num_layers <= MAX_ATTRIBUTES:
        raise ValueError("bad layer count")
    # Against ``end``, not ``len(data)``: in a log the next frame follows.
    if start + 1 + CIPHERTEXT_AT > end:
        raise ValueError("truncated submission")
    at = start + 1 + submission_size_at(data, start + 1)
    if at > end:
        raise ValueError("truncated submission")
    for _, at in _blob_spans(data, at, num_layers - 1, end):
        pass
    if at != end:
        raise ValueError("trailing bytes after super-submission")
    return num_layers


def _blob_spans(data: bytes, at: int, count: int, end: int):
    """Yield the ``(start, stop)`` of ``count`` length-prefixed wrapped blobs
    laid out from ``at``; ValueError if one runs past ``end``."""
    for _ in range(count):
        start = at + 4
        if start > end:
            raise ValueError("truncated wrapped layer")
        (blob_len,) = struct.unpack_from("<I", data, at)
        at = start + blob_len
        if at > end:
            raise ValueError("truncated wrapped layer")
        yield start, at


# Big-endian bytes of the field prime: a 16-byte coordinate is canonical
# exactly when it compares below these.
_PRIME_BYTES = sharing.encode_element(sharing.FIELD_PRIME)
_ZERO_ELEMENT = bytes(sharing.FIELD_BYTES)


def submission_size_at(data: bytes, offset: int) -> int:
    """Declared size of the serialized submission at ``offset``.

    The rules every submission obeys, checked on the raw bytes: the fixed
    prefix fits in ``data``, both share coordinates are canonical field
    elements and x is nonzero.  The caller checks that the declared size
    fits what it holds.
    """
    if offset + CIPHERTEXT_AT > len(data):
        raise ValueError("truncated submission")
    x_at = offset + TAG_SIZE
    y_at = x_at + sharing.FIELD_BYTES
    x = data[x_at:y_at]
    if x >= _PRIME_BYTES or data[y_at : y_at + sharing.FIELD_BYTES] >= _PRIME_BYTES:
        raise ValueError("non-canonical field element")
    if x == _ZERO_ELEMENT:
        raise ValueError("zero x-coordinate")
    (ct_len,) = struct.unpack_from("<I", data, offset + SHARE_END)
    return CIPHERTEXT_AT + ct_len


def reference_read_log(data: bytes):
    starts, layers, chained, end = [], 1, False, 0
    for msg_type, payload, end in wire.iter_frames(memoryview(data)):
        start = end - len(payload)
        num_layers = check_record(data, msg_type, start, end)
        if msg_type == wire.MSG_SUPER_SUBMISSION:
            chained = True
            layers = max(layers, num_layers)
            start += 1
        starts.append(start)
    if end != len(data):
        raise wire.FrameError("truncated log record")
    return starts, layers, chained


def frame_bounds(data: bytes) -> np.ndarray:
    """Where each whole frame of ``data`` starts, then where the last ends,
    by ``wire.iter_frames``: the bounds a submission log records for the
    frames it holds."""
    return np.array([0, *(end for _, _, end in wire.iter_frames(memoryview(data)))], np.int64)


def outcome(read, data: bytes):
    try:
        result = read(data)
    except Exception as exc:  # the class and text are what is compared
        return type(exc), str(exc)
    if isinstance(result, LogIndex):
        assert result.cursors.tolist() == [submission_end(data, s) for s in result.starts.tolist()]
        return result.starts.tolist(), result.layers, result.chained
    return result


def refusal(check, payload: bytes) -> tuple[type, str] | None:
    """The exception class and message ``check(payload)`` raises, if any."""
    try:
        check(payload)
    except Exception as exc:  # the class and text are what is compared
        return type(exc), str(exc)
    return None


def submission(rng: random.Random, ct_len: int) -> bytes:
    x = rng.randrange(1, sharing.FIELD_PRIME)
    y = rng.randrange(sharing.FIELD_PRIME)
    return b"".join((
        rng.randbytes(32), x.to_bytes(16, "big"), y.to_bytes(16, "big"),
        struct.pack("<I", ct_len), rng.randbytes(ct_len),
    ))


def record(rng: random.Random, chained: bool, depth: int, ct_len: int) -> bytes:
    if not chained:
        return submission(rng, ct_len)
    blobs = (rng.randbytes(rng.randrange(0, 20)) for _ in range(depth - 1))
    return bytes([depth]) + submission(rng, ct_len) + b"".join(
        struct.pack("<I", len(b)) + b for b in blobs
    )


def header(version: int, msg_type: int, length: int) -> bytes:
    return struct.pack("<BBI", version, msg_type, length)


HEADER_FAULTS = ("version", "unknown_type", "oversized", "type_6")
PAYLOAD_FAULTS = (
    "short", "ct_len", "x_high", "y_prime", "x_zero", "layer_count",
    "truncated_blob", "trailing", "flip",
)


def faulty_frame(kind: str, msg_type: int, payload: bytes, rng: random.Random) -> bytes:
    """The frame of ``payload`` with fault ``kind`` injected."""
    p = bytearray(payload)
    sub = 1 if msg_type == wire.MSG_SUPER_SUBMISSION else 0
    if kind == "version":
        return header(2, msg_type, len(p)) + p
    if kind == "unknown_type":
        return header(wire.VERSION, rng.choice([0, 10, 11, 255]), len(p)) + p
    if kind == "oversized":
        return header(wire.VERSION, msg_type, wire.MAX_PAYLOAD_SIZE + 1) + p
    if kind == "type_6":
        return header(wire.VERSION, wire.MSG_ACK, len(p)) + p
    if kind == "short":
        p = p[: rng.randrange(0, sub + 68)]
    elif kind == "ct_len":
        ct_len = int.from_bytes(p[sub + 64 : sub + 68], "little")
        p[sub + 64 : sub + 68] = (ct_len + rng.choice([1, -1 if ct_len else 2])).to_bytes(4, "little")
    elif kind == "x_high":
        p[sub + 32 : sub + 48] = b"\xff" * 16
    elif kind == "y_prime":
        p[sub + 48 : sub + 64] = sharing.FIELD_PRIME.to_bytes(16, "big")
    elif kind == "x_zero":
        p[sub + 32 : sub + 48] = bytes(16)
    elif kind == "layer_count":
        p[0] = rng.choice([0, MAX_ATTRIBUTES + 1, 255])
    elif kind == "truncated_blob":
        del p[len(p) - rng.randrange(1, 8) :]
    elif kind == "trailing":
        p += rng.randbytes(rng.randrange(1, 6))
    elif kind == "flip" and p:
        p[rng.randrange(len(p))] ^= 1 << rng.randrange(8)
    return header(wire.VERSION, msg_type, len(p)) + p


@st.composite
def faulty_logs(draw):
    n = draw(st.integers(1, 7))
    shapes = draw(st.lists(
        st.tuples(st.booleans(), st.integers(1, MAX_ATTRIBUTES), st.integers(0, 24)),
        min_size=n, max_size=n,
    ))
    kinds = st.sampled_from(HEADER_FAULTS + PAYLOAD_FAULTS)
    faults = dict(draw(st.lists(
        st.tuples(st.integers(0, n - 1), kinds), max_size=2, unique_by=lambda f: f[0]
    )))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    frames = []
    for i, (chained, depth, ct_len) in enumerate(shapes):
        kind = faults.get(i)
        if kind in ("layer_count", "truncated_blob"):
            chained, depth = True, max(depth, 2)
        msg_type = wire.MSG_SUPER_SUBMISSION if chained else wire.MSG_SUBMISSION
        payload = record(rng, chained, depth, ct_len)
        frames.append(
            faulty_frame(kind, msg_type, payload, rng) if kind else wire.encode_frame(msg_type, payload)
        )
    log = b"".join(frames)
    if draw(st.booleans()):  # a torn tail
        log = log[: len(log) - draw(st.integers(1, len(frames[-1]) - 1))]
    return log


@given(log=faulty_logs())
@settings(max_examples=500, deadline=None)
def test_read_log_fails_as_the_record_walk_does(log):
    expected = outcome(reference_read_log, log)
    event(expected[1] if isinstance(expected[1], str) else "indexed")
    assert outcome(read_log, log) == expected


def walked_records(data: bytes) -> list[tuple[int, bytes]]:
    """The (type, payload) of each submission record that opens ``data``,
    up to the first frame that is none or is cut short."""
    records = []
    try:
        for msg_type, payload, _ in wire.iter_frames(data):
            if msg_type not in (wire.MSG_SUBMISSION, wire.MSG_SUPER_SUBMISSION):
                break
            records.append((msg_type, bytes(payload)))
    except wire.FrameError:
        pass
    return records


@given(log=faulty_logs())
@settings(max_examples=300, deadline=None)
def test_each_record_refused_as_the_record_walk_refuses(log):
    # Ingest's check words each refused record, and each ``from_bytes``
    # refuses its payload, with the reference's exception class and message.
    records = walked_records(log)
    _, bounds, refusals = check_frames(log, 0)
    assert len(bounds) - 1 == len(records)
    expected = [
        (i, refusal(lambda p: check_record(p, msg_type, 0, len(p)), payload))
        for i, (msg_type, payload) in enumerate(records)
    ]
    assert [(i, (ValueError, message)) for i, message in refusals] == [
        (i, refused) for i, refused in expected if refused is not None
    ]
    for (msg_type, payload), (_, refused) in zip(records, expected):
        parse = (SuperSubmission if msg_type == wire.MSG_SUPER_SUBMISSION else Submission).from_bytes
        assert refusal(parse, payload) == refused
        if refused is None:
            assert parse(payload).to_bytes() == payload


_CLEAN = wire.encode_frame(wire.MSG_SUBMISSION, submission(random.Random(1), 10))
_ZERO_X = wire.encode_frame(wire.MSG_SUBMISSION, _CLEAN[6:38] + bytes(16) + _CLEAN[54:])


@pytest.mark.parametrize(
    "log, error, message",
    [
        # A payload fault comes before a header fault later in the log.
        (_CLEAN + _ZERO_X + header(2, 3, 0), ValueError, "zero x-coordinate"),
        (_CLEAN + _ZERO_X + _CLEAN[:9], ValueError, "zero x-coordinate"),
        (_CLEAN + wire.encode_frame(wire.MSG_ACK, b"") + _ZERO_X, wire.FrameError, "unexpected record type 6"),
        (b"", None, None),
        (b"\x01", wire.FrameError, "truncated log record"),
        (wire.encode_frame(wire.MSG_SUBMISSION, b""), ValueError, "submission too short"),
        (wire.encode_frame(wire.MSG_SUPER_SUBMISSION, b""), ValueError, "empty super-submission"),
        (wire.encode_frame(wire.MSG_SUPER_SUBMISSION, b"\x01"), ValueError, "truncated submission"),
        # Cut inside its layer-1 submission: the next frame's tag must not be
        # read as the cut record's share (it would make y non-canonical).
        (wire.encode_frame(wire.MSG_SUPER_SUBMISSION, b"\x01" + b"\x11" * 40)
         + wire.encode_frame(wire.MSG_SUBMISSION, b"\xff" * 32 + _CLEAN[38:]),
         ValueError, "truncated submission"),
        (wire.encode_frame(wire.MSG_SUPER_SUBMISSION, b"\x01" + _CLEAN[6:] + b"\0"), ValueError,
         "trailing bytes after super-submission"),
    ],
)
def test_first_fault_in_log_order(log, error, message):
    assert outcome(read_log, log) == outcome(reference_read_log, log)
    assert outcome(lambda data: read_log(data, length_bounds(data)), log) == outcome(read_log, log)
    if error is None:
        assert outcome(read_log, log) == ([], 1, False)
    else:
        assert outcome(read_log, log) == (error, message)


# --- the frame offsets a log recorded, standing in for the header walk ------


@st.composite
def clean_logs(draw):
    """A log of good records: plain, chained and one-layer chained frames."""
    shapes = draw(st.lists(
        st.tuples(st.booleans(), st.integers(1, MAX_ATTRIBUTES), st.integers(0, 24)), max_size=12
    ))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return b"".join(
        wire.encode_frame(
            wire.MSG_SUPER_SUBMISSION if chained else wire.MSG_SUBMISSION,
            record(rng, chained, depth, ct_len),
        )
        for chained, depth, ct_len in shapes
    )


def columns(index) -> tuple:
    return (
        index.data, index.starts.tolist(), index.cursors.tolist(), index.depths.tolist(),
        index.starts.dtype, index.cursors.dtype, index.depths.dtype, index.layers, index.chained,
    )


@given(log=clean_logs())
@settings(max_examples=300, deadline=None)
def test_recorded_bounds_index_as_the_walk_does(log):
    bounds = frame_bounds(log)
    # The bounds pass the check, and they are what the walk finds.
    assert multidim._walks_whole(log, bounds)
    assert bounds.tolist() == check_frames(log, 0)[1].tolist()
    assert columns(read_log(log, bounds)) == columns(read_log(log))


STALE = ("drop", "shift", "extra", "longer", "shorter", "no_frames", "empty")


def length_bounds(log: bytes) -> np.ndarray:
    """Every header of ``log`` found by its length field alone, bad headers
    too, then where the last frame ends: bounds that chain up, so only the
    header check can refuse them."""
    bounds = [0]
    while bounds[-1] + wire.HEADER_SIZE <= len(log):
        bounds.append(bounds[-1] + wire.HEADER_SIZE + struct.unpack_from("<I", log, bounds[-1] + 2)[0])
    return np.array(bounds, np.int64)


def stale_bounds(kind: str, log: bytes, bounds: np.ndarray, rng: random.Random) -> np.ndarray:
    """A log's ``bounds`` made stale as ``kind`` says; the log holds at
    least one frame."""
    i = rng.randrange(len(bounds) - 1)  # a frame, not the end
    if kind == "drop":
        return np.delete(bounds, i)
    if kind == "shift":
        return bounds + np.where(np.arange(len(bounds)) == i, rng.choice([-1, 1]), 0)
    if kind == "extra":
        extra = rng.choice(sorted(set(range(1, len(log))) - set(bounds.tolist())))
        return np.sort(np.append(bounds, extra))
    if kind == "longer":  # the bounds of this log with one more frame
        return np.append(bounds, bounds[-1] + rng.randrange(wire.HEADER_SIZE, 200))
    if kind == "shorter":  # the bounds of this log without its last frame
        return bounds[:-1]
    if kind == "no_frames":  # the bounds of an empty log
        return np.zeros(1, np.int64)
    return np.empty(0, np.int64)


@given(log=st.one_of(clean_logs(), faulty_logs()), kind=st.sampled_from(STALE), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=500, deadline=None)
def test_stale_bounds_read_as_the_walk_reads(log, kind, seed):
    # The walk's own bounds, then the same made stale: a torn or refused log
    # fails with the walk's class and message, a clean one indexes the same.
    _, bounds, _ = check_frames(log, 0)
    expected = outcome(read_log, log)
    assert outcome(lambda data: read_log(data, bounds), log) == expected
    assert outcome(lambda data: read_log(data, length_bounds(data)), log) == expected
    if len(bounds) == 1:
        return
    stale = stale_bounds(kind, log, bounds, random.Random(seed))
    event(kind)
    assert not multidim._walks_whole(log, stale)
    assert outcome(lambda data: read_log(data, stale), log) == expected
    if not isinstance(expected[1], str):
        assert columns(read_log(log, stale)) == columns(read_log(log))


def test_bounds_over_an_oversized_frame_read_as_the_walk_reads():
    # A whole frame longer than any submission, its bounds recorded.
    log = _CLEAN + header(wire.VERSION, wire.MSG_SUBMISSION, wire.MAX_PAYLOAD_SIZE + 1) + bytes(
        wire.MAX_PAYLOAD_SIZE + 1
    )
    assert length_bounds(log).tolist() == [0, len(_CLEAN), len(log)]
    assert outcome(lambda data: read_log(data, length_bounds(data)), log) == outcome(read_log, log)
    assert outcome(read_log, log) == (wire.FrameError, "frame payload too large")
