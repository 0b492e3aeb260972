"""Chained-prefix encoding and layered decoding for multi-attribute records.

A record [x1, ..., xl] is encoded as one submission per prefix
[x1], [x1,x2], ..., each tagged with randomness obtained for that prefix.
The layer-1 submission travels in the clear (normal framing); the layer-i
submission (i >= 2) is wrapped in authenticated encryption under the
symmetric key of layer i-1.  A layer's key only becomes known to the
aggregation side when that layer's group meets the threshold, so decoding
halts, per branch, at the first sub-threshold prefix: deeper attributes
of rare prefixes stay cryptographically sealed.

Wrapping nonces are the layer index and keys are per-prefix-value, but a
wrapped submission carries the client's fresh share x, so clients sharing
a prefix encrypt different plaintexts under one key and nonce: the same
keystream.  The XOR of two such blobs is the XOR of their submissions,
which shows whether the deeper tags (attributes) match below a prefix that
stayed under the threshold, and the reused Poly1305 one-time key makes
a forged tag possible (README.md, "Known privacy gap"; ROADMAP open item 12).

Decoding reads a submission log's bytes in place.  ``read_log`` checks
every record as array operations over the log and keeps columns of
offsets: each record's layer-1 submission and a cursor at its first
wrapped blob; no record becomes an object.  Each recovered branch decrypts
its members' next-layer blobs at their cursors into one buffer, moves the
cursors past them and groups that buffer the same way.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from . import sharing, wire
from .aggregate import (
    HistogramReport,
    column,
    group_by_tag,
    recover_group,
    reports_from_csv,
    reports_to_csv,
)
from .encode import (
    CIPHERTEXT_AT,
    SHARE_END,
    TAG_SIZE,
    Submission,
    build_submission,
    encryption_key,
    parse_randomness,
    submission_at,
    submission_end,
    submission_size_at,
)
from .params import DpParams

MAX_ATTRIBUTES = 8


@dataclass(frozen=True)
class PrefixChain:
    """Ordered attributes and their canonical prefix serializations."""

    attributes: tuple[bytes, ...]
    prefixes: tuple[bytes, ...]


@dataclass(frozen=True)
class SuperSubmission:
    """Layer-1 submission plus encrypted deeper layers, strictly ordered."""

    layer1: Submission
    wrapped_layers: tuple[bytes, ...]

    def to_bytes(self) -> bytes:
        parts = [bytes([1 + len(self.wrapped_layers)]), self.layer1.to_bytes()]
        for blob in self.wrapped_layers:
            parts.append(struct.pack("<I", len(blob)))
            parts.append(blob)
        return b"".join(parts)

    @staticmethod
    def from_bytes(data: bytes) -> "SuperSubmission":
        num_layers = check_record(data, wire.MSG_SUPER_SUBMISSION, 0, len(data))
        layer1_end = submission_end(data, 1)
        return SuperSubmission(
            layer1=submission_at(data, 1, layer1_end),
            wrapped_layers=tuple(
                bytes(data[start:stop])
                for start, stop in _blob_spans(data, layer1_end, num_layers - 1, len(data))
            ),
        )


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


def make_prefixes(attributes: Sequence[bytes]) -> PrefixChain:
    """Length-prefixed (hence collision-free) serializations of all prefixes."""
    if not attributes:
        raise ValueError("attribute list must be non-empty")
    if len(attributes) > MAX_ATTRIBUTES:
        raise ValueError(f"at most {MAX_ATTRIBUTES} attributes supported")
    prefixes = []
    acc = b""
    for attr in attributes:
        if len(attr) > 0xFFFF:
            raise ValueError("attribute too long")
        acc += struct.pack("<H", len(attr)) + attr
        prefixes.append(acc)
    return PrefixChain(attributes=tuple(attributes), prefixes=tuple(prefixes))


def _wrap_nonce(layer_index: int) -> bytes:
    # Layer indices start at 2, so this never collides with the all-zero
    # nonce used for value ciphertexts under the same key.
    return layer_index.to_bytes(12, "big")


def encode_multidim(
    attributes: Sequence[bytes],
    randomness_per_prefix: Sequence[bytes],
    params: DpParams,
    rng,
) -> SuperSubmission:
    """Build the chained message; one oblivious-randomness output per prefix.

    Layer i carries attribute i as its value (the full prefix is implied by
    the decode path), tagged by the randomness of the i-attribute prefix.
    """
    chain = make_prefixes(attributes)
    if len(randomness_per_prefix) != len(chain.prefixes):
        raise ValueError("need exactly one randomness value per prefix")
    layer_subs = [
        build_submission(attr, r, params, rng)
        for attr, r in zip(chain.attributes, randomness_per_prefix)
    ]
    layer_keys = [
        encryption_key(parse_randomness(r).r1) for r in randomness_per_prefix
    ]
    wrapped = []
    for i in range(1, len(layer_subs)):
        aead = ChaCha20Poly1305(layer_keys[i - 1])
        wrapped.append(
            aead.encrypt(_wrap_nonce(i + 1), layer_subs[i].to_bytes(), None)
        )
    return SuperSubmission(layer1=layer_subs[0], wrapped_layers=tuple(wrapped))


@dataclass(frozen=True)
class LogIndex:
    """Where each record of a submission log sits, as columns over ``data``.

    In log order, ``starts`` holds the offset of each record's layer-1
    submission, ``cursors`` the offset of its first wrapped blob's length
    prefix (the record's end when it has none) and ``depths`` its layer
    count; nothing is parsed into objects.
    """

    data: bytes
    starts: np.ndarray  # int64
    cursors: np.ndarray  # int64
    depths: np.ndarray  # uint8
    layers: int  # the most layers any record carries
    chained: bool  # whether any record is a SUPER_SUBMISSION


# The field prime as two big-endian 8-byte words (high, low).
_PRIME_WORDS = (np.uint64(sharing.FIELD_PRIME >> 64), np.uint64(sharing.FIELD_PRIME & (2**64 - 1)))


def _frame_offsets(data: bytes) -> tuple[np.ndarray, int]:
    """Payload offsets of the whole submission frames that open ``data``,
    and where the walk stopped: at the end, or at the first frame with a bad
    header, another record type or a torn tail."""
    offsets = array("q")
    append, unpack = offsets.append, wire.HEADER.unpack_from
    size, last = len(data), len(data) - wire.HEADER_SIZE
    version, plain, chained = wire.VERSION, wire.MSG_SUBMISSION, wire.MSG_SUPER_SUBMISSION
    limit = wire.MAX_PAYLOAD_SIZE
    at = 0
    while at <= last:
        frame_version, msg_type, length = unpack(data, at)
        end = at + wire.HEADER_SIZE + length
        if (
            frame_version != version
            or (msg_type != plain and msg_type != chained)
            or length > limit
            or end > size
        ):
            break
        append(at + wire.HEADER_SIZE)
        at = end
    return np.frombuffer(offsets, dtype=np.int64), at


def _raise_at_stop(data: bytes, at: int) -> None:
    """Raise what stopped the header walk at ``at``, as the frame walker and
    ``check_record`` word it."""
    if len(data) - at >= wire.HEADER_SIZE:
        msg_type, length = wire.parse_header(data[at : at + wire.HEADER_SIZE])
        payload = at + wire.HEADER_SIZE
        if payload + length <= len(data):
            check_record(data, msg_type, payload, payload + length)
    raise wire.FrameError("truncated log record")


def _at_least_prime(data: bytes, offsets: np.ndarray) -> np.ndarray:
    high, low = column(data, ">u8", offsets), column(data, ">u8", offsets + 8)
    return (high > _PRIME_WORDS[0]) | (high == _PRIME_WORDS[0]) & (low >= _PRIME_WORDS[1])


def _breaks_rules(
    data: bytes, starts: np.ndarray, depths: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``check_record``'s rules as array operations over many records of
    ``data`` at once: the records whose layer-1 submissions sit at
    ``starts``, with ``depths`` layers and ending at ``ends``.

    Returns which records break a rule, and each record's cursor: the offset
    just past its layer-1 submission.  Wrapped blob lengths are walked one
    layer at a time over every record.
    """
    bad = starts + CIPHERTEXT_AT > ends
    bad |= (depths < 1) | (depths > MAX_ATTRIBUTES)
    x = starts + TAG_SIZE
    bad |= _at_least_prime(data, x) | _at_least_prime(data, x + sharing.FIELD_BYTES)
    bad |= (column(data, ">u8", x) == 0) & (column(data, ">u8", x + 8) == 0)
    cursors = starts + CIPHERTEXT_AT + column(data, "<u4", starts + SHARE_END)
    bad |= cursors > ends
    at = cursors
    for layer in range(2, MAX_ATTRIBUTES + 1):
        walking = ~bad & (depths >= layer)
        if not walking.any():
            break
        at = np.where(walking, at + 4 + column(data, "<u4", at), at)
        bad |= at > ends
    bad |= at != ends
    return bad, cursors


def read_log(data: bytes) -> LogIndex:
    """Check every record of a submission log in place and index it.

    One header walk collects the payload offsets; ``check_record``'s rules
    then run over all records at once, as array operations on the log
    bytes.  They only flag: ``check_record`` on the first flagged record in
    log order raises its error, so a log fails as a record-by-record walk
    would.  Raises ValueError for any record ingest would refuse and
    FrameError for an unexpected record type or a truncated tail.
    """
    payloads, stop = _frame_offsets(data)
    ends = np.empty_like(payloads)
    ends[:-1] = payloads[1:] - wire.HEADER_SIZE
    ends[-1:] = stop
    types = column(data, "u1", payloads - wire.HEADER_SIZE + 1)
    is_chained = types == wire.MSG_SUPER_SUBMISSION
    starts = payloads + is_chained
    depths = np.where(is_chained, column(data, "u1", payloads), np.uint8(1))
    bad, cursors = _breaks_rules(data, starts, depths, ends)
    for i in np.flatnonzero(bad).tolist():
        check_record(data, int(types[i]), int(payloads[i]), int(ends[i]))
    if stop != len(data):
        _raise_at_stop(data, stop)
    layers = int(depths.max()) if len(depths) else 1
    return LogIndex(data, starts, cursors, depths, layers, bool(is_chained.any()))


def _as_log(messages: Iterable[SuperSubmission | Submission]) -> bytes:
    """The submission log that holds ``messages``, framed as ingest logs them."""
    return b"".join(
        wire.encode_frame(
            wire.MSG_SUPER_SUBMISSION if isinstance(m, SuperSubmission) else wire.MSG_SUBMISSION,
            m.to_bytes(),
        )
        for m in messages
    )


def decode_multidim(
    records: LogIndex | Iterable[SuperSubmission | Submission],
    threshold: int,
    params: Optional[DpParams] = None,
) -> list[HistogramReport]:
    """Layer-by-layer decoding; recursion halts at sub-threshold prefixes.

    ``records`` is a ``read_log`` index, or messages, which are framed into
    an in-memory log and indexed first, so every decode reads log bytes.
    Returns one report per layer (up to the deepest layer present in the
    input).  Layer 1 carries the dummy-noise flag; deeper layers receive no
    dummy noise and are flagged accordingly.  Revealed keys are attribute
    tuples (the full prefix along the decode path).  A plain submission
    is a one-layer message, so a single-attribute multiset is the
    one-layer case.
    """
    index = records if isinstance(records, LogIndex) else read_log(_as_log(records))
    reports = [
        HistogramReport(params_used=params, dummy_noise_applied=(layer == 1))
        for layer in range(1, index.layers + 1)
    ]

    # Each layer regroups every recovered branch of the layer above by the
    # tag of its members' submissions for this layer.  A branch is a
    # (prefix path, key, member cursors, member depths) tuple, a cursor
    # pointing at the member's next wrapped blob in the log; the root
    # branch holds every record and no key, as layer 1 travels in the clear.
    frontier = [((), None, index.cursors, index.depths)]
    for layer, report in enumerate(reports, start=1):
        next_frontier = []
        for path, key, cursors, depths in frontier:
            if key is None:
                buf, starts = index.data, index.starts
            else:
                buf, starts, cursors, depths = _unwrap_layer(
                    index.data, cursors, depths, key, layer, report
                )
            order, bounds = group_by_tag(buf, starts)
            sizes = bounds[1:] - bounds[:-1]
            below = sizes < threshold
            hist = report.unrevealed_multiplicities
            for count, groups in enumerate(np.bincount(sizes[below]).tolist()):
                if groups:
                    hist[count] = hist.get(count, 0) + groups
            for group in np.flatnonzero(~below).tolist():
                members = order[bounds[group] : bounds[group + 1]]
                outcome = recover_group(buf, starts[members].tolist(), threshold)
                if outcome.status == "recovered":
                    child = path + (outcome.value,)
                    report.revealed[child] = report.revealed.get(child, 0) + outcome.count
                    next_frontier.append((child, outcome.key, cursors[members], depths[members]))
                else:
                    report.malformed_groups += 1
        frontier = next_frontier
    return reports


def _unwrap_layer(
    data: bytes,
    cursors: np.ndarray,
    depths: np.ndarray,
    key: bytes,
    layer: int,
    report: HistogramReport,
) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray]:
    """Decrypt the layer-``layer`` submissions of one recovered branch into
    one buffer; its members' cursors point at their next wrapped blobs in
    the log ``data``.

    Returns the buffer, the offsets in it of the members whose blob opens
    to a submission that keeps the rules, and those members' cursors moved
    past the blob, and depths.  Every other member that carries this layer
    counts one malformed group: an unreadable blob has no tag.
    """
    carried = depths >= layer
    cursors, depths = cursors[carried], depths[carried]
    # read_log walked every blob length, so each blob lies in its record.
    nexts = cursors + 4 + column(data, "<u4", cursors)
    aead = ChaCha20Poly1305(key)
    nonce = _wrap_nonce(layer)
    log = memoryview(data)
    parts: list[bytes] = []
    opened: list[int] = []
    for i, (start, stop) in enumerate(zip((cursors + 4).tolist(), nexts.tolist())):
        try:
            parts.append(aead.decrypt(nonce, log[start:stop], None))
        except InvalidTag:
            continue
        opened.append(i)
    sizes = np.fromiter(map(len, parts), np.int64, len(parts))
    ends = np.cumsum(sizes)
    starts = ends - sizes
    buf = b"".join(parts)
    bad, _ = _breaks_rules(buf, starts, np.ones(len(parts), np.uint8), ends)
    kept = np.flatnonzero(~bad)
    report.malformed_groups += len(cursors) - len(kept)
    members = np.array(opened, dtype=np.intp)[kept]
    return buf, starts[kept], nexts[members], depths[members]


def layered_reports_to_csv(reports: Sequence[HistogramReport]) -> str:
    return reports_to_csv(reports, layered=True)


def layered_reports_from_csv(text: str) -> list[HistogramReport]:
    return reports_from_csv(text)


# --- geographic coarse-graining --------------------------------------------


def geo_attributes(country: str, latitude: float, longitude: float) -> list[bytes]:
    """Country code plus seven digit-pair attributes of increasing precision.

    Coordinates are rounded to three decimal places, formatted to fixed
    width with explicit sign, and their character streams interleaved
    (latitude char, longitude char, ...); the interleaved string is cut
    into two-character chunks and the first seven become attributes 2..8.
    Earlier attributes give coarse location, later ones refine it.
    """
    lat = f"{latitude:+08.3f}".replace(".", "")   # sign + 2 int + 3 frac = 7 chars
    lon = f"{longitude:+09.3f}".replace(".", "")  # sign + 3 int + 3 frac = 8 chars
    interleaved = "".join(a + b for a, b in zip(lat, lon)) + lon[len(lat):]
    chunks = [interleaved[i : i + 2] for i in range(0, len(interleaved), 2)]
    attrs = [country.encode()] + [c.encode() for c in chunks[:7]]
    if len(attrs) != 8:
        raise ValueError("geographic encoding must produce 8 attributes")
    return attrs
