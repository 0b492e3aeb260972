"""Chained-prefix encoding and layered decoding for multi-attribute records.

A record [x1, ..., xl] is encoded as one submission per prefix
[x1], [x1,x2], ..., each tagged with randomness obtained for that prefix.
The layer-1 submission travels in the clear (normal framing); the layer-i
submission (i >= 2) is wrapped in authenticated encryption under the
symmetric key of layer i-1.  A layer's key only becomes known to the
aggregation side when that layer's group meets the threshold, so decoding
halts, per branch, at the first sub-threshold prefix: deeper attributes
of rare prefixes stay cryptographically sealed.

Wrapping nonces are the layer index; keys are per-prefix-value, so clients
sharing a prefix produce identical wrapped blobs (the same deliberate
determinism as the value ciphertexts).

Decoding reads a submission log's bytes in place.  ``read_log`` checks
every record and keeps two offsets per record, its layer-1 submission and
its payload; no record becomes an object.  Each recovered branch decrypts
its members' next-layer blobs, found by walking their blob lengths from the
payload, into one buffer and groups that buffer the same way.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from . import wire
from .aggregate import (
    HistogramReport,
    group_by_tag,
    recover_group,
    reports_from_csv,
    reports_to_csv,
)
from .encode import (
    CIPHERTEXT_AT,
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
    """Where each record of a submission log sits, as offsets into ``data``.

    In log order, ``starts`` holds each record's layer-1 submission and
    ``owners`` its payload; nothing is parsed into objects.
    """

    data: bytes
    starts: list[int]
    owners: list[int]
    layers: int  # the most layers any record carries
    chained: bool  # whether any record is a SUPER_SUBMISSION


def read_log(data: bytes) -> LogIndex:
    """Check every record of a submission log in place and index it.

    Raises ValueError for any record ingest would refuse and FrameError for
    an unexpected record type or a truncated tail.
    """
    starts: list[int] = []
    owners: list[int] = []
    layers, chained, end = 1, False, 0
    for msg_type, payload, end in wire.iter_frames(memoryview(data)):
        start = end - len(payload)
        num_layers = check_record(data, msg_type, start, end)
        owners.append(start)
        if msg_type == wire.MSG_SUPER_SUBMISSION:
            chained = True
            layers = max(layers, num_layers)
            start += 1
        starts.append(start)
    if end != len(data):
        raise wire.FrameError("truncated log record")
    return LogIndex(data, starts, owners, layers, chained)


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
    data = index.data
    reports = [
        HistogramReport(params_used=params, dummy_noise_applied=(layer == 1))
        for layer in range(1, index.layers + 1)
    ]

    # Each layer regroups every recovered branch of the layer above by the
    # tag of its members' submissions for this layer.  A branch is a
    # (prefix path, key, member payload offsets) tuple; the root branch
    # holds every record and no key, as layer 1 travels in the clear.
    frontier = [((), None, index.owners)]
    for layer, report in enumerate(reports, start=1):
        next_frontier = []
        for path, key, owners in frontier:
            if key is None:
                buf, starts = data, index.starts
            else:
                buf, starts, owners = _unwrap_layer(data, owners, key, layer, report)
            for group, group_owners in group_by_tag(buf, starts, owners):
                outcome = recover_group(buf, group, threshold)
                if outcome.status == "recovered":
                    child = path + (outcome.value,)
                    report.revealed[child] = report.revealed.get(child, 0) + outcome.count
                    next_frontier.append((child, outcome.key, group_owners))
                elif outcome.status == "unrevealed":
                    report.unrevealed_multiplicities[outcome.count] = (
                        report.unrevealed_multiplicities.get(outcome.count, 0) + 1
                    )
                else:
                    report.malformed_groups += 1
        frontier = next_frontier
    return reports


def _unwrap_layer(
    data: bytes, owners: list[int], key: bytes, layer: int, report: HistogramReport
) -> tuple[bytes, list[int], list[int]]:
    """Decrypt the layer-``layer`` submissions of one recovered branch, whose
    members' payloads sit at ``owners`` in the log ``data``, into one buffer.

    Returns the buffer, and the offsets in it and owners of the members that
    carry this layer.
    """
    aead = ChaCha20Poly1305(key)
    nonce = _wrap_nonce(layer)
    parts: list[bytes] = []
    starts: list[int] = []
    kept: list[int] = []
    size = 0
    for owner in owners:
        chained = data[owner - wire.HEADER_SIZE + 1] == wire.MSG_SUPER_SUBMISSION
        if not chained or data[owner] < layer:
            continue
        # Re-walk the blob lengths from the payload: this layer's blob is
        # the last of the first ``layer - 1``.
        for start, stop in _blob_spans(data, submission_end(data, owner + 1), layer - 1, len(data)):
            pass
        try:
            sub = aead.decrypt(nonce, data[start:stop], None)
            check_record(sub, wire.MSG_SUBMISSION, 0, len(sub))
        except (InvalidTag, ValueError):
            # Counted per member: an unreadable blob has no tag.
            report.malformed_groups += 1
            continue
        parts.append(sub)
        starts.append(size)
        kept.append(owner)
        size += len(sub)
    return b"".join(parts), starts, kept


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
