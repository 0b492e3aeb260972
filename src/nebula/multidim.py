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

Every record is checked through one entry, ``check_frames``: ingest, the
log's check when it opens, the log reader and both ``from_bytes`` parsers
call it.  It takes the frames from the bounds a log recorded when they check
against the headers as array operations, else from one header walk, then
checks every record as array operations and keeps columns of offsets: each
record's layer-1 submission and a cursor at its first wrapped blob; no
record becomes an object.  Decoding reads the log's bytes in place.  A
layer's frontier is columns (cursor, depth, branch id) over every member of
every branch recovered in the layer above, cut into batches of whole
branches of at most ``aggregate.BATCH_MEMBERS`` members.  Each batch
decrypts its members' blobs at their cursors into one buffer, under one AEAD
per branch, checks that buffer's records in one pass, groups it by branch
and tag in one sort and selects its groups' points in one batched call, so
the per-member work runs per batch, not per branch.  The layer's taken
groups form one table, interpolated in one call and recovered group by
group; one mask over its members gives the next layer's frontier.
"""

from __future__ import annotations

import itertools
import struct
from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from . import sharing, wire
from .aggregate import (
    X_WORDS,
    Y_WORDS,
    HistogramReport,
    column,
    group_by_tag,
    interpolate_groups,
    recover_group,
    reports_from_csv,
    reports_to_csv,
    select_points,
    whole_batches,
)
from .encode import (
    CIPHERTEXT_AT,
    SHARE_END,
    Submission,
    build_submission,
    encryption_key,
    parse_randomness,
    submission_at,
    submission_end,
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
        check_payload(data, chained=True)
        at = layer1_end = submission_end(data, 1)
        blobs = []
        for _ in range(data[0] - 1):
            (blob_len,) = struct.unpack_from("<I", data, at)
            blobs.append(bytes(data[at + 4 : at + 4 + blob_len]))
            at += 4 + blob_len
        return SuperSubmission(submission_at(data, 1, layer1_end), tuple(blobs))


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
# Where a frame's type byte and its payload's first byte (a SUPER_SUBMISSION's
# layer count) sit past the frame's start.
_TYPE_AND_COUNT = np.array([[1], [wire.HEADER_SIZE]])


def _frame_bounds(data: bytes, at: int) -> np.ndarray:
    """The offsets of the whole submission frames that open ``data[at:]``,
    then where the walk stopped: at the end, or at the first frame with a
    bad header, another record type or a torn tail.  Frame i spans
    ``bounds[i]:bounds[i + 1]``."""
    bounds = array("q")
    append, unpack = bounds.append, wire.HEADER.unpack_from
    size, last = len(data), len(data) - wire.HEADER_SIZE
    version, plain, chained = wire.VERSION, wire.MSG_SUBMISSION, wire.MSG_SUPER_SUBMISSION
    limit = wire.MAX_PAYLOAD_SIZE
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
        append(at)
        at = end
    append(at)
    return np.frombuffer(bounds, dtype=np.int64)


def _at_least_prime(words: np.ndarray) -> np.ndarray:
    """Which of the coordinates whose big-endian (high, low) words are the
    rows of ``words`` are at least the field prime."""
    high, low = words
    return (high > _PRIME_WORDS[0]) | (high == _PRIME_WORDS[0]) & (low >= _PRIME_WORDS[1])


# What a submission record that breaks each rule is refused with, in the
# order the rules are checked: a record is refused for the first rule it
# breaks.  A SUBMISSION answers to rules 0 and 4-6; a SUPER_SUBMISSION to
# every other rule, its layer-1 submission to rules 3-5 and 7.
_REFUSALS = (
    "submission too short",
    "empty super-submission",
    "bad layer count",
    "truncated submission",
    "non-canonical field element",
    "zero x-coordinate",
    "submission ciphertext length mismatch",
    "truncated submission",
    "truncated wrapped layer",
    "trailing bytes after super-submission",
)
_KEPT = len(_REFUSALS)  # the rule index of a record that keeps them all


def _breaks_rules(
    data: bytes, starts: np.ndarray, depths: np.ndarray, ends: np.ndarray, chained: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The record rules as array operations over many records of ``data``
    at once: the records whose layer-1 submissions sit at ``starts``, with
    ``depths`` layers and ending at ``ends``, SUPER_SUBMISSIONs where
    ``chained``.

    Returns the first rule each record breaks, as an index into
    ``_REFUSALS`` (``_KEPT`` if none), and each record's cursor: the offset
    just past its layer-1 submission.  Wrapped blob lengths are walked one
    layer at a time over every record.  Each step moves a record's walk
    forward by at least 4 bytes, so a walk that ever passes its record's end
    ends past it.  Words read past a record's end are some other bytes of
    ``data``: every rule holds exactly for a record that keeps the rules
    before it, and the first broken rule is the one a record-by-record
    check would word.
    """
    # Rule i is worded _REFUSALS[i].  Each rule's mask is written as soon as
    # it is made, the last rule first, so the first broken rule is written
    # last and few masks are alive at once.
    rules = np.full(len(starts), _KEPT, np.uint8)
    x = column(data, ">u8", starts + X_WORDS)  # one gather for both x rules
    cursors = starts + CIPHERTEXT_AT + column(data, "<u4", starts + SHARE_END)
    at = cursors
    for layer in range(2, min(int(depths.max(initial=1)), MAX_ATTRIBUTES) + 1):
        at = np.where(depths >= layer, at + 4 + column(data, "<u4", at), at)
    rules[at != ends] = 9
    rules[at > ends] = 8
    rules[cursors > ends] = 7
    rules[(at != ends) & ~chained] = 6
    del at
    rules[(x[0] | x[1]) == 0] = 5
    rules[_at_least_prime(x) | _at_least_prime(column(data, ">u8", starts + Y_WORDS))] = 4
    del x
    short = ends - starts < CIPHERTEXT_AT
    rules[short] = 3
    rules[(depths < 1) | (depths > MAX_ATTRIBUTES)] = 2
    rules[starts > ends] = 1
    rules[short & ~chained] = 0
    return rules, cursors


# A submission frame's version and type bytes, read as one little-endian word.
_SUBMISSION_KINDS = tuple(
    np.uint16(wire.VERSION | msg_type << 8)
    for msg_type in (wire.MSG_SUBMISSION, wire.MSG_SUPER_SUBMISSION)
)


def _walks_whole(data: bytes, bounds: Optional[np.ndarray]) -> bool:
    """Whether ``bounds`` are what ``_frame_bounds(data, 0)`` returns when
    its walk reaches the end of ``data``; never for None.  It checks the
    walk's steps as array operations: the first frame at 0, each a
    submission header, each frame ending where the next begins and the last
    at the end of ``data``."""
    if (
        bounds is None or len(bounds) == 0
        or bounds[0] != 0 or bounds[-1] != len(data) or bounds.min() < 0
    ):
        return False
    heads = bounds[:-1]
    if len(heads) == 0:
        return True
    kinds = column(data, "<u2", heads)
    lengths = column(data, "<u4", heads + 2)
    return bool(
        np.array_equal(heads + wire.HEADER_SIZE + lengths, bounds[1:])
        and lengths.max() <= wire.MAX_PAYLOAD_SIZE
        and ((kinds == _SUBMISSION_KINDS[0]) | (kinds == _SUBMISSION_KINDS[1])).all()
    )


def check_frames(
    data: bytes, at: int, recorded: Optional[np.ndarray]
) -> tuple[LogIndex, np.ndarray, list[tuple[int, str]]]:
    """Check the whole submission frames that open ``data[at:]``: the one
    entry to the record rules, for ingest, the log reader, the log's check
    when it opens and the ``from_bytes`` parsers.  Returns their index,
    their bounds (each frame's offset, then where the walk stopped) and each
    refusal in frame order as (record, message).

    ``recorded`` is None, or the bounds a log recorded for the whole of
    ``data`` from offset 0 (int64); ingest never has any.  They stand in
    for the header walk when they are exactly what it would find; otherwise
    the headers are walked, so stale bounds never change an index or an
    error.  The record rules run over all records at once as array
    operations, and each refused record is worded by the first rule it
    breaks.
    """
    bounds = recorded if _walks_whole(data, recorded) else _frame_bounds(data, at)
    heads = bounds[:-1]
    types, counts = column(data, "u1", heads + _TYPE_AND_COUNT)
    chained = types == wire.MSG_SUPER_SUBMISSION
    starts = heads + wire.HEADER_SIZE + chained
    depths = np.where(chained, counts, np.uint8(1))
    rules, cursors = _breaks_rules(data, starts, depths, bounds[1:], chained)
    refused = np.flatnonzero(rules != _KEPT)
    refusals = [(i, _REFUSALS[rule]) for i, rule in zip(refused.tolist(), rules[refused].tolist())]
    layers = int(depths.max(initial=1))
    return LogIndex(data, starts, cursors, depths, layers, bool(chained.any())), bounds, refusals


def check_payload(payload: bytes, chained: bool) -> None:
    """Refuse one record's payload, a SUPER_SUBMISSION's if ``chained``,
    exactly as ingest would: framed as a client frames it, so one over
    ``wire.MAX_PAYLOAD_SIZE`` raises ``wire.encode_frame``'s FrameError,
    then checked as a one-frame log, so a refused record raises ValueError
    worded by the first rule it breaks."""
    msg_type = wire.MSG_SUPER_SUBMISSION if chained else wire.MSG_SUBMISSION
    check_log(wire.encode_frame(msg_type, payload), None)


def check_log(data: bytes, recorded: Optional[np.ndarray]) -> tuple[LogIndex, np.ndarray]:
    """Check the whole frames that open the submission log ``data`` in
    place, from the bounds it ``recorded`` as ``check_frames`` takes them;
    returns their index and bounds: each frame's offset, then where they
    end, at the end of ``data`` or where a frame cut short begins.

    What stops the check raises as a record-by-record walk would: the first
    refused record in log order a ValueError worded as ingest words it, a
    whole frame past the last record a FrameError worded from its header
    alone (the frame walker's error for a bad header, else ``unexpected
    record type N``).
    """
    index, bounds, refusals = check_frames(data, 0, recorded)
    for _, refusal in refusals:
        raise ValueError(refusal)
    for msg_type, _, _ in wire.iter_frames(memoryview(data)[int(bounds[-1]) :]):
        raise wire.FrameError(f"unexpected record type {msg_type}")
    return index, bounds


def read_log(data: bytes, bounds: Optional[np.ndarray] = None) -> LogIndex:
    """Check every record of a submission log in place and index it, from
    the ``bounds`` the log recorded (each frame's offset then the end of the
    last, int64) when they check, as ``check_frames`` takes them.

    A log fails as ``check_log`` fails, and one that ends inside a frame
    with FrameError ``truncated log record``.
    """
    index, bounds = check_log(data, bounds)
    if bounds[-1] != len(data):
        raise wire.FrameError("truncated log record")
    return index


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
    params: DpParams,
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

    # A layer's frontier holds every member of every branch recovered in the
    # layer above, as columns: each member's cursor at its next wrapped blob
    # in the log, its depth and its branch id, members of one branch
    # together and in branch order.  ``branches`` holds each branch's
    # (prefix path, key); the root branch holds every record and no key, as
    # layer 1 travels in the clear.
    cursors, depths = index.cursors, index.depths
    branch_of = np.broadcast_to(np.intp(0), len(cursors))
    branches: list[tuple[tuple[bytes, ...], Optional[bytes]]] = [((), None)]
    for layer, report in enumerate(reports, start=1):
        if layer == 1:
            batches = [(index.data, index.starts, branch_of, cursors, depths)]
        else:
            carried = np.flatnonzero(depths >= layer)
            cursors, depths, branch_of = cursors[carried], depths[carried], branch_of[carried]
            runs = np.searchsorted(branch_of, np.arange(len(branches) + 1))
            frontier, keys = (cursors, depths, branch_of), [key for _, key in branches]
            batches = (
                _unwrap(index.data, frontier, runs[lo : hi + 1], keys[lo:hi], layer, report)
                for lo, hi in whole_batches(runs)
            )
        # Per batch: group, count the sub-threshold groups and select the
        # points of the others.  The taken groups of the layer form one table:
        # branch ids, sizes, ciphertexts, points and, for a layer that opens
        # another, their members' cursors and depths.
        branch_ids, sizes, ciphertexts, xs, ys, member_cursors, member_depths = ([] for _ in range(7))
        for buf, starts, batch_branch_of, batch_cursors, batch_depths in batches:
            order, bounds = group_by_tag(buf, starts, batch_branch_of)
            counts = bounds[1:] - bounds[:-1]
            below = counts < threshold
            report.unrevealed_multiplicities.update(counts[below].tolist())
            # The members of groups at or above the threshold, group by group.
            above = order[np.repeat(~below, counts)]
            counts = counts[~below]
            bounds = np.concatenate(([0], np.cumsum(counts)))
            taken, x, y = select_points(buf, starts[above], bounds, threshold)
            report.malformed_groups += len(taken) - int(np.count_nonzero(taken))
            firsts = above[bounds[:-1][taken]]
            branch_ids.append(batch_branch_of[firsts])
            sizes.append(counts[taken])
            # Recovery reads only each taken group's one ciphertext: those are
            # kept until the layer is interpolated, not the batch's buffer.
            ciphertexts += [
                buf[first + CIPHERTEXT_AT : submission_end(buf, first)]
                for first in starts[firsts].tolist()
            ]
            xs.append(x)
            ys.append(y)
            if layer < len(reports):  # the last layer opens no other
                members = above[np.repeat(taken, counts)]
                member_cursors.append(batch_cursors[members])
                member_depths.append(batch_depths[members])
        # Interpolate the table's groups in one call, then recover each.
        secrets = interpolate_groups(np.concatenate(xs, axis=1), np.concatenate(ys, axis=1))
        opened = list(map(recover_group, ciphertexts, secrets))
        recovered = np.array([group is not None for group in opened], bool)
        sizes, next_branches = np.concatenate(sizes), []
        for branch, count, (value, key) in zip(
            np.concatenate(branch_ids)[recovered].tolist(),
            sizes[recovered].tolist(),
            filter(None, opened),
        ):
            child = branches[branch][0] + (value,)
            report.revealed[child] = report.revealed.get(child, 0) + count
            next_branches.append((child, key))
        report.malformed_groups += len(opened) - len(next_branches)
        if layer == len(reports) or not next_branches:
            break
        # Recovered groups' members, group by group, are the next frontier.
        members = np.repeat(recovered, sizes)
        cursors, depths = (
            np.concatenate(columns)[members] for columns in (member_cursors, member_depths)
        )
        branch_of = np.repeat(np.arange(len(next_branches)), sizes[recovered])
        branches = next_branches
    return reports


def _unwrap(
    data: bytes,
    frontier: tuple[np.ndarray, np.ndarray, np.ndarray],
    runs: np.ndarray,
    keys: Sequence[bytes],
    layer: int,
    report: HistogramReport,
) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decrypt the layer-``layer`` submissions of one batch of whole
    recovered branches into one buffer.  ``frontier`` holds the layer's
    (cursors, depths, branch ids); members ``runs[i] : runs[i + 1]`` form
    a branch whose key is ``keys[i]``, each cursor at a wrapped blob in the
    log ``data`` that the key opens.

    Returns the buffer, the offsets in it of the members whose blob opens to
    a submission that keeps the rules, and those members' branch ids,
    cursors moved past the blob, and depths.  Every other member counts one
    malformed group: an unreadable blob has no tag.
    """
    cursors, depths, branch_of = (values[runs[0] : runs[-1]] for values in frontier)
    # read_log walked every blob length, so each blob lies in its record.
    moved = cursors + 4 + column(data, "<u4", cursors)
    nonce = _wrap_nonce(layer)
    log = memoryview(data)
    parts: list[bytes] = []
    blobs = zip((cursors + 4).tolist(), moved.tolist())
    for key, members in zip(keys, (runs[1:] - runs[:-1]).tolist()):
        decrypt = ChaCha20Poly1305(key).decrypt
        for start, stop in itertools.islice(blobs, members):
            try:
                parts.append(decrypt(nonce, log[start:stop], None))
            except InvalidTag:
                parts.append(b"")  # refused below, as too short
    sizes = np.fromiter(map(len, parts), np.int64, len(parts))
    ends = np.cumsum(sizes)
    starts = ends - sizes
    buf = b"".join(parts)
    plain = np.zeros(len(parts), bool)  # an inner layer is a plain submission
    rules, _ = _breaks_rules(buf, starts, np.ones(len(parts), np.uint8), ends, plain)
    kept = np.flatnonzero(rules == _KEPT)
    report.malformed_groups += len(parts) - len(kept)
    return buf, starts[kept], branch_of[kept], moved[kept], depths[kept]


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
    Earlier attributes give coarse location, later ones refine it.  A
    latitude outside [-90, 90] or a longitude outside [-180, 180], NaN
    included, would not fit the widths and raises ValueError.
    """
    if not -90 <= latitude <= 90:
        raise ValueError(f"latitude {latitude} is not in [-90, 90]")
    if not -180 <= longitude <= 180:
        raise ValueError(f"longitude {longitude} is not in [-180, 180]")
    lat = f"{latitude:+08.3f}".replace(".", "")   # sign + 2 int + 3 frac = 7 chars
    lon = f"{longitude:+09.3f}".replace(".", "")  # sign + 3 int + 3 frac = 8 chars
    interleaved = "".join(a + b for a, b in zip(lat, lon)) + lon[len(lat):]
    chunks = [interleaved[i : i + 2] for i in range(0, len(interleaved), 2)]
    return [country.encode()] + [c.encode() for c in chunks[:7]]
