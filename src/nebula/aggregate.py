"""Aggregation primitives: tag grouping, group recovery, the report and its CSV.

The layer loop that drives them is ``multidim.decode_multidim``; a
single-attribute multiset is its one-layer case (``decode_submissions``).
The server sees only tagged submissions, which both primitives read in
place as offsets into a buffer of serialized submissions.  Grouping sorts
the offsets by tag as array operations; groups with at least ``threshold``
members are decoded by interpolating the key shares, deriving the
symmetric key from the field secret, and decrypting the (single,
byte-identical) ciphertext.  Groups below the threshold contribute only
their size, read from the group bounds, to the unrevealed-multiplicity
histogram and are never parsed.

Recovery applies three consistency checks to an above-threshold group:
every member must carry the same ciphertext bytes, authenticated decryption
under the interpolated key must succeed, and the key-seed header inside the
plaintext must re-derive the interpolated field secret.  Any failure marks
the group malformed (cannot happen for honestly produced submissions; dummy
groups never reach the threshold by construction).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Literal, Optional, Sequence
from urllib.parse import unquote_to_bytes

import numpy as np
from cryptography.exceptions import InvalidTag

from . import sharing
from .encode import (
    CIPHERTEXT_AT,
    SHARE_END,
    TAG_SIZE,
    Submission,
    decrypt_with_key,
    key_from_field_secret,
    submission_end,
)
from .params import DpParams, config_items
from .sharing import FIELD_BYTES

@dataclass(frozen=True)
class GroupRecovery:
    status: Literal["recovered", "unrevealed", "malformed"]
    count: int
    value: Optional[bytes] = None
    key: Optional[bytes] = None  # symmetric key, kept for layered decoding


@dataclass
class HistogramReport:
    """Decoded output: revealed values and the sub-threshold multiplicity view.

    The decoder yields one report per layer; ``revealed`` is keyed by the
    attribute tuple along the decode path, a one-element tuple at layer 1.
    """

    revealed: dict[tuple[bytes, ...], int] = field(default_factory=dict)
    unrevealed_multiplicities: dict[int, int] = field(default_factory=dict)
    malformed_groups: int = 0
    params_used: Optional[DpParams] = None
    # False for inner layers of the multi-attribute decoding, where no dummy
    # noise protects the multiplicity histogram.
    dummy_noise_applied: bool = True


def column(data: bytes, dtype: str, offsets: np.ndarray) -> np.ndarray:
    """The ``dtype`` word at each byte offset of ``data``, gathered in one
    array operation through a view that steps one byte per element.

    An offset whose word would run past ``data`` reads some other word of
    it; callers flag such records by their lengths and never trust it.
    """
    dtype = np.dtype(dtype)
    count = len(data) - dtype.itemsize + 1
    if count <= 0:
        return np.zeros(np.shape(offsets), dtype)
    # (shape, dtype, buffer, offset, strides) passed by position: by keyword
    # the view costs more than gathering a few words from it.
    view = np.ndarray((count,), dtype, data, 0, (1,))
    return view[np.minimum(offsets, count - 1)]


def group_by_tag(data: bytes, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order the submissions at offsets ``starts`` of ``data`` by tag.

    Returns ``(order, bounds)``: ``order[bounds[g] : bounds[g + 1]]`` are the
    positions in ``starts`` of group g's members.  One ``np.lexsort`` over
    the four big-endian 8-byte words of each tag orders them; a group ends
    where any word changes.  Member order within a group carries no
    meaning: recovery canonicalizes its own view, so reports are a pure
    function of the submission multiset.
    """
    if len(starts) == 0:
        return np.empty(0, np.intp), np.zeros(1, np.intp)
    # Least significant word first: lexsort sorts by its last key first.
    words = [column(data, ">u8", starts + at) for at in range(TAG_SIZE - 8, -1, -8)]
    order = np.lexsort(words)
    change = np.zeros(len(starts) - 1, dtype=bool)
    while words:
        word = words.pop()[order]
        change |= word[1:] != word[:-1]
    return order, np.flatnonzero(np.concatenate(([True], change, [True])))


def select_shares(data: bytes, starts: Sequence[int], threshold: int) -> list[tuple[int, int]]:
    """The points recovery interpolates: the first ``threshold`` shares with
    pairwise-distinct x in (x, y) order, or all distinct x if fewer.

    Shares are compared as their serialized x||y bytes, whose order is the
    (x, y) order as both coordinates are fixed-width big-endian.  Only the
    ``threshold`` smallest are taken, unless a duplicate x among them means
    the rest must be looked at too.  Only the chosen shares are parsed.
    """
    for k in (threshold, len(starts)):
        chosen: list[bytes] = []
        for share in heapq.nsmallest(k, (data[s + TAG_SIZE : s + SHARE_END] for s in starts)):
            # Sorted, so a repeated x follows its first (smallest-y) share.
            if not chosen or share[:FIELD_BYTES] != chosen[-1][:FIELD_BYTES]:
                chosen.append(share)
                if len(chosen) == threshold:
                    break
        if len(chosen) == threshold:
            break
    return [
        (int.from_bytes(share[:FIELD_BYTES], "big"), int.from_bytes(share[FIELD_BYTES:], "big"))
        for share in chosen
    ]


def recover_group(data: bytes, starts: Sequence[int], threshold: int) -> GroupRecovery:
    """Decode the tag group of submissions at offsets ``starts`` of ``data``
    if it has at least ``threshold`` members."""
    count = len(starts)
    if count < threshold:
        return GroupRecovery(status="unrevealed", count=count)

    # Every member's ciphertext must equal the first's.  Comparing each
    # length-prefixed ciphertext over the first's width compares the
    # lengths as well as the bytes.
    end = submission_end(data, starts[0])
    first = data[starts[0] + SHARE_END : end]
    width = len(first)
    if any(data[s + SHARE_END : s + SHARE_END + width] != first for s in starts):
        return GroupRecovery(status="malformed", count=count)

    points = select_shares(data, starts, threshold)
    if len(points) < threshold:
        return GroupRecovery(status="malformed", count=count)

    secret = sharing.interpolate_at_zero(points)
    key = key_from_field_secret(secret)
    try:
        r1, value = decrypt_with_key(key, data[starts[0] + CIPHERTEXT_AT : end])
    except (InvalidTag, ValueError):
        return GroupRecovery(status="malformed", count=count)
    if sharing.secret_from_key_seed(r1) != secret:
        return GroupRecovery(status="malformed", count=count)
    return GroupRecovery(status="recovered", count=count, value=value, key=key)


def decode_submissions(
    submissions: Iterable[Submission], threshold: int, params: Optional[DpParams] = None
) -> HistogramReport:
    """Single-attribute decode: the one-layer case of ``decode_multidim``,
    which also takes a ``multidim.read_log`` index in place of submissions."""
    from . import multidim

    (report,) = multidim.decode_multidim(submissions, threshold, params)
    return report


# --- CSV serialization ------------------------------------------------------
#
# Layout (documented in README.md, stable across transports):
#   a header line naming the grammar (plain or layered)
#   one `param,<key>,<value>` line per parameter, sorted by key
#   per layer: a `layer,<i>` line (layered reports only), then
#   `section,revealed` / `value,count` header / rows sorted by value field
#   `section,unrevealed` / `multiplicity,num_tags` header / rows ascending
#   `section,meta` / malformed + dummy-noise flags
# Values are percent-encoded so arbitrary bytes survive the CSV; prefix
# components of layered reports are '/'-joined.

_SAFE_VALUE_CHARS = frozenset(
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)

_CSV_HEADERS = {False: "nebula-report,v1", True: "nebula-layered-report,v1"}
_SECTION_LINES = frozenset(f"section,{name}" for name in ("revealed", "unrevealed", "meta"))


def encode_value_field(value: bytes) -> str:
    return "".join(
        chr(b) if b in _SAFE_VALUE_CHARS else f"%{b:02x}" for b in value
    )


def reports_to_csv(reports: Sequence[HistogramReport], layered: bool) -> str:
    """Write per-layer reports as CSV.

    A plain report is the layer-1 case of the layered grammar: it has the
    plain header and no ``layer,1`` line.
    """
    lines = [_CSV_HEADERS[layered]]
    if reports and reports[0].params_used is not None:
        lines += [f"param,{k},{text}" for k, text in config_items(reports[0].params_used)]
    for index, report in enumerate(reports, start=1):
        if layered:
            lines.append(f"layer,{index}")
        lines.append("section,revealed")
        lines.append("value,count")
        for path in sorted(report.revealed):
            joined = "/".join(encode_value_field(a) for a in path)
            lines.append(f"{joined},{report.revealed[path]}")
        lines.append("section,unrevealed")
        lines.append("multiplicity,num_tags")
        for mult in sorted(report.unrevealed_multiplicities):
            lines.append(f"{mult},{report.unrevealed_multiplicities[mult]}")
        lines.append("section,meta")
        lines.append(f"malformed_groups,{report.malformed_groups}")
        lines.append(f"dummy_noise_applied,{int(report.dummy_noise_applied)}")
    return "\n".join(lines) + "\n"


def reports_from_csv(text: str) -> list[HistogramReport]:
    """Parse the CSV written by ``reports_to_csv``; the header line names the
    grammar, and a plain report comes back as its one layer."""
    lines = text.splitlines()
    if not lines or lines[0] not in _CSV_HEADERS.values():
        raise ValueError("not a nebula report")
    reports = [] if lines[0] == _CSV_HEADERS[True] else [HistogramReport()]
    section = None
    for line in lines[1:]:
        # A revealed row ``<value>,<count>`` can start like any marker (the
        # values b"param", b"section" and b"layer" are safe characters), so
        # markers are matched whole, and ``layer,<i>`` outside a revealed
        # section.
        if line in _SECTION_LINES:
            section = line[len("section,") :]
            continue
        if line.startswith("layer,") and section != "revealed":
            reports.append(HistogramReport())
            section = None
            continue
        if section is None or not reports or line in ("value,count", "multiplicity,num_tags"):
            continue  # a parameter or a column header
        current = reports[-1]
        key, _, raw = line.rpartition(",")
        if section == "revealed":
            current.revealed[tuple(unquote_to_bytes(part) for part in key.split("/"))] = int(raw)
        elif section == "unrevealed":
            current.unrevealed_multiplicities[int(key)] = int(raw)
        elif section == "meta":
            if key == "malformed_groups":
                current.malformed_groups = int(raw)
            elif key == "dummy_noise_applied":
                current.dummy_noise_applied = bool(int(raw))
    return reports


def report_to_csv(report: HistogramReport) -> str:
    return reports_to_csv([report], layered=False)


def report_from_csv(text: str) -> HistogramReport:
    return reports_from_csv(text)[0]
