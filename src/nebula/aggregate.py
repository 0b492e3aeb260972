"""Aggregation primitives: tag grouping, group recovery, the report and its CSV.

The layer loop that drives them is ``multidim.decode_multidim``; a
single-attribute multiset is its one-layer, one-branch case
(``decode_submissions``).  The server sees only tagged submissions, which
both primitives read in place as offsets into a buffer of serialized
submissions.  Grouping sorts the offsets by branch and tag as array
operations.  Groups below the threshold contribute only their size, read
from the group bounds, to the unrevealed-multiplicity histogram and are
never parsed.

Groups with at least ``threshold`` members are recovered in two steps.
``select_points`` takes them in batches of whole groups, at most
``BATCH_MEMBERS`` members each, and per batch checks that every member
carries its group's first member's ciphertext bytes and picks each group's
first ``threshold`` distinct-x shares, all as array operations.
``recover_group`` then decodes one group: it interpolates the key shares,
derives the symmetric key from the field secret, decrypts the (single,
byte-identical) ciphertext and checks that the key-seed header inside the
plaintext re-derives the interpolated field secret.  A failed check marks
the group malformed (cannot happen for honestly produced submissions; dummy
groups never reach the threshold by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal, Optional, Sequence
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
    status: Literal["recovered", "malformed"]
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


# The most members one array pass holds: the decoder cuts a layer into
# batches of whole branches, and recovery its groups into batches of whole
# groups, of at most this many members each, so transient memory stays flat.
BATCH_MEMBERS = 2048
# Where the high and low words of a submission's x and y sit past its
# start, as columns to broadcast against a row of starts.
X_WORDS = TAG_SIZE + np.array([[0], [8]])
Y_WORDS = X_WORDS + FIELD_BYTES


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


def group_by_tag(
    data: bytes, starts: np.ndarray, branches: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Order the submissions at offsets ``starts`` of ``data`` by branch,
    then by tag: ``branches`` holds each submission's branch id.

    Returns ``(order, bounds)``: ``order[bounds[g] : bounds[g + 1]]`` are the
    positions in ``starts`` of group g's members, which share their branch
    and their tag, so equal tags under two branches stay apart.  One
    ``np.lexsort`` over the branch id and the four big-endian 8-byte words
    of each tag orders them; a group ends where any key changes.  Member
    order within a group carries no meaning: recovery canonicalizes its own
    view, so reports are a pure function of the submission multiset.
    """
    if len(starts) == 0:
        return np.empty(0, np.intp), np.zeros(1, np.intp)
    # Least significant key first: lexsort sorts by its last key first.
    keys = [column(data, ">u8", starts + at) for at in range(TAG_SIZE - 8, -1, -8)]
    keys.append(branches)
    order = np.lexsort(keys)
    change = np.zeros(len(starts) - 1, dtype=bool)
    while keys:
        key = keys.pop()[order]
        change |= key[1:] != key[:-1]
    return order, np.flatnonzero(np.concatenate(([True], change, [True])))


def whole_batches(bounds: np.ndarray) -> list[tuple[int, int]]:
    """Cut the runs ``bounds[i] : bounds[i + 1]`` into batches of whole runs,
    each ``(first run, run past the last)``, holding at most
    ``BATCH_MEMBERS`` members or one run that alone holds more."""
    batches = []
    lo, runs = 0, len(bounds) - 1
    while lo < runs:
        hi = int(np.searchsorted(bounds, bounds[lo] + BATCH_MEMBERS, "right")) - 1
        batches.append((lo, max(hi, lo + 1)))
        lo = batches[-1][1]
    return batches


def select_points(
    data: bytes, starts: np.ndarray, bounds: np.ndarray, threshold: int
) -> Iterator[Optional[list[tuple[int, int]]]]:
    """The points recovery interpolates, for each group of at least
    ``threshold`` members: ``starts[bounds[g] : bounds[g + 1]]`` are the
    offsets in ``data`` of group g's submissions.

    A group gets the first ``threshold`` of its shares with pairwise-distinct
    x, in (x, y) order, or None when a member's ciphertext differs from its
    first member's or it has fewer distinct x.  Groups are taken in batches
    of whole groups, each checked and selected as array operations; a
    group's points are made only when it is reached.
    """
    for lo, hi in whole_batches(bounds):
        batch = bounds[lo : hi + 1]
        yield from _select_batch(data, starts[batch[0] : batch[-1]], batch - batch[0], threshold)


def _select_batch(
    data: bytes, starts: np.ndarray, bounds: np.ndarray, threshold: int
) -> Iterator[Optional[list[tuple[int, int]]]]:
    """``select_points`` over one batch of whole groups."""
    sizes = bounds[1:] - bounds[:-1]
    group = np.repeat(np.arange(len(sizes)), sizes)

    # Ciphertext check: every member's length word, then its ciphertext
    # bytes, must equal its group's first member's.  Bytes are compared as
    # one 2-D gather per ciphertext width, from a view whose row i is the
    # width bytes at offset i; a member whose length word matches has a
    # ciphertext of that width inside its record.
    lengths = column(data, "<u4", starts + SHARE_END)
    widths = lengths[bounds[:-1]]
    same = lengths == widths[group]
    for width in sorted(set(widths.tolist())):
        members = np.flatnonzero(same & (widths[group] == width))
        rows = np.ndarray((len(data) - width + 1, width), np.uint8, data, 0, (1, 1))
        firsts = starts[bounds[:-1]][group[members]]
        same[members] = (
            rows[starts[members] + CIPHERTEXT_AT] == rows[firsts + CIPHERTEXT_AT]
        ).all(axis=1)

    # Share selection: one argsort on a key of the group id in the high bits
    # and the top bits of x below orders each group's shares by x, up to ties
    # in the key; only the tied runs are then put in exact (x, y) order.
    high, low = column(data, ">u8", starts + X_WORDS)
    group_bits = np.uint64(max(1, (len(sizes) - 1).bit_length()))
    key = group.astype(np.uint64) << np.uint64(64) - group_bits | high >> group_bits
    order = np.argsort(key, kind="stable")
    key = key[order]
    tie = key[1:] == key[:-1]
    if tie.any():
        tied = np.zeros(len(order), bool)
        tied[1:] |= tie
        tied[:-1] |= tie
        at = np.flatnonzero(tied)
        run = np.cumsum(np.concatenate(([True], ~tie)))[at]
        members = order[at]
        y_high, y_low = column(data, ">u8", starts[members] + Y_WORDS)
        order[at] = members[np.lexsort((y_low, y_high, low[members], high[members], run))]
    # Now in (group, x, y) order, group g fills positions bounds[g]:bounds[g + 1];
    # the first share of each distinct x is ranked among its group's.
    high, low = high[order], low[order]
    distinct = np.ones(len(order), bool)
    distinct[1:] = (high[1:] != high[:-1]) | (low[1:] != low[:-1])
    distinct[bounds[:-1]] = True
    rank = np.cumsum(distinct)
    rank -= (rank[bounds[:-1]] - 1)[group]
    consistent = np.bincount(group[~same], minlength=len(sizes)) == 0
    taken = consistent & (rank[bounds[1:] - 1] >= threshold)
    chosen = np.flatnonzero(distinct & (rank <= threshold) & taken[group])
    y_high, y_low = column(data, ">u8", starts[order[chosen]] + Y_WORDS)
    xs = [h << 64 | l for h, l in zip(high[chosen].tolist(), low[chosen].tolist())]
    ys = [h << 64 | l for h, l in zip(y_high.tolist(), y_low.tolist())]
    # Each taken group holds ``threshold`` consecutive chosen shares.
    at = 0
    for ok in taken.tolist():
        if ok:
            yield list(zip(xs[at : at + threshold], ys[at : at + threshold]))
            at += threshold
        else:
            yield None


def recover_group(
    data: bytes, first: int, count: int, points: Optional[list[tuple[int, int]]]
) -> GroupRecovery:
    """Decode a tag group of ``count`` members, at least the threshold, from
    the ``points`` that ``select_points`` chose for it; its first member's
    submission sits at offset ``first`` of ``data``.

    Interpolates the key, decrypts the group's ciphertext and re-derives the
    interpolated secret from the key-seed header; a group without points
    failed the ciphertext check or has too few distinct x.
    """
    if points is None:
        return GroupRecovery(status="malformed", count=count)
    secret = sharing.interpolate_at_zero(points)
    key = key_from_field_secret(secret)
    try:
        r1, value = decrypt_with_key(key, data[first + CIPHERTEXT_AT : submission_end(data, first)])
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
