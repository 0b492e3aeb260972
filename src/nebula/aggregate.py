"""Aggregation primitives: tag grouping, group recovery, the report and its CSV.

The layer loop that drives them is ``multidim.decode_multidim``; a
single-attribute multiset is its one-layer, one-branch case
(``decode_submissions``).  The server sees only tagged submissions, which
both primitives read in place as offsets into a buffer of serialized
submissions.  Grouping sorts the offsets by branch and tag as array
operations.  Groups below the threshold contribute only their size, read
from the group bounds, to the unrevealed-multiplicity histogram and are
never parsed.

Groups with at least ``threshold`` members are recovered in three steps.
``select_points`` takes them in batches of whole groups, at most
``BATCH_MEMBERS`` members each, and per batch checks that every member
carries its group's first member's ciphertext bytes and picks each group's
first ``threshold`` distinct-x shares, all as array operations; it hands
over the chosen x and y as arrays of 8-byte words.  ``interpolate_groups``
then finds the field secret of every taken group of a layer at once, as
array operations over 26-bit limbs in passes of whole groups of at most
``PASS_ENTRIES`` share-by-factor entries each, with one modular inversion
per pass; ``sharing.interpolate_at_zero`` is its scalar reference.
``recover_group`` last decodes a taken group from its ciphertext and
secret: it derives the key, decrypts the (single, byte-identical)
ciphertext and returns ``(value, key)`` if the key-seed header inside
re-derives the secret, else None.  A group not taken or not decoded is
malformed (cannot happen for honestly produced submissions; dummy groups
never reach the threshold by construction).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence
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
)
from .params import DpParams, config_items
from .sharing import FIELD_BYTES, FIELD_PRIME


@dataclass
class HistogramReport:
    """Decoded output: revealed values and the sub-threshold multiplicity view.

    The decoder yields one report per layer; ``revealed`` is keyed by the
    attribute tuple along the decode path, a one-element tuple at layer 1.
    """

    revealed: dict[tuple[bytes, ...], int] = field(default_factory=dict)
    unrevealed_multiplicities: dict[int, int] = field(default_factory=Counter)
    malformed_groups: int = 0
    params_used: Optional[DpParams] = None
    # False for inner layers of the multi-attribute decoding, where no dummy
    # noise protects the multiplicity histogram.
    dummy_noise_applied: bool = True


# The most members one array pass holds: the decoder cuts a layer into
# batches of whole branches, and recovery its groups into batches of whole
# groups, of at most this many members each, so transient memory stays flat.
BATCH_MEMBERS = 2048
# The most share-by-factor entries one interpolation pass holds.  A taken
# group of τ shares holds τ² of them, τ factors for each share, so a pass
# takes max(1, PASS_ENTRIES // τ²) whole groups and its transient memory
# stays flat however many groups a layer takes.
PASS_ENTRIES = 10_240
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points recovery interpolates, for each group of at least
    ``threshold`` members: ``starts[bounds[g] : bounds[g + 1]]`` are the
    offsets in ``data`` of group g's submissions.

    A group is taken when every member carries its first member's
    ciphertext and it has ``threshold`` shares with pairwise-distinct x; it
    then gets the first ``threshold`` of them in (x, y) order.  Returns
    whether each group is taken, then the x and the y of the taken groups'
    shares as (high, low) big-endian words, each of shape
    (2, taken groups, ``threshold``).  Groups are taken in batches of whole
    groups, each checked and selected as array operations.
    """
    empty = np.zeros((2, 0, threshold), np.uint64)
    taken, x, y = [np.zeros(0, bool)], [empty], [empty]
    for lo, hi in whole_batches(bounds):
        batch = bounds[lo : hi + 1]
        selected = _select_batch(data, starts[batch[0] : batch[-1]], batch - batch[0], threshold)
        for parts, part in zip((taken, x, y), selected):
            parts.append(part)
    return np.concatenate(taken), np.concatenate(x, axis=1), np.concatenate(y, axis=1)


def _select_batch(
    data: bytes, starts: np.ndarray, bounds: np.ndarray, threshold: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    # Each taken group holds ``threshold`` consecutive chosen shares.
    x = np.stack((high[chosen], low[chosen])).reshape(2, -1, threshold)
    y = column(data, ">u8", starts[order[chosen]] + Y_WORDS).reshape(2, -1, threshold)
    return taken, x, y


# --- interpolation at zero over many groups at once ------------------------
#
# A field element is held as five 26-bit limbs in uint64, a 130-bit span,
# limb k in row k of an array whose other axes run over elements, so each
# array operation runs over a whole pass.  Reduction folds with
# 2^130 = 4 * 2^128 ≡ 4 * 159 = 636 (mod p).  Bounds: ``_mul`` takes limbs
# below 2^29, so a limb product is below 2^58 and a column sum of five below
# 2^61, clear of 2^64; it returns limbs below 2^28.  So the sum of two
# products is a valid input, and so is a difference taken against ``_FOUR_P``
# (limbs below 2^28).  In the product tree, whose inputs all have limbs
# below 2^28, column sums stay below 2^59.
_LIMB = np.uint64(2**26 - 1)
_SHIFT = np.uint64(26)
_FOLD = np.uint64(636)
# 4p as limbs that are each at least 2^26 - 2, above any limb of a canonical
# element in the same place (its top limb is below 2^24), so that
# x_j + 4p - x_i never takes a limb below zero.
_FOUR_P = np.array(
    [2**27 - 636, 2**27 - 2, 2**27 - 2, 2**27 - 2, 2**26 - 2], np.uint64
).reshape(5, 1, 1)


def _limbs(words: np.ndarray) -> np.ndarray:
    """The limbs, shape (5, ...), of the elements whose (high, low) words
    are ``words[0]`` and ``words[1]``."""
    high, low = words
    return np.stack((
        low & _LIMB,
        low >> _SHIFT & _LIMB,
        low >> np.uint64(52) | (high & np.uint64(2**14 - 1)) << np.uint64(12),
        high >> np.uint64(14) & _LIMB,
        high >> np.uint64(40),
    ))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products mod p of the elements whose limbs are ``a`` and ``b``, of
    one shape (5, ...) whose element axes can be viewed as one."""
    shape = a.shape
    a, b = a.reshape(5, -1), b.reshape(5, -1)
    # Column k sums limb i of a by limb k - i of b, row by row of a; column
    # 9 starts empty and takes column 8's carry.
    columns = np.empty((10, a.shape[1]), np.uint64)
    np.multiply(a[0], b, out=columns[:5])
    columns[5:] = 0
    for i in range(1, 5):
        columns[i : i + 5] += a[i] * b
    # Carry each column into the next, then fold columns 5-9 onto 0-4.
    carry = columns >> _SHIFT
    columns &= _LIMB
    columns[1:] += carry[:9]
    limbs = columns[:5]
    limbs += columns[5:] * _FOLD
    # Carry once more; limb 4's carry folds onto limb 0.
    carry = limbs >> _SHIFT
    limbs &= _LIMB
    limbs[1:] += carry[:4]
    limbs[0] += carry[4] * _FOLD
    return limbs.reshape(shape)


def _ints(limbs: np.ndarray) -> list[int]:
    """The values of the limb columns ``limbs``, shape (5, n)."""
    return [
        a + (b << 26) + (c << 52) + (d << 78) + (e << 104)
        for a, b, c, d, e in zip(*limbs.tolist())
    ]


def interpolate_groups(x: np.ndarray, y: np.ndarray) -> list[int]:
    """The constant term of each group's polynomial, as
    ``sharing.interpolate_at_zero`` finds it from the group's points.

    ``x`` and ``y`` hold each group's τ share coordinates as (high, low)
    words, shape (2, groups, τ), as ``select_points`` gives them; each
    group's x must be canonical, nonzero and pairwise distinct.  Groups are
    interpolated in passes of whole groups of at most ``PASS_ENTRIES``
    share-by-factor entries.
    """
    groups, tau = x.shape[1:]
    per_pass = max(1, PASS_ENTRIES // tau**2)
    return [
        secret
        for at in range(0, groups, per_pass)
        for secret in _interpolate_pass(x[:, at : at + per_pass], y[:, at : at + per_pass])
    ]


def _interpolate_pass(x: np.ndarray, y: np.ndarray) -> list[int]:
    """``interpolate_groups`` over one pass.

    The secret is ∏x · Σ y_i / d_i with d_i = x_i · ∏_{j≠i} (x_j − x_i).
    Every d_i is one product-tree product over all (share i, group) columns
    at once, ∏x rides along as a further column per group, and each group's
    Σ y_i / d_i is summed as one fraction by a tree over its shares.  No d_i
    is 0 mod p: ingest refuses a zero or non-canonical x and
    ``select_points`` takes pairwise-distinct x, so every x_i and x_j − x_i
    is nonzero mod the prime p.  The denominators of the pass then invert
    together (Montgomery's trick), with one ``pow``.
    """
    groups, tau = x.shape[1:]
    xs = _limbs(x).transpose(0, 2, 1)  # (5, τ shares, groups)
    # factors[:, j, i·groups + g] is x_j − x_i of group g, or x_i where
    # j == i; the columns past τ·groups of them hold x_j of each group.
    factors = np.empty((5, tau, (tau + 1) * groups), np.uint64)
    pairs = factors[:, :, : tau * groups].reshape(5, tau, tau, groups)  # a view
    np.subtract((xs + _FOUR_P)[:, :, None], xs[:, None], out=pairs)
    shares = np.arange(tau)
    pairs[:, shares, shares] = xs
    factors[:, :, tau * groups :] = xs
    while factors.shape[1] > 1:
        # The first half of the factors times the last, and a middle one kept.
        half = factors.shape[1] // 2
        product = _mul(factors[:, :half], factors[:, -half:])
        factors = np.concatenate((product, factors[:, half:-half]), axis=1)
    # Σ y_i / d_i as one fraction, summing pairs of fractions level by
    # level: fractions[:, 0] holds numerators, fractions[:, 1] denominators.
    d = factors[:, 0, : tau * groups].reshape(5, tau, groups)
    fractions = np.stack((_limbs(y).transpose(0, 2, 1), d), axis=1)
    while fractions.shape[2] > 1:
        half = fractions.shape[2] // 2
        # n/d + n'/d' = (n·d' + d·n') / (d·d')
        cross = _mul(fractions[:, [0, 1, 1], :half], fractions[:, [1, 0, 1], -half:])
        fractions = fractions[:, :, : fractions.shape[2] - half].copy()  # keeps a middle one
        np.add(cross[:, 0], cross[:, 1], out=fractions[:, 0, :half])
        fractions[:, 1, :half] = cross[:, 2]
    products = _ints(factors[:, 0, tau * groups :])
    nums, dens = _ints(fractions[:, 0, 0]), _ints(fractions[:, 1, 0])
    # before[g] is den_0 ... den_{g-1}; ``inverse`` is 1 / (den_0 ... den_g).
    before = list(itertools.accumulate(dens, lambda a, b: a * b % FIELD_PRIME, initial=1))
    inverse = pow(before.pop(), -1, FIELD_PRIME)
    secrets = [0] * groups
    for g in reversed(range(groups)):
        secrets[g] = products[g] * nums[g] * before[g] * inverse % FIELD_PRIME
        inverse = inverse * dens[g] % FIELD_PRIME
    return secrets


def recover_group(ciphertext: bytes, secret: int) -> Optional[tuple[bytes, bytes]]:
    """Decode a taken group from the ``ciphertext`` its members carry and
    the field ``secret`` that ``interpolate_groups`` found for it.

    Derives the key and decrypts the ciphertext; returns ``(value, key)``
    when it opens and its key-seed header re-derives the secret, else None:
    the group is malformed.  The key opens the group's deeper layers.
    """
    key = key_from_field_secret(secret)
    try:
        r1, value = decrypt_with_key(key, ciphertext)
    except (InvalidTag, ValueError):
        return None
    return (value, key) if sharing.secret_from_key_seed(r1) == secret else None


def decode_submissions(
    submissions: Iterable[Submission], threshold: int, params: DpParams
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
