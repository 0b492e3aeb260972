"""Aggregation primitives: tag grouping, group recovery, the report and its CSV.

The layer loop that drives them is ``multidim.decode_multidim``; a
single-attribute multiset is its one-layer case (``decode_submissions``).
The server sees only tagged submissions.  Grouping by tag partitions them;
groups with at least ``threshold`` members are decoded by interpolating the
key shares, deriving the symmetric key from the field secret, and decrypting
the (single, byte-identical) ciphertext.  Groups below the threshold
contribute only their size to the unrevealed-multiplicity histogram.

Recovery applies three consistency checks to an above-threshold group:
every member must carry the same ciphertext bytes, authenticated decryption
under the interpolated key must succeed, and the key-seed header inside the
plaintext must re-derive the interpolated field secret.  Any failure marks
the group malformed (cannot happen for honestly produced submissions; dummy
groups never reach the threshold by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal, Optional, Sequence, TypeVar
from urllib.parse import unquote_to_bytes

from cryptography.exceptions import InvalidTag

from . import sharing
from .encode import Submission, decrypt_with_key, key_from_field_secret
from .params import DpParams, config_items

T = TypeVar("T")


@dataclass(frozen=True)
class GroupRecovery:
    status: Literal["recovered", "unrevealed", "malformed"]
    count: int
    value: Optional[bytes] = None
    key: Optional[bytes] = None  # symmetric key, kept for layered decoding


@dataclass
class HistogramReport:
    """Decoded output: revealed values and the sub-threshold multiplicity view.

    The decoder yields one report per layer keyed by attribute tuples; the
    single-attribute entry points key ``revealed`` by value bytes instead.
    """

    revealed: dict[bytes | tuple[bytes, ...], int] = field(default_factory=dict)
    unrevealed_multiplicities: dict[int, int] = field(default_factory=dict)
    malformed_groups: int = 0
    params_used: Optional[DpParams] = None
    # False for inner layers of the multi-attribute decoding, where no dummy
    # noise protects the multiplicity histogram.
    dummy_noise_applied: bool = True


def group_by_tag(
    pairs: Iterable[tuple[Submission, T]],
) -> list[tuple[list[Submission], list[T]]]:
    """Partition ``(submission, owner)`` pairs by the submission's tag.

    Each group is its submissions and their owners, in the same order.
    Members keep arrival order; recovery canonicalizes its own view, so
    reports are a pure function of the submission multiset.
    """
    # Two lists per group, not a tuple per member: a million tracked tuples
    # would keep the garbage collector busy during a decode.
    groups: dict[bytes, tuple[list[Submission], list[T]]] = {}
    for sub, owner in pairs:
        group = groups.get(sub.tag)
        if group is None:
            group = groups[sub.tag] = ([], [])
        group[0].append(sub)
        group[1].append(owner)
    return list(groups.values())


def recover_group(submissions: Sequence[Submission], threshold: int) -> GroupRecovery:
    """Decode one tag group if it has at least ``threshold`` members."""
    count = len(submissions)
    if count < threshold:
        return GroupRecovery(status="unrevealed", count=count)

    first_ct = submissions[0].ciphertext
    if any(sub.ciphertext != first_ct for sub in submissions[1:]):
        return GroupRecovery(status="malformed", count=count)

    # First `threshold` shares with pairwise-distinct x, taken in canonical
    # (share byte-order) sorting so recovery is order-independent.
    points: list[tuple[int, int]] = []
    seen: set[int] = set()
    for sub in sorted(submissions, key=lambda s: (s.share.x_coord, s.share.y_coord)):
        if sub.share.x_coord in seen:
            continue
        seen.add(sub.share.x_coord)
        points.append((sub.share.x_coord, sub.share.y_coord))
        if len(points) == threshold:
            break
    if len(points) < threshold:
        return GroupRecovery(status="malformed", count=count)

    secret = sharing.interpolate_at_zero(points)
    key = key_from_field_secret(secret)
    try:
        r1, value = decrypt_with_key(key, first_ct)
    except (InvalidTag, ValueError):
        return GroupRecovery(status="malformed", count=count)
    if sharing.secret_from_key_seed(r1) != secret:
        return GroupRecovery(status="malformed", count=count)
    return GroupRecovery(status="recovered", count=count, value=value, key=key)


def decode_submissions(
    submissions: Iterable[Submission], threshold: int, params: Optional[DpParams] = None
) -> HistogramReport:
    """Single-attribute decode: the one-layer case of ``decode_multidim``.

    Revealed keys are value bytes rather than one-element attribute tuples.
    """
    from . import multidim

    (report,) = multidim.decode_multidim(submissions, threshold, params)
    report.revealed = {path[0]: count for path, count in report.revealed.items()}
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


def encode_value_field(value: bytes) -> str:
    return "".join(
        chr(b) if b in _SAFE_VALUE_CHARS else f"%{b:02x}" for b in value
    )


def reports_to_csv(reports: Sequence[HistogramReport], layered: bool) -> str:
    """Write per-layer reports as CSV.

    A plain report is the layer-1 case of the layered grammar: it has the
    plain header, no ``layer,1`` line, and value bytes as revealed keys
    where layered reports key by attribute tuples.
    """
    lines = [_CSV_HEADERS[layered]]
    if reports and reports[0].params_used is not None:
        lines += [f"param,{k},{text}" for k, text in config_items(reports[0].params_used)]
    for index, report in enumerate(reports, start=1):
        if layered:
            lines.append(f"layer,{index}")
        lines.append("section,revealed")
        lines.append("value,count")
        for key in sorted(report.revealed):
            path = key if layered else (key,)
            joined = "/".join(encode_value_field(a) for a in path)
            lines.append(f"{joined},{report.revealed[key]}")
        lines.append("section,unrevealed")
        lines.append("multiplicity,num_tags")
        for mult in sorted(report.unrevealed_multiplicities):
            lines.append(f"{mult},{report.unrevealed_multiplicities[mult]}")
        lines.append("section,meta")
        lines.append(f"malformed_groups,{report.malformed_groups}")
        lines.append(f"dummy_noise_applied,{int(report.dummy_noise_applied)}")
    return "\n".join(lines) + "\n"


def reports_from_csv(text: str, layered: bool) -> list[HistogramReport]:
    """Parse the CSV written by ``reports_to_csv`` with the same ``layered``."""
    lines = text.splitlines()
    if not lines or lines[0] != _CSV_HEADERS[layered]:
        raise ValueError(f"not a {'layered ' if layered else ''}nebula report")
    reports = [] if layered else [HistogramReport()]
    section = None
    for line in lines[1:]:
        if line.startswith("param,"):
            continue
        if layered and line.startswith("layer,"):
            reports.append(HistogramReport())
            section = None
            continue
        if line.startswith("section,"):
            section = line.split(",", 1)[1]
            continue
        if line in ("value,count", "multiplicity,num_tags") or not reports:
            continue
        current = reports[-1]
        key, _, raw = line.rpartition(",")
        if section == "revealed":
            path = tuple(unquote_to_bytes(part) for part in key.split("/"))
            current.revealed[path if layered else path[0]] = int(raw)
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
    return reports_from_csv(text, layered=False)[0]
