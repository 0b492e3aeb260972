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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .aggregate import (
    HistogramReport,
    group_by_tag,
    recover_group,
    reports_from_csv,
    reports_to_csv,
)
from .encode import (
    Submission,
    build_submission,
    encryption_key,
    parse_randomness,
    submission_at,
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

    @property
    def num_layers(self) -> int:
        return 1 + len(self.wrapped_layers)

    def to_bytes(self) -> bytes:
        parts = [bytes([self.num_layers]), self.layer1.to_bytes()]
        for blob in self.wrapped_layers:
            parts.append(struct.pack("<I", len(blob)))
            parts.append(blob)
        return b"".join(parts)

    @staticmethod
    def validate(data: bytes) -> list[tuple[int, int]]:
        """Check the whole layout on the raw bytes and build nothing.

        Raises ValueError for any payload ``from_bytes`` would refuse;
        returns the ``(start, end)`` offsets of the layer-1 submission and
        of each wrapped blob, in order.
        """
        if not data:
            raise ValueError("empty super-submission")
        num_layers = data[0]
        if not 1 <= num_layers <= MAX_ATTRIBUTES:
            raise ValueError("bad layer count")
        end = 1 + submission_size_at(data, 1)
        if end > len(data):
            raise ValueError("truncated submission")
        spans = [(1, end)]
        for _ in range(num_layers - 1):
            start = end + 4
            if start > len(data):
                raise ValueError("truncated wrapped layer")
            (blob_len,) = struct.unpack_from("<I", data, end)
            end = start + blob_len
            if end > len(data):
                raise ValueError("truncated wrapped layer")
            spans.append((start, end))
        if end != len(data):
            raise ValueError("trailing bytes after super-submission")
        return spans

    @staticmethod
    def from_bytes(data: bytes) -> "SuperSubmission":
        layer1, *blobs = SuperSubmission.validate(data)
        return SuperSubmission(
            layer1=submission_at(data, *layer1),
            wrapped_layers=tuple(bytes(data[start:end]) for start, end in blobs),
        )


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


def decode_multidim(
    messages: Iterable[SuperSubmission | Submission],
    threshold: int,
    params: Optional[DpParams] = None,
) -> list[HistogramReport]:
    """Layer-by-layer decoding; recursion halts at sub-threshold prefixes.

    Returns one report per layer (up to the deepest layer present in the
    input).  Layer 1 carries the dummy-noise flag; deeper layers receive no
    dummy noise and are flagged accordingly.  Revealed keys are attribute
    tuples (the full prefix along the decode path).  A plain submission
    is a one-layer message, so a single-attribute multiset is the
    one-layer case.
    """
    messages = list(messages)
    num_layers = max((m.num_layers for m in messages), default=1)
    reports = [
        HistogramReport(params_used=params, dummy_noise_applied=(layer == 1))
        for layer in range(1, num_layers + 1)
    ]

    # Each layer regroups every recovered branch of the layer above by the
    # tag of its members' submissions for this layer.  A branch is a
    # (prefix path, key, member messages) tuple; the root branch holds every
    # message and no key, as layer 1 travels in the clear.
    frontier = [((), None, messages)]
    for layer, report in enumerate(reports, start=1):
        next_frontier = []
        nonce = _wrap_nonce(layer)
        for path, key, members in frontier:
            aead = None if key is None else ChaCha20Poly1305(key)
            layer_subs: list[Submission] = []
            layer_members: list[SuperSubmission | Submission] = []
            for member in members:
                if member.num_layers < layer:
                    continue
                if aead is None:
                    sub = member.layer1
                else:
                    blob = member.wrapped_layers[layer - 2]
                    try:
                        sub = Submission.from_bytes(aead.decrypt(nonce, blob, None))
                    except (InvalidTag, ValueError):
                        # Counted per member: an unreadable blob has no tag.
                        report.malformed_groups += 1
                        continue
                layer_subs.append(sub)
                layer_members.append(member)
            for subs, owners in group_by_tag(zip(layer_subs, layer_members)):
                outcome = recover_group(subs, threshold)
                if outcome.status == "recovered":
                    child = path + (outcome.value,)
                    report.revealed[child] = report.revealed.get(child, 0) + outcome.count
                    next_frontier.append((child, outcome.key, owners))
                elif outcome.status == "unrevealed":
                    report.unrevealed_multiplicities[outcome.count] = (
                        report.unrevealed_multiplicities.get(outcome.count, 0) + 1
                    )
                else:
                    report.malformed_groups += 1
        frontier = next_frontier
    return reports


def layered_reports_to_csv(reports: Sequence[HistogramReport]) -> str:
    return reports_to_csv(reports, layered=True)


def layered_reports_from_csv(text: str) -> list[HistogramReport]:
    return reports_from_csv(text, layered=True)


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
