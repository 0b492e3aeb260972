"""Binary framing shared by both daemons and their clients.

Frame layout (all integers little-endian):

    version   1 byte   (currently 1)
    type      1 byte
    length    4 bytes  payload size
    payload   `length` bytes

Unknown version or type, or an oversized length, is rejected from the
6-byte header alone, before any payload is read.  Total frame size is
capped at 64 KiB.  ``iter_frames`` is the one walker over this layout: the
daemons' receive loops, the client and the submission log all use it.

Payload layouts:

    RANDOMNESS_REQUEST    count n (1 byte, 1..8) then n 32-byte blinded elements
    RANDOMNESS_RESPONSE   n 32-byte evaluated elements then a 64-byte proof
    PUBLIC_KEY_REQUEST    empty
    PUBLIC_KEY_RESPONSE   32-byte server public key
    SUBMISSION            serialized single-attribute submission
    SUPER_SUBMISSION      serialized chained multi-attribute submission
    SEAL_DECODE           empty
    ACK                   optional short UTF-8 summary
    ERROR                 1-byte code then UTF-8 message
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

VERSION = 1
# version, type, payload length
HEADER = struct.Struct("<BBI")
HEADER_SIZE = HEADER.size
MAX_FRAME_SIZE = 64 * 1024
MAX_PAYLOAD_SIZE = MAX_FRAME_SIZE - HEADER_SIZE

MSG_RANDOMNESS_REQUEST = 1
MSG_RANDOMNESS_RESPONSE = 2
MSG_SUBMISSION = 3
MSG_SUPER_SUBMISSION = 4
MSG_SEAL_DECODE = 5
MSG_ACK = 6
MSG_ERROR = 7
MSG_PUBLIC_KEY_REQUEST = 8
MSG_PUBLIC_KEY_RESPONSE = 9

_KNOWN_TYPES = frozenset(range(1, 10))

ERR_MALFORMED = 1
ERR_SEALED = 2
ERR_INTERNAL = 3

ELEMENT_SIZE = 32
PROOF_SIZE = 64
MAX_BATCH = 8


class FrameError(ValueError):
    """Header or payload violates the framing rules."""


@dataclass(frozen=True)
class WireFrame:
    msg_type: int
    payload: bytes


def encode_frame(msg_type: int, payload: bytes = b"") -> bytes:
    if msg_type not in _KNOWN_TYPES:
        raise FrameError(f"unknown message type {msg_type}")
    if len(payload) > MAX_PAYLOAD_SIZE:
        raise FrameError("payload exceeds maximum frame size")
    return HEADER.pack(VERSION, msg_type, len(payload)) + payload


def parse_header(header: bytes) -> tuple[int, int]:
    """Validate a 6-byte header; returns (msg_type, payload_length)."""
    if len(header) != HEADER_SIZE:
        raise FrameError("short frame header")
    version, msg_type, length = HEADER.unpack(header)
    if version != VERSION:
        raise FrameError(f"unsupported frame version {version}")
    if msg_type not in _KNOWN_TYPES:
        raise FrameError(f"unknown message type {msg_type}")
    if length > MAX_PAYLOAD_SIZE:
        raise FrameError("frame payload too large")
    return msg_type, length


def iter_frames(buf):
    """Yield ``(msg_type, payload, end)`` for each whole frame of ``buf``.

    ``end`` is the offset just past the frame.  Stops before an incomplete
    frame, so the caller decides what a short tail means.  A bad header
    raises FrameError when it is reached, after every frame before it was
    yielded.
    """
    start, total = 0, len(buf)
    while total - start >= HEADER_SIZE:
        msg_type, length = parse_header(buf[start : start + HEADER_SIZE])
        end = start + HEADER_SIZE + length
        if end > total:
            return
        yield msg_type, buf[start + HEADER_SIZE : end], end
        start = end


def pack_randomness_request(blinded: list[bytes]) -> bytes:
    if not 1 <= len(blinded) <= MAX_BATCH:
        raise FrameError(f"batch size must be 1..{MAX_BATCH}")
    if any(len(b) != ELEMENT_SIZE for b in blinded):
        raise FrameError("blinded elements must be 32 bytes")
    return bytes([len(blinded)]) + b"".join(blinded)


def unpack_randomness_request(payload: bytes) -> list[bytes]:
    if not payload:
        raise FrameError("empty randomness request")
    n = payload[0]
    if not 1 <= n <= MAX_BATCH:
        raise FrameError(f"batch size must be 1..{MAX_BATCH}")
    if len(payload) != 1 + n * ELEMENT_SIZE:
        raise FrameError("randomness request length mismatch")
    return [payload[1 + i * ELEMENT_SIZE : 1 + (i + 1) * ELEMENT_SIZE] for i in range(n)]


def pack_randomness_response(elements: list[bytes], proof: bytes) -> bytes:
    if any(len(e) != ELEMENT_SIZE for e in elements):
        raise FrameError("evaluated elements must be 32 bytes")
    if len(proof) != PROOF_SIZE:
        raise FrameError("proof must be 64 bytes")
    return b"".join(elements) + proof


def unpack_randomness_response(payload: bytes) -> tuple[list[bytes], bytes]:
    if len(payload) < ELEMENT_SIZE + PROOF_SIZE:
        raise FrameError("randomness response too short")
    body, proof = payload[:-PROOF_SIZE], payload[-PROOF_SIZE:]
    if len(body) % ELEMENT_SIZE:
        raise FrameError("randomness response length mismatch")
    n = len(body) // ELEMENT_SIZE
    if not 1 <= n <= MAX_BATCH:
        raise FrameError(f"batch size must be 1..{MAX_BATCH}")
    return [body[i * ELEMENT_SIZE : (i + 1) * ELEMENT_SIZE] for i in range(n)], proof


def error_frame(code: int, message: str) -> bytes:
    return encode_frame(MSG_ERROR, bytes([code]) + message.encode())


def unpack_error(payload: bytes) -> tuple[int, str]:
    if not payload:
        raise FrameError("empty error payload")
    return payload[0], payload[1:].decode(errors="replace")
