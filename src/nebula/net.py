"""The connection layer both daemons share, the randomness daemon, and the
client for either daemon.

Randomness server: stateless; answers public-key requests and batched
blinded-evaluation requests.  It shares no state, secret or channel with the
aggregation daemon in ``service``.  This module imports only ``wire``,
``group`` and ``oprf``, so the randomness daemon starts without numpy or the
decoder.

A daemon answers each receive buffer at once.  Every receive, the daemons'
and the clients', asks for up to 1 MiB, so a stream is checked a thousand or
more frames at a time.  Replies leave exactly when the socket would block,
with Nagle off, so a short batch never waits out the client's delayed ACK.
A client counts a run of ACKs by comparing it whole, halving the run until
it matches.

Each daemon prints one line once it listens, ``<name> listening on
host:port`` with the port it bound, so ``--listen host:0`` lets the OS pick
a free port and the launcher reads it back.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import traceback
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import oprf, wire
from .group import DecodeError, GroupElement


# --- connection handling ----------------------------------------------------

# What every receive asks for: a stream is checked a thousand or more frames
# at a time, and a connection holds at most this plus one partial frame.
_RECV = 1 << 20


def _recv(sock: socket.socket, held: int) -> bytes:
    """The next chunk received on ``sock``, b"" at EOF.  With ``held`` bytes
    of a frame held, EOF inside a header is quiet, inside a payload an
    error."""
    chunk = sock.recv(_RECV)
    if not chunk and held >= wire.HEADER_SIZE:
        raise wire.FrameError("connection closed mid-frame")
    return chunk


def _answer(respond: Callable[[int, bytes], bytes], msg_type: int, payload: bytes) -> bytes:
    """``respond``'s reply to one frame, or the ERROR frame for what it raised."""
    try:
        return respond(msg_type, payload)
    except wire.FrameError as exc:
        return wire.error_frame(wire.ERR_MALFORMED, str(exc))
    except Exception as exc:  # never crash the daemon
        return wire.error_frame(wire.ERR_INTERNAL, str(exc))


class _Handler(socketserver.BaseRequestHandler):
    """Hands each receive buffer to ``server.dispatch(buf, replies)``, which
    appends the replies to its whole frames and returns the offset past them
    (a bad header raises FrameError after the replies before it).  Replies
    leave once no whole frame is left; the buffer holds at most one receive
    plus the partial frame the last buffer ended in.  A peer that resets
    the connection has left: the handler ends quietly.
    """

    def handle(self) -> None:
        server: _BaseServer = self.server  # type: ignore[assignment]
        sock: socket.socket = self.request
        replies: list[bytes] = []
        buf = b""
        try:
            try:
                while chunk := _recv(sock, len(buf)):
                    buf = buf + chunk if buf else chunk
                    del chunk  # so a stream's receive is held once while it is checked
                    buf = buf[server.dispatch(buf, replies) :]
                    if replies:
                        sock.sendall(b"".join(replies))
                        replies.clear()
            except wire.FrameError:
                # Unrecoverable framing breakage: report and drop the connection.
                replies.append(wire.error_frame(wire.ERR_MALFORMED, "bad frame"))
                sock.sendall(b"".join(replies))
        except ConnectionError:
            pass


class _BaseServer(socketserver.ThreadingTCPServer):
    name: str  # printed when it listens
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int]):
        super().__init__(address, _Handler)
        self._thread: Optional[threading.Thread] = None

    def get_request(self) -> tuple[socket.socket, tuple]:
        # Each batch of replies leaves in one sendall.  With Nagle on, a
        # batch shorter than a segment that follows an unacknowledged one
        # waits for the peer's delayed ACK (40 ms on Linux) before it leaves.
        sock, address = super().get_request()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, address

    def handle_error(self, request, client_address) -> None:
        # socketserver's own prints the peer's address with the traceback.
        traceback.print_exc()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> None:
        # A short poll, so stop() does not wait out serve_forever's 0.5 s.
        self._thread = threading.Thread(target=self.serve_forever, args=(0.02,), daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop serving, if started in the background, and close the socket."""
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=5)
        self.server_close()


_ACK = wire.encode_frame(wire.MSG_ACK)


# --- randomness server ------------------------------------------------------


class RandomnessServer(_BaseServer):
    """Stateless OPRF evaluation daemon; the keypair never leaves it."""

    name = "randomness server"

    def __init__(self, address: tuple[str, int], key_seed: bytes):
        # Before the socket binds, so a refused seed leaves none open.
        self.keypair = oprf.keygen(key_seed)
        super().__init__(address)

    def dispatch(self, buf: bytes, replies: list[bytes]) -> int:
        end = 0
        for msg_type, payload, end in wire.iter_frames(buf):
            replies.append(_answer(self._respond, msg_type, payload))
        return end

    def _respond(self, msg_type: int, payload: bytes) -> bytes:
        if msg_type == wire.MSG_PUBLIC_KEY_REQUEST:
            return wire.encode_frame(
                wire.MSG_PUBLIC_KEY_RESPONSE, self.keypair.mpk.encode()
            )
        if msg_type == wire.MSG_RANDOMNESS_REQUEST:
            encodings = wire.unpack_randomness_request(payload)
            try:
                elements = [GroupElement.decode(e) for e in encodings]
            except DecodeError as exc:
                raise wire.FrameError(f"bad group element: {exc}") from exc
            if any(e.is_identity() for e in elements):
                raise wire.FrameError("bad group element: identity")
            ev = oprf.evaluate_batch(elements, self.keypair)
            return wire.encode_frame(
                wire.MSG_RANDOMNESS_RESPONSE,
                wire.pack_randomness_response(
                    [z.encode() for z in ev.elements], ev.proof.to_bytes()
                ),
            )
        raise wire.FrameError(f"unexpected message type {msg_type} for this daemon")


# --- clients ----------------------------------------------------------------


class ServiceError(Exception):
    """The daemon answered with an error frame."""

    def __init__(self, code: int, message: str):
        super().__init__(f"error {code}: {message}")
        self.code = code


class ServiceClient:
    """Blocking request/response client for either daemon.

    A receive error (a timeout, a bad frame) leaves the stream at an unknown
    offset, so it closes the client: later calls raise ConnectionError naming
    that first error.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self._buf = bytearray()  # received bytes not yet read as replies
        self._failure: Optional[Exception] = None

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_usable(self) -> None:
        if self._failure is not None:
            raise ConnectionError(f"connection unusable after {self._failure!r}")

    def read_frame(self) -> wire.WireFrame:
        self._check_usable()
        try:
            while (frame := next(wire.iter_frames(self._buf), None)) is None:
                chunk = _recv(self.sock, len(self._buf))
                if not chunk:
                    break
                self._buf += chunk
        except Exception as exc:
            self._failure = exc
            self.close()
            raise
        if frame is None:
            raise ConnectionError("server closed connection")
        msg_type, payload, end = frame
        del self._buf[:end]
        return wire.WireFrame(msg_type, bytes(payload))

    def request(self, msg_type: int, payload: bytes = b"") -> wire.WireFrame:
        self._check_usable()
        self.sock.sendall(wire.encode_frame(msg_type, payload))
        frame = self.read_frame()
        if frame.msg_type == wire.MSG_ERROR:
            raise ServiceError(*wire.unpack_error(frame.payload))
        return frame

    # randomness-server calls

    def fetch_public_key(self) -> GroupElement:
        frame = self.request(wire.MSG_PUBLIC_KEY_REQUEST)
        return GroupElement.decode(frame.payload)

    def evaluate_blinded(self, blinded: list[GroupElement]) -> oprf.BatchEvaluation:
        frame = self.request(
            wire.MSG_RANDOMNESS_REQUEST,
            wire.pack_randomness_request([b.encode() for b in blinded]),
        )
        encodings, proof = wire.unpack_randomness_response(frame.payload)
        return oprf.BatchEvaluation(
            elements=tuple(GroupElement.decode(e) for e in encodings),
            proof=oprf.DleqProof.from_bytes(proof),
        )

    def oblivious_randomness(self, values: Sequence[bytes], rng) -> list[bytes]:
        """Full client side: blind, request evaluation, verify, finalize.

        The key is fetched once; values go out in batches of ``wire.MAX_BATCH``.
        """
        mpk = self.fetch_public_key()
        out: list[bytes] = []
        for start in range(0, len(values), wire.MAX_BATCH):
            batch = list(values[start : start + wire.MAX_BATCH])
            blinded, states = zip(*(oprf.blind(v, rng) for v in batch))
            ev = self.evaluate_blinded(list(blinded))
            out.extend(oprf.finalize_batch(batch, list(states), ev, mpk))
        return out

    # aggregation-server calls

    def submit(self, payload: bytes, chained: bool = False) -> None:
        msg_type = wire.MSG_SUPER_SUBMISSION if chained else wire.MSG_SUBMISSION
        self.request(msg_type, payload)

    def submit_raw(self, buffer: bytes | memoryview, count: int) -> tuple[int, int]:
        """Send ``count`` pre-framed messages from one buffer; returns
        (acks, errors).

        A reader thread counts exactly ``count`` replies while the writer
        streams, so neither side's socket buffer can deadlock the connection.
        A run of bare ACKs that opens the receive buffer is counted by
        comparing the longest run it could be, halved until it matches; any
        other reply is read with ``read_frame``.  Bytes past the
        ``count``-th reply stay buffered for ``read_frame``.
        """
        self._check_usable()
        acks = memoryview(_ACK * count)
        result = {"acks": 0, "errors": 0}
        fail: list[Exception] = []

        def drain() -> None:
            try:
                while left := count - result["acks"] - result["errors"]:
                    run = self._buf.startswith(_ACK) and min(left, len(self._buf) // len(_ACK))
                    while run and not self._buf.startswith(acks[: run * len(_ACK)]):
                        run //= 2
                    if run:
                        del self._buf[: run * len(_ACK)]
                        result["acks"] += run
                    else:
                        frame = self.read_frame()
                        result["acks" if frame.msg_type == wire.MSG_ACK else "errors"] += 1
            except Exception as exc:  # surfaced after join
                fail.append(exc)

        reader = threading.Thread(target=drain)
        reader.start()
        self.sock.sendall(buffer)
        reader.join()
        if fail:
            raise fail[0]
        return result["acks"], result["errors"]

    def seal_and_decode(self) -> str:
        frame = self.request(wire.MSG_SEAL_DECODE)
        return frame.payload.decode()


# --- daemon entry points (used by the CLI) ----------------------------------


def parse_listen(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"listen address must be host:port with port 0..65535, got {text!r}")
    return host, int(port)


def randomness_server(listen: str, key_seed_file: str) -> RandomnessServer:
    """The randomness daemon, bound but not yet serving; a bad address or
    seed file raises OSError or ValueError."""
    return RandomnessServer(parse_listen(listen), Path(key_seed_file).read_bytes())


def serve(server: _BaseServer) -> None:  # pragma: no cover
    host, port = server.server_address[:2]
    print(f"{server.name} listening on {host}:{port}", flush=True)
    server.serve_forever()


def run_randomness_server(listen: str, key_seed_file: str) -> None:  # pragma: no cover
    serve(randomness_server(listen, key_seed_file))
