"""The two daemons and their clients.

Randomness server: stateless; answers public-key requests and batched
blinded-evaluation requests.  Aggregation server: appends submission frames
to an append-only log; a seal request closes ingestion, decodes the log, and
persists the report as CSV.  The two daemons share no state, secrets, or
channel.

The ingestion front models an anonymizing proxy: peer addresses are never
recorded anywhere, and the stored log contains only the submission payloads
(which themselves carry no client identifiers).

A daemon answers each receive buffer at once.  The aggregation daemon checks
each run of submission frames in it with the log reader's columnar check and
logs each stretch of good records as one slice of the received bytes, so a
million-submission ingest is a few calls per receive, not per frame.  The
log keeps the bounds of the frames it holds, found by the check when it
opens and recorded as it appends, and the seal decodes from those bounds:
a log's frame headers are walked once, never again at the seal.  Every
receive, the daemons' and the clients', asks for up to 1 MiB, so a stream is
checked and logged a thousand or more frames at a time.  Replies leave
exactly when the socket would block, with Nagle off, so a short batch never
waits out the client's delayed ACK.  The aggregation daemon flushes its log
to the OS before it hands back any ACK, so an acknowledged submission
survives the daemon being killed; the seal fsyncs it.  A client counts a run
of ACKs by comparing it whole, halving the run until it matches.

Each daemon prints one line once it listens, ``<name> listening on
host:port`` with the port it bound, so ``--listen host:0`` lets the OS pick
a free port and the launcher reads it back.
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
import traceback
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import aggregate, multidim, oprf, wire
# ``Submission`` and ``SuperSubmission`` are unused here; bench/launch.py
# times their ``from_bytes`` through this module's names.
from .encode import Submission  # noqa: F401
from .group import DecodeError, GroupElement
from .multidim import SuperSubmission, check_frames, check_log, read_log  # noqa: F401
from .params import DpParams, params_from_config


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
        except (ConnectionError, TimeoutError):
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


# --- randomness server ------------------------------------------------------


class RandomnessServer(_BaseServer):
    """Stateless OPRF evaluation daemon; the keypair never leaves it."""

    name = "randomness server"

    def __init__(self, address: tuple[str, int], key_seed: bytes):
        super().__init__(address)
        self.keypair = oprf.keygen(key_seed)

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


# --- aggregation server -----------------------------------------------------


class SealedError(Exception):
    """Ingestion already sealed; no further submissions accepted."""


# Frames a submission log has room for before it copies their bounds to grow.
_ROOM = 1 << 16


class SubmissionLog:
    """Append-only file of submission frames with an explicit seal barrier;
    it keeps the bounds of the frames it holds, for the seal to read by."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._sealed = self.seal_marker.exists()
        # Entries 0 .. _frames: each frame's file offset, then the end of the
        # last.  Room for _ROOM frames is taken up front, so most logs never
        # copy it to grow, and room not yet written is not resident.
        self._bounds = np.empty(_ROOM + 1, np.int64)
        self._bounds[0] = 0
        self._frames = 0
        if self.path.exists():
            self._check()
        self._file = None if self._sealed else open(self.path, "ab")

    def _check(self) -> None:
        """Refuse a log holding what ingest would refuse, as ``read_log``
        words it, record the bounds of its whole frames, and cut a trailing
        frame that a crash left short.

        Records are only ever appended, so a frame that runs past the end of
        the file can only be the last write, cut off mid-way.  An unsealed
        log drops it; a sealed log, flushed whole before its marker, is
        refused.
        """
        end, buf = 0, b""  # file offset of ``buf``: just past the last whole frame
        with open(self.path, "rb") as f:
            # A receive's worth at a time, as ingest checks a stream, so a
            # restart on a large log stays small in memory.
            while chunk := f.read(_RECV):
                buf += chunk
                _, bounds = check_log(buf)
                self._note(bounds, end)
                done = int(bounds[-1])
                end, buf = end + done, buf[done:]
        if buf and self._sealed:
            raise wire.FrameError("truncated log record")
        if buf:
            os.truncate(self.path, end)

    def _note(self, bounds: np.ndarray, shift: int) -> None:
        """Record frames whose bounds are ``bounds + shift``, the first at
        the end of those recorded."""
        frames = self._frames + len(bounds) - 1
        if frames >= len(self._bounds):
            grown = np.empty(2 * frames, np.int64)
            grown[: self._frames] = self._bounds[: self._frames]
            self._bounds = grown
        np.add(bounds, shift, out=self._bounds[self._frames : frames + 1])
        self._frames = frames

    @property
    def seal_marker(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".sealed")

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def bounds(self) -> np.ndarray:
        """Each frame's file offset, then the end of the last, as
        ``multidim.check_log`` returns them: a view, not a copy."""
        with self._lock:
            return self._bounds[: self._frames + 1]

    def append(self, frames: bytes | memoryview, bounds: np.ndarray) -> None:
        """Append whole submission frames, already checked, as they are.
        ``bounds`` holds each frame's offset, then the end of the last, from
        any origin: ``frames`` spans ``bounds[0]`` to ``bounds[-1]``.
        Recorded under the write's lock, they stay in file order across
        connections; a write that fails leaves bounds the seal finds stale
        and walks past."""
        with self._lock:
            if self._sealed:
                raise SealedError("submission log is sealed")
            if self._file is None:
                raise ValueError("submission log is closed")
            self._file.write(frames)
            self._note(bounds, self._bounds[self._frames] - bounds[0])

    def flush(self) -> None:
        """Hand appended records to the OS (no fsync): they then survive the
        process being killed, though not the host losing power."""
        with self._lock:
            if self._file is not None:
                self._file.flush()

    def seal(self) -> None:
        with self._lock:
            if self._sealed:
                return
            if self._file is None:
                raise ValueError("submission log is closed")
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None
            self._sealed = True
            self.seal_marker.touch()
            # The marker's directory entry must survive a power loss too, or
            # a restart would reopen the sealed log for ingest.
            directory = os.open(self.path.parent, os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


def decode_log(
    data: bytes, params: DpParams, bounds: Optional[np.ndarray] = None
) -> tuple[list[aggregate.HistogramReport], str]:
    """Decode the bytes of a submission log; returns (reports, csv).

    The one decode entry for both transports: the daemon passes its sealed
    log and the frame bounds the log recorded (``read_log``'s ``bounds``),
    the in-process simulation the frames it would have sent.  A plain
    submission is a one-layer record, so only the CSV grammar depends on the
    log: without SUPER_SUBMISSION records it is the plain single-attribute
    report; any SUPER_SUBMISSION makes it layered.
    """
    index = read_log(data, bounds)
    reports = multidim.decode_multidim(index, params.threshold, params)
    if index.chained:
        return reports, multidim.layered_reports_to_csv(reports)
    return reports, aggregate.report_to_csv(reports[0])


def seal_and_report(
    log: SubmissionLog, params: DpParams, report_path: str | Path | None
) -> tuple[list[aggregate.HistogramReport], Path]:
    """Seal ``log``, decode it from the frame bounds it recorded and write
    the report CSV; returns (reports, path).

    A ``report_path`` of None puts the report next to the log as
    ``<log>.report.csv``, appended to the log's full name as the seal
    marker is.
    """
    log.seal()
    reports, csv_text = decode_log(log.path.read_bytes(), params, log.bounds)
    out = Path(report_path or log.path.with_suffix(log.path.suffix + ".report.csv"))
    # Written beside the report and renamed over it, so a crash mid-write
    # leaves the old report or none, never a partial one.
    partial = out.with_name(out.name + ".partial")
    partial.write_text(csv_text)
    os.replace(partial, out)
    return reports, out


_ACK = wire.encode_frame(wire.MSG_ACK)


class AggregationServer(_BaseServer):
    """Ingestion daemon: log submissions, seal, decode, persist the report."""

    name = "aggregation server"

    def __init__(
        self,
        address: tuple[str, int],
        log_path: str | Path,
        params: DpParams,
        report_path: str | Path | None = None,
    ):
        super().__init__(address)
        try:
            self.log = SubmissionLog(log_path)
        except BaseException:
            self.server_close()  # a log that cannot open leaves no socket bound
            raise
        self.params = params
        self.report_path = report_path

    def stop(self) -> None:
        super().stop()
        self.log.close()

    def dispatch(self, buf: bytes, replies: list[bytes]) -> int:
        """Ingest each run of submission frames of ``buf`` as one checked
        batch; any other frame splits the batch and is answered alone.  The
        log is flushed to the OS before this returns or raises, so an ACK
        appended here promises its submission survives a daemon crash."""
        view = memoryview(buf)
        at = 0
        try:
            while True:
                # Check before persisting so the log never holds garbage: each
                # refused record gets its ERROR, each stretch of good records
                # around them is logged as it was received, from ``buf`` itself.
                _, bounds, refusals = check_frames(buf, at)
                frames, at = len(bounds) - 1, int(bounds[-1])
                first = 0
                for i, error in refusals:
                    if i > first:
                        replies.append(self._log_frames(view, bounds[first : i + 1]))
                    replies.append(wire.error_frame(wire.ERR_MALFORMED, f"bad submission: {error}"))
                    first = i + 1
                if first < frames:
                    replies.append(self._log_frames(view, bounds[first:]))
                frame = next(wire.iter_frames(view[at:]), None)
                if frame is None:
                    return at
                msg_type, payload, end = frame
                replies.append(_answer(self._respond, msg_type, bytes(payload)))
                at += end
        finally:
            self.log.flush()

    def _log_frames(self, view: memoryview, bounds: np.ndarray) -> bytes:
        """Append the checked frames ``view[bounds[i] : bounds[i + 1]]`` to
        the log; returns their replies."""
        count = len(bounds) - 1
        try:
            self.log.append(view[bounds[0] : bounds[-1]], bounds)
        except SealedError:
            return wire.error_frame(wire.ERR_SEALED, "log sealed") * count
        except Exception as exc:  # never crash the daemon
            return wire.error_frame(wire.ERR_INTERNAL, str(exc)) * count
        return _ACK * count

    def _respond(self, msg_type: int, payload: bytes) -> bytes:
        if msg_type == wire.MSG_SEAL_DECODE:
            reports, _ = seal_and_report(self.log, self.params, self.report_path)
            first = reports[0]
            summary = (
                f"revealed={len(first.revealed)}"
                f",unrevealed={sum(first.unrevealed_multiplicities.values())}"
                f",malformed={first.malformed_groups}"
                f",layers={len(reports)}"
            )
            return wire.encode_frame(wire.MSG_ACK, summary.encode())
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


def aggregation_server(
    listen: str, log_path: str, params_path: str, report_path: Optional[str]
) -> AggregationServer:
    """The aggregation daemon, bound with its log open but not yet serving;
    a bad address, parameter file or log raises OSError or ValueError."""
    params = params_from_config(Path(params_path).read_text())
    return AggregationServer(parse_listen(listen), log_path, params, report_path)


def serve(server: _BaseServer) -> None:  # pragma: no cover
    host, port = server.server_address[:2]
    print(f"{server.name} listening on {host}:{port}", flush=True)
    server.serve_forever()


def run_randomness_server(listen: str, key_seed_file: str) -> None:  # pragma: no cover
    serve(randomness_server(listen, key_seed_file))


def run_aggregation_server(
    listen: str, log_path: str, params_path: str, report_path: Optional[str] = None
) -> None:  # pragma: no cover
    serve(aggregation_server(listen, log_path, params_path, report_path))
