"""The two daemons and their clients.

Randomness server: stateless; answers public-key requests and batched
blinded-evaluation requests.  Aggregation server: appends submission frames
to an append-only log; a seal request closes ingestion, decodes the log, and
persists the report as CSV.  The two daemons share no state, secrets, or
channel.

The ingestion front models an anonymizing proxy: peer addresses are never
recorded anywhere, and the stored log contains only the submission payloads
(which themselves carry no client identifiers).

Framing is processed from a manual receive buffer so acknowledgements can be
batched: pending responses are flushed exactly when the socket would block,
which gives per-message latency for interactive clients and large write
batches for bulk streams (a million-submission ingest is a few syscalls per
64 KiB, not per frame).
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
from pathlib import Path
from typing import Optional, Sequence

from . import aggregate, multidim, oprf, wire
from .encode import Submission
from .group import DecodeError, GroupElement
from .multidim import SuperSubmission
from .params import DpParams, params_from_config


# --- connection handling ----------------------------------------------------


class _FrameConnection:
    """Receive loop over a socket with lazy-flushed response batching."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = bytearray()
        self.pos = 0
        self.pending: list[bytes] = []

    def queue(self, frame: bytes) -> None:
        self.pending.append(frame)

    def flush(self) -> None:
        if self.pending:
            self.sock.sendall(b"".join(self.pending))
            self.pending.clear()

    def _fill(self) -> bool:
        # About to block on the socket: deliver everything queued so far.
        self.flush()
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            return False
        if self.pos > (1 << 20):
            del self.buf[: self.pos]
            self.pos = 0
        self.buf.extend(chunk)
        return True

    def frames(self):
        """Yield (msg_type, payload) until EOF; raises FrameError on bad input."""
        while True:
            while len(self.buf) - self.pos < wire.HEADER_SIZE:
                if not self._fill():
                    self.flush()
                    return
            header = bytes(self.buf[self.pos : self.pos + wire.HEADER_SIZE])
            msg_type, length = wire.parse_header(header)
            # _fill may compact the buffer, so track sizes relative to pos.
            while len(self.buf) - self.pos < wire.HEADER_SIZE + length:
                if not self._fill():
                    raise wire.FrameError("connection closed mid-frame")
            start = self.pos + wire.HEADER_SIZE
            payload = bytes(self.buf[start : start + length])
            self.pos = start + length
            yield msg_type, payload


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via integration
        conn = _FrameConnection(self.request)
        server: _BaseServer = self.server  # type: ignore[assignment]
        try:
            for msg_type, payload in conn.frames():
                try:
                    response = server.dispatch(msg_type, payload)
                except wire.FrameError as exc:
                    response = wire.encode_frame(
                        wire.MSG_ERROR, wire.pack_error(wire.ERR_MALFORMED, str(exc))
                    )
                except Exception as exc:  # never crash the daemon
                    response = wire.encode_frame(
                        wire.MSG_ERROR, wire.pack_error(wire.ERR_INTERNAL, str(exc))
                    )
                conn.queue(response)
        except wire.FrameError:
            # Unrecoverable framing breakage: report and drop the connection.
            conn.queue(
                wire.encode_frame(
                    wire.MSG_ERROR, wire.pack_error(wire.ERR_MALFORMED, "bad frame")
                )
            )
        try:
            conn.flush()
        except OSError:
            pass


class _BaseServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int]):
        super().__init__(address, _Handler)
        self._thread: Optional[threading.Thread] = None

    def dispatch(self, msg_type: int, payload: bytes) -> bytes:
        raise NotImplementedError

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


# --- randomness server ------------------------------------------------------


class RandomnessServer(_BaseServer):
    """Stateless OPRF evaluation daemon; the keypair never leaves it."""

    def __init__(self, address: tuple[str, int], key_seed: bytes):
        super().__init__(address)
        self.keypair = oprf.keygen(key_seed)

    def dispatch(self, msg_type: int, payload: bytes) -> bytes:
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


class SubmissionLog:
    """Append-only file of submission frames with an explicit seal barrier."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._sealed = self.seal_marker.exists()
        if not self._sealed and self.path.exists():
            self._trim_torn_tail()
        self._file = None if self._sealed else open(self.path, "ab")

    def _trim_torn_tail(self) -> None:
        """Cut a trailing record that a crash left short.

        Records are only ever appended, so a header or payload that runs past
        the end of the file can only be the last write, cut off mid-way.  A
        bad header before that is corruption and raises FrameError.
        """
        size = self.path.stat().st_size
        offset = 0
        with open(self.path, "r+b") as f:
            while size - offset >= wire.HEADER_SIZE:
                f.seek(offset)
                _, length = wire.parse_header(f.read(wire.HEADER_SIZE))
                if offset + wire.HEADER_SIZE + length > size:
                    break
                offset += wire.HEADER_SIZE + length
            if offset < size:
                f.truncate(offset)

    @property
    def seal_marker(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".sealed")

    @property
    def sealed(self) -> bool:
        return self._sealed

    def append(self, msg_type: int, payload: bytes) -> None:
        record = wire.encode_frame(msg_type, payload)
        with self._lock:
            if self._sealed:
                raise SealedError("submission log is sealed")
            self._file.write(record)

    def seal(self) -> None:
        with self._lock:
            if self._sealed:
                return
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None
            self._sealed = True
            self.seal_marker.touch()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


def read_log(path: str | Path) -> tuple[list[Submission], list[SuperSubmission]]:
    """Parse a (sealed) log back into submissions."""
    data = Path(path).read_bytes()
    singles: list[Submission] = []
    supers: list[SuperSubmission] = []
    offset = 0
    total = len(data)
    while offset < total:
        msg_type, length = wire.parse_header(data[offset : offset + wire.HEADER_SIZE])
        start = offset + wire.HEADER_SIZE
        if start + length > total:
            raise wire.FrameError("truncated log record")
        payload = data[start : start + length]
        offset = start + length
        if msg_type == wire.MSG_SUBMISSION:
            singles.append(Submission.from_bytes(payload))
        elif msg_type == wire.MSG_SUPER_SUBMISSION:
            supers.append(SuperSubmission.from_bytes(payload))
        else:
            raise wire.FrameError(f"unexpected record type {msg_type} in log")
    return singles, supers


def decode_messages(
    singles: Sequence[Submission],
    supers: Sequence[SuperSubmission],
    params: DpParams,
) -> tuple[list[aggregate.HistogramReport], str]:
    """Decode a submission multiset; returns (reports, csv).

    Every multiset goes through the one layered decoder.  Without chained
    messages the result is the plain single-attribute report (its
    one-layer case); any chained message makes the report layered, and
    plain submissions join it as one-layer chains.
    """
    if not supers:
        report = aggregate.decode_submissions(singles, params.threshold, params)
        return [report], aggregate.report_to_csv(report)
    reports = multidim.decode_multidim([*supers, *singles], params.threshold, params)
    return reports, multidim.layered_reports_to_csv(reports)


def decode_log(
    path: str | Path, params: DpParams
) -> tuple[list[aggregate.HistogramReport], str]:
    """Decode a sealed log with ``decode_messages``; returns (reports, csv).

    A log holding only SUBMISSION frames yields one plain report; any
    SUPER_SUBMISSION frame makes the report layered.
    """
    singles, supers = read_log(path)
    return decode_messages(singles, supers, params)


class AggregationServer(_BaseServer):
    """Ingestion daemon: log submissions, seal, decode, persist the report."""

    def __init__(
        self,
        address: tuple[str, int],
        log_path: str | Path,
        params: DpParams,
        report_path: str | Path | None = None,
    ):
        super().__init__(address)
        self.log = SubmissionLog(log_path)
        self.params = params
        self.report_path = Path(
            report_path
            if report_path is not None
            else Path(log_path).with_suffix(".report.csv")
        )

    def dispatch(self, msg_type: int, payload: bytes) -> bytes:
        if msg_type in (wire.MSG_SUBMISSION, wire.MSG_SUPER_SUBMISSION):
            # Validate before persisting so the log never holds garbage.
            try:
                if msg_type == wire.MSG_SUBMISSION:
                    Submission.from_bytes(payload)
                else:
                    SuperSubmission.from_bytes(payload)
            except ValueError as exc:
                raise wire.FrameError(f"bad submission: {exc}") from exc
            try:
                self.log.append(msg_type, payload)
            except SealedError:
                return wire.encode_frame(
                    wire.MSG_ERROR, wire.pack_error(wire.ERR_SEALED, "log sealed")
                )
            return wire.encode_frame(wire.MSG_ACK)
        if msg_type == wire.MSG_SEAL_DECODE:
            self.log.seal()
            reports, csv_text = decode_log(self.log.path, self.params)
            self.report_path.write_text(csv_text)
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
    """Blocking request/response client for either daemon."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self._rbuf = b""

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _read_exact(self, n: int) -> bytes:
        while len(self._rbuf) < n:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed connection")
            self._rbuf += chunk
        out, self._rbuf = self._rbuf[:n], self._rbuf[n:]
        return out

    def read_frame(self) -> wire.WireFrame:
        msg_type, length = wire.parse_header(self._read_exact(wire.HEADER_SIZE))
        return wire.WireFrame(msg_type, self._read_exact(length))

    def request(self, msg_type: int, payload: bytes = b"") -> wire.WireFrame:
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

    def oblivious_randomness(self, values: list[bytes], rng) -> list[bytes]:
        """Full client side: blind, request evaluation, verify, finalize."""
        mpk = self.fetch_public_key()
        states = []
        blinded = []
        for v in values:
            b, st = oprf.blind(v, rng)
            blinded.append(b)
            states.append(st)
        ev = self.evaluate_blinded(blinded)
        return oprf.finalize_batch(values, states, ev, mpk)

    # aggregation-server calls

    def submit(self, payload: bytes, chained: bool = False) -> None:
        msg_type = wire.MSG_SUPER_SUBMISSION if chained else wire.MSG_SUBMISSION
        self.request(msg_type, payload)

    def submit_raw(self, buffer: bytes | memoryview, count: int) -> tuple[int, int]:
        """Send ``count`` pre-framed messages from one buffer; returns
        (acks, errors).

        A reader thread drains exactly ``count`` responses while the writer
        streams, so neither side's socket buffer can deadlock the connection.
        """
        result = {"acks": 0, "errors": 0}
        fail: list[Exception] = []

        def drain() -> None:
            try:
                for _ in range(count):
                    frame = self.read_frame()
                    if frame.msg_type == wire.MSG_ACK:
                        result["acks"] += 1
                    else:
                        result["errors"] += 1
            except Exception as exc:  # surfaced after join
                fail.append(exc)

        reader = threading.Thread(target=drain)
        reader.start()
        self.sock.sendall(buffer)
        reader.join()
        if fail:
            raise fail[0]
        return result["acks"], result["errors"]

    def submit_stream(self, frames: Sequence[bytes]) -> tuple[int, int]:
        """Pipelined bulk submit of pre-encoded frames; returns (acks, errors)."""
        return self.submit_raw(b"".join(frames), len(frames))

    def seal_and_decode(self) -> str:
        frame = self.request(wire.MSG_SEAL_DECODE)
        return frame.payload.decode()


# --- daemon entry points (used by the CLI) ----------------------------------


def parse_listen(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"listen address must be host:port, got {text!r}")
    return host, int(port)


def opt(flag_value: Optional[str], env_name: str, default: Optional[str] = None) -> Optional[str]:
    """Flag wins, then environment variable, then default."""
    if flag_value is not None:
        return flag_value
    return os.environ.get(env_name, default)


def run_randomness_server(listen: str, key_seed_file: str) -> None:  # pragma: no cover
    seed = Path(key_seed_file).read_bytes()
    server = RandomnessServer(parse_listen(listen), seed)
    print(f"randomness server listening on {listen}")
    server.serve_forever()


def run_aggregation_server(
    listen: str,
    log_path: str,
    params_path: str,
    report_path: Optional[str] = None,
    seal_and_decode: bool = False,
) -> None:  # pragma: no cover
    params = params_from_config(Path(params_path).read_text())
    if seal_and_decode:
        log = SubmissionLog(log_path)
        log.seal()
        _, csv_text = decode_log(log_path, params)
        out = Path(report_path or Path(log_path).with_suffix(".report.csv"))
        out.write_text(csv_text)
        print(f"report written to {out}")
        return
    server = AggregationServer(parse_listen(listen), log_path, params, report_path)
    print(f"aggregation server listening on {listen}")
    server.serve_forever()
