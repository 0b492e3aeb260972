"""The aggregation daemon: it appends submission frames to an append-only
log; a seal request closes ingestion, decodes the log, and persists the
report as CSV.  It shares no state, secret or channel with the randomness
daemon in ``net``, whose connection layer it serves on.

The ingestion front models an anonymizing proxy: peer addresses are never
recorded anywhere, and the stored log contains only the submission payloads
(which themselves carry no client identifiers).

The daemon checks each run of submission frames in a receive buffer with the
log reader's columnar check and logs each stretch of good records as one
slice of the received bytes, so a million-submission ingest is a few calls
per receive, not per frame.  The log keeps the bounds of the frames it
holds, found by the check when it opens and recorded as it appends, and the
seal decodes from those bounds: a log's frame headers are walked once, never
again at the seal.  The daemon flushes its log to the OS before it hands
back any ACK, so an acknowledged submission survives the daemon being
killed; the seal fsyncs it.
"""

from __future__ import annotations

import os
import threading
from array import array
from pathlib import Path
from typing import Optional

import numpy as np

from . import aggregate, multidim, wire
# ``Submission`` and ``SuperSubmission`` are unused here; bench/launch.py
# times their ``from_bytes`` through this module's names.
from .encode import Submission  # noqa: F401
from .multidim import SuperSubmission, check_frames, check_log, read_log  # noqa: F401
# bench/ starts and reaches the randomness daemon through these names.
from .net import RandomnessServer, ServiceClient, ServiceError, run_randomness_server  # noqa: F401
from .net import _ACK, _RECV, _BaseServer, _answer, parse_listen, serve
from .params import DpParams, params_from_config


# --- aggregation server -----------------------------------------------------


class SealedError(Exception):
    """Ingestion already sealed; no further submissions accepted."""


class SubmissionLog:
    """Append-only file of submission frames with an explicit seal barrier;
    it keeps the bounds of the frames it holds, for the seal to read by."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._sealed = self.seal_marker.exists()
        # 0, then where each recorded frame ends, as file offsets: 8 bytes a
        # frame however the frames come, as ``array`` grows in place.
        self._bounds = array("q", [0])
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
        buf = b""  # starts just past the last whole frame recorded
        with open(self.path, "rb") as f:
            # A receive's worth at a time, as ingest checks a stream, so a
            # restart on a large log stays small in memory.
            while chunk := f.read(_RECV):
                buf += chunk
                _, bounds = check_log(buf, None)
                self._note(bounds, self._bounds[-1])
                buf = buf[int(bounds[-1]) :]
        if buf and self._sealed:
            raise wire.FrameError("truncated log record")
        if buf:
            os.truncate(self.path, self._bounds[-1])

    def _note(self, bounds: np.ndarray, shift: int) -> None:
        """Record frames whose bounds are ``bounds + shift``, the first at
        the end of those recorded."""
        self._bounds.frombytes((bounds[1:] + shift).tobytes())

    @property
    def seal_marker(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".sealed")

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def bounds(self) -> np.ndarray:
        """Each frame's file offset, then the end of the last, as
        ``multidim.check_log`` returns them: a view, not a copy.  While one
        is held the log cannot grow, so an append fails as a failed write
        does."""
        with self._lock:
            return np.frombuffer(self._bounds, np.int64)

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
            self._note(bounds, self._bounds[-1] - bounds[0])

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


def report_file(log_path: str | Path, report_path: str | Path | None) -> Path:
    """Where the report of the log at ``log_path`` is written: ``report_path``,
    or for None ``<log>.report.csv``, appended to the log's full name as the
    seal marker is.  A path whose directory does not exist, or that is a
    directory, raises ValueError."""
    out = Path(report_path or f"{Path(log_path)}.report.csv")
    if not out.parent.is_dir():
        raise ValueError(f"report {out}: no directory {out.parent}")
    if out.is_dir():
        raise ValueError(f"report {out} is a directory")
    return out


def seal_and_report(
    log: SubmissionLog, params: DpParams, report_path: str | Path | None
) -> tuple[list[aggregate.HistogramReport], Path]:
    """Seal ``log``, decode it from the frame bounds it recorded and write
    the report CSV to ``report_file(log.path, report_path)``; returns
    (reports, path).  The seal is permanent, so a report path that cannot
    be written raises ValueError before it."""
    out = report_file(log.path, report_path)
    log.seal()
    reports, csv_text = decode_log(log.path.read_bytes(), params, log.bounds)
    # Written beside the report and renamed over it, so a crash mid-write
    # leaves the old report or none, never a partial one.
    partial = out.with_name(out.name + ".partial")
    partial.write_text(csv_text)
    os.replace(partial, out)
    return reports, out


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
        # Refused before the socket binds, as a path the seal could not use.
        report_file(log_path, report_path)
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
                _, bounds, refusals = check_frames(buf, at, None)
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


# --- daemon entry points (used by the CLI) ----------------------------------


def aggregation_server(
    listen: str, log_path: str, params_path: str, report_path: Optional[str]
) -> AggregationServer:
    """The aggregation daemon, bound with its log open but not yet serving;
    a bad address, parameter file, log or report path raises OSError or
    ValueError."""
    params = params_from_config(Path(params_path).read_text())
    return AggregationServer(parse_listen(listen), log_path, params, report_path)


def run_aggregation_server(
    listen: str, log_path: str, params_path: str, report_path: Optional[str] = None
) -> None:  # pragma: no cover
    serve(aggregation_server(listen, log_path, params_path, report_path))
