"""Nebula benchmark: aggregation rounds through the two stock daemons.

    python3 bench/run.py --workload bulk_single --seed 1 --seconds 30 --trace 0

Each workload repeats one aggregation round until ``--seconds`` have passed
(and enough clients have been timed for the tail percentile).  A round:

1. spawns ``nebula.cli randomness-server`` and ``aggregation-server`` as
   separate processes (``setup_s``);
2. runs interactive clients one after another, each with fresh connections:
   PUBLIC_KEY_REQUEST, ``oprf.blind``, RANDOMNESS_REQUEST,
   ``oprf.finalize_batch``, encode, SUBMISSION or SUPER_SUBMISSION, ACK
   (``client_latency_*``);
3. streams the pre-built submissions and one dummy batch, shuffled, over one
   pipelined connection (``ingest_subs_per_s``);
4. sends SEAL_DECODE and waits for its ACK (``seal_decode_s``), reads the
   daemon's peak RSS (``aggregation_peak_rss_mb``), and compares the report
   CSV byte for byte with an in-process decode of the same multiset.

All processes share one core, and every timing is scaled to a reference
host speed measured next to it (see ``calibrate``); the unscaled figures
are in the ``env`` line.

``bulk_single`` rounds hold single-attribute submissions and 1-attribute
clients; ``chain8`` rounds hold 8-attribute chained submissions and
8-attribute clients.  With ``--trace 1`` every other round runs traced
(daemons started through ``bench/launch.py``, client calls wrapped in
spans) and the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HOST = "127.0.0.1"
MIN_CLIENTS = {"full": 100, "tiny": 1}
MIN_ROUNDS = {"full": 3, "tiny": 2}
CAL_PRIME = 2**255 - 19
# Scaled timings are those of a host where calibrate() takes 15 ms.
CAL_REFERENCE_S = 0.015
# Each timed sample and the (before, after) pair of calibrate() runs around it.
CALIBRATION_OF = {"latency_s": "latency_cal", "ingest_subs_per_s": "ingest_cal",
                  "seal_decode_s": "seal_cal", "setup_s": "setup_cal"}


# --- daemons ----------------------------------------------------------------


def _free_ports(n: int) -> list[int]:
    """``n`` distinct free ports; the sockets stay bound until all are chosen."""
    socks = [socket.socket() for _ in range(n)]
    try:
        for s in socks:
            s.bind((HOST, 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


class PortTaken(RuntimeError):
    """A daemon found its port taken between choosing and binding it."""


class Daemons:
    """The two stock daemons of one round, as separate OS processes."""

    def __init__(self, round_dir: Path, params_text: str, traced: bool, run_id: str):
        from inputs import SERVER_KEY_SEED

        self.dir = round_dir
        self.dir.mkdir(parents=True)
        (self.dir / "key-seed.bin").write_bytes(SERVER_KEY_SEED)
        (self.dir / "params.cfg").write_text(params_text)
        self.log_path = self.dir / "submissions.log"
        self.report_path = self.dir / "report.csv"
        self.traced = traced
        self.run_id = run_id
        self.randomness_port, self.aggregation_port = _free_ports(2)
        self.procs: list[subprocess.Popen] = []
        self._stderr = []

    def _command(self, daemon: str, args: list[str]) -> list[str]:
        if self.traced:
            trace = self.dir / f"spans-{daemon}.json"
            return [sys.executable, str(BENCH / "launch.py"), "--trace-out", str(trace),
                    "--run-id", f"{self.run_id}-{daemon}", daemon, *args]
        return [sys.executable, "-m", "nebula.cli", daemon, *args]

    def start(self) -> float:
        """Spawn both daemons; returns seconds until both accept connections.

        A port is chosen free but can be taken by another socket before the
        daemon binds it; then both daemons are stopped and spawned again on
        new ports, and only the attempt that starts is timed.
        """
        for _ in range(3):
            try:
                return self._spawn()
            except PortTaken:
                self.stop()
                self.randomness_port, self.aggregation_port = _free_ports(2)
        raise RuntimeError("daemons found their ports taken three times")

    def _spawn(self) -> float:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        commands = [
            self._command("randomness-server", [
                "--listen", f"{HOST}:{self.randomness_port}",
                "--key-seed-file", str(self.dir / "key-seed.bin")]),
            self._command("aggregation-server", [
                "--listen", f"{HOST}:{self.aggregation_port}",
                "--log", str(self.log_path), "--params", str(self.dir / "params.cfg"),
                "--report", str(self.report_path)]),
        ]
        t0 = time.perf_counter()
        for i, command in enumerate(commands):
            err = open(self.dir / f"daemon{i}.stderr", "wb")
            self._stderr.append(err)
            self.procs.append(subprocess.Popen(
                command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err))
        # Each daemon prints one line once its socket is listening.
        with selectors.DefaultSelector() as sel:
            for proc in self.procs:
                sel.register(proc.stdout, selectors.EVENT_READ)
            waiting = len(self.procs)
            deadline = t0 + 60
            while waiting:
                ready = sel.select(timeout=max(0.0, deadline - time.perf_counter()))
                if not ready:
                    raise RuntimeError("daemons did not start within 60 s")
                for key, _ in ready:
                    if not key.fileobj.readline():
                        if any(b"Address already in use" in (self.dir / f"daemon{i}.stderr")
                               .read_bytes() for i in range(len(self.procs))):
                            raise PortTaken()
                        raise RuntimeError("a daemon exited during start-up")
                    sel.unregister(key.fileobj)
                    waiting -= 1
        return time.perf_counter() - t0

    def aggregation_peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.procs[1].pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        for err in self._stderr:
            err.close()
        self.procs.clear()
        self._stderr.clear()


# --- one round --------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed block of pure-Python work that calls no Nebula code.

    On a shared host the same work can take twice as long from one second to
    the next.  Every process of a run is pinned to one core, so this block
    runs on the core that does the timed work, and each timing is scaled by
    CAL_REFERENCE_S over the mean of the blocks run just before and just
    after it.  A change to Nebula moves the scaled figure as much as the raw
    one; a change in host speed mostly does not.  Daemon work that spills
    past a step's end slows the block after it and so flatters the step;
    both blocks are kept, and the ``env`` line gives the median of
    after / before per step so such a skew shows.
    """
    t0 = time.perf_counter()
    x = 3
    for _ in range(16):
        x = pow(x, CAL_PRIME - 3, CAL_PRIME)
    table = {}
    for i in range(10000):
        table[hashlib.sha256(i.to_bytes(4, "big")).digest()[:16]] = i
    return time.perf_counter() - t0


def _untraced(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_client(client, inputs, daemons: Daemons, round_index: int, call) -> tuple[float, bool]:
    """One interactive client; returns (seconds to ACK, output correct)."""
    from nebula import encode, multidim, oprf
    from nebula.service import ServiceClient

    blind_rng = random.Random(f"blind:{client.share_seed}:{round_index}")
    share_rng = random.Random(client.share_seed)
    xs = list(client.oprf_inputs)
    t0 = time.perf_counter()
    with ServiceClient(HOST, daemons.randomness_port) as rc:
        mpk = call("service.public_key_rtt", rc.fetch_public_key)
        pairs = call("oprf.blind", lambda: [oprf.blind(x, blind_rng) for x in xs])
        blinded = [b for b, _ in pairs]
        ev = call("service.randomness_rtt", rc.evaluate_blinded, blinded)
        rs = call("oprf.finalize_batch", oprf.finalize_batch,
                  xs, [st for _, st in pairs], ev, mpk)
    if inputs.chained:
        payload = call("multidim.encode_multidim", lambda: multidim.encode_multidim(
            client.attributes, rs, inputs.params, share_rng).to_bytes())
    else:
        payload = call("encode.build_submission", lambda: encode.build_submission(
            client.attributes[0], rs[0], inputs.params, share_rng).to_bytes())
    with ServiceClient(HOST, daemons.aggregation_port) as ac:
        call("service.submit_rtt", ac.submit, payload, inputs.chained)
    elapsed = time.perf_counter() - t0
    ok = tuple(rs) == client.expected_randomness and payload == client.expected_payload
    return elapsed, ok


def report_counts(csv: str, chained: bool) -> dict:
    """Group outcome counts from the report the aggregation daemon wrote."""
    from nebula import aggregate, multidim

    reports = multidim.layered_reports_from_csv(csv) if chained else [
        aggregate.report_from_csv(csv)]
    return {
        "useful": sum(reports[0].revealed.values()),
        "recovered": sum(len(r.revealed) for r in reports),
        "unrevealed": sum(sum(r.unrevealed_multiplicities.values()) for r in reports),
        "malformed": sum(r.malformed_groups for r in reports),
    }


def run_round(inputs, round_dir: Path, index: int, traced: bool, run_id: str, out: dict) -> None:
    from nebula import group, oprf
    from nebula.group import DecodeError
    from nebula.oprf import VerificationError
    from nebula.service import ServiceClient, ServiceError
    from nebula.wire import FrameError
    from spans import Recorder

    daemons = Daemons(round_dir, inputs.params_text, traced, f"{run_id}-r{index}")
    recorder = Recorder(f"{run_id}-r{index}-generator") if traced else None
    call = recorder.call if traced else _untraced
    try:
        cal = calibrate()
        out["setup_s"].append(daemons.start())
        cal_next = calibrate()
        out["setup_cal"].append((cal, cal_next))
        if traced:
            recorder.wrap(group.GroupElement, "__mul__", "group.mul")
            recorder.wrap(group.GroupElement, "__rmul__", "group.mul")
            recorder.wrap(oprf, "double_mult", "group.double_mult")
            recorder.wrap(oprf, "hash_to_group", "group.hash_to_group")
        latencies, latency_cal = [], []
        out["latency_s"].append(latencies)
        out["latency_cal"].append(latency_cal)
        for client in inputs.clients:
            out["attempted"] += 1
            cal = cal_next
            try:
                latency, ok = call("client", run_client, client, inputs, daemons, index, call)
            except (ServiceError, VerificationError, DecodeError, FrameError, ConnectionError) as exc:
                print(f"client failed: {type(exc).__name__}", file=sys.stderr)
                out["failed"] += 1
                out["correct"] = False
                continue
            finally:
                cal_next = calibrate()
            latencies.append(latency)
            latency_cal.append((cal, cal_next))
            if not ok:
                out["failed"] += 1
                out["correct"] = False
        if traced:
            recorder.unwrap_all()

        out["attempted"] += inputs.stream_frames
        with ServiceClient(HOST, daemons.aggregation_port, timeout=170) as ac:
            t0 = time.perf_counter()
            acks, errors = ac.submit_raw(inputs.stream, inputs.stream_frames)
            t1 = time.perf_counter()
        out["ingest_subs_per_s"].append(acks / (t1 - t0))
        cal, cal_next = cal_next, calibrate()
        out["ingest_cal"].append((cal, cal_next))
        if errors or acks != inputs.stream_frames:
            out["failed"] += inputs.stream_frames - acks
            out["correct"] = False

        out["attempted"] += 1
        with ServiceClient(HOST, daemons.aggregation_port, timeout=170) as ac:
            t2 = time.perf_counter()
            ac.seal_and_decode()
            t3 = time.perf_counter()
        out["seal_decode_s"].append(t3 - t2)
        cal, cal_next = cal_next, calibrate()
        out["seal_cal"].append((cal, cal_next))
        out["aggregation_peak_rss_mb"].append(daemons.aggregation_peak_rss_mb())
        out["log_bytes"].append(daemons.log_path.stat().st_size)
        report_csv = daemons.report_path.read_text()
        if report_csv != inputs.expected_csv:
            print("report CSV differs from the in-process decode", file=sys.stderr)
            out["failed"] += 1
            out["correct"] = False
        if traced:
            out["traced_reports"].append(report_counts(report_csv, inputs.chained))
        out["round_wall_s"][traced].append(sum(latencies) + (t1 - t0) + (t3 - t2))
    finally:
        if traced:
            recorder.unwrap_all()
        daemons.stop()
    daemons.log_path.unlink(missing_ok=True)
    daemons.report_path.unlink(missing_ok=True)
    if traced:
        recorder.write(round_dir / "spans-generator.json")
        out["traced_rounds"].append((round_dir, (t0, t1), len(inputs.clients)))


# --- metrics ----------------------------------------------------------------


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def _scaled(out: dict, key: str, scaled: bool = True) -> list[float]:
    """Samples of ``key``, scaled to the reference host speed (see calibrate)."""
    values, pairs = out[key], out[CALIBRATION_OF[key]]
    if key == "latency_s":  # one list per round
        values = [v for r in values for v in r]
        pairs = [c for r in pairs for c in r]
    if not scaled:
        return list(values)
    cals = [(before + after) / 2 for before, after in pairs]
    if key == "ingest_subs_per_s":  # a rate: a slow host lowers it
        return [v * c / CAL_REFERENCE_S for v, c in zip(values, cals)]
    return [v * CAL_REFERENCE_S / c for v, c in zip(values, cals)]


def end_to_end(out: dict, scaled: bool = True) -> dict:
    latencies_ms = [v * 1e3 for v in _scaled(out, "latency_s", scaled)]
    return {
        "client_latency_p50_ms": (_percentile(latencies_ms, 50), "ms"),
        "client_latency_p90_ms": (_percentile(latencies_ms, 90), "ms"),
        "ingest_subs_per_s": (statistics.median(_scaled(out, "ingest_subs_per_s", scaled)), "1/s"),
        "seal_decode_s": (statistics.median(_scaled(out, "seal_decode_s", scaled)), "s"),
        "aggregation_peak_rss_mb": (statistics.median(out["aggregation_peak_rss_mb"]), "MB"),
        "setup_s": (statistics.median(_scaled(out, "setup_s", scaled)), "s"),
    }


def per_layer(out: dict, inputs) -> dict:
    import numpy as np
    from spans import SpanTable

    def med(values, scale=1.0):
        return float(np.median(values)) * scale if len(values) else 0.0

    gen = {k: [] for k in ("oprf.blind", "oprf.finalize_batch", "service.public_key_rtt",
                           "service.randomness_rtt", "service.submit_rtt",
                           "encode.build_submission", "multidim.encode_multidim")}
    server_eval = []
    group_counts = {"group.mul": 0, "group.double_mult": 0, "group.hash_to_group": 0}
    traced_clients = 0
    rounds = {k: [] for k in (
        "service.dispatch_calls", "service.dispatch_busy_s", "service.ingest_validate_s",
        "service.log_append_s", "service.ingest_idle_s", "service.seal_s",
        "service.read_log_s", "service.read_log_records", "aggregate.group_by_tag_s",
        "aggregate.recover_group_self_s", "aggregate.recover_group_calls",
        "aggregate.report_csv_s", "sharing.interpolate_at_zero_s",
        "sharing.interpolate_at_zero_calls", "encode.decrypt_with_key_s",
        "encode.decrypt_with_key_calls", "multidim.decode_multidim_self_s",
        "multidim.layered_csv_s", "multidim.inner_parse_s", "service.read_log.useful_share")}
    parses = ("encode.Submission.from_bytes", "multidim.SuperSubmission.from_bytes")

    for (round_dir, (ts, te), clients), report in zip(out["traced_rounds"],
                                                     out["traced_reports"]):
        traced_clients += clients
        g = SpanTable.read(round_dir / "spans-generator.json")
        for name, values in gen.items():
            values.extend(g.duration[g.mask(name)].tolist())
        r = SpanTable.read(round_dir / "spans-randomness-server.json")
        server_eval.extend(r.duration[r.mask("oprf.evaluate_batch")].tolist())
        for name in group_counts:
            group_counts[name] += int(g.mask(name).sum() + r.mask(name).sum())

        a = SpanTable.read(round_dir / "spans-aggregation-server.json")
        window = a.within(ts, te)
        ingest = a.mask("service.dispatch") & window
        busy = float(a.duration[ingest].sum())
        validate = sum(float(a.duration[a.mask(p, "service.dispatch") & window].sum())
                       for p in parses)
        parsed = sum(int(a.mask(p, "service.read_log").sum()) for p in parses)
        inner_parse = sum(float(a.duration[a.mask(p, "multidim.decode_multidim")].sum())
                          for p in parses)

        def total(name):
            return float(a.duration[a.mask(name)].sum())

        def self_total(name):
            return float(a.self_time[a.mask(name)].sum())

        def count(name):
            return int(a.mask(name).sum())

        for key, value in {
            "service.dispatch_calls": int(ingest.sum()),
            "service.dispatch_busy_s": busy,
            "service.ingest_validate_s": validate,
            "service.log_append_s": float(a.duration[a.mask("service.log_append") & window].sum()),
            "service.ingest_idle_s": (te - ts) - busy,
            "service.seal_s": total("service.seal"),
            "service.read_log_s": total("service.read_log"),
            "service.read_log_records": parsed,
            "aggregate.group_by_tag_s": total("aggregate.group_by_tag"),
            "aggregate.recover_group_self_s": self_total("aggregate.recover_group"),
            "aggregate.recover_group_calls": count("aggregate.recover_group"),
            "aggregate.report_csv_s": total("aggregate.report_csv"),
            "sharing.interpolate_at_zero_s": total("sharing.interpolate_at_zero"),
            "sharing.interpolate_at_zero_calls": count("sharing.interpolate_at_zero"),
            "encode.decrypt_with_key_s": total("encode.decrypt_with_key"),
            "encode.decrypt_with_key_calls": count("encode.decrypt_with_key"),
            "multidim.decode_multidim_self_s": self_total("multidim.decode_multidim"),
            "multidim.layered_csv_s": total("multidim.layered_csv"),
            "multidim.inner_parse_s": inner_parse,
            "service.read_log.useful_share": report["useful"] / parsed if parsed else 0.0,
        }.items():
            rounds[key].append(value)

    evaluate_ms = med(server_eval, 1e3)
    randomness_rtt_ms = med(gen["service.randomness_rtt"], 1e3)
    units = {"_s": "s", "_ms": "ms", "_calls": "count", "_records": "count",
             "_share": "ratio"}
    metrics = {
        "group.mul_calls_per_client": (group_counts["group.mul"] / traced_clients, "count"),
        "group.double_mult_calls_per_client":
            (group_counts["group.double_mult"] / traced_clients, "count"),
        "group.hash_to_group_calls_per_client":
            (group_counts["group.hash_to_group"] / traced_clients, "count"),
        "oprf.blind_ms": (med(gen["oprf.blind"], 1e3), "ms"),
        "oprf.evaluate_batch_ms": (evaluate_ms, "ms"),
        "oprf.finalize_batch_ms": (med(gen["oprf.finalize_batch"], 1e3), "ms"),
        "service.public_key_rtt_ms": (med(gen["service.public_key_rtt"], 1e3), "ms"),
        "service.randomness_rtt_ms": (randomness_rtt_ms, "ms"),
        "service.randomness_wait_ms": (randomness_rtt_ms - evaluate_ms, "ms"),
        "encode.build_submission_ms": (med(gen["encode.build_submission"], 1e3), "ms"),
        "multidim.encode_multidim_ms": (med(gen["multidim.encode_multidim"], 1e3), "ms"),
        "service.submit_rtt_ms": (med(gen["service.submit_rtt"], 1e3), "ms"),
    }
    for key, values in rounds.items():
        unit = next(u for suffix, u in units.items() if key.endswith(suffix))
        metrics[key] = (med(values), unit)
    metrics.update({
        "service.log_bytes": (med(out["log_bytes"]), "bytes"),
        "aggregate.groups_recovered":
            (med([r["recovered"] for r in out["traced_reports"]]), "count"),
        "aggregate.groups_unrevealed":
            (med([r["unrevealed"] for r in out["traced_reports"]]), "count"),
        "aggregate.groups_malformed":
            (med([r["malformed"] for r in out["traced_reports"]]), "count"),
        "dummy.create_dummy_batch_ms": (inputs.dummy_batch_ms, "ms"),
        "trace.overhead_share": (
            statistics.median(out["round_wall_s"][True])
            / statistics.median(out["round_wall_s"][False]) - 1, "ratio"),
    })
    return metrics


def environment(args, inputs, out, digest: str) -> dict:
    import cryptography
    import numpy

    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    blocks = [("latency_cal", [p for r in out["latency_cal"] for p in r])] + [
        (key, out[key]) for key in ("setup_cal", "ingest_cal", "seal_cal")]
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "numpy": numpy.__version__,
        "git_sha": sha,
        "source_sha256": digest,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(out["setup_s"]),
        "traced_rounds": len(out["traced_rounds"]),
        "submissions_per_round": len(inputs.clients) + inputs.stream_frames,
        "distinct_tags_per_round": inputs.distinct_tags,
        "log_bytes_per_round": statistics.median(out["log_bytes"]),
        "unscaled": {name: value for name, (value, _) in end_to_end(out, scaled=False).items()},
        "calibration_ms_median": statistics.median(
            c for _, pairs in blocks for pair in pairs for c in pair) * 1e3,
        # Above 1 when work spills past the end of a timed step (see calibrate).
        "calibration_after_over_before_median": {
            key: statistics.median(after / before for before, after in pairs)
            for key, pairs in blocks},
        "percentile_samples": {"client_latency": sum(map(len, out["latency_s"]))},
        "median_samples": {"ingest_subs_per_s": len(out["ingest_subs_per_s"]),
                           "seal_decode_s": len(out["seal_decode_s"]),
                           "aggregation_peak_rss_mb": len(out["aggregation_peak_rss_mb"]),
                           "setup_s": len(out["setup_s"])},
    }


# --- entry point ------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True, choices=["bulk_single", "chain8"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="input size; tiny is for the privacy check")
    args = parser.parse_args(argv)
    # Let `finally` blocks stop the daemons when the run is terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The daemons inherit this one-core mask (see calibrate).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "nebula" / "service.py").is_file():
        print(f"no Nebula sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs as input_builder

    digest = input_builder.source_digest(SRC / "nebula")
    inputs = input_builder.build(args.workload, args.seed, args.scale, WORK / "cache", digest)

    run_id = f"{args.workload}-{args.scale}-trace{args.trace}"
    run_dir = WORK / "runs" / run_id
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    out = {"correct": True, "attempted": 0, "failed": 0, "latency_s": [],
           "ingest_subs_per_s": [], "seal_decode_s": [], "aggregation_peak_rss_mb": [],
           "setup_s": [], "log_bytes": [], "round_wall_s": {True: [], False: []},
           "traced_rounds": [], "traced_reports": [], "latency_cal": [], "setup_cal": [],
           "ingest_cal": [], "seal_cal": []}
    started = time.perf_counter()
    index = 0
    while (time.perf_counter() - started < args.seconds
           or index < MIN_ROUNDS[args.scale]
           or sum(map(len, out["latency_s"])) < MIN_CLIENTS[args.scale]):
        traced = bool(args.trace) and index % 2 == 1
        run_round(inputs, run_dir / f"round{index}", index, traced, run_id, out)
        index += 1

    metrics = per_layer(out, inputs) if args.trace else end_to_end(out)
    env = environment(args, inputs, out, digest)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    samples = {k: out[k] for k in ("latency_s", "ingest_subs_per_s", "seal_decode_s",
                                   "aggregation_peak_rss_mb", "setup_s", "latency_cal",
                                   "setup_cal", "ingest_cal", "seal_cal")}
    (run_dir / "result.json").write_text(
        json.dumps({**result, "env": env, "samples": samples}, indent=1))
    print(json.dumps(result))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
