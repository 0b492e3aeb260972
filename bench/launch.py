"""Start a stock Nebula daemon with span wrappers around its layers.

    python3 bench/launch.py --trace-out FILE --run-id ID randomness-server ARGS...
    python3 bench/launch.py --trace-out FILE --run-id ID aggregation-server ARGS...

ARGS are those of ``nebula.cli``.  The wrappers are installed on the names
the daemon looks up, then the stock ``service.run_randomness_server`` /
``service.run_aggregation_server`` runs unchanged.  SIGTERM ends the daemon
and writes the recorded spans to FILE.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nebula import aggregate, group, multidim, oprf, service, sharing  # noqa: E402

from spans import Recorder  # noqa: E402

RANDOMNESS_WRAPPERS = [
    (service.RandomnessServer, "dispatch", "service.dispatch"),
    (oprf, "evaluate_batch", "oprf.evaluate_batch"),
    (group.GroupElement, "__mul__", "group.mul"),
    (group.GroupElement, "__rmul__", "group.mul"),
    (oprf, "double_mult", "group.double_mult"),
    (oprf, "hash_to_group", "group.hash_to_group"),
]

AGGREGATION_WRAPPERS = [
    (service.AggregationServer, "dispatch", "service.dispatch"),
    (service.Submission, "from_bytes", "encode.Submission.from_bytes"),
    (service.SuperSubmission, "from_bytes", "multidim.SuperSubmission.from_bytes"),
    (service.SubmissionLog, "append", "service.log_append"),
    (service.SubmissionLog, "seal", "service.seal"),
    (service, "decode_log", "service.decode_log"),
    (service, "read_log", "service.read_log"),
    (aggregate, "decode_submissions", "aggregate.decode_submissions"),
    (aggregate, "group_by_tag", "aggregate.group_by_tag"),
    (multidim, "group_by_tag", "aggregate.group_by_tag"),
    (aggregate, "recover_group", "aggregate.recover_group"),
    (multidim, "recover_group", "aggregate.recover_group"),
    (sharing, "interpolate_at_zero", "sharing.interpolate_at_zero"),
    (aggregate, "decrypt_with_key", "encode.decrypt_with_key"),
    (multidim, "decode_multidim", "multidim.decode_multidim"),
    (aggregate, "report_to_csv", "aggregate.report_csv"),
    (multidim, "layered_reports_to_csv", "multidim.layered_csv"),
]


def _terminate(signum, frame):
    raise SystemExit(0)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("daemon", choices=["randomness-server", "aggregation-server"])
    parser.add_argument("--listen", required=True)
    parser.add_argument("--key-seed-file")
    parser.add_argument("--log")
    parser.add_argument("--params")
    parser.add_argument("--report")
    args = parser.parse_args(argv)

    recorder = Recorder(args.run_id)
    randomness = args.daemon == "randomness-server"
    for owner, attr, name in RANDOMNESS_WRAPPERS if randomness else AGGREGATION_WRAPPERS:
        recorder.wrap(owner, attr, name)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if randomness:
            service.run_randomness_server(args.listen, args.key_seed_file)
        else:
            service.run_aggregation_server(args.listen, args.log, args.params, args.report)
    finally:
        recorder.write(Path(args.trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
