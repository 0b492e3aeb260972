"""Command-line entry points: experiment runner and the two daemons."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nebula")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a population and decode")
    run.add_argument("--dataset", required=True,
                     help="path to a corpus/.csv file or synthetic:<spec>")
    run.add_argument("--columns", help="comma-separated CSV columns")
    run.add_argument("--geo-columns",
                     help="country,lat,lon columns for geographic coarse-graining")
    run.add_argument("--eps", type=float, required=True)
    run.add_argument("--delta", type=float, default=1e-8)
    run.add_argument("--alpha", type=float, default=1 / 6)
    run.add_argument("--eps-unrevealed", type=float,
                     help="defaults to --eps")
    run.add_argument("--delta-unrevealed", type=float,
                     help="defaults to --delta")
    run.add_argument("--tau-override", type=int)
    run.add_argument("--shift-override", type=int)
    run.add_argument("--bin-bits", type=int)
    run.add_argument("--multidim", action="store_true")
    run.add_argument("--transport", choices=["inproc", "daemons"], default="inproc")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--baselines", action="store_true",
                     help="also run the central/local baselines")

    # Daemon flags fall back to their NEBULA_* environment variables.
    env = os.environ.get
    rnd = sub.add_parser("randomness-server", help="run the OPRF daemon")
    rnd.add_argument("--listen", default=env("NEBULA_LISTEN", "127.0.0.1:4560"),
                     help="host:port; port 0 binds a free port, printed at start-up")
    rnd.add_argument("--key-seed-file", default=env("NEBULA_KEY_SEED_FILE"))

    agg = sub.add_parser("aggregation-server", help="run the ingestion daemon")
    agg.add_argument("--listen", default=env("NEBULA_LISTEN", "127.0.0.1:4570"),
                     help="host:port; port 0 binds a free port, printed at start-up")
    agg.add_argument("--log", default=env("NEBULA_LOG_PATH"))
    agg.add_argument("--params", default=env("NEBULA_PARAMS"))
    agg.add_argument("--report", default=env("NEBULA_REPORT"))
    agg.add_argument("--seal-and-decode", action="store_true",
                     help="seal the existing log, decode it, write the report, exit")
    return parser


def _fail(command: str, message: object) -> int:
    """Report bad input as one line on stderr; the exit status is 2."""
    print(f"nebula {command}: {message}", file=sys.stderr)
    return 2


def _cmd_run(args: argparse.Namespace) -> int:
    from . import harness
    from .params import DpBudget, ParameterError, derive_params, params_to_config
    overrides = {}
    if args.tau_override is not None:
        overrides["threshold"] = args.tau_override
    if args.shift_override is not None:
        overrides["tsdlap_shift"] = args.shift_override
    eps_unrevealed = args.eps if args.eps_unrevealed is None else args.eps_unrevealed
    delta_unrevealed = args.delta if args.delta_unrevealed is None else args.delta_unrevealed
    try:
        budget = DpBudget(args.eps, args.delta, eps_unrevealed, delta_unrevealed, args.alpha)
        params = derive_params(budget, overrides)
    except ParameterError as exc:
        return _fail("run", exc)

    columns = args.columns.split(",") if args.columns else None
    geo = tuple(args.geo_columns.split(",")) if args.geo_columns else None
    if geo is not None and len(geo) != 3:
        return _fail("run", "--geo-columns needs exactly country,lat,lon")
    try:
        dataset = harness.load_dataset(
            args.dataset, columns=columns, geo_columns=geo, bin_bits=args.bin_bits
        )
    except ValueError as exc:  # a dataset spec or --bin-bits that cannot apply
        return _fail("run", exc)
    # A single-attribute record is itself the OPRF input, which must be non-empty.
    if not args.multidim and dataset.num_attributes == 1 and (b"",) in dataset.records:
        row = dataset.records.index((b"",)) + 1
        return _fail("run", f"column {dataset.schema[0]!r} is empty in record {row}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "params.cfg").write_text(params_to_config(params))

    mode = "multidim" if args.multidim else "single"
    transport = "daemons" if args.transport == "daemons" else "in_process"
    result = harness.run_nebula(dataset, params, args.seed, mode=mode, transport=transport)
    (out / "report.csv").write_text(result.report_csv)

    results = [result]
    if args.baselines:
        results.append(harness.run_baseline_central(dataset, args.eps, args.seed))
        try:
            results.append(harness.run_baseline_local(dataset, args.eps, args.seed))
        except harness.CapacityError as exc:
            print(f"local baseline skipped: {exc}", file=sys.stderr)
    harness.write_errors_csv(out / "errors.csv", results)

    plot_rows = []
    if result.per_prefix_errors:
        for depth, err in enumerate(result.per_prefix_errors, start=1):
            plot_rows.append(("prefix_error", float(depth), err))
    for res in results:
        for mechanism, err in sorted(res.errors.items()):
            plot_rows.append((mechanism, float(args.bin_bits or 0), err))
    harness.write_plot_data(out / "plotdata.csv", plot_rows)

    for res in results:
        for mechanism, err in sorted(res.errors.items()):
            print(f"{mechanism}: error={err:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Each command imports what it runs, so a daemon starts on its own modules only.
    if args.command == "run":
        return _cmd_run(args)
    # Each daemon is built (its inputs read, its log opened, its socket
    # bound) before it serves, and a log opened before it is sealed, so no
    # error raised after that point is reported as bad input.
    if args.command == "randomness-server":
        from . import net
        if args.key_seed_file is None:
            return _fail(args.command, "--key-seed-file (or NEBULA_KEY_SEED_FILE) required")
        try:
            server = net.randomness_server(args.listen, args.key_seed_file)
        except (OSError, ValueError) as exc:
            return _fail(args.command, exc)
        net.serve(server)
        return 0
    # The one command left: aggregation-server.
    from . import net, service
    from .params import params_from_config
    if args.log is None or args.params is None:
        return _fail(args.command, "--log and --params (or env equivalents) required")
    if not args.seal_and_decode:
        try:
            server = service.aggregation_server(args.listen, args.log, args.params, args.report)
        except (OSError, ValueError) as exc:
            return _fail(args.command, exc)
        net.serve(server)
        return 0
    # Sealing is permanent, so a mistyped path must not seal a new log, nor
    # a report path that cannot be written seal an old one.
    if not Path(args.log).is_file():
        return _fail(args.command, f"--seal-and-decode: no log at {args.log}")
    try:
        report = service.report_file(args.log, args.report)
        params = params_from_config(Path(args.params).read_text())
        log = service.SubmissionLog(args.log)
    except (OSError, ValueError) as exc:
        return _fail(args.command, exc)
    _, out = service.seal_and_report(log, params, report)
    print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())  # pragma: no cover - a spawned daemon's entry
