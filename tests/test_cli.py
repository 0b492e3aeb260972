"""CLI surface tests: the run command, the offline seal-and-decode path and
the daemons' start-up checks."""

import os
import random
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from nebula import net, wire
from nebula.cli import main
from nebula.params import params_from_config
from nebula.service import SubmissionLog
from test_log_index import frame_bounds


@pytest.fixture
def no_serving(monkeypatch):
    """A daemon that starts stops at once instead of serving, so a start-up
    that should have been refused fails its test rather than hanging it."""
    monkeypatch.setattr(net, "serve", lambda server: server.stop())


def test_run_writes_outputs(tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "run",
            "--dataset", "synthetic:zipf,n=2000,domain=25,skew=1.1,seed=4",
            "--eps", "1.0",
            "--delta", "1e-8",
            "--alpha", "0.1666666",
            "--tau-override", "5",
            "--shift-override", "4",
            "--seed", "3",
            "--out", str(out),
            "--baselines",
        ]
    )
    assert rc == 0
    for name in ("params.cfg", "report.csv", "errors.csv", "plotdata.csv"):
        assert (out / name).exists(), name
    params = params_from_config((out / "params.cfg").read_text())
    assert params.threshold == 5
    assert params.overridden == ("threshold", "tsdlap_shift")
    errors = (out / "errors.csv").read_text()
    assert "nebula" in errors and "central" in errors and "local" in errors


def test_run_multidim(tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "run",
            "--dataset", "synthetic:chain,n=1500,branching=3x3,skew=1.2,seed=2",
            "--eps", "1.0",
            "--tau-override", "4",
            "--shift-override", "4",
            "--multidim",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    plot = (out / "plotdata.csv").read_text()
    assert "prefix_error" in plot
    report = (out / "report.csv").read_text()
    assert report.startswith("nebula-layered-report,v1")


def _write_log(tmp_path):
    """A params file and an unsealed log of four ``cli-value`` submissions."""
    from nebula import oprf
    from nebula.encode import build_submission
    from nebula.harness import value_randomness
    from nebula.params import DpBudget, derive_params, params_to_config

    params = derive_params(
        DpBudget(1.0, 1e-8, 1.0, 1e-8, 1 / 6),
        overrides={"threshold": 3, "tsdlap_shift": 4},
    )
    cfg = tmp_path / "params.cfg"
    cfg.write_text(params_to_config(params))
    log_path = tmp_path / "log.bin"
    log = SubmissionLog(log_path)
    kp = oprf.keygen(b"\x51" * 32)
    rng = random.Random(0)
    r = value_randomness(b"cli-value", kp)
    frames = b"".join(
        wire.encode_frame(wire.MSG_SUBMISSION, build_submission(b"cli-value", r, params, rng).to_bytes())
        for _ in range(4)
    )
    log.append(frames, frame_bounds(frames))
    log.close()
    return cfg, log_path


def test_offline_seal_and_decode(tmp_path):
    # Prepare a log without a daemon, then decode it via the CLI flag.
    cfg, log_path = _write_log(tmp_path)
    rc = main(
        [
            "aggregation-server",
            "--log", str(log_path),
            "--params", str(cfg),
            "--report", str(tmp_path / "report.csv"),
            "--seal-and-decode",
        ]
    )
    assert rc == 0
    text = (tmp_path / "report.csv").read_text()
    assert "cli-value,4" in text


def test_default_report_path_appends_to_log_name(tmp_path, monkeypatch):
    # Without --report the report lands at <log>.report.csv, named as the
    # <log>.sealed marker is: log.bin gives log.bin.report.csv.
    monkeypatch.delenv("NEBULA_REPORT", raising=False)
    cfg, log_path = _write_log(tmp_path)
    rc = main(["aggregation-server", "--log", str(log_path), "--params", str(cfg),
               "--seal-and-decode"])
    assert rc == 0
    assert "cli-value,4" in (tmp_path / "log.bin.report.csv").read_text()
    assert (tmp_path / "log.bin.sealed").exists()


def test_seal_and_decode_reads_environment(tmp_path, monkeypatch):
    cfg, log_path = _write_log(tmp_path)
    monkeypatch.setenv("NEBULA_LOG_PATH", str(log_path))
    monkeypatch.setenv("NEBULA_PARAMS", str(cfg))
    monkeypatch.setenv("NEBULA_REPORT", str(tmp_path / "env-report.csv"))
    assert main(["aggregation-server", "--seal-and-decode"]) == 0
    assert "cli-value,4" in (tmp_path / "env-report.csv").read_text()


def test_flag_beats_environment(tmp_path, monkeypatch):
    cfg, log_path = _write_log(tmp_path)
    monkeypatch.setenv("NEBULA_LOG_PATH", str(tmp_path / "missing.log"))
    monkeypatch.setenv("NEBULA_PARAMS", str(cfg))
    monkeypatch.setenv("NEBULA_REPORT", str(tmp_path / "env-report.csv"))
    flag_report = tmp_path / "flag-report.csv"
    rc = main(
        [
            "aggregation-server", "--log", str(log_path),
            "--report", str(flag_report), "--seal-and-decode",
        ]
    )
    assert rc == 0
    assert "cli-value,4" in flag_report.read_text()
    assert not (tmp_path / "env-report.csv").exists()
    assert not (tmp_path / "missing.log").exists()


def test_seal_and_decode_refuses_missing_log(tmp_path, capsys):
    # Sealing is permanent: a mistyped log path must create no log, no seal
    # marker and no report.
    cfg, _ = _write_log(tmp_path)
    before = sorted(tmp_path.iterdir())
    rc = main(
        [
            "aggregation-server", "--log", str(tmp_path / "mistyped.log"),
            "--params", str(cfg), "--report", str(tmp_path / "report.csv"),
            "--seal-and-decode",
        ]
    )
    assert rc == 2
    assert "mistyped.log" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_missing_log_and_params_rejected(monkeypatch):
    monkeypatch.delenv("NEBULA_LOG_PATH", raising=False)
    monkeypatch.delenv("NEBULA_PARAMS", raising=False)
    assert main(["aggregation-server", "--seal-and-decode"]) == 2


def test_bad_geo_columns_rejected(tmp_path):
    rc = main(
        [
            "run",
            "--dataset", "x.csv",
            "--geo-columns", "a,b",
            "--eps", "1.0",
            "--seed", "0",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 2


def test_bin_bits_on_multi_attribute_dataset_rejected(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--dataset", "synthetic:chain,n=100,branching=2x2,seed=0",
            "--bin-bits", "2",
            "--eps", "1.0",
            "--seed", "0",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "single-attribute" in err
    assert not (tmp_path / "out").exists()


# --- bad input: one line on stderr, exit status 2, nothing written -----------


def _one_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eps", "1", "--alpha", "0.9"], "non-positive rate constant"),
        (["--eps", "-1"], "eps_revealed must be positive"),
        (["--eps", "1", "--eps-unrevealed", "2"], "eps_unrevealed must not exceed eps_revealed"),
        (["--eps", "1", "--tau-override", "0"], "threshold must be a positive integer"),
    ],
)
def test_run_refuses_bad_parameters(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    rc = main(["run", "--dataset", "synthetic:zipf,n=100,domain=5,seed=0", *flags,
               "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert message in _one_line(capsys)
    assert not out.exists()


def test_run_refuses_empty_single_attribute_value(tmp_path, capsys):
    data = tmp_path / "words.csv"
    data.write_text("word,other\napple,x\n,y\n")
    out = tmp_path / "out"
    rc = main(["run", "--dataset", str(data), "--columns", "word", "--eps", "1",
               "--seed", "0", "--out", str(out)])
    assert rc == 2
    err = _one_line(capsys)
    assert "'word'" in err and "record 2" in err
    assert not out.exists()


_NINE = ",".join(f"c{i}" for i in range(9))
_EIGHT = ",".join(f"c{i}" for i in range(8))


@pytest.mark.parametrize(
    "name, text, flags, message",
    [
        ("nine.csv", f"{_NINE}\n" + ",".join("a" * 9) + "\n", ["--columns", _NINE],
         "record 1: 9 attributes, over the limit of 8"),
        ("words.txt", "apple pear " + "x" * 400 + "\n", [],
         "record 3: a 400-byte value, over the limit of 256 bytes"),
        # Flattened, 8 attributes of 40 bytes take 8 x (2 + 40) = 336 bytes.
        ("wide.csv", f"{_EIGHT}\n" + "a,b,c,d,e,f,g,h\n" + ",".join(["y" * 40] * 8) + "\n",
         ["--columns", _EIGHT], "record 2: a 336-byte value, over the limit of 256 bytes"),
        # With --multidim each attribute is encrypted alone.
        ("deep.csv", "a,b\nx,y\nx," + "z" * 300 + "\n", ["--columns", "a,b", "--multidim"],
         "record 2: a 300-byte value, over the limit of 256 bytes"),
    ],
)
def test_run_refuses_a_record_it_cannot_encode(tmp_path, capsys, name, text, flags, message):
    # Refused whichever records the seed samples, before anything is written.
    data = tmp_path / name
    data.write_text(text)
    out = tmp_path / "out"
    rc = main(["run", "--dataset", str(data), *flags, "--eps", "1",
               "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert _one_line(capsys) == f"nebula run: {message}\n"
    assert not out.exists()


def test_run_multidim_encrypts_each_attribute_alone(tmp_path):
    # 8 attributes of 40 bytes fit as 8 values, not as one flattened value.
    data = tmp_path / "wide.csv"
    data.write_text(f"{_EIGHT}\n" + (",".join(["y" * 40] * 8) + "\n") * 20)
    rc = main(["run", "--dataset", str(data), "--columns", _EIGHT, "--multidim",
               "--eps", "1", "--tau-override", "2", "--seed", "1", "--out", str(tmp_path / "out")])
    assert rc == 0


@pytest.mark.parametrize("listen", ["nope", "127.0.0.1:70000"])
def test_randomness_server_refuses_bad_listen(tmp_path, capsys, listen, no_serving):
    seed = tmp_path / "seed"
    seed.write_bytes(b"\x01" * 32)
    rc = main(["randomness-server", "--listen", listen, "--key-seed-file", str(seed)])
    assert rc == 2
    assert listen in _one_line(capsys)


def test_aggregation_server_refuses_bad_listen(tmp_path, capsys, no_serving):
    cfg, _ = _write_log(tmp_path)
    log_path = tmp_path / "new.log"
    rc = main(["aggregation-server", "--listen", "127.0.0.1:70000", "--log", str(log_path),
               "--params", str(cfg)])
    assert rc == 2
    assert "127.0.0.1:70000" in _one_line(capsys)
    assert not log_path.exists()


def test_randomness_server_refuses_missing_seed_file(tmp_path, capsys, no_serving):
    seed = tmp_path / "missing.seed"
    rc = main(["randomness-server", "--listen", "127.0.0.1:0", "--key-seed-file", str(seed)])
    assert rc == 2
    assert "missing.seed" in _one_line(capsys)


def test_randomness_server_refuses_no_seed_file(capsys, monkeypatch, no_serving):
    monkeypatch.delenv("NEBULA_KEY_SEED_FILE", raising=False)
    rc = main(["randomness-server", "--listen", "127.0.0.1:0"])
    assert rc == 2
    assert _one_line(capsys) == (
        "nebula randomness-server: --key-seed-file (or NEBULA_KEY_SEED_FILE) required\n"
    )


@pytest.mark.parametrize(
    "daemon, flags, unloaded",
    [
        # The OPRF daemon needs none of the decoder, the encoder or numpy.
        ("randomness-server", ["--key-seed-file", "{tmp}/missing.seed"],
         {"numpy", "nebula.aggregate", "nebula.multidim", "nebula.encode", "nebula.params",
          "nebula.harness"}),
        # The aggregation daemon decodes, but never simulates or builds dummies.
        ("aggregation-server", ["--log", "{tmp}/absent/new.log", "--params", "{tmp}/params.cfg"],
         {"nebula.harness", "nebula.dummy"}),
    ],
    ids=["randomness", "aggregation"],
)
def test_daemon_start_up_imports_only_what_it_serves(tmp_path, daemon, flags, unloaded):
    # A start-up refusal runs every import the daemon makes before it would
    # serve; a fresh interpreter shows what they loaded.
    _write_log(tmp_path)
    argv = [daemon, "--listen", "127.0.0.1:0", *(f.format(tmp=tmp_path) for f in flags)]
    script = (
        "import sys\n"
        "from nebula.cli import main\n"
        f"rc = main({argv!r})\n"
        "print(rc, *sorted(sys.modules))\n"
    )
    src = str(Path(net.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    rc, *loaded = proc.stdout.split()
    assert rc == "2" and proc.stderr.startswith(f"nebula {daemon}: "), proc.stderr
    assert unloaded.isdisjoint(loaded)


def test_aggregation_server_refuses_log_in_missing_directory(tmp_path, capsys, no_serving):
    cfg, _ = _write_log(tmp_path)
    before = sorted(tmp_path.iterdir())
    log_path = tmp_path / "absent" / "new.log"
    rc = main(["aggregation-server", "--listen", "127.0.0.1:0", "--log", str(log_path),
               "--params", str(cfg)])
    assert rc == 2
    assert str(log_path) in _one_line(capsys)
    assert sorted(tmp_path.iterdir()) == before


def test_aggregation_server_refuses_incomplete_params(tmp_path, capsys, no_serving):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("eps_revealed = 1.0\n")
    log_path = tmp_path / "new.log"
    rc = main(["aggregation-server", "--listen", "127.0.0.1:0", "--log", str(log_path),
               "--params", str(cfg)])
    assert rc == 2
    assert "config missing fields" in _one_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["params.cfg"]


def test_seal_and_decode_refuses_incomplete_params(tmp_path, capsys):
    cfg, log_path = _write_log(tmp_path)
    cfg.write_text("eps_revealed = 1.0\n")
    before = sorted(tmp_path.iterdir())
    rc = main(["aggregation-server", "--log", str(log_path), "--params", str(cfg),
               "--report", str(tmp_path / "report.csv"), "--seal-and-decode"])
    assert rc == 2
    assert "config missing fields" in _one_line(capsys)
    assert sorted(tmp_path.iterdir()) == before


# --- start-up failures: also one line and exit status 2 ---------------------


def test_randomness_server_refuses_busy_port(tmp_path, capsys, no_serving):
    seed = tmp_path / "seed"
    seed.write_bytes(b"\x01" * 32)
    with socket.create_server(("127.0.0.1", 0)) as busy:
        listen = f"127.0.0.1:{busy.getsockname()[1]}"
        rc = main(["randomness-server", "--listen", listen, "--key-seed-file", str(seed)])
    assert rc == 2
    assert "Address already in use" in _one_line(capsys)


def test_aggregation_server_refuses_busy_port(tmp_path, capsys, no_serving):
    cfg, _ = _write_log(tmp_path)
    log_path = tmp_path / "new.log"
    with socket.create_server(("127.0.0.1", 0)) as busy:
        listen = f"127.0.0.1:{busy.getsockname()[1]}"
        rc = main(["aggregation-server", "--listen", listen, "--log", str(log_path),
                   "--params", str(cfg)])
    assert rc == 2
    assert "Address already in use" in _one_line(capsys)
    assert not log_path.exists()


def test_randomness_server_refuses_unresolvable_host(tmp_path, capsys, monkeypatch, no_serving):
    # The failed lookup is simulated: a real one would query a resolver.
    def server_bind(server):
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    monkeypatch.setattr(net.RandomnessServer, "server_bind", server_bind)
    seed = tmp_path / "seed"
    seed.write_bytes(b"\x01" * 32)
    rc = main(["randomness-server", "--listen", "nowhere:0", "--key-seed-file", str(seed)])
    assert rc == 2
    assert "Name or service not known" in _one_line(capsys)


@pytest.mark.parametrize("seal", [False, True])
def test_aggregation_server_refuses_log_with_bad_first_header(tmp_path, capsys, seal, no_serving):
    cfg, log_path = _write_log(tmp_path)
    log_path.write_bytes(wire.HEADER.pack(9, wire.MSG_SUBMISSION, 0) + log_path.read_bytes())
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    flags = ["--seal-and-decode"] if seal else ["--listen", "127.0.0.1:0"]
    rc = main(["aggregation-server", "--log", str(log_path), "--params", str(cfg),
               "--report", str(tmp_path / "report.csv"), *flags])
    assert rc == 2
    assert "version" in _one_line(capsys)
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def _zero_x(log: bytes) -> bytes:
    """``log`` and then its first record again, with a zero x-coordinate."""
    _, payload, _ = next(wire.iter_frames(log))
    return log + wire.encode_frame(wire.MSG_SUBMISSION, payload[:32] + bytes(16) + payload[48:])


@pytest.mark.parametrize("seal", [False, True], ids=["daemon", "seal-and-decode"])
@pytest.mark.parametrize(
    "refused, sealed, message",
    [
        (_zero_x, False, "zero x-coordinate"),
        (_zero_x, True, "zero x-coordinate"),
        (lambda log: log + wire.encode_frame(wire.MSG_ACK), False, "unexpected record type 6"),
        (lambda log: wire.HEADER.pack(9, wire.MSG_SUBMISSION, 0) + log, True,
         "unsupported frame version 9"),
        (lambda log: log[:-1], True, "truncated log record"),
    ],
    ids=["zero_x", "zero_x_sealed", "other_record_type", "bad_first_header_sealed",
         "torn_tail_sealed"],
)
def test_aggregation_server_refuses_log_holding_a_refused_record(
    tmp_path, capsys, refused, sealed, message, seal, no_serving
):
    # The log is checked when it opens, sealed or not, so nothing is sealed,
    # cut or decoded: a seal cannot fail on what the log holds.
    cfg, log_path = _write_log(tmp_path)
    log_path.write_bytes(refused(log_path.read_bytes()))
    if sealed:
        (tmp_path / "log.bin.sealed").touch()
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    flags = ["--seal-and-decode"] if seal else ["--listen", "127.0.0.1:0"]
    rc = main(["aggregation-server", "--log", str(log_path), "--params", str(cfg),
               "--report", str(tmp_path / "report.csv"), *flags])
    assert rc == 2
    assert _one_line(capsys) == f"nebula aggregation-server: {message}\n"
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


# --- paths the daemons and the run command take once their input checks out --


def test_run_skips_a_local_baseline_over_capacity(tmp_path, capsys, monkeypatch):
    from nebula import harness

    monkeypatch.setattr(harness, "MAX_ONE_HOT_DOMAIN", 3)
    out = tmp_path / "out"
    rc = main(["run", "--dataset", "synthetic:zipf,n=200,domain=5,seed=0", "--eps", "1",
               "--tau-override", "3", "--shift-override", "2", "--seed", "0",
               "--out", str(out), "--baselines"])
    assert rc == 0
    assert _one_line(capsys) == "local baseline skipped: one-hot domain 5 exceeds 3\n"
    mechanisms = [line.split(",")[0] for line in (out / "errors.csv").read_text().splitlines()]
    assert mechanisms == ["mechanism", "nebula", "central"]


@pytest.mark.parametrize("daemon", ["randomness-server", "aggregation-server"])
def test_daemon_serves_once_started(tmp_path, monkeypatch, daemon):
    # ``net.serve`` stands in for the serving loop: the daemon reaches it
    # bound, and a clean return exits 0.
    cfg, _ = _write_log(tmp_path)
    (tmp_path / "seed").write_bytes(b"\x01" * 32)
    served = []
    monkeypatch.setattr(net, "serve", served.append)
    flags = (["--key-seed-file", str(tmp_path / "seed")] if daemon == "randomness-server"
             else ["--log", str(tmp_path / "new.log"), "--params", str(cfg)])
    assert main([daemon, "--listen", "127.0.0.1:0", *flags]) == 0
    (server,) = served
    try:
        assert server.name == daemon.replace("-", " ") and server.port > 0
    finally:
        server.stop()


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_seal_and_decode_refuses_a_report_it_cannot_write(tmp_path, capsys, where):
    # Sealing is permanent: a report that cannot be written must leave the
    # log unsealed and open to submissions.
    cfg, log_path = _write_log(tmp_path)
    report = tmp_path / "nodir" / "report.csv"
    if where == "directory":
        report = tmp_path / "report.csv"
        report.mkdir()
    message = (f"report {report}: no directory {report.parent}" if where == "missing directory"
               else f"report {report} is a directory")
    before = sorted(tmp_path.iterdir())
    rc = main(["aggregation-server", "--log", str(log_path), "--params", str(cfg),
               "--report", str(report), "--seal-and-decode"])
    assert rc == 2
    assert _one_line(capsys) == f"nebula aggregation-server: {message}\n"
    assert sorted(tmp_path.iterdir()) == before
    log = SubmissionLog(log_path)
    frame = wire.encode_frame(wire.MSG_SUBMISSION, next(wire.iter_frames(log_path.read_bytes()))[1])
    log.append(frame, frame_bounds(frame))
    log.close()
    assert not log.sealed


def test_aggregation_server_refuses_a_report_it_cannot_write(tmp_path, capsys, no_serving):
    cfg, _ = _write_log(tmp_path)
    before = sorted(tmp_path.iterdir())
    report = tmp_path / "nodir" / "report.csv"
    rc = main(["aggregation-server", "--listen", "127.0.0.1:0", "--log", str(tmp_path / "new.log"),
               "--params", str(cfg), "--report", str(report)])
    assert rc == 2
    assert _one_line(capsys) == (
        f"nebula aggregation-server: report {report}: no directory {report.parent}\n"
    )
    assert sorted(tmp_path.iterdir()) == before


def test_run_refuses_coordinates_out_of_range(tmp_path, capsys):
    data = tmp_path / "geo.csv"
    data.write_text("cc,lat,lon\nTR,41.0,29.0\nUS,123.456,-75.0\n")
    out = tmp_path / "out"
    rc = main(["run", "--dataset", str(data), "--geo-columns", "cc,lat,lon", "--eps", "1",
               "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert _one_line(capsys) == "nebula run: latitude 123.456 is not in [-90, 90]\n"
    assert not out.exists()


def test_run_refuses_columns_with_geo_columns(tmp_path, capsys):
    # --geo-columns picks the attributes, so a --columns beside it would be ignored.
    data = tmp_path / "geo.csv"
    data.write_text("age,country,lat,lon\n30,TR,41.0,29.0\n")
    out = tmp_path / "out"
    rc = main(["run", "--dataset", str(data), "--columns", "age", "--geo-columns", "country,lat,lon",
               "--eps", "1", "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert _one_line(capsys) == "nebula run: --columns and --geo-columns cannot be given together\n"
    assert not out.exists()


_SHORT_ROW = "cc,lat,lon,word\nTR,41.0,29.0,a\nUS,40.7\n"


@pytest.mark.parametrize(
    "dataset, flags, message",
    [
        ("{tmp}/missing.txt", [], "No such file or directory: '{tmp}/missing.txt'"),
        ("{tmp}/data", [], "Is a directory: '{tmp}/data'"),
        # A row short of its header's fields names its line, whichever
        # columns the run reads.
        ("{tmp}/data/short.csv", ["--columns", "word"],
         "{tmp}/data/short.csv line 3: 2 fields, under the header's 4"),
        ("{tmp}/data/short.csv", ["--geo-columns", "cc,lat,lon"],
         "{tmp}/data/short.csv line 3: 2 fields, under the header's 4"),
        # A typo must not run on a default, nor a repeat on its last value.
        ("synthetic:zipf,n=200,domian=3", [], "synthetic:zipf: unknown key 'domian'"),
        ("synthetic:chain,n=200,branching=2x2,n=300", [], "synthetic:chain: repeated key 'n'"),
    ],
    ids=["missing", "directory", "short_row_columns", "short_row_geo", "unknown_key", "repeated_key"],
)
def test_run_refuses_a_dataset_it_cannot_read(tmp_path, capsys, dataset, flags, message):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "short.csv").write_text(_SHORT_ROW)
    out = tmp_path / "out"
    rc = main(["run", "--dataset", dataset.format(tmp=tmp_path), *flags, "--eps", "1",
               "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert _one_line(capsys).endswith(message.format(tmp=tmp_path) + "\n")
    assert not out.exists()


def test_run_refuses_an_out_that_is_a_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("kept")
    rc = main(["run", "--dataset", "synthetic:zipf,n=200,domain=5,seed=0", "--eps", "1",
               "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert _one_line(capsys).endswith(f"File exists: '{out}'\n")
    assert out.read_text() == "kept"


@pytest.mark.parametrize("size", [0, 31, 33])
def test_randomness_server_refuses_a_seed_not_of_32_bytes(tmp_path, capsys, size, no_serving):
    # The key is a public hash of its seed: a short seed is a guessable key.
    seed = tmp_path / "seed"
    seed.write_bytes(b"\x01" * size)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    rc = main(["randomness-server", "--listen", f"127.0.0.1:{port}", "--key-seed-file", str(seed)])
    assert rc == 2
    assert _one_line(capsys) == f"nebula randomness-server: key seed must be 32 bytes, not {size}\n"
    # Refused before the socket binds: the port is free again at once.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", port))
