"""Harness tests: loaders, metric, baselines, simulation, decode throughput."""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nebula import harness, service, wire
from nebula.harness import (
    CapacityError,
    Dataset,
    SchemaError,
    hash_bin_dataset,
    load_corpus,
    load_csv_attributes,
    load_dataset,
    normalize_token,
    run_baseline_central,
    run_baseline_local,
    run_nebula,
    sum_abs_error,
    synthetic_correlated,
    synthetic_zipf,
)
from nebula.params import DpBudget, derive_params


def make_params(**overrides):
    return derive_params(DpBudget(1.0, 1e-8, 1.0, 1e-8, 1 / 6), overrides=overrides)


class TestLoaders:
    def test_token_normalization(self):
        assert normalize_token("Hamlet,") == "hamlet"
        assert normalize_token("'tis") == "tis"
        assert normalize_token("--") == ""

    def test_load_corpus(self, tmp_path):
        f = tmp_path / "corpus.txt"
        f.write_text("To be, or NOT to be. That is; the question:")
        ds = load_corpus(f)
        assert ds.num_attributes == 1
        values = [r[0] for r in ds.records]
        assert values.count(b"to") == 2
        assert values.count(b"be") == 2
        assert b"not" in values and b"question" in values

    def test_bin_bits_bound(self, tmp_path):
        f = tmp_path / "corpus.txt"
        f.write_text(" ".join(f"word{i}" for i in range(500)))
        ds = load_dataset(str(f), bin_bits=6)
        assert all(0 <= int(r[0]) <= 63 for r in ds.records)
        # deterministic mapping: same token, same bin
        ds2 = load_dataset(str(f), bin_bits=6)
        assert ds.records == ds2.records

    def test_bin_bits_applies_to_csv(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a\n" + "".join(f"v{i}\n" for i in range(50)))
        ds = load_dataset(str(f), columns=["a"], bin_bits=2)
        assert ds.source == f"{f}#bin2"
        assert {r[0] for r in ds.records} <= {b"0", b"1", b"2", b"3"}
        assert ds.records == hash_bin_dataset(load_csv_attributes(f, ["a"]), 2).records

    def test_bin_bits_refuses_multi_attribute_csv(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_dataset(str(f), columns=["a", "b"], bin_bits=2)

    def test_load_csv(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("s,m,r\nF,married,1\nM,single,2\nF,single,1\n")
        ds = load_csv_attributes(f, ["s", "m"])
        assert len(ds) == 3
        assert ds.num_attributes == 2
        assert ds.records[0] == (b"F", b"married")

    def test_missing_column(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(SchemaError):
            load_csv_attributes(f, ["a", "nope"])

    def test_geo_mode_eight_attributes(self, tmp_path):
        f = tmp_path / "geo.csv"
        f.write_text("cc,lat,lon\nTR,41.029717,28.974420\nUS,40.7,-74.0\n")
        ds = load_csv_attributes(f, [], geo_columns=("cc", "lat", "lon"))
        assert ds.num_attributes == 8
        assert all(len(r) == 8 for r in ds.records)

    def test_empty_csv(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        ds = load_csv_attributes(f, ["a"])
        assert len(ds) == 0
        params = make_params(threshold=3, tsdlap_shift=4)
        res = run_nebula(ds, params, seed=0)
        assert res.errors["nebula"] == 0.0

    def test_unequal_arity_rejected(self):
        with pytest.raises(ValueError):
            Dataset(records=((b"a",), (b"a", b"b")), schema=("x",), source="?")

    def test_load_dataset_dispatch(self, tmp_path):
        ds = load_dataset("synthetic:zipf,n=100,domain=10,seed=1")
        assert len(ds) == 100
        f = tmp_path / "c.txt"
        f.write_text("alpha beta")
        assert len(load_dataset(str(f))) == 2

    def test_real_corpus_token_counts(self):
        # Only runs when a local copy of the reference corpus is present.
        import os
        from pathlib import Path

        path = os.environ.get("NEBULA_SHAKESPEARE_PATH")
        candidate = Path(__file__).parent / "data" / "shakespeare_input.txt"
        if path is None and candidate.exists():
            path = str(candidate)
        if path is None or not Path(path).exists():
            pytest.skip("reference corpus not available")
        ds = load_corpus(path)
        assert len(ds) == 832_301
        assert len({r[0] for r in ds.records}) == 29_257


class TestSynthetic:
    def test_zipf_shape(self):
        ds = synthetic_zipf(5000, 100, skew=1.2, seed=3)
        assert len(ds) == 5000
        assert ds.num_attributes == 1
        values = {r[0] for r in ds.records}
        assert len(values) <= 100

    def test_zipf_deterministic(self):
        a = synthetic_zipf(1000, 50, seed=9)
        b = synthetic_zipf(1000, 50, seed=9)
        assert a.records == b.records

    def test_correlated_shape_and_determinism(self):
        a = synthetic_correlated(2000, (4, 3, 3), skew=1.1, seed=5)
        b = synthetic_correlated(2000, (4, 3, 3), skew=1.1, seed=5)
        assert a.records == b.records
        assert a.num_attributes == 3

    def test_correlated_has_correlation(self):
        # Conditional child distributions differ across parents.
        ds = synthetic_correlated(8000, (3, 3), skew=1.5, seed=6)
        from collections import Counter

        tops = {}
        for a, b in ds.records:
            tops.setdefault(a, Counter())[b] += 1
        modes = {a: c.most_common(1)[0][0] for a, c in tops.items() if sum(c.values()) > 500}
        assert len(set(modes.values())) > 1


class TestErrorMetric:
    def test_worked_example(self):
        # true {a: .5, b: .5}, only a revealed: |1-.5| + |0-.5| = 1.
        assert sum_abs_error({"a": 5, "b": 5}, {"a": 7}) == pytest.approx(1.0)

    def test_perfect_match(self):
        assert sum_abs_error({"a": 2, "b": 6}, {"a": 1, "b": 3}) == pytest.approx(0.0)

    def test_disjoint_is_two(self):
        assert sum_abs_error({"a": 1}, {"b": 1}) == pytest.approx(2.0)

    def test_empty_both(self):
        assert sum_abs_error({}, {}) == 0.0


class TestBaselines:
    def test_central_large_eps_near_zero(self):
        ds = synthetic_zipf(20000, 50, seed=1)
        res = run_baseline_central(ds, eps=1e6, seed=0)
        assert res.errors["central"] < 1e-3

    def test_central_reproducible(self):
        ds = synthetic_zipf(5000, 40, seed=2)
        a = run_baseline_central(ds, 1.0, seed=7)
        b = run_baseline_central(ds, 1.0, seed=7)
        assert a.errors == b.errors

    def test_local_single_client_noise_dominated(self):
        records = tuple((f"v{i}".encode(),) for i in range(200))
        ds = Dataset(records=records[:1], schema=("v",), source="one")
        # widen the domain by borrowing the record's true histogram: use a
        # dataset with one client but evaluate error against it directly
        res = run_baseline_local(ds, eps=1.0, seed=3)
        assert res.errors["local"] > 0.5  # one-sample estimate is mostly noise

    def test_local_error_decreases_with_population(self):
        means = []
        for n in (10_000, 100_000, 1_000_000):
            errs = []
            for seed in range(5):
                ds = synthetic_zipf(200, 64, seed=4)  # fixed domain of 64 bins
                # reuse the same value distribution, scaled to n clients
                counts = {v: c * (n // 200) for (v,), c in _count_records(ds).items()}
                errs.append(_local_error_from_counts(counts, n, eps=1.0, seed=seed))
            means.append(sum(errs) / len(errs))
        assert means[0] > means[1] > means[2]

    def test_local_capacity_guard(self, monkeypatch):
        monkeypatch.setattr(harness, "MAX_ONE_HOT_DOMAIN", 10)
        ds = synthetic_zipf(500, 50, seed=5)
        with pytest.raises(CapacityError):
            run_baseline_local(ds, 1.0, seed=0)

    def test_local_worse_than_central(self):
        ds = synthetic_zipf(30000, 200, seed=6)
        c = run_baseline_central(ds, 1.0, seed=11).errors["central"]
        l = run_baseline_local(ds, 1.0, seed=11).errors["local"]
        assert c < l


def _count_records(ds):
    from collections import Counter

    return Counter(ds.records)


def _local_error_from_counts(counts, n, eps, seed):
    rng = np.random.default_rng(harness.substream_seed(seed, "baseline-local"))
    domain = sorted(counts)
    vec = np.array([counts[v] for v in domain], dtype=np.float64)
    scale = 2.0 / eps
    noise = rng.gamma(n, scale, len(domain)) - rng.gamma(n, scale, len(domain))
    est = np.maximum(vec + noise, 0.0)
    return harness._vector_error(vec, est)


class TestRunNebula:
    def test_lossless_regime_zero_error(self):
        ds = synthetic_zipf(500, 12, seed=7)
        params = make_params(threshold=1, sampling_rate=1.0)
        res = run_nebula(ds, params, seed=0)
        assert res.errors["nebula"] == 0.0

    def test_determinism_fingerprint(self):
        ds = synthetic_zipf(2000, 30, seed=8)
        params = make_params(threshold=5, tsdlap_shift=4)
        a = run_nebula(ds, params, seed=21)
        b = run_nebula(ds, params, seed=21)
        assert a.fingerprint() == b.fingerprint()
        c = run_nebula(ds, params, seed=22)
        assert a.fingerprint() != c.fingerprint()

    def test_fingerprint_independent_of_hash_seed(self):
        # Reports and errors key by bytes and tuples, whose set order follows
        # PYTHONHASHSEED; the fingerprint must not.
        script = (
            "from nebula import harness\n"
            "from nebula.params import DpBudget, derive_params\n"
            "params = derive_params(DpBudget(1.0, 1e-8, 1.0, 1e-8, 1 / 6),\n"
            "                       overrides={'threshold': 5, 'tsdlap_shift': 4})\n"
            "ds = harness.synthetic_zipf(5000, 400, seed=3)\n"
            "print(harness.run_nebula(ds, params, seed=1).fingerprint().hex())\n"
        )
        src = str(Path(harness.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, timeout=120, check=True,
            )
            outputs.append(proc.stdout.strip())
        assert outputs[0] == outputs[1]

    def test_daemons_transport_byte_identical(self):
        ds = synthetic_zipf(1200, 25, seed=9)
        params = make_params(threshold=5, tsdlap_shift=4)
        r_in = run_nebula(ds, params, seed=5, transport="in_process")
        r_dm = run_nebula(ds, params, seed=5, transport="daemons")
        assert r_in.report_csv == r_dm.report_csv
        assert r_in.errors == r_dm.errors

    def test_multidim_per_prefix_errors(self):
        ds = synthetic_correlated(3000, (4, 3, 3), skew=1.2, seed=10)
        params = make_params(threshold=5, tsdlap_shift=4)
        res = run_nebula(ds, params, seed=2, mode="multidim")
        assert len(res.per_prefix_errors) == 3
        assert all(0 <= e <= 2 for e in res.per_prefix_errors)
        assert res.errors["nebula"] == res.per_prefix_errors[-1]

    def test_single_mode_flattens_multi_attribute_records(self):
        ds = synthetic_correlated(800, (3, 3), seed=11)
        params = make_params(threshold=4, tsdlap_shift=4)
        res = run_nebula(ds, params, seed=3)
        assert "nebula" in res.errors


@pytest.mark.parametrize(
    "arity",
    [
        pytest.param(a, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason="ROADMAP open item 6"))
        for a in range(1, 9)
    ],
)
def test_dummies_look_like_real_records(arity, monkeypatch):
    # The aggregation server must not tell dummies from real records by
    # their bytes.  Every value here has the same length, so every payload
    # in the log must have one length, and a chained one (arity >= 2) one
    # layer count.  Today a dummy is one empty-valued layer (116 B plain,
    # 117 B chained with layer count 1), so each case fails.
    logs = []
    decode_log = service.decode_log
    monkeypatch.setattr(
        service, "decode_log", lambda data, params: logs.append(data) or decode_log(data, params)
    )
    params = make_params(threshold=4, tsdlap_shift=4, sampling_rate=1.0)
    if arity == 1:
        run_nebula(synthetic_zipf(300, 20, seed=12), params, seed=4)
    else:
        ds = synthetic_correlated(300, (2,) * arity, seed=12)
        run_nebula(ds, params, seed=4, mode="multidim")
    payloads = [p for _, p, _ in wire.iter_frames(logs[0])]
    assert len(payloads) > 300  # the dummies are in the log
    assert len({len(p) for p in payloads}) == 1
    if arity > 1:
        assert {p[0] for p in payloads} == {arity}


class TestBenchmark:
    def test_decode_throughput_scaled(self, submission_payloads):
        params = make_params(tsdlap_shift=15)
        payloads = submission_payloads(50_000, 500, params, seed=1)
        log = b"".join(wire.encode_frame(wire.MSG_SUBMISSION, p) for p in payloads)
        t0 = time.perf_counter()
        service.decode_log(log, params)
        decode_s = time.perf_counter() - t0
        # Table-scale anchor: a full-size host decodes 33.3M in 345 s; demand
        # no worse than ~4x that rate per submission at desk scale.
        assert decode_s < 50_000 * (345 / 33_263_633) * 4


class TestResultBookkeeping:
    def test_error_bounds_validated(self):
        with pytest.raises(ValueError):
            harness.ExperimentResult(errors={"x": 2.5})

    def test_csv_emitters(self, tmp_path):
        res = harness.ExperimentResult(errors={"nebula": 0.25}, seed=3)
        harness.write_errors_csv(tmp_path / "errors.csv", [res])
        text = (tmp_path / "errors.csv").read_text()
        assert text.splitlines()[0] == "mechanism,seed,error"
        assert "nebula,3,0.25" in text
        harness.write_plot_data(tmp_path / "plot.csv", [("s", 1.0, 0.5)])
        assert "series,x,y" in (tmp_path / "plot.csv").read_text()


# --- refusals: each names its class and message -----------------------------


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Dataset(records=(), schema=(), source="?"), ValueError,
         "schema must name at least one attribute"),
        (lambda: hash_bin_dataset(synthetic_zipf(5, 3), 0), ValueError, "bits must lie in 1..32"),
        (lambda: hash_bin_dataset(synthetic_zipf(5, 3), 33), ValueError, "bits must lie in 1..32"),
        (lambda: synthetic_correlated(5, ()), ValueError, "need at least one level"),
        (lambda: harness.parse_dataset_spec("zipf,n=5"), ValueError, "not a synthetic dataset spec"),
        (lambda: load_dataset("synthetic:normal,n=5"), ValueError,
         "unknown synthetic dataset kind 'normal'"),
        (lambda: load_dataset("d.csv"), SchemaError, "CSV datasets need --columns or --geo-columns"),
        (lambda: run_nebula(synthetic_zipf(5, 3), make_params(), 0, mode="chained"), ValueError,
         "mode must be 'single' or 'multidim'"),
        (lambda: run_nebula(synthetic_zipf(5, 3), make_params(), 0, transport="tcp"), ValueError,
         "transport must be 'in_process' or 'daemons'"),
    ],
    ids=["no_schema", "bits_0", "bits_33", "no_levels", "not_synthetic", "unknown_kind",
         "csv_without_columns", "mode", "transport"],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("baseline", [run_baseline_central, run_baseline_local])
def test_baselines_of_an_empty_dataset_have_no_error(baseline):
    ds = Dataset(records=(), schema=("v",), source="empty")
    (error,) = baseline(ds, 1.0, seed=0).errors.values()
    assert error == 0.0


def test_run_nebula_refuses_a_rejected_submission(monkeypatch):
    # A daemon that refused a submission would decode a different multiset
    # than the in-process transport; the run stops instead.
    monkeypatch.setattr(harness.net.ServiceClient, "submit_raw", lambda self, buf, n: (n - 2, 2))
    ds = synthetic_zipf(50, 5, seed=1)
    with pytest.raises(RuntimeError) as err:
        run_nebula(ds, make_params(threshold=1, sampling_rate=1.0), 0, transport="daemons")
    assert str(err.value) == "2 submissions rejected"


def test_daemon_pair_start_up_failure_reaps_both_daemons(tmp_path):
    # A report path that is a directory stops the aggregation daemon at
    # start-up: its start-up line never comes, and neither daemon is left.
    (tmp_path / "report.csv").mkdir()
    pair = harness.DaemonPair(make_params(), harness.DEFAULT_SERVER_SEED, tmp_path)
    try:
        with pytest.raises(RuntimeError) as err:
            pair.__enter__()
        assert str(err.value) == "daemon exited during start-up"
        assert [proc.poll() is not None for proc in pair._procs] == [True, True]
        assert not pair.log_path.exists()
    finally:
        pair.__exit__()  # a no-op here; were the daemons started, it stops them


def test_bound_port_gives_up_at_the_deadline():
    read, write = os.pipe()
    with open(read, "rb") as stdout:
        proc = type("Daemon", (), {"stdout": stdout})
        with pytest.raises(TimeoutError) as err:
            harness._bound_port(proc, time.monotonic())
        assert str(err.value) == "daemon did not report its port in time"
        os.write(write, b"aggregation server listening on 127.0.0.1:4570\n")
        assert harness._bound_port(proc, time.monotonic() + 5) == 4570
    os.close(write)
