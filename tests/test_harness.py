"""Harness tests: loaders, metric, baselines, simulation, benchmarks."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nebula import harness
from nebula.harness import (
    CapacityError,
    Dataset,
    SchemaError,
    hash_bin_dataset,
    linear_fit_r2,
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
        ds = load_corpus(f, bin_bits=6)
        assert all(0 <= int(r[0]) <= 63 for r in ds.records)
        # deterministic mapping: same token, same bin
        ds2 = load_corpus(f, bin_bits=6)
        assert ds.records == ds2.records

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
        res = run_nebula(ds, params, seed=0, include_dummies=False)
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
        res = run_nebula(ds, params, seed=0, include_dummies=False)
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

    def test_daemons_transport_byte_identical(self, tmp_path):
        ds = synthetic_zipf(1200, 25, seed=9)
        params = make_params(threshold=5, tsdlap_shift=4)
        r_in = run_nebula(ds, params, seed=5, transport="in_process")
        r_dm = run_nebula(ds, params, seed=5, transport="daemons", workdir=tmp_path)
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


class TestBenchmark:
    def test_rows_and_linearity(self):
        params = make_params(tsdlap_shift=15)
        rows = harness.benchmark(params, attribute_counts=(1, 2, 3, 4), reps=3)
        assert [r["attributes"] for r in rows] == [1, 2, 3, 4]
        for row in rows:
            assert row["randomness_request_element_bytes"] == 32 * row["attributes"]
            assert row["randomness_response_element_bytes"] == 32 * row["attributes"]
            assert row["submission_bytes"] <= 300 * row["attributes"]
            assert row["encode_ms"] < 10.0
        r2 = linear_fit_r2(
            [r["attributes"] for r in rows], [r["submission_bytes"] for r in rows]
        )
        assert r2 > 0.99

    def test_decode_throughput_scaled(self):
        params = make_params(tsdlap_shift=15)
        stats = harness.decode_throughput(50_000, 500, params, seed=1)
        # Table-scale anchor: a full-size host decodes 33.3M in 345 s; demand
        # no worse than ~4x that rate per submission at desk scale.
        assert stats["decode_seconds"] < 50_000 * (345 / 33_263_633) * 4

    def test_linear_fit_r2(self):
        assert linear_fit_r2([1, 2, 3], [2.0, 4.0, 6.0]) == pytest.approx(1.0)
        assert linear_fit_r2([1, 2, 3], [1.0, 9.0, 2.0]) < 0.9


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
        harness.write_bench_csv(tmp_path / "bench.csv", [{"attributes": 1, "x": 2}])
        assert "attributes,x" in (tmp_path / "bench.csv").read_text()
