"""Experiment driver: datasets, population simulation, baselines.

Reproduces the protocol's utility measurements at desk scale: loaders for a
whitespace-tokenized corpus and attribute CSVs (plus synthetic stand-ins
with matching shapes), a full client-population simulation of the
sampling/encoding/dummy/decoding pipeline, and central- and local-model
differential-privacy baselines.  Both transports of the simulation decode
the same frame bytes through ``service.decode_log``.  Timings live in
``bench/run.py``.

All randomness flows from one experiment seed through named sub-streams
(participation, blinding, shares, dummies, delivery, baselines), so each
component is independently reproducible.  Identical (dataset, params, seed)
give identical results.

The error metric throughout is the sum-absolute difference between
normalized estimated and true frequencies, in [0, 2].  Estimated
frequencies normalize by the total *revealed* mass, since unrevealed values
are unknown to the aggregation side.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import os
import random
import select
import string
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import aggregate, dummy, net, oprf, service, wire
from .encode import Submission, build_submission, participate
from .multidim import SuperSubmission, encode_multidim, geo_attributes, make_prefixes
from .params import DpParams, params_to_config

DEFAULT_SERVER_SEED = b"nebula-default-randomness-seed\x00\x00"

MAX_ONE_HOT_DOMAIN = 2**20


class SchemaError(ValueError):
    """The input file does not provide the requested columns."""


class CapacityError(ValueError):
    """The domain is too large for the chosen baseline mechanism."""


# --- seeded sub-streams -----------------------------------------------------


def substream_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"nebula-substream:{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:16], "big")


def substream(seed: int, name: str) -> random.Random:
    return random.Random(substream_seed(seed, name))


def np_substream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(substream_seed(seed, name))


# --- datasets ---------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Records of equal arity; every value is a finite byte string."""

    records: tuple[tuple[bytes, ...], ...]
    schema: tuple[str, ...]
    source: str

    def __post_init__(self) -> None:
        arity = len(self.schema)
        if arity < 1:
            raise ValueError("schema must name at least one attribute")
        if any(len(r) != arity for r in self.records):
            raise ValueError("all records must have the same attribute count")

    @property
    def num_attributes(self) -> int:
        return len(self.schema)

    def __len__(self) -> int:
        return len(self.records)


def record_value(record: tuple[bytes, ...]) -> bytes:
    """Canonical single-value encoding of a whole record (collision-free)."""
    if len(record) == 1:
        return record[0]
    return make_prefixes(record).prefixes[-1]


_PUNCT = string.punctuation + "‘’“”–—…"


def normalize_token(token: str) -> str:
    """Lowercase and strip surrounding punctuation; may return ''."""
    return token.strip(_PUNCT).lower()


def load_corpus(path: str | Path) -> Dataset:
    """One single-attribute record per whitespace token of a text file."""
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    records = []
    for token in text.split():
        norm = normalize_token(token)
        if norm:
            records.append((norm.encode(),))
    return Dataset(records=tuple(records), schema=("token",), source=str(path))


def hash_bin_dataset(dataset: Dataset, bits: int) -> Dataset:
    """Replace each value with the lower ``bits`` bits of its SHA-256 hash."""
    if dataset.num_attributes != 1:
        raise ValueError("hash binning applies to single-attribute datasets")
    if not 1 <= bits <= 32:
        raise ValueError("bits must lie in 1..32")
    mask = (1 << bits) - 1
    cache: dict[bytes, bytes] = {}
    records = []
    for (value,) in dataset.records:
        binned = cache.get(value)
        if binned is None:
            digest = hashlib.sha256(value).digest()
            binned = str(int.from_bytes(digest, "big") & mask).encode()
            cache[value] = binned
        records.append((binned,))
    return Dataset(
        records=tuple(records),
        schema=dataset.schema,
        source=f"{dataset.source}#bin{bits}",
    )


def load_csv_attributes(
    path: str | Path,
    columns: Sequence[str],
    geo_columns: Optional[tuple[str, str, str]] = None,
) -> Dataset:
    """One record per CSV row with the requested columns, in order.

    ``geo_columns`` (country, latitude, longitude) switches to the geographic
    coarse-graining encoding: 8 attributes per record.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            schema = tuple(columns) if geo_columns is None else _GEO_SCHEMA
            return Dataset(records=(), schema=schema, source=str(path))
        wanted = list(geo_columns) if geo_columns is not None else list(columns)
        missing = [c for c in wanted if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"columns not in {path}: {missing}")
        records = []
        if geo_columns is not None:
            country_col, lat_col, lon_col = geo_columns
            for row in reader:
                records.append(
                    tuple(
                        geo_attributes(
                            row[country_col],
                            float(row[lat_col]),
                            float(row[lon_col]),
                        )
                    )
                )
            return Dataset(records=tuple(records), schema=_GEO_SCHEMA, source=str(path))
        for row in reader:
            records.append(tuple(row[c].encode() for c in columns))
    return Dataset(records=tuple(records), schema=tuple(columns), source=str(path))


_GEO_SCHEMA = ("country", "g1", "g2", "g3", "g4", "g5", "g6", "g7")


# --- synthetic stand-ins ----------------------------------------------------


def _zipf_draws(rng: np.random.Generator, size: int, skew: float, n: int) -> np.ndarray:
    """``n`` indices in [0, size), index i drawn with weight (i + 1)^-skew."""
    ranks = np.arange(1, size + 1, dtype=np.float64)
    probs = ranks ** (-skew)
    probs /= probs.sum()
    return rng.choice(size, size=n, p=probs)


def synthetic_zipf(
    n_records: int, domain_size: int, skew: float = 1.0, seed: int = 0
) -> Dataset:
    """Single-attribute records with Zipf-distributed values (word-like)."""
    idx = _zipf_draws(np_substream(seed, "synthetic-zipf"), domain_size, skew, n_records)
    width = len(str(domain_size))
    pool = [f"w{i:0{width}d}".encode() for i in range(domain_size)]
    records = tuple((pool[i],) for i in idx)
    return Dataset(
        records=records,
        schema=("value",),
        source=f"synthetic:zipf,n={n_records},domain={domain_size},skew={skew},seed={seed}",
    )


def synthetic_correlated(
    n_records: int,
    branching: Sequence[int],
    skew: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Multi-attribute records where each level's distribution depends on its
    prefix (a per-parent permutation of a Zipf law), so attributes correlate.
    """
    levels = len(branching)
    if levels < 1:
        raise ValueError("need at least one level")
    rng = np_substream(seed, "synthetic-chain")
    # Per-level Zipf index draws, permuted per parent path.
    draws = [_zipf_draws(rng, size, skew, n_records) for size in branching]
    perms: dict[tuple, np.ndarray] = {}
    records = []
    for row in range(n_records):
        path: tuple = ()
        attrs = []
        for level, size in enumerate(branching):
            perm = perms.get((level, path))
            if perm is None:
                perm_rng = substream(seed, f"perm:{level}:{path}")
                order = list(range(size))
                perm_rng.shuffle(order)
                perm = np.asarray(order)
                perms[(level, path)] = perm
            idx = int(perm[draws[level][row]])
            attrs.append(f"L{level}v{idx:03d}".encode())
            path = path + (idx,)
        records.append(tuple(attrs))
    return Dataset(
        records=tuple(records),
        schema=tuple(f"a{i}" for i in range(levels)),
        source=f"synthetic:chain,n={n_records},branching={'x'.join(map(str, branching))},skew={skew},seed={seed}",
    )


def parse_dataset_spec(spec: str) -> Dataset:
    """Build a synthetic dataset from a ``synthetic:...`` descriptor.

    Forms:
      synthetic:zipf,n=100000,domain=5000,skew=1.0,seed=0
      synthetic:chain,n=30000,branching=4x3x3x3x3,skew=1.0,seed=0
    """
    if not spec.startswith("synthetic:"):
        raise ValueError("not a synthetic dataset spec")
    body = spec[len("synthetic:") :]
    kind, _, rest = body.partition(",")
    kv = {}
    for part in rest.split(","):
        if part:
            key, _, value = part.partition("=")
            kv[key] = value
    if kind == "zipf":
        return synthetic_zipf(
            n_records=int(kv.get("n", "100000")),
            domain_size=int(kv.get("domain", "5000")),
            skew=float(kv.get("skew", "1.0")),
            seed=int(kv.get("seed", "0")),
        )
    if kind == "chain":
        branching = tuple(int(x) for x in kv.get("branching", "4x3x3x3x3").split("x"))
        return synthetic_correlated(
            n_records=int(kv.get("n", "30000")),
            branching=branching,
            skew=float(kv.get("skew", "1.0")),
            seed=int(kv.get("seed", "0")),
        )
    raise ValueError(f"unknown synthetic dataset kind {kind!r}")


def load_dataset(
    spec: str,
    columns: Optional[Sequence[str]] = None,
    geo_columns: Optional[tuple[str, str, str]] = None,
    bin_bits: Optional[int] = None,
) -> Dataset:
    """Dispatch on a CLI dataset argument: synthetic spec, .csv, or corpus.

    ``bin_bits`` hash-bins the loaded dataset whatever its source; a
    multi-attribute dataset cannot be binned and raises ValueError.
    """
    if spec.startswith("synthetic:"):
        ds = parse_dataset_spec(spec)
    elif spec.endswith(".csv"):
        if columns is None and geo_columns is None:
            raise SchemaError("CSV datasets need --columns or --geo-columns")
        ds = load_csv_attributes(spec, columns or (), geo_columns)
    else:
        ds = load_corpus(spec)
    return ds if bin_bits is None else hash_bin_dataset(ds, bin_bits)


# --- error metric -----------------------------------------------------------


def sum_abs_error(true_counts: Mapping, est_counts: Mapping) -> float:
    """L1 distance between normalized count vectors, in [0, 2]."""
    true_total = sum(true_counts.values())
    est_total = sum(est_counts.values())
    if true_total == 0 and est_total == 0:
        return 0.0
    # fsum is exact, so the result does not depend on the key iteration
    # order, which for bytes and tuple keys follows the process hash seed.
    return math.fsum(
        abs(
            (true_counts.get(key, 0) / true_total if true_total else 0.0)
            - (est_counts.get(key, 0) / est_total if est_total else 0.0)
        )
        for key in true_counts.keys() | est_counts.keys()
    )


# --- experiment results -----------------------------------------------------


@dataclass
class ExperimentResult:
    """Errors and measurements from one experiment run."""

    errors: dict[str, float] = dc_field(default_factory=dict)
    per_prefix_errors: list[float] = dc_field(default_factory=list)
    seed: int = 0
    report_csv: str = ""

    def __post_init__(self) -> None:
        for name, err in self.errors.items():
            if not -1e-9 <= err <= 2 + 1e-9:
                raise ValueError(f"{name} error {err} outside [0, 2]")

    def fingerprint(self) -> bytes:
        """Digest of the deterministic fields."""
        h = hashlib.sha256()
        for name in sorted(self.errors):
            h.update(f"{name}={self.errors[name]!r};".encode())
        h.update(repr(self.per_prefix_errors).encode())
        h.update(str(self.seed).encode())
        h.update(self.report_csv.encode())
        return h.digest()


# --- oblivious randomness with per-value caching ----------------------------


@lru_cache(maxsize=None)
def value_randomness(value: bytes, keypair: oprf.ServerKeypair) -> bytes:
    """Randomness for a value under a fixed server key, cached per value.

    Every client holding ``value`` receives these exact bytes from the
    interactive protocol (the blinding exponent cancels), so the simulation
    computes them once per distinct value.  The interactive path itself is
    exercised by the daemons transport and the protocol tests.
    """
    return oprf.evaluate_directly(value, keypair)


# --- the main simulation ----------------------------------------------------


def run_nebula(
    dataset: Dataset,
    params: DpParams,
    seed: int,
    mode: str = "single",
    transport: str = "in_process",
) -> ExperimentResult:
    """Simulate the full population once and decode.

    mode="single" treats each record as one value (multi-attribute records
    are canonically flattened); mode="multidim" uses the chained-prefix
    encoding and reports per-prefix errors.  transport="daemons" runs the
    two servers as separate processes and moves everything over the wire.
    Both transports build the same frames in the same order and decode
    those frame bytes with ``service.decode_log``: in-process as an
    in-memory log, or in the aggregation daemon from its sealed log.  They
    differ only in where randomness comes from.
    """
    if mode not in ("single", "multidim"):
        raise ValueError("mode must be 'single' or 'multidim'")
    if transport not in ("in_process", "daemons"):
        raise ValueError("transport must be 'in_process' or 'daemons'")
    chained = mode == "multidim"

    part_rng = substream(seed, "participation")
    blind_rng = substream(seed, "blinding")
    shares_rng = substream(seed, "shares")
    dummy_rng = substream(seed, "dummies")
    delivery_rng = substream(seed, "delivery")

    sampled = [
        record
        for record in dataset.records
        if participate(params.sampling_rate, part_rng)
    ]
    # OPRF inputs per record: every prefix when chained, else the one value.
    oprf_inputs = [
        make_prefixes(r).prefixes if chained else (record_value(r),) for r in sampled
    ]

    with contextlib.ExitStack() as stack:
        if transport == "daemons":
            base = Path(stack.enter_context(tempfile.TemporaryDirectory()))
            pair = stack.enter_context(DaemonPair(params, DEFAULT_SERVER_SEED, base))
            distinct = sorted({x for xs in oprf_inputs for x in xs})
            with net.ServiceClient("127.0.0.1", pair.randomness_port) as rc:
                randomness = dict(zip(distinct, rc.oblivious_randomness(distinct, blind_rng)))
        else:
            keypair = oprf.keygen(DEFAULT_SERVER_SEED)
            randomness = {
                x: value_randomness(x, keypair) for xs in oprf_inputs for x in xs
            }

        messages: list[Submission | SuperSubmission] = []
        for record, xs in zip(sampled, oprf_inputs):
            if chained:
                rs = [randomness[x] for x in xs]
                messages.append(encode_multidim(record, rs, params, shares_rng))
            else:
                messages.append(build_submission(xs[0], randomness[xs[0]], params, shares_rng))
        if params.threshold >= 2:
            for s in dummy.create_dummy_batch(params, dummy_rng).submissions:
                messages.append(SuperSubmission(layer1=s, wrapped_layers=()) if chained else s)
        delivery_rng.shuffle(messages)
        msg_type = wire.MSG_SUPER_SUBMISSION if chained else wire.MSG_SUBMISSION
        frames = [wire.encode_frame(msg_type, m.to_bytes()) for m in messages]

        if transport == "daemons":
            with net.ServiceClient("127.0.0.1", pair.aggregation_port) as ac:
                _, errors = ac.submit_raw(b"".join(frames), len(frames))
                if errors:
                    raise RuntimeError(f"{errors} submissions rejected")
                ac.seal_and_decode()
            csv_text = pair.report_path.read_text()
        else:
            _, csv_text = service.decode_log(b"".join(frames), params)

    # Reports key by decode path; a plain run's paths have one element.
    reports = aggregate.reports_from_csv(csv_text)
    per_prefix = [
        sum_abs_error(
            Counter(rec[:depth] if chained else (record_value(rec),) for rec in dataset.records),
            reports[depth - 1].revealed if depth <= len(reports) else {},
        )
        for depth in range(1, (dataset.num_attributes if chained else 1) + 1)
    ]
    return ExperimentResult(
        errors={"nebula": per_prefix[-1]},
        per_prefix_errors=per_prefix if chained else [],
        seed=seed,
        report_csv=csv_text,
    )


# --- DP baselines -----------------------------------------------------------


def run_baseline_central(dataset: Dataset, eps: float, seed: int) -> ExperimentResult:
    """Trusted-server baseline: true histogram plus per-bin Laplace(1/eps)."""
    rng = np_substream(seed, "baseline-central")
    true_counts = Counter(record_value(r) for r in dataset.records)
    domain = sorted(true_counts)
    counts = np.array([true_counts[v] for v in domain], dtype=np.float64)
    noisy = counts + rng.laplace(0.0, 1.0 / eps, size=len(domain))
    est = np.maximum(noisy, 0.0)
    err = _vector_error(counts, est)
    return ExperimentResult(errors={"central": err}, seed=seed)


def run_baseline_local(dataset: Dataset, eps: float, seed: int) -> ExperimentResult:
    """Local-model baseline: every client submits a one-hot vector with
    per-coordinate Laplace(2/eps); the server sums, clamps, normalizes.

    The summed noise per coordinate is sampled exactly as a difference of two
    Gamma(n, 2/eps) draws (a sum of n independent Laplace variables), which
    keeps the cost linear in the domain instead of n * domain.
    """
    rng = np_substream(seed, "baseline-local")
    true_counts = Counter(record_value(r) for r in dataset.records)
    domain = sorted(true_counts)
    if len(domain) > MAX_ONE_HOT_DOMAIN:
        raise CapacityError(
            f"one-hot domain {len(domain)} exceeds {MAX_ONE_HOT_DOMAIN}"
        )
    n = len(dataset.records)
    counts = np.array([true_counts[v] for v in domain], dtype=np.float64)
    scale = 2.0 / eps
    noise = rng.gamma(n, scale, size=len(domain)) - rng.gamma(n, scale, size=len(domain))
    est = np.maximum(counts + noise, 0.0)
    err = _vector_error(counts, est)
    return ExperimentResult(errors={"local": err}, seed=seed)


def _vector_error(true_counts: np.ndarray, est_counts: np.ndarray) -> float:
    tt = float(true_counts.sum())
    te = float(est_counts.sum())
    p = true_counts / tt if tt else np.zeros_like(true_counts)
    q = est_counts / te if te else np.zeros_like(est_counts)
    return float(np.abs(p - q).sum())


# --- daemon management ------------------------------------------------------


class DaemonPair:
    """Both daemons as separate OS processes sharing nothing.

    Each daemon binds a port the OS picks (``--listen 127.0.0.1:0``) and
    prints it on its one start-up line, which is read back here.
    """

    def __init__(self, params: DpParams, server_seed: bytes, workdir: Path):
        self.workdir = Path(workdir)
        self.params = params
        self.server_seed = server_seed
        self.randomness_port = self.aggregation_port = 0
        self.log_path = self.workdir / "submissions.log"
        self.report_path = self.workdir / "report.csv"
        self._procs: list[subprocess.Popen] = []

    def __enter__(self) -> "DaemonPair":
        self.workdir.mkdir(parents=True, exist_ok=True)
        seed_file = self.workdir / "key-seed.bin"
        seed_file.write_bytes(self.server_seed)
        params_file = self.workdir / "params.cfg"
        params_file.write_text(params_to_config(self.params))
        # The children import this very package, installed or not.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        for args in (
            ["randomness-server", "--key-seed-file", str(seed_file)],
            [
                "aggregation-server", "--log", str(self.log_path),
                "--params", str(params_file), "--report", str(self.report_path),
            ],
        ):
            self._procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "nebula.cli", *args, "--listen", "127.0.0.1:0"],
                    stdout=subprocess.PIPE,
                    env=env,
                )
            )
        try:
            deadline = time.monotonic() + 10.0
            self.randomness_port, self.aggregation_port = (
                _bound_port(proc, deadline) for proc in self._procs
            )
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        # Neither daemon handles a signal, so SIGKILL ends it as SIGTERM
        # would, and no daemon can outlast it.
        for proc in self._procs:
            proc.kill()
        for proc in self._procs:
            proc.wait()
            proc.stdout.close()


def _bound_port(proc: subprocess.Popen, deadline: float) -> int:
    """The port in a daemon's ``... listening on host:port`` start-up line."""
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    if not ready:
        raise TimeoutError("daemon did not report its port in time")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError("daemon exited during start-up")
    return int(line.rsplit(b":", 1)[1])


# --- CSV / plot-data emitters -----------------------------------------------


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_errors_csv(path: str | Path, results: Sequence[ExperimentResult]) -> None:
    rows = [[m, res.seed, repr(res.errors[m])] for res in results for m in sorted(res.errors)]
    write_csv(path, ["mechanism", "seed", "error"], rows)


def write_plot_data(path: str | Path, series_rows: Sequence[tuple[str, float, float]]) -> None:
    """Generic x/y plot data: one (series, x, y) row per point."""
    write_csv(path, ["series", "x", "y"], [[s, repr(x), repr(y)] for s, x, y in series_rows])

