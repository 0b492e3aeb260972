"""Seeded inputs for the benchmark workloads, built outside every timed region.

The expensive part of an input is one ``oprf.evaluate_directly`` per distinct
value or prefix.  The server key and the value domain do not depend on the
workload seed, so that randomness is computed once per source tree and kept
on disk, keyed on the content of ``src/nebula``; a changed program never
reuses randomness computed by older code.  The seed then picks the record
multiset, the share points, the dummy batch and the delivery order.

Every payload, bulk and client alike, is built by the program's own encoder
(``encode.build_submission`` / ``multidim.encode_multidim``) over the cached
randomness: about 5 s per ``bulk_single`` seed and 8 s per ``chain8`` seed
on a 2-core x86-64 host, all of it before anything is timed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from dataclasses import dataclass
from pathlib import Path

from nebula import aggregate, dummy, encode, harness, multidim, oprf, wire
from nebula.params import DpBudget, derive_params, params_from_config, params_to_config

# Fixed so the per-value randomness cache is valid for every workload seed.
SERVER_KEY_SEED = b"nebula-bench-server-key-seed-v1!"
THRESHOLD = 20
DUMMY_SHIFT = 15


@dataclass(frozen=True)
class Size:
    clients_per_round: int  # interactive clients per aggregation round
    bulk_records: int       # pre-built records streamed per round
    values: int             # single-attribute domain (Zipf, skew 1)
    branching: tuple[int, ...]  # correlated prefix tree for chained records


SIZES = {
    "bulk_single": {
        "full": Size(clients_per_round=25, bulk_records=50_000, values=5000, branching=()),
        "tiny": Size(clients_per_round=3, bulk_records=400, values=40, branching=()),
    },
    "chain8": {
        "full": Size(clients_per_round=20, bulk_records=10_000, values=0,
                     branching=(4, 3, 3, 3, 3, 3, 3, 3)),
        "tiny": Size(clients_per_round=2, bulk_records=300, values=0,
                     branching=(2, 2, 2, 2, 2, 2, 2, 2)),
    },
}


@dataclass
class Client:
    """One interactive client: OPRF inputs and the payload it must produce."""

    attributes: tuple[bytes, ...]  # one value, or the chained attributes
    oprf_inputs: tuple[bytes, ...]  # the value, or every prefix
    share_seed: int
    expected_randomness: tuple[bytes, ...]
    expected_payload: bytes


@dataclass
class Inputs:
    size: Size
    params: object  # DpParams, round-tripped through the daemon's config text
    params_text: str
    chained: bool
    clients: list[Client]
    stream: bytes          # pre-framed, shuffled bulk submissions + dummies
    stream_frames: int
    expected_csv: str
    distinct_tags: int     # layer-1 tags in one round's multiset
    dummy_batch_ms: float


def bench_params():
    params = derive_params(
        DpBudget(eps_revealed=1.0, delta_revealed=1e-8, eps_unrevealed=1.0,
                 delta_unrevealed=1e-8, alpha=1 / 6),
        {"threshold": THRESHOLD, "tsdlap_shift": DUMMY_SHIFT},
    )
    text = params_to_config(params)
    return params_from_config(text), text


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _randomness_table(domain: list[bytes], label: str, cache_dir: Path,
                      digest: str) -> dict[bytes, bytes]:
    """Randomness for every domain entry under the fixed key, cached on disk."""
    listing = hashlib.sha256(b"\0".join(domain)).hexdigest()[:16]
    path = cache_dir / f"randomness-{label}-{digest[:16]}-{listing}.bin"
    size = oprf.RANDOMNESS_SIZE
    if path.exists() and path.stat().st_size == size * len(domain):
        blob = path.read_bytes()
    else:
        keypair = oprf.keygen(SERVER_KEY_SEED)
        blob = b"".join(oprf.evaluate_directly(x, keypair) for x in domain)
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(blob)
        tmp.replace(path)
    return {x: blob[i * size:(i + 1) * size] for i, x in enumerate(domain)}


def single_domain(values: int) -> list[bytes]:
    """Every value ``harness.synthetic_zipf`` can draw from this domain size."""
    width = len(str(values))
    return [f"w{i:0{width}d}".encode() for i in range(values)]


def chain_domain(branching: tuple[int, ...]) -> list[bytes]:
    """Every prefix of the full tree, named as ``harness.synthetic_correlated``."""
    out = []
    for depth in range(1, len(branching) + 1):
        for path in itertools.product(*(range(b) for b in branching[:depth])):
            attrs = [f"L{level}v{idx:03d}".encode() for level, idx in enumerate(path)]
            out.append(multidim.make_prefixes(attrs).prefixes[-1])
    return out


def _reference_payload(chained: bool, attrs, table, params, rng) -> bytes:
    """One record's payload from the program's own encoder."""
    if chained:
        prefixes = multidim.make_prefixes(attrs).prefixes
        rs = [table[p] for p in prefixes]
        return multidim.encode_multidim(attrs, rs, params, rng).to_bytes()
    return encode.build_submission(attrs[0], table[attrs[0]], params, rng).to_bytes()


def _records(workload: str, size: Size, seed: int) -> list[tuple[bytes, ...]]:
    n = size.clients_per_round + size.bulk_records
    if workload == "chain8":
        return list(harness.synthetic_correlated(n, size.branching, 1.0, seed=seed).records)
    return list(harness.synthetic_zipf(n, size.values, 1.0, seed=seed).records)


def build(workload: str, seed: int, scale: str, cache_dir: Path, digest: str) -> Inputs:
    size = SIZES[workload][scale]
    chained = workload == "chain8"
    params, params_text = bench_params()
    domain = chain_domain(size.branching) if chained else single_domain(size.values)
    table = _randomness_table(domain, f"{workload}-{scale}", cache_dir, digest)

    records = _records(workload, size, seed)
    client_records = records[: size.clients_per_round]
    bulk_records = records[size.clients_per_round:]

    clients = []
    for i, attrs in enumerate(client_records):
        share_seed = harness.substream_seed(seed, f"client-shares:{i}")
        oprf_inputs = multidim.make_prefixes(attrs).prefixes if chained else attrs
        clients.append(Client(
            attributes=tuple(attrs),
            oprf_inputs=tuple(oprf_inputs),
            share_seed=share_seed,
            expected_randomness=tuple(table[x] for x in oprf_inputs),
            expected_payload=_reference_payload(
                chained, attrs, table, params, random.Random(share_seed)),
        ))

    rng = harness.substream(seed, "bulk-shares")
    payloads = [_reference_payload(chained, attrs, table, params, rng) for attrs in bulk_records]

    t0 = time.perf_counter()
    batch = dummy.create_dummy_batch(params, harness.substream(seed, "dummies"))
    dummy_batch_ms = (time.perf_counter() - t0) * 1e3
    for sub in batch.submissions:
        if chained:
            payloads.append(multidim.SuperSubmission(layer1=sub, wrapped_layers=()).to_bytes())
        else:
            payloads.append(sub.to_bytes())
    harness.substream(seed, "delivery").shuffle(payloads)

    msg_type = wire.MSG_SUPER_SUBMISSION if chained else wire.MSG_SUBMISSION
    stream = b"".join(wire.encode_frame(msg_type, p) for p in payloads)

    everything = [c.expected_payload for c in clients] + payloads
    if chained:
        supers = [multidim.SuperSubmission.from_bytes(p) for p in everything]
        reports = multidim.decode_multidim(supers, params.threshold, params)
        expected_csv = multidim.layered_reports_to_csv(reports)
        layer1 = [s.layer1 for s in supers]
    else:
        layer1 = [encode.Submission.from_bytes(p) for p in everything]
        report = aggregate.decode_submissions(layer1, params.threshold, params)
        expected_csv = aggregate.report_to_csv(report)

    return Inputs(
        size=size, params=params,
        params_text=params_text, chained=chained, clients=clients,
        stream=stream, stream_frames=len(payloads), expected_csv=expected_csv,
        distinct_tags=len({s.tag for s in layer1}),
        dummy_batch_ms=dummy_batch_ms,
    )

