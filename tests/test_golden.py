"""Golden digests: reports and experiment fingerprints must stay byte-stable.

A report is a pure function of the submission multiset, so these digests
pin the decoder, the report CSV codec and the simulation's message build
across refactors.  Both transports must reproduce the same digests.  The
OPRF digests pin evaluated elements, proofs and randomness for a fixed key
and pinned blinding scalars, so group arithmetic can change underneath them.
"""

import hashlib
import random

import pytest

from nebula import oprf, wire
from nebula.encode import Submission, build_submission
from nebula.group import hash_to_scalar
from nebula.harness import run_nebula, synthetic_correlated, synthetic_zipf, value_randomness
from nebula.multidim import (
    SuperSubmission,
    decode_multidim,
    encode_multidim,
    layered_reports_to_csv,
    make_prefixes,
)
from nebula.params import DpBudget, derive_params
from nebula.service import AggregationServer, ServiceClient


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def make_params(**overrides):
    return derive_params(DpBudget(1.0, 1e-8, 1.0, 1e-8, 1 / 6), overrides=overrides)


PARAMS = make_params(threshold=5, tsdlap_shift=4)

RUNS = {
    "single": (lambda: synthetic_zipf(1500, 30, seed=41), 7),
    "multidim": (lambda: synthetic_correlated(1500, (3, 3, 2), seed=42), 8),
}

GOLDEN_CSV = {
    "single": "571c9cd27b97e1b317c18d57427ff241386cd9e1fc5dffc618ec4ec6c219f2a8",
    "multidim": "3b93bc5449f04b95021a39db46588cf646fdb1053425c05335199dd5aecbc469",
}

GOLDEN_FINGERPRINT = {
    "single": "0c8ef316d08c862407556b37628519bd16781c0422c856446c6f2aa48db7187c",
    "multidim": "b3c3a5cb7cc98c7f57fbe59766ba28ddf4f42dce49ce09418ebea2d1e2461f6b",
}

GOLDEN_MIXED_LOG_CSV = "fc012f58d8fbe258566985f0d57f232691a1815c01611a586d27f18b64037ed8"
GOLDEN_LAYERED_FAULTS_CSV = (
    "53c1408a630b130ce28c9998fbc70567e2a2f4d21c5af7d630b9c7ebf411d9e9"
)


def _run(mode, transport):
    make_dataset, seed = RUNS[mode]
    return run_nebula(make_dataset(), PARAMS, seed=seed, mode=mode, transport=transport)


@pytest.mark.parametrize("transport", ["in_process", "daemons"])
@pytest.mark.parametrize("mode", ["single", "multidim"])
def test_report_csv_golden(mode, transport):
    assert sha(_run(mode, transport).report_csv) == GOLDEN_CSV[mode]


@pytest.mark.parametrize("transport", ["in_process", "daemons"])
@pytest.mark.parametrize("mode", ["single", "multidim"])
def test_fingerprint_golden(mode, transport):
    assert _run(mode, transport).fingerprint().hex() == GOLDEN_FINGERPRINT[mode]


def _encode(attrs, kp, rng):
    rs = [value_randomness(p, kp) for p in make_prefixes(attrs).prefixes]
    return encode_multidim(attrs, rs, PARAMS, rng)


def test_mixed_log_daemon_csv_golden(shared_kp, tmp_path):
    # SUBMISSION and SUPER_SUBMISSION frames in one log: the plain ones join
    # the layered decode as one-layer messages.
    rng = random.Random(77)
    supers = [_encode([b"east", b"north"], shared_kp, rng) for _ in range(7)]
    supers += [_encode([b"east", b"south"], shared_kp, rng) for _ in range(3)]
    supers += [_encode([b"west", b"north"], shared_kp, rng) for _ in range(2)]
    singles = [
        build_submission(v, value_randomness(make_prefixes([v]).prefixes[0], shared_kp), PARAMS, rng)
        for v in [b"east"] * 4 + [b"west"] * 2 + [b"solo"]
    ]
    frames = [wire.encode_frame(wire.MSG_SUPER_SUBMISSION, s.to_bytes()) for s in supers]
    frames += [wire.encode_frame(wire.MSG_SUBMISSION, s.to_bytes()) for s in singles]
    random.Random(78).shuffle(frames)
    server = AggregationServer(
        ("127.0.0.1", 0), tmp_path / "log.bin", PARAMS, tmp_path / "report.csv"
    )
    server.start_background()
    try:
        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.submit_raw(b"".join(frames), len(frames)) == (len(frames), 0)
            client.seal_and_decode()
    finally:
        server.stop()
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.startswith("nebula-layered-report,v1\n")
    assert sha(csv_text) == GOLDEN_MIXED_LOG_CSV


def test_layered_faults_golden(shared_kp):
    # A foreign ciphertext in a layer-1 group marks that group malformed
    # (one count per group); a tampered wrapped blob at layer 2 counts one
    # malformed per member carrying it, before any regrouping.
    rng = random.Random(91)
    good = [_encode([b"tea", b"green"], shared_kp, rng) for _ in range(8)]
    good += [_encode([b"tea", b"black"], shared_kp, rng) for _ in range(2)]
    poisoned = [_encode([b"coffee", b"dark"], shared_kp, rng) for _ in range(6)]
    foreign = _encode([b"cocoa", b"dark"], shared_kp, rng).layer1
    first = poisoned[0]
    poisoned[0] = SuperSubmission(
        layer1=Submission(
            ciphertext=foreign.ciphertext, share=first.layer1.share, tag=first.layer1.tag
        ),
        wrapped_layers=first.wrapped_layers,
    )
    for i in (0, 1):
        blob = bytearray(good[i].wrapped_layers[0])
        blob[-1] ^= 1
        good[i] = SuperSubmission(layer1=good[i].layer1, wrapped_layers=(bytes(blob),))
    messages = good + poisoned
    random.Random(92).shuffle(messages)
    reports = decode_multidim(messages, PARAMS.threshold, PARAMS)
    assert reports[0].malformed_groups == 1
    assert reports[0].revealed == {(b"tea",): 10}
    assert reports[1].malformed_groups == 2
    assert reports[1].revealed == {(b"tea", b"green"): 6}
    assert sha(layered_reports_to_csv(reports)) == GOLDEN_LAYERED_FAULTS_CSV


# --- OPRF bytes --------------------------------------------------------------

OPRF_KEY_SEED = b"\x42" * 32
OPRF_BATCH_SIZES = (1, 2, 3, 8)


def _oprf_batch(n):
    xs = [f"golden-{n}-{i}".encode() for i in range(n)]
    scalars = [hash_to_scalar(x, b"golden-blind") for x in xs]
    return xs, scalars


def _oprf_round(n):
    kp = oprf.keygen(OPRF_KEY_SEED)
    xs, scalars = _oprf_batch(n)
    pairs = [oprf.blind(x, None, blind_scalar=r) for x, r in zip(xs, scalars)]
    ev = oprf.evaluate_batch([b for b, _ in pairs], kp)
    outs = oprf.finalize_batch(xs, [st for _, st in pairs], ev, kp.mpk)
    return b"".join(z.encode() for z in ev.elements) + ev.proof.to_bytes() + b"".join(outs)


GOLDEN_OPRF_ROUND = {
    1: "bd7310fafa0d52d4de7262d7d19131c1a438c53297ad67072420a64291727734",
    2: "eff43fc6ccf67174154385e911d6ae11b65b1b55d0472a31b2ae2e27959d98e9",
    3: "efec221b80973cb7da4f5c156d7f6083bd42937221de9f1a2ae025ebf0114a7b",
    8: "158815fb166ada27f0396a03b39fa84f37b1ebea96f7d9b80edf455a665ec93e",
}

GOLDEN_OPRF_DIRECT = {
    1: "87fcd461861494ffd968f5ee26bbb66130a9f722189106a19da837b8e2a2ea85",
    2: "7102d64def11507b0f31ed3c832082ce44ae4798b6db4b33892e7bf68479ebaf",
    3: "88cffcde8ae1df7785880c5903c6de818cac5a8acee9b6229c1cce863ef53a7b",
    8: "d505976110889b843faf13498215fa2e1a3988bb8a68713b22676f50843a9aec",
}


@pytest.mark.parametrize("n", OPRF_BATCH_SIZES)
def test_oprf_round_golden(n):
    assert sha(_oprf_round(n)) == GOLDEN_OPRF_ROUND[n]


@pytest.mark.parametrize("n", OPRF_BATCH_SIZES)
def test_oprf_direct_golden(n):
    kp = oprf.keygen(OPRF_KEY_SEED)
    xs, _ = _oprf_batch(n)
    assert sha(b"".join(oprf.evaluate_directly(x, kp) for x in xs)) == GOLDEN_OPRF_DIRECT[n]
