"""Golden digests: reports and experiment fingerprints must stay byte-stable.

A report is a pure function of the submission multiset, so these digests
pin the decoder, the report CSV codec and the simulation's message build
across refactors.  Both transports must reproduce the same digests.
"""

import hashlib
import random

import pytest

from nebula import wire
from nebula.encode import Submission, build_submission
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


def _run(mode, transport, tmp_path):
    make_dataset, seed = RUNS[mode]
    return run_nebula(
        make_dataset(), PARAMS, seed=seed, mode=mode, transport=transport,
        workdir=tmp_path if transport == "daemons" else None,
    )


@pytest.mark.parametrize("transport", ["in_process", "daemons"])
@pytest.mark.parametrize("mode", ["single", "multidim"])
def test_report_csv_golden(mode, transport, tmp_path):
    assert sha(_run(mode, transport, tmp_path).report_csv) == GOLDEN_CSV[mode]


@pytest.mark.parametrize("transport", ["in_process", "daemons"])
@pytest.mark.parametrize("mode", ["single", "multidim"])
def test_fingerprint_golden(mode, transport, tmp_path):
    assert _run(mode, transport, tmp_path).fingerprint().hex() == GOLDEN_FINGERPRINT[mode]


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
            assert client.submit_stream(frames) == (len(frames), 0)
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
