"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 9 and 10 use the real Shakespeare corpus when one is available
(NEBULA_SHAKESPEARE_PATH or tests/data/shakespeare_input.txt); otherwise
they run the documented property-based substitute on synthetic Zipf data,
asserting the mechanism ordering and trends without the corpus-specific
error bands.
"""

import math
import os
import random
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nebula import dummy, harness, net, oprf, sharing, wire
from nebula.aggregate import (
    decode_submissions,
    group_by_tag,
    recover_group,
    report_from_csv,
    report_to_csv,
    select_points,
)
from nebula.encode import (
    KeyShare,
    Submission,
    build_submission,
    make_share,
    parse_randomness,
    submission_at,
    submission_wire_size,
)
from nebula.group import GroupElement
from nebula.harness import value_randomness
from nebula.multidim import decode_multidim, encode_multidim, make_prefixes, read_log
from nebula.params import DpBudget, derive_params, tsdlap_pmf, tsdlap_sample


def _report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS: {text}")


def reference_params(**extra):
    overrides = {"tsdlap_shift": 15}
    overrides.update(extra)
    return derive_params(
        DpBudget(1.0, 1e-8, 1.0, 1e-8, 1 / 6), overrides=overrides
    )


def _shakespeare_path():
    env = os.environ.get("NEBULA_SHAKESPEARE_PATH")
    if env and Path(env).exists():
        return Path(env)
    local = Path(__file__).parent / "data" / "shakespeare_input.txt"
    if local.exists():
        return local
    return None


@pytest.fixture(scope="module")
def corpus_dataset():
    """Real corpus when available, else the synthetic Zipf substitute."""
    path = _shakespeare_path()
    if path is not None:
        return harness.load_corpus(path), True
    return harness.synthetic_zipf(60_000, 2000, skew=1.0, seed=0), False


def test_criterion_01_parameter_reproduction():
    params = derive_params(DpBudget(1.0, 1e-8, 1.0, 1e-8, 1 / 6))
    assert 0.1053 <= params.sampling_rate <= 0.1054
    assert params.threshold == 20
    _report(1, f"p_s={params.sampling_rate:.4f} in [0.1053, 0.1054], tau=20")


def test_criterion_02_truncated_noise_distribution():
    rng = random.Random(20240707)
    n = 10**6
    counts = [0] * 31
    for _ in range(n):
        c = tsdlap_sample(rng, 2.0, 15)
        assert 0 <= c <= 30
        counts[c] += 1
    tv = 0.5 * sum(abs(counts[c] / n - tsdlap_pmf(c, 2.0, 15)) for c in range(31))
    assert tv <= 0.01
    _report(2, f"empirical TV distance {tv:.5f} <= 0.01 over 1e6 samples, support in 0..30")


def test_criterion_03_dummy_count_statistics(dummy_batch_size):
    params = reference_params()
    assert params.threshold == 20 and params.tsdlap_shift == 15
    rng = random.Random(20240808)
    n_mean = 10_000
    sizes = [dummy_batch_size(params, rng) for _ in range(n_mean)]
    mean = sum(sizes) / n_mean
    assert abs(mean - 2850) / 2850 <= 0.02
    n_max = 100_000
    observed_max = max(
        dummy_batch_size(params, rng) for _ in range(n_max - n_mean)
    )
    observed_max = max(observed_max, max(sizes))
    assert observed_max <= 5700
    # tie the cheap size sampler to the materialized generator
    materialized = [
        len(dummy.create_dummy_batch(params, rng).submissions) for _ in range(50)
    ]
    assert all(s <= 5700 for s in materialized)
    assert abs(sum(materialized) / 50 - 2850) <= 100  # se ~ 20
    _report(
        3,
        f"mean batch {mean:.1f} within 2% of 2850; max {observed_max} <= 5700 over 1e5",
    )


def test_criterion_04_value_loss_bound():
    p_s, tau, trials = 0.105, 20, 100_000
    rng = np.random.default_rng(20240909)
    outcomes = []
    for w in (250, 300, 400, 600):
        bound = math.exp(-((p_s * w - tau) ** 2) / (2 * w * p_s))
        freq = float((rng.binomial(w, p_s, size=trials) < tau).mean())
        limit = bound + 3 * math.sqrt(bound / trials)
        assert freq <= limit, (w, freq, limit)
        outcomes.append(f"W={w}: {freq:.2e} <= {limit:.2e}")
    # anchor: the W=400 bound evaluates to ~0.0031
    assert math.exp(-((p_s * 400 - tau) ** 2) / (2 * 400 * p_s)) == pytest.approx(
        0.0031451151937886192
    )
    _report(4, "; ".join(outcomes))


def test_criterion_05_sensitivity_exhaustive():
    import itertools

    domain = ("a", "b", "c")
    checked = 0
    singleton_cases = 0
    for size in range(1, 7):
        for dataset in itertools.combinations_with_replacement(domain, size):
            base = Counter(Counter(dataset).values())
            for idx in range(size):
                removed = dataset[:idx] + dataset[idx + 1 :]
                after = Counter(Counter(removed).values())
                l1 = sum(
                    abs(base.get(k, 0) - after.get(k, 0)) for k in base.keys() | after.keys()
                )
                if dataset.count(dataset[idx]) == 1:
                    # removed a singleton: its multiplicity-1 entry drops with
                    # no adjacent entry to absorb it, L1 change is 1
                    assert l1 == 1
                    singleton_cases += 1
                else:
                    # one unit moves between adjacent entries i and i-1
                    assert l1 == 2
                checked += 1
    _report(
        5,
        f"all {checked} removals: L1 change 2 (or 1 in {singleton_cases} "
        "singleton-at-multiplicity-1 cases)",
    )


def test_criterion_06_exactness_regime(shared_kp, randomness_for):
    params = reference_params(threshold=5, sampling_rate=1.0)
    rng = random.Random(20241010)
    pool = [f"word{i:02d}".encode() for i in range(40)]
    for trial in range(100):
        spec = {v: rng.randint(1, 11) for v in rng.sample(pool, k=rng.randint(3, 10))}
        share_rng = random.Random(trial)
        subs = []
        for value, copies in spec.items():
            r = randomness_for(value)
            subs.extend(
                build_submission(value, r, params, share_rng) for _ in range(copies)
            )
        report = decode_submissions(subs, params.threshold, params)
        assert report.revealed == {(v,): c for v, c in spec.items() if c >= 5}
        assert report.unrevealed_multiplicities == dict(
            Counter(c for c in spec.values() if c < 5)
        )
        assert report.malformed_groups == 0
    _report(6, "revealed histogram exact on 100 random datasets at p_s=1, no dummies")


def test_criterion_07_threshold_hiding():
    tau = 5
    rng = random.Random(20241111)
    params = reference_params(threshold=tau)
    for trial in range(1000):
        r1, r2 = rng.randbytes(32), rng.randbytes(32)
        secret = sharing.secret_from_key_seed(r1)
        shares = [make_share(r1, r2, tau, rng) for _ in range(tau)]
        # tau shares always recover
        assert (
            sharing.interpolate_at_zero([(s.x_coord, s.y_coord) for s in shares])
            == secret
        )
        # tau-1 shares never do (the truncated fit lands elsewhere)
        partial = [(s.x_coord, s.y_coord) for s in shares[: tau - 1]]
        assert sharing.interpolate_at_zero(partial) != secret
    # force-assembled above-threshold dummy groups are flagged malformed
    fails = 0
    for trial in range(50):
        ct = dummy._dummy_ciphertext(rng)
        tag = rng.randbytes(32)
        forced = [
            Submission(
                ciphertext=ct,
                share=KeyShare(
                    sharing.random_nonzero_element(rng),
                    sharing.random_nonzero_element(rng),
                ),
                tag=tag,
            )
            for _ in range(tau)
        ]
        index = read_log(
            b"".join(wire.encode_frame(wire.MSG_SUBMISSION, s.to_bytes()) for s in forced)
        )
        order, bounds = group_by_tag(index.data, index.starts, np.zeros(tau, np.intp))
        assert bounds.tolist() == [0, tau]
        starts = index.starts[order]
        [points] = select_points(index.data, starts, bounds, tau)
        outcome = recover_group(index.data, int(starts[0]), tau, points)
        assert outcome.status == "malformed"
        fails += 1
    _report(
        7,
        "1000 trials: tau-1 shares never recover, tau always; "
        f"{fails}/50 forced dummy groups flagged malformed",
    )


def test_criterion_08_oprf_contract():
    kp = oprf.keygen(b"\x61" * 32)
    rng = random.Random(20241212)
    for trial in range(1000):
        x = rng.randbytes(rng.randint(1, 24))
        b, st = oprf.blind(x, rng)
        ev = oprf.evaluate_batch([b], kp)
        (r,) = oprf.finalize_batch([x], [st], ev, kp.mpk)  # completeness: must verify
        assert r == oprf.evaluate_directly(x, kp)  # determinism
        # single-byte tamper on the wire (element or proof) is rejected
        blob = bytearray(ev.elements[0].encode() + ev.proof.to_bytes())
        blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        try:
            tampered = oprf.BatchEvaluation(
                elements=(GroupElement.decode(bytes(blob[:32])),),
                proof=oprf.DleqProof.from_bytes(bytes(blob[32:])),
            )
        except Exception:
            continue  # rejected at decode, before verification
        with pytest.raises(oprf.VerificationError):
            oprf.finalize_batch([x], [st], tampered, kp.mpk)
    _report(8, "1000 trials: determinism, completeness, tamper rejection")


def test_criterion_09_utility_ordering(corpus_dataset):
    dataset, is_real = corpus_dataset
    params = reference_params()
    seeds = range(20)
    neb = [harness.run_nebula(dataset, params, s).errors["nebula"] for s in seeds]
    cen = [
        harness.run_baseline_central(dataset, 1.0, s).errors["central"] for s in seeds
    ]
    loc = [harness.run_baseline_local(dataset, 1.0, s).errors["local"] for s in seeds]
    m_neb, m_cen, m_loc = np.mean(neb), np.mean(cen), np.mean(loc)
    assert m_cen < m_neb < m_loc
    if is_real:
        assert 0.01 <= m_neb <= 0.04
        assert 0.2 <= m_loc <= 0.8
        label = "real corpus"
    else:
        label = "synthetic substitute (corpus absent)"
    _report(
        9,
        f"{label}: central {m_cen:.4f} < nebula {m_neb:.4f} < local {m_loc:.4f}",
    )


@pytest.mark.slow
def test_criterion_10_bin_count_trend(corpus_dataset):
    dataset, is_real = corpus_dataset
    params = reference_params()
    seeds = range(8)
    prev = -1.0
    lines = []
    for bits in range(6, 15):
        binned = harness.hash_bin_dataset(dataset, bits)
        m_neb = np.mean(
            [harness.run_nebula(binned, params, s).errors["nebula"] for s in seeds]
        )
        m_loc = np.mean(
            [harness.run_baseline_local(binned, 1.0, s).errors["local"] for s in seeds]
        )
        assert m_neb >= prev, f"trend broken at b={bits}"
        assert m_neb < m_loc, f"not below local at b={bits}"
        prev = m_neb
        lines.append(f"b={bits}:{m_neb:.3f}<{m_loc:.3f}")
    label = "real corpus" if is_real else "synthetic substitute"
    _report(10, f"{label}; non-decreasing and below local at every b: " + " ".join(lines))


@pytest.mark.slow
def test_criterion_11_multidim_trend(shared_kp):
    params = reference_params()
    dataset = harness.synthetic_correlated(30_000, (4, 3, 3, 3, 3), skew=1.2, seed=0)
    per = [
        harness.run_nebula(dataset, params, seed, mode="multidim").per_prefix_errors
        for seed in range(20)
    ]
    means = np.mean(per, axis=0)
    assert all(means[i] <= means[i + 1] for i in range(len(means) - 1))
    # layer halting on the adversarial split: 30 share the first attribute,
    # 15/15 split on the second, threshold 20
    rng = random.Random(20250101)
    supers = []
    for second, copies in ((b"married", 15), (b"single", 15)):
        attrs = [b"F", second]
        chain = make_prefixes(attrs)
        rs = [value_randomness(p, shared_kp) for p in chain.prefixes]
        supers.extend(encode_multidim(attrs, rs, params, rng) for _ in range(copies))
    reports = decode_multidim(supers, 20, params)
    assert reports[0].revealed == {(b"F",): 30}
    assert reports[1].revealed == {}
    _report(
        11,
        "per-prefix means non-decreasing "
        + "->".join(f"{m:.3f}" for m in means)
        + "; layer halting holds on 15/15 split",
    )


def test_criterion_12_wire_sizes(shared_kp, randomness_for):
    # randomness interaction: element sections are exactly 32 bytes/attribute
    rng = random.Random(20250202)
    for n_attrs in range(1, 9):
        blinded = [oprf.blind(f"p{i}".encode(), rng)[0] for i in range(n_attrs)]
        request = wire.pack_randomness_request([b.encode() for b in blinded])
        assert len(request) == 1 + 32 * n_attrs
        ev = oprf.evaluate_batch(blinded, shared_kp)
        response = wire.pack_randomness_response(
            [z.encode() for z in ev.elements], ev.proof.to_bytes()
        )
        assert len(response) - 64 == 32 * n_attrs
    # submissions: at most 300 bytes per attribute at representative sizes
    params = reference_params()
    value = b"x" * 42
    sub = build_submission(value, randomness_for(value), params, rng)
    assert len(sub.to_bytes()) <= 300
    assert len(sub.to_bytes()) == submission_wire_size(42)
    attrs = [f"attribute-{i}".encode() for i in range(8)]
    chain = make_prefixes(attrs)
    rs = [randomness_for(p) for p in chain.prefixes]
    super_sub = encode_multidim(attrs, rs, params, rng)
    assert len(super_sub.to_bytes()) <= 8 * 300
    _report(
        12,
        f"randomness sections 32 B/attribute; single submission "
        f"{len(sub.to_bytes())} B <= 300; 8-attribute message "
        f"{len(super_sub.to_bytes())} B <= 2400",
    )


@pytest.mark.slow
def test_criterion_13_scale_smoke(submission_payloads):
    params = reference_params()
    n = 1_000_000
    payloads = submission_payloads(n, 2000, params, seed=0)

    # independent in-process decode of the same multiset; the payloads are
    # the test's own, and the daemon checks every one at ingest
    subs = [submission_at(p, 0, len(p)) for p in payloads]
    csv_in = report_to_csv(decode_submissions(subs, params.threshold, params))
    del subs

    buf = bytearray()
    for p in payloads:
        buf += wire.encode_frame(wire.MSG_SUBMISSION, p)
    del payloads

    with tempfile.TemporaryDirectory() as tmp:
        with harness.DaemonPair(params, b"\x71" * 32, Path(tmp)) as pair:
            t0 = time.perf_counter()
            with net.ServiceClient(
                "127.0.0.1", pair.aggregation_port, timeout=300
            ) as client:
                t_ingest = time.perf_counter()
                acked, errors = client.submit_raw(bytes(buf), n)
                t_seal = time.perf_counter()
                client.seal_and_decode()
            elapsed = time.perf_counter() - t0
            seal_s = time.perf_counter() - t_seal
            csv_daemon = pair.report_path.read_text()
    assert acked == n and errors == 0
    assert elapsed < 60.0
    assert csv_daemon == csv_in
    _report(
        13,
        f"1e6 submissions ingested + decoded through daemons in {elapsed:.1f}s "
        f"(< 60 s): ingest {t_seal - t_ingest:.2f}s, seal+decode {seal_s:.2f}s; "
        "report byte-identical to in-process path",
    )
