"""Aggregation pipeline tests: grouping, recovery, reports, privacy mechanics."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nebula import oprf, sharing
from nebula.aggregate import (
    HistogramReport,
    decode_submissions,
    decode_value_field,
    encode_value_field,
    group_by_tag,
    recover_group,
    report_from_csv,
    report_to_csv,
)
from nebula.encode import KeyShare, Submission, build_submission
from nebula.params import DpBudget, derive_params


def make_params(threshold):
    return derive_params(
        DpBudget(1.0, 1e-8, 1.0, 1e-8, 1 / 6),
        overrides={"threshold": threshold, "tsdlap_shift": 15},
    )


def make_submissions(spec, params, randomness_for, seed=0):
    """spec: mapping value -> copies."""
    rng = random.Random(seed)
    subs = []
    for value, copies in spec.items():
        r = randomness_for(value)
        subs.extend(build_submission(value, r, params, rng) for _ in range(copies))
    return subs


class TestGroupByTag:
    def test_empty(self):
        assert group_by_tag([]) == []

    def test_partition_sizes(self, randomness_for):
        params = make_params(3)
        subs = make_submissions({b"x": 3, b"y": 2}, params, randomness_for)
        groups = group_by_tag(subs)
        assert sorted(len(g.submissions) for g in groups) == [2, 3]
        assert sum(len(g.submissions) for g in groups) == len(subs)

    def test_order_insensitive(self, randomness_for):
        params = make_params(3)
        subs = make_submissions({b"x": 4, b"y": 1, b"z": 2}, params, randomness_for)
        shuffled = subs[:]
        random.Random(9).shuffle(shuffled)
        a = {g.tag: sorted(s.to_bytes() for s in g.submissions) for g in group_by_tag(subs)}
        b = {g.tag: sorted(s.to_bytes() for s in g.submissions) for g in group_by_tag(shuffled)}
        assert a == b


class TestRecoverGroup:
    def test_exactly_threshold_recovers(self, randomness_for):
        params = make_params(5)
        subs = make_submissions({b"value": 5}, params, randomness_for)
        [group] = group_by_tag(subs)
        outcome = recover_group(group, 5)
        assert outcome.status == "recovered"
        assert outcome.value == b"value"
        assert outcome.count == 5

    def test_below_threshold_unrevealed(self, randomness_for):
        params = make_params(5)
        subs = make_submissions({b"value": 4}, params, randomness_for)
        [group] = group_by_tag(subs)
        outcome = recover_group(group, 5)
        assert outcome.status == "unrevealed"
        assert outcome.count == 4

    def test_forced_dummy_group_malformed(self):
        # Random shares fail the authenticated-decryption consistency check.
        from nebula.dummy import _dummy_ciphertext

        rng = random.Random(1)
        ct = _dummy_ciphertext(rng)
        tag = rng.randbytes(32)
        subs = [
            Submission(
                ciphertext=ct,
                share=KeyShare(
                    sharing.random_nonzero_element(rng),
                    sharing.random_nonzero_element(rng),
                ),
                tag=tag,
            )
            for _ in range(5)
        ]
        [group] = group_by_tag(subs)
        outcome = recover_group(group, 5)
        assert outcome.status == "malformed"

    def test_mixed_ciphertexts_malformed(self, randomness_for):
        params = make_params(3)
        good = make_submissions({b"value": 3}, params, randomness_for)
        evil = Submission(
            ciphertext=good[0].ciphertext + b"x",
            share=good[0].share,
            tag=good[0].tag,
        )
        [group] = group_by_tag(good + [evil])
        assert recover_group(group, 3).status == "malformed"

    def test_surplus_members_all_counted(self, randomness_for):
        params = make_params(4)
        subs = make_submissions({b"value": 9}, params, randomness_for)
        [group] = group_by_tag(subs)
        outcome = recover_group(group, 4)
        assert outcome.status == "recovered"
        assert outcome.count == 9


class TestBuildReport:
    def test_threshold_rule(self, randomness_for):
        params = make_params(20)
        subs = make_submissions({b"a": 25, b"b": 5}, params, randomness_for)
        report = decode_submissions(subs, 20, params)
        assert report.revealed == {b"a": 25}
        assert report.unrevealed_multiplicities == {5: 1}

    def test_dummies_only_touch_unrevealed(self, randomness_for):
        from nebula.dummy import create_dummy_batch

        params = make_params(4)
        subs = make_submissions({b"a": 6, b"b": 2}, params, randomness_for)
        base = decode_submissions(subs, 4, params)
        batch = create_dummy_batch(
            make_params(4), random.Random(3)
        )
        noised = decode_submissions(subs + list(batch.submissions), 4, params)
        assert noised.revealed == base.revealed
        assert noised.malformed_groups == 0

    def test_report_invariants(self, randomness_for):
        params = make_params(3)
        subs = make_submissions({b"a": 7, b"b": 2, b"c": 1}, params, randomness_for)
        report = decode_submissions(subs, 3, params)
        assert all(c >= 3 for c in report.revealed.values())
        assert all(m < 3 for m in report.unrevealed_multiplicities)


class TestSensitivity:
    def test_exhaustive_small_datasets(self):
        # Removing one record moves one unit between adjacent multiplicity
        # entries: L1 change exactly 2, except removing a singleton (its
        # multiplicity-1 entry just drops: L1 change 1).
        domain = ("a", "b", "c")
        for size in range(1, 7):
            for dataset in itertools.combinations_with_replacement(domain, size):
                base = _multiplicity_histogram(dataset)
                for idx in range(size):
                    removed = dataset[:idx] + dataset[idx + 1 :]
                    after = _multiplicity_histogram(removed)
                    l1 = _l1(base, after)
                    count = dataset.count(dataset[idx])
                    if count == 1:
                        assert l1 == 1  # singleton: +-1 pattern truncated at 0
                    else:
                        assert l1 == 2  # +-1/-+1 on adjacent entries

    def test_adjacent_entry_pattern(self):
        base = _multiplicity_histogram(("a", "a", "b"))
        after = _multiplicity_histogram(("a", "b"))
        # entry 2 loses the 'a' tag, entry 1 gains it
        assert base == {2: 1, 1: 1}
        assert after == {1: 2}
        assert _l1(base, after) == 2


def _multiplicity_histogram(values):
    counts = Counter(values)
    hist = Counter(counts.values())
    return dict(hist)


def _l1(a, b):
    return sum(abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys())


class TestExactnessRegime:
    def test_full_sampling_no_dummies_exact(self, randomness_for):
        rng = random.Random(11)
        params = make_params(5)
        for trial in range(20):
            spec = {
                f"val{trial}-{i}".encode(): rng.randint(1, 12) for i in range(8)
            }
            subs = make_submissions(spec, params, randomness_for, seed=trial)
            report = decode_submissions(subs, 5, params)
            assert report.revealed == {v: c for v, c in spec.items() if c >= 5}
            expected_unrevealed = Counter(c for c in spec.values() if c < 5)
            assert report.unrevealed_multiplicities == dict(expected_unrevealed)


class TestUtilityBound:
    def test_monte_carlo_loss_frequency(self):
        # Loss of a W-copy value happens iff fewer than tau copies survive
        # sampling; frequency must respect exp(-(pW - tau)^2 / (2Wp)).
        p_s, tau, trials = 0.105, 20, 100_000
        rng = np.random.default_rng(20240606)
        for w in (250, 300, 400, 600):
            bound = math.exp(-((p_s * w - tau) ** 2) / (2 * w * p_s))
            sampled = rng.binomial(w, p_s, size=trials)
            freq = float((sampled < tau).mean())
            assert freq <= bound + 3 * math.sqrt(bound / trials)

    def test_bound_anchor_and_oracle(self):
        # Frozen anchor: W=400 gives bound ~0.0031; the exact binomial tail
        # (independent oracle) sits below it.
        p_s, tau, w = 0.105, 20, 400
        bound = math.exp(-((p_s * w - tau) ** 2) / (2 * w * p_s))
        assert bound == pytest.approx(0.0031451151937886192, rel=1e-12)
        exact_tail = sum(
            math.comb(w, v) * p_s**v * (1 - p_s) ** (w - v) for v in range(tau)
        )
        assert exact_tail == pytest.approx(2.75964e-05, rel=1e-4)
        assert exact_tail <= bound

    def test_loss_iff_sampled_below_threshold(self, randomness_for):
        # End-to-end: the pipeline loses a value exactly when sampling left
        # fewer than tau copies (spot check across full decode runs).
        from nebula.encode import participate

        params = derive_params(
            DpBudget(1.0, 1e-8, 1.0, 1e-8, 1 / 6),
            overrides={"threshold": 4, "tsdlap_shift": 4},
        )
        for trial in range(30):
            rng = random.Random(1000 + trial)
            copies = 12
            kept = sum(participate(0.5, rng) for _ in range(copies))
            value = f"w{trial}".encode()
            subs = make_submissions({value: kept}, params, randomness_for, seed=trial) if kept else []
            report = decode_submissions(subs, 4, params)
            assert (value in report.revealed) == (kept >= 4)


class TestRevealedRatioBound:
    def test_ratio_within_privacy_band(self):
        # (1-p)k/(k-v) stays in [e^-eps, e^eps] exactly up to v = k*q with
        # q = 1 - e^-eps + e^-eps * p; at v = kq the ratio equals e^eps.
        eps = 1.0
        p_s = (1 / 6) * (1 - math.exp(-eps))
        q = 1 - math.exp(-eps) + math.exp(-eps) * p_s
        lo, hi = math.exp(-eps), math.exp(eps)
        for k in np.unique(np.logspace(0.5, 4, 60).astype(int)):
            vmax = min(math.floor(k * q), k - 1)
            for v in range(0, vmax + 1):
                ratio = (1 - p_s) * k / (k - v)
                assert lo - 1e-12 <= ratio <= hi + 1e-9
        # boundary: the ratio at v = kq is exactly e^eps
        k = 1000
        assert (1 - p_s) * k / (k - k * q) == pytest.approx(math.exp(eps))


class TestReportCsv:
    def test_roundtrip(self, randomness_for):
        params = make_params(3)
        subs = make_submissions({b"a": 4, b"b": 1}, params, randomness_for)
        report = decode_submissions(subs, 3, params)
        text = report_to_csv(report)
        back = report_from_csv(text)
        assert back.revealed == report.revealed
        assert back.unrevealed_multiplicities == report.unrevealed_multiplicities
        assert back.malformed_groups == report.malformed_groups

    @given(st.binary(min_size=0, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_value_field_roundtrip(self, raw):
        assert decode_value_field(encode_value_field(raw)) == raw

    def test_ingestion_order_independence(self, randomness_for):
        params = make_params(3)
        subs = make_submissions({b"a": 5, b"b": 2, b"c": 3}, params, randomness_for)
        text1 = report_to_csv(decode_submissions(subs, 3, params))
        shuffled = subs[:]
        random.Random(5).shuffle(shuffled)
        text2 = report_to_csv(decode_submissions(shuffled, 3, params))
        assert text1 == text2
