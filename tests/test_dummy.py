"""Dummy-batch generation tests: counts, marginals, invisibility to decode."""

import math
import random

import pytest

from nebula import dummy
from nebula.aggregate import decode_submissions
from nebula.params import DpBudget, derive_params, tsdlap_pmf


def make_params(threshold, shift, scale=2.0):
    return derive_params(
        DpBudget(1.0, 1e-8, 1.0, 1e-8, 1 / 6),
        overrides={"threshold": threshold, "tsdlap_shift": shift, "tsdlap_scale": scale},
    )


class TestCreateDummyBatch:
    def test_threshold_two_only_singletons(self):
        params = make_params(threshold=2, shift=6)
        batch = dummy.create_dummy_batch(params, random.Random(1))
        assert all(g.multiplicity == 1 for g in batch.groups)

    def test_no_group_reaches_threshold(self):
        params = make_params(threshold=6, shift=5)
        batch = dummy.create_dummy_batch(params, random.Random(2))
        assert all(g.multiplicity < params.threshold for g in batch.groups)

    def test_tags_unique_within_batch(self):
        params = make_params(threshold=8, shift=6)
        batch = dummy.create_dummy_batch(params, random.Random(3))
        tags = [g.tag for g in batch.groups]
        assert len(tags) == len(set(tags))

    def test_submission_count_matches_groups(self):
        params = make_params(threshold=7, shift=5)
        batch = dummy.create_dummy_batch(params, random.Random(4))
        assert len(batch.submissions) == sum(g.multiplicity for g in batch.groups)

    def test_dummy_only_decode_reveals_nothing(self):
        params = make_params(threshold=4, shift=5)
        batch = dummy.create_dummy_batch(params, random.Random(5))
        report = decode_submissions(batch.submissions, params.threshold, params)
        assert report.revealed == {}
        assert report.malformed_groups == 0
        assert all(m < params.threshold for m in report.unrevealed_multiplicities)

    def test_rejects_degenerate_threshold(self):
        params = make_params(threshold=1, shift=5)
        with pytest.raises(ValueError):
            dummy.create_dummy_batch(params, random.Random(6))


class TestBatchSizeStatistics:
    def test_expected_size_formula(self):
        params = make_params(threshold=20, shift=15)
        assert dummy.expected_batch_size(params) == 2850
        assert dummy.max_batch_size(params) == 5700

    def test_mean_over_sampled_sizes(self):
        # E[total] = shift * tau*(tau-1)/2; the cheap size sampler draws the
        # same noise counts as the real generator.
        params = make_params(threshold=20, shift=15)
        rng = random.Random(20240404)
        n = 10_000
        mean = sum(dummy.sample_batch_size(params, rng) for _ in range(n)) / n
        assert abs(mean - 2850) / 2850 <= 0.02

    def test_materialized_batches_agree_with_size_sampler(self):
        params = make_params(threshold=20, shift=15)
        rng = random.Random(7)
        sizes = [
            len(dummy.create_dummy_batch(params, rng).submissions)
            for _ in range(60)
        ]
        mean = sum(sizes) / len(sizes)
        # sd of one batch total is ~139; 60 batches give se ~18
        assert abs(mean - 2850) <= 5 * 18
        assert all(s <= 5700 for s in sizes)

    def test_max_never_exceeded(self):
        params = make_params(threshold=20, shift=15)
        rng = random.Random(8)
        assert all(
            dummy.sample_batch_size(params, rng) <= 5700 for _ in range(100_000)
        )


class TestMultiplicityMarginal:
    def test_group_counts_follow_noise_distribution(self):
        # For each multiplicity the number of dummy groups is one truncated
        # Laplace draw; Pearson chi-square over 10^4 batches per multiplicity.
        params = make_params(threshold=4, shift=4, scale=2.0)
        rng = random.Random(20240505)
        n_batches = 10_000
        support = 2 * params.tsdlap_shift + 1
        counts = {m: [0] * support for m in range(1, params.threshold)}
        for _ in range(n_batches):
            batch = dummy.create_dummy_batch(params, rng)
            per_mult = {m: 0 for m in range(1, params.threshold)}
            for g in batch.groups:
                per_mult[g.multiplicity] += 1
            for m, c in per_mult.items():
                counts[m][c] += 1
        # chi-square critical value for df=8 at the 1e-3 level
        critical = 26.12
        for m in range(1, params.threshold):
            stat = 0.0
            for c in range(support):
                expected = n_batches * tsdlap_pmf(
                    c, params.tsdlap_scale, params.tsdlap_shift
                )
                stat += (counts[m][c] - expected) ** 2 / expected
            assert stat < critical, f"multiplicity {m}: chi2={stat:.1f}"


class TestIsDummyTag:
    def test_membership(self):
        params = make_params(threshold=5, shift=5)
        batch = dummy.create_dummy_batch(params, random.Random(9))
        assert batch.groups[0].tag in {g.tag for g in batch.groups}

    def test_fresh_tag_not_member(self):
        params = make_params(threshold=5, shift=5)
        batch = dummy.create_dummy_batch(params, random.Random(10))
        assert random.Random(11).randbytes(32) not in {g.tag for g in batch.groups}

    @pytest.mark.slow
    def test_real_tags_never_collide(self, randomness_for):
        from nebula.encode import parse_randomness

        params = make_params(threshold=5, shift=5)
        batch = dummy.create_dummy_batch(params, random.Random(12))
        real_tags = {
            parse_randomness(randomness_for(f"v{i}".encode())).r3
            for i in range(10_000)
        }
        assert not real_tags & {g.tag for g in batch.groups}


class TestRevealedUntouched:
    def test_injection_changes_only_unrevealed(self):
        from nebula import oprf
        from nebula.encode import build_submission

        params = make_params(threshold=3, shift=4)
        kp = oprf.keygen(b"\x14" * 32)
        rng = random.Random(13)
        subs = []
        for value, copies in ((b"a", 5), (b"b", 3), (b"c", 2)):
            r = oprf.evaluate_directly(value, kp)
            subs.extend(build_submission(value, r, params, rng) for _ in range(copies))
        plain = decode_submissions(subs, params.threshold, params)
        batch = dummy.create_dummy_batch(params, random.Random(14))
        noised = decode_submissions(
            subs + list(batch.submissions), params.threshold, params
        )
        assert noised.revealed == plain.revealed == {b"a": 5, b"b": 3}
        assert noised.unrevealed_multiplicities != plain.unrevealed_multiplicities
