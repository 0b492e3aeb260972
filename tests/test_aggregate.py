"""Aggregation pipeline tests: grouping, recovery, reports, privacy mechanics."""

import heapq
import itertools
import math
import random
import tracemalloc
from collections import Counter
from urllib.parse import unquote_to_bytes

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from hypothesis import given, settings
from hypothesis import strategies as st

from nebula import aggregate, oprf, sharing, wire
from nebula.aggregate import (
    HistogramReport,
    decode_submissions,
    encode_value_field,
    group_by_tag,
    interpolate_groups,
    recover_group,
    report_from_csv,
    report_to_csv,
    reports_from_csv,
    reports_to_csv,
    select_points,
)
from nebula.encode import (
    CIPHERTEXT_AT,
    SHARE_END,
    TAG_SIZE,
    ZERO_NONCE,
    KeyShare,
    Submission,
    build_submission,
    encryption_key,
    key_from_field_secret,
    parse_randomness,
    submission_end,
)
from nebula.sharing import FIELD_BYTES
from nebula.multidim import read_log
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


def index_of(subs):
    """The ``read_log`` index of a log holding ``subs``."""
    return read_log(b"".join(wire.encode_frame(wire.MSG_SUBMISSION, s.to_bytes()) for s in subs))


def groups_of(data, starts, branches=None):
    """``group_by_tag``'s groups as lists of member positions in ``starts``,
    all under one branch unless ``branches`` are given."""
    branches = np.zeros(len(starts), np.intp) if branches is None else np.asarray(branches)
    order, bounds = group_by_tag(data, np.asarray(starts, dtype=np.int64), branches)
    return [order[lo:hi].tolist() for lo, hi in zip(bounds[:-1], bounds[1:])]


def recover(subs, threshold):
    """Recover the single tag group ``subs`` must form as the decoder does:
    ``select_points`` chooses its points and ``recover_group`` the rest.
    Returns ``(value, key)``, or None for a malformed group."""
    index = index_of(subs)
    [group] = groups_of(index.data, index.starts)
    starts = index.starts[group]
    assert len(starts) >= threshold
    [taken], x, y = select_points(index.data, starts, np.array([0, len(starts)]), threshold)
    if not taken:
        return None
    [secret] = interpolate_groups(x, y)
    first = int(starts[0])
    ciphertext = index.data[first + CIPHERTEXT_AT : submission_end(index.data, first)]
    return recover_group(ciphertext, secret)


def words_of(rows):
    """The (high, low) words, shape (2, groups, τ), of rows of integers."""
    words = [[[v >> 64 for v in row] for row in rows], [[v & (2**64 - 1) for v in row] for row in rows]]
    return np.array(words, np.uint64).reshape(2, len(rows), -1)


def points_of(selected):
    """``select_points``' result as each group's points, or None for a group
    it did not take."""
    taken, x, y = selected
    xs, ys = ((w[0].astype(object) << 64 | w[1].astype(object)).tolist() for w in (x, y))
    chosen = iter(zip(xs, ys))
    return [list(zip(*next(chosen))) if ok else None for ok in taken.tolist()]


class TestGroupByTag:
    def test_empty(self):
        assert groups_of(b"", []) == []

    def test_partition_sizes(self, randomness_for):
        params = make_params(3)
        subs = make_submissions({b"x": 3, b"y": 2}, params, randomness_for)
        index = index_of(subs)
        groups = groups_of(index.data, index.starts)
        assert sorted(len(g) for g in groups) == [2, 3]
        # Every position comes back once, in the group of its own tag.
        assert sorted(i for g in groups for i in g) == list(range(len(subs)))
        assert all(len({subs[i].tag for i in g}) == 1 for g in groups)

    def test_order_insensitive(self, randomness_for):
        params = make_params(3)
        subs = make_submissions({b"x": 4, b"y": 1, b"z": 2}, params, randomness_for)
        shuffled = subs[:]
        random.Random(9).shuffle(shuffled)

        def by_tag(seq):
            index = index_of(seq)
            data = index.data
            return {
                data[g[0] : g[0] + 32]: sorted(data[s : submission_end(data, s)] for s in g)
                for g in (index.starts[m].tolist() for m in groups_of(data, index.starts))
            }

        assert by_tag(subs) == by_tag(shuffled)

    def test_branch_is_the_most_significant_key(self, randomness_for):
        # The same tags under two branches form one group per (branch, tag).
        params = make_params(3)
        subs = make_submissions({b"x": 3, b"y": 2}, params, randomness_for)
        index = index_of(subs + subs)
        branches = [0] * len(subs) + [1] * len(subs)
        groups = groups_of(index.data, index.starts, branches)
        assert sorted(len(g) for g in groups) == [2, 2, 3, 3]
        assert all(len({branches[i] for i in g}) == 1 for g in groups)
        assert [branches[g[0]] for g in groups] == [0, 0, 1, 1]


class TestRecoverGroup:
    def test_exactly_threshold_recovers(self, randomness_for):
        params = make_params(5)
        subs = make_submissions({b"value": 5}, params, randomness_for)
        value, key = recover(subs, 5)
        assert value == b"value"
        # The key that wraps the value's deeper layers.
        assert key == encryption_key(parse_randomness(randomness_for(b"value")).r1)
        report = decode_submissions(subs, 5, params)
        assert report.revealed == {(b"value",): 5}
        assert report.malformed_groups == 0

    def test_below_threshold_unrevealed(self, randomness_for):
        # A group under the threshold is never recovered: only its size counts.
        params = make_params(5)
        subs = make_submissions({b"value": 4}, params, randomness_for)
        report = decode_submissions(subs, 5, params)
        assert report.revealed == {}
        assert report.unrevealed_multiplicities == {4: 1}
        assert report.malformed_groups == 0

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
        assert recover(subs, 5) is None
        report = decode_submissions(subs, 5, make_params(5))
        assert report.revealed == {}
        assert report.malformed_groups == 1

    def test_mixed_ciphertexts_malformed(self, randomness_for):
        params = make_params(3)
        good = make_submissions({b"value": 3}, params, randomness_for)
        evil = Submission(
            ciphertext=good[0].ciphertext + b"x",
            share=good[0].share,
            tag=good[0].tag,
        )
        assert recover(good + [evil], 3) is None
        # At the threshold, one foreign ciphertext leaves the group untaken.
        report = decode_submissions(good[:2] + [evil], 3, params)
        assert report.revealed == {}
        assert report.malformed_groups == 1

    @pytest.mark.parametrize("honest_header", [True, False])
    def test_header_must_rederive_the_secret(self, honest_header):
        # Shares of a polynomial with constant term s, and an AEAD under s's
        # key that opens; only the key-seed header r1 inside it varies.
        rng = random.Random(7)
        r1 = rng.randbytes(32)
        secret = sharing.secret_from_key_seed(r1)
        header = r1 if honest_header else rng.randbytes(32)
        assert (sharing.secret_from_key_seed(header) == secret) == honest_header
        ct = ChaCha20Poly1305(key_from_field_secret(secret)).encrypt(
            ZERO_NONCE, header + b"forged", None
        )
        coeffs = [secret, sharing.random_nonzero_element(rng), sharing.random_nonzero_element(rng)]
        tag = rng.randbytes(32)
        subs = []
        for _ in range(3):
            x = sharing.random_nonzero_element(rng)
            share = KeyShare(x, sharing.polynomial_eval(coeffs, x))
            subs.append(Submission(ciphertext=ct, share=share, tag=tag))
        opened = recover(subs, 3)
        assert (opened is not None) == honest_header
        report = decode_submissions(subs, 3, make_params(3))
        assert report.revealed == ({(b"forged",): 3} if honest_header else {})
        assert report.malformed_groups == (0 if honest_header else 1)

    def test_surplus_members_all_counted(self, randomness_for):
        params = make_params(4)
        subs = make_submissions({b"value": 9}, params, randomness_for)
        value, _ = recover(subs, 4)
        assert value == b"value"
        report = decode_submissions(subs, 4, params)
        assert report.revealed == {(b"value",): 9}
        assert report.malformed_groups == 0


def select_shares(data, starts, threshold):
    """The reference share selection, as recovery once ran it per group: the
    first ``threshold`` shares with pairwise-distinct x in (x, y) order, or
    all distinct x if fewer.

    Shares are compared as their serialized x||y bytes, whose order is the
    (x, y) order as both coordinates are fixed-width big-endian.  Only the
    ``threshold`` smallest are taken, unless a duplicate x among them means
    the rest must be looked at too.
    """
    for k in (threshold, len(starts)):
        chosen = []
        for share in heapq.nsmallest(k, (data[s + TAG_SIZE : s + SHARE_END] for s in starts)):
            # Sorted, so a repeated x follows its first (smallest-y) share.
            if not chosen or share[:FIELD_BYTES] != chosen[-1][:FIELD_BYTES]:
                chosen.append(share)
                if len(chosen) == threshold:
                    break
        if len(chosen) == threshold:
            break
    return [
        (int.from_bytes(share[:FIELD_BYTES], "big"), int.from_bytes(share[FIELD_BYTES:], "big"))
        for share in chosen
    ]


def reference_points(data, starts, threshold):
    """What ``select_points`` must give one group: None if a member's
    length-prefixed ciphertext differs from the first member's over its
    width, or if ``select_shares`` finds fewer than ``threshold`` distinct x;
    else ``select_shares``' points."""
    first = data[starts[0] + SHARE_END : submission_end(data, starts[0])]
    if any(data[s + SHARE_END : s + SHARE_END + len(first)] != first for s in starts):
        return None
    points = select_shares(data, starts, threshold)
    return points if len(points) == threshold else None


def check_share_selection(shares, threshold):
    """``select_shares`` against today's rule, written out as the oracle:
    sort every share by (x, y), then take the first ``threshold`` distinct x;
    ``select_points`` gives the same points, or None with too few."""
    subs = [Submission(ciphertext=b"ct", share=KeyShare(x, y), tag=b"t" * 32) for x, y in shares]
    index = index_of(subs)
    expected, seen = [], set()
    for x, y in sorted(shares):
        if x not in seen:
            seen.add(x)
            expected.append((x, y))
            if len(expected) == threshold:
                break
    assert select_shares(index.data, index.starts, threshold) == expected
    bounds = np.array([0, len(shares)])
    [points] = points_of(select_points(index.data, index.starts, bounds, threshold))
    assert points == (expected if len(expected) == threshold else None)
    if len(expected) < threshold:
        # Too few distinct x: the (consistent) group is malformed.
        report = decode_submissions(index, threshold, make_params(threshold))
        assert report.revealed == {}
        assert report.malformed_groups == 1


# x values whose high words agree in all but the lowest bits, so they tie in
# the top bits of x that ``select_points`` sorts on and its exact (x, y)
# order settles them.
_TIED_HIGH = 0x1234_5678_9ABC_DEF0
TIED_XS = [(_TIED_HIGH ^ flip) << 64 | low for flip in (0, 1, 2) for low in (5, 9)]


@st.composite
def share_groups(draw):
    """Groups of submissions for one ``select_points`` call: each member a
    (ciphertext, x, y), with duplicate x, x tied in the sort key's high
    bits, foreign ciphertexts of the group's width and of another, and
    groups with fewer distinct x than the threshold."""
    threshold = draw(st.integers(1, 5))
    xs = st.integers(1, 4) | st.sampled_from(TIED_XS) | st.integers(1, sharing.FIELD_PRIME - 1)
    ys = st.integers(0, 2) | st.integers(0, sharing.FIELD_PRIME - 1)
    groups = []
    for g in range(draw(st.integers(1, 8))):
        own = b"ct-%d" % (g % 3)  # groups 0 and 3 carry one ciphertext
        cts = st.just(own) | st.sampled_from([b"ct-%d" % ((g + 1) % 3), own + b"!", b"c"])
        foreign = draw(st.booleans())
        members = draw(
            st.lists(
                st.tuples(cts if foreign else st.just(own), xs, ys),
                min_size=threshold,
                max_size=3 * threshold + 2,
            )
        )
        members[0] = (own,) + members[0][1:]
        groups.append(members)
    return threshold, groups


class TestSelectShares:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_first_distinct_x_in_share_order(self, data):
        threshold = data.draw(st.integers(1, 6))
        # Small coordinates make duplicate x and duplicate shares common.
        xs = st.integers(1, 4) | st.integers(1, sharing.FIELD_PRIME - 1)
        ys = st.integers(0, 2) | st.integers(0, sharing.FIELD_PRIME - 1)
        shares = data.draw(st.lists(st.tuples(xs, ys), min_size=1, max_size=3 * threshold))
        copies = data.draw(st.lists(st.sampled_from(shares), max_size=threshold))
        group = data.draw(st.permutations(shares + copies))
        if len(group) < threshold:
            group += [group[0]] * (threshold - len(group))
        check_share_selection(group, threshold)

    @pytest.mark.parametrize(
        "shares, threshold",
        [
            ([(3, 1), (1, 9), (2, 5)], 3),  # exactly threshold members
            ([(2, 7), (1, 4), (2, 1), (1, 2), (3, 3)], 3),  # duplicate x, smaller y first
            ([(5, 5), (5, 5), (4, 4), (4, 4), (6, 6)], 3),  # duplicate whole shares
            ([(1, 1), (1, 2), (2, 1), (2, 2)], 3),  # fewer distinct x than threshold
            ([(2**127, 0), (1, 2**127), (2**127, 1)], 2),  # byte order is integer order
            ([(x, 7 - i) for i, x in enumerate(TIED_XS)], 4),  # x tied in the key's high bits
        ],
    )
    def test_cases(self, shares, threshold):
        check_share_selection(shares, threshold)

    @given(case=share_groups(), batch=st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_batches_of_groups_match_the_reference(self, case, batch):
        """Many groups in one call, cut into batches as small as one member so
        groups fall on both sides of a batch boundary: each group's points,
        or None, are the reference's."""
        threshold, groups = case
        subs = [
            Submission(ciphertext=ct, share=KeyShare(x, y), tag=b"t" * 32)
            for members in groups
            for ct, x, y in members
        ]
        index = index_of(subs)
        bounds = np.cumsum([0] + [len(members) for members in groups])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(aggregate, "BATCH_MEMBERS", batch)
            points = points_of(select_points(index.data, index.starts, bounds, threshold))
        assert points == [
            reference_points(index.data, index.starts[lo:hi].tolist(), threshold)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]


# x at the field's edges: the limb and word boundaries and the largest element.
FIELD_EDGES = (1, 2**64 - 1, 2**64, 2**127, sharing.FIELD_PRIME - 1)


def random_groups(rng, groups, tau, edges):
    """``groups`` groups of τ points: pairwise-distinct nonzero x, the first
    ``edges`` of them drawn from FIELD_EDGES, and y of 0, an edge or any
    element, so whole groups of zero y occur at small τ."""
    rows_x, rows_y = [], []
    for _ in range(groups):
        xs = rng.sample(FIELD_EDGES, min(edges, tau))
        while len(xs) < tau:
            x = rng.randrange(1, sharing.FIELD_PRIME)
            if x not in xs:
                xs.append(x)
        rng.shuffle(xs)
        rows_x.append(xs)
        rows_y.append([rng.choice((0, rng.choice(FIELD_EDGES), rng.randrange(sharing.FIELD_PRIME)))
                       for _ in range(tau)])
    return rows_x, rows_y


class TestInterpolateGroups:
    @given(
        tau=st.integers(1, 24),
        count=st.sampled_from(("one", "pass - 1", "pass", "pass + 1")),
        edges=st.integers(0, len(FIELD_EDGES)),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_scalar_reference(self, tau, count, edges, seed):
        """Group counts on both sides of a pass boundary give each group the
        secret ``sharing.interpolate_at_zero`` finds from its points."""
        per_pass = max(1, aggregate.PASS_ENTRIES // tau**2)
        groups = {"one": 1, "pass - 1": max(1, per_pass - 1), "pass": per_pass,
                  "pass + 1": per_pass + 1}[count]
        xs, ys = random_groups(random.Random(seed), groups, tau, edges)
        assert interpolate_groups(words_of(xs), words_of(ys)) == [
            sharing.interpolate_at_zero(list(zip(x, y))) for x, y in zip(xs, ys)
        ]

    @pytest.mark.parametrize("y", [0, 1, 2**64, sharing.FIELD_PRIME - 1])
    def test_constant_polynomial(self, y):
        # Every x at an edge, one y throughout: the polynomial is constant.
        xs = [list(FIELD_EDGES), list(reversed(FIELD_EDGES))]
        ys = [[y] * len(FIELD_EDGES)] * 2
        assert interpolate_groups(words_of(xs), words_of(ys)) == [y, y]

    def test_memory_is_bounded_by_the_pass(self):
        """A layer of 2,000 taken groups at τ = 20 is interpolated in passes
        of 25 groups, whose transient stays near 1.7 MB; as one pass it
        would take about 75 times that."""
        tau, groups = 20, 2000
        xs, ys = random_groups(random.Random(11), groups, tau, 2)
        x, y = words_of(xs), words_of(ys)
        tracemalloc.start()
        try:
            secrets = interpolate_groups(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000
        assert secrets[::97] == [
            sharing.interpolate_at_zero(list(zip(xs[g], ys[g]))) for g in range(0, groups, 97)
        ]


class TestBuildReport:
    def test_threshold_rule(self, randomness_for):
        params = make_params(20)
        subs = make_submissions({b"a": 25, b"b": 5}, params, randomness_for)
        report = decode_submissions(subs, 20, params)
        assert report.revealed == {(b"a",): 25}
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

    def test_no_group_is_taken(self, randomness_for):
        # Both groups reach the threshold, but one carries a foreign
        # ciphertext and the other too few distinct x: the layer has no
        # group to interpolate.
        params = make_params(3)
        a, b = (make_submissions({v: 3}, params, randomness_for) for v in (b"a", b"b"))
        a[1] = Submission(ciphertext=a[1].ciphertext + b"!", share=a[1].share, tag=a[1].tag)
        b[1] = Submission(ciphertext=b[1].ciphertext, share=b[0].share, tag=b[1].tag)
        report = decode_submissions(a + b, 3, params)
        assert report.revealed == {}
        assert report.malformed_groups == 2

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
            assert report.revealed == {(v,): c for v, c in spec.items() if c >= 5}
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
            assert ((value,) in report.revealed) == (kept >= 4)


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
        assert unquote_to_bytes(encode_value_field(raw)) == raw

    @pytest.mark.parametrize("layered", [False, True])
    def test_grammar_read_from_header(self, layered):
        # Values that read like the grammar's own markers; the reader takes
        # plain or layered from the first line alone.
        marker_like = {(b"param",): 5, (b"section",): 6, (b"layer",): 7, (b"value",): 8}
        reports = [
            HistogramReport(
                revealed={**marker_like, (b"x",): 3},
                unrevealed_multiplicities={1: 4, 2: 1},
                malformed_groups=2,
                params_used=make_params(3),
            )
        ]
        if layered:
            reports.append(
                HistogramReport(
                    revealed={(b"layer", b"param"): 5},
                    unrevealed_multiplicities={2: 1},
                    dummy_noise_applied=False,
                )
            )
        text = reports_to_csv(reports, layered)
        assert text.startswith("nebula-layered-report,v1\n" if layered else "nebula-report,v1\n")
        back = reports_from_csv(text)
        assert [
            (r.revealed, r.unrevealed_multiplicities, r.malformed_groups, r.dummy_noise_applied)
            for r in back
        ] == [
            (r.revealed, r.unrevealed_multiplicities, r.malformed_groups, r.dummy_noise_applied)
            for r in reports
        ]
        assert report_from_csv(text).revealed == reports[0].revealed

    @pytest.mark.parametrize("first", ["", "value,count", "nebula-report,v2", "section,revealed"])
    def test_unknown_header_rejected(self, first):
        with pytest.raises(ValueError):
            reports_from_csv(first + "\nsection,revealed\nvalue,count\na,3\n")

    def test_ingestion_order_independence(self, randomness_for):
        params = make_params(3)
        subs = make_submissions({b"a": 5, b"b": 2, b"c": 3}, params, randomness_for)
        text1 = report_to_csv(decode_submissions(subs, 3, params))
        shuffled = subs[:]
        random.Random(5).shuffle(shuffled)
        text2 = report_to_csv(decode_submissions(shuffled, 3, params))
        assert text1 == text2
