"""Parameter derivation and truncated-noise distribution tests."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nebula.params import (
    DpBudget,
    DpParams,
    ParameterError,
    alpha_constant,
    derive_noise_shift,
    derive_params,
    derive_threshold,
    params_from_config,
    params_to_config,
    sampling_rate,
    tsdlap_pmf,
    tsdlap_sample,
)


def budget(eps=1.0, delta=1e-8, alpha=1 / 6):
    return DpBudget(eps, delta, eps, delta, alpha)


class TestDeriveParams:
    def test_reference_parameters(self):
        # eps=1, alpha=1/6, delta=1e-8 is the canonical instantiation.
        params = derive_params(budget())
        assert 0.1053 <= params.sampling_rate <= 0.1054
        assert params.threshold == 20

    def test_sampling_rate_limit(self):
        # alpha=1 and a huge budget push the rate toward (and only toward) 1.
        assert sampling_rate(50.0, 1.0) == pytest.approx(1.0)
        assert sampling_rate(1.0, 1.0) == pytest.approx(1 - math.exp(-1))
        p = derive_params(budget(eps=50.0, alpha=1.0), overrides={"threshold": 1})
        assert p.sampling_rate <= 1.0

    def test_shift_formula_natural_log(self):
        # ceil(2 + 2*ln(2e8)) = 41 for eps=delta defaults.
        assert derive_noise_shift(1.0, 1e-8) == 41
        params = derive_params(budget())
        assert params.tsdlap_shift == 41
        assert params.tsdlap_scale == 2.0

    def test_shift_override_recorded(self):
        params = derive_params(budget(), overrides={"tsdlap_shift": 15})
        assert params.tsdlap_shift == 15
        assert params.overridden == ("tsdlap_shift",)

    @pytest.mark.parametrize("field", ["threshold", "tsdlap_shift"])
    def test_fractional_integer_override_refused(self, field):
        # Truncating a pinned threshold of 2.9 to 2 would lower it silently.
        with pytest.raises(ParameterError, match=f"^{field} = 2.9 is not an integer$"):
            derive_params(budget(), overrides={field: 2.9})
        assert getattr(derive_params(budget(), overrides={field: 5.0}), field) == 5

    def test_threshold_is_ceiling(self):
        # Real-valued formula gives ~19.7; the ceiling is conservative.
        raw = math.log(1e8) / alpha_constant(1 / 6)
        assert 19 < raw < 20
        assert derive_threshold(1e-8, 1 / 6) == 20

    def test_bound_directions(self):
        # Both directions of the revealed-path proof hold for derived values.
        for eps, delta, alpha in [(0.5, 1e-6, 0.1), (1.0, 1e-8, 1 / 6), (2.0, 1e-10, 0.3)]:
            params = derive_params(DpBudget(eps, delta, eps, delta, alpha))
            assert params.sampling_rate <= 1 - math.exp(-eps)
            assert params.threshold >= math.log(1 / delta) / alpha_constant(alpha)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ParameterError):
            DpBudget(-1.0, 1e-8, 1.0, 1e-8, 0.5)
        with pytest.raises(ParameterError):
            DpBudget(1.0, 0.0, 1.0, 1e-8, 0.5)
        with pytest.raises(ParameterError):
            DpBudget(1.0, 1e-8, 1.0, 1e-8, 1.5)
        with pytest.raises(ParameterError):
            DpBudget(1.0, 1e-8, 2.0, 1e-8, 0.5)  # unrevealed eps too big
        with pytest.raises(ParameterError):
            derive_params(budget(alpha=0.9))  # rate constant non-positive

    def test_config_roundtrip(self):
        params = derive_params(budget(), overrides={"tsdlap_shift": 15})
        text = params_to_config(params)
        back = params_from_config(text)
        assert back == params

    def test_config_rejects_garbage(self):
        with pytest.raises(ParameterError):
            params_from_config("this is not a config")
        with pytest.raises(ParameterError):
            params_from_config("eps_revealed = 1.0\n")  # missing fields

    @pytest.mark.parametrize(
        "line, bad", [("threshold = 5\n", "threshold = 5.0\n"), ("eps_revealed = 1.0\n", "eps_revealed = one\n")]
    )
    def test_config_bad_value_names_its_field(self, line, bad):
        text = params_to_config(derive_params(budget(), overrides={"threshold": 5}))
        assert line in text
        with pytest.raises(ParameterError, match=f"^{bad.split()[0]} = "):
            params_from_config(text.replace(line, bad))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("threshold = 20\n", "threshold = 20\nthreshold = 2\n", "repeated key 'threshold'"),
            ("threshold = 20\n", "threshold = 20\ntreshold = 50\n", "unknown key 'treshold'"),
            ("overridden = \n", "overridden = bogus\n", r"overridden names unknown fields: \['bogus'\]"),
        ],
        ids=["repeated", "unknown", "unknown-overridden"],
    )
    def test_config_refuses_what_it_would_ignore(self, old, new, message):
        text = params_to_config(derive_params(budget()))
        assert old in text
        with pytest.raises(ParameterError, match=message):
            params_from_config(text.replace(old, new))


def _params(**pinned) -> DpParams:
    """Mechanism parameters that keep every rule, but those ``pinned``."""
    fields = {"sampling_rate": 0.5, "threshold": 5, "tsdlap_scale": 1.0, "tsdlap_shift": 3}
    return DpParams(budget=budget(), **(fields | pinned))


# Each refusal of params.py that no other test words, and its message.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DpBudget(1.0, 1.0, 1.0, 1e-8, 0.5), "delta_revealed must lie in (0, 1)"),
        (lambda: DpBudget(1.0, 1e-8, 1.0, 0.0, 0.5), "delta_unrevealed must lie in (0, 1)"),
        (lambda: DpBudget(1.0, 1e-8, 1.0, 1e-8, 0.0), "alpha must lie in (0, 1]"),
        (lambda: DpBudget(1.0, 1e-8, 1.0, 1e-6, 0.5), "delta_unrevealed must not exceed delta_revealed"),
        (lambda: _params(sampling_rate=1.5), "sampling_rate must lie in (0, 1]"),
        (lambda: _params(tsdlap_scale=0.0), "tsdlap_scale must be positive"),
        (lambda: _params(tsdlap_shift=-1), "tsdlap_shift must be a non-negative integer"),
        (lambda: derive_params(budget(), overrides={"threshold": "five"}),
         "threshold = 'five' is not a valid int"),
        (lambda: derive_params(budget(), overrides={"treshold": 5}), "unknown override fields: ['treshold']"),
        (lambda: tsdlap_pmf(0, 0.0, 15), "scale must be positive"),
        (lambda: tsdlap_sample(random.Random(0), 1.0, -1), "shift must be non-negative"),
        (lambda: params_from_config("# params\n\nthreshold 20\n"), "config line 3 is not 'key = value'"),
    ],
    ids=[
        "delta_revealed", "delta_unrevealed", "alpha", "delta_order", "sampling_rate",
        "tsdlap_scale", "tsdlap_shift", "not_valid", "unknown_override", "scale", "shift",
        "config_line",
    ],
)
def test_refusal_words(call, message):
    with pytest.raises(ParameterError) as raised:
        call()
    assert str(raised.value) == message


class TestBinomialRatio:
    def test_ratio_identity_exact(self):
        # Ratio of the two sampling likelihoods equals (1-p)k/(k-v), checked
        # with exact rational arithmetic for every k <= 30.
        p = Fraction(105, 1000)
        for k in range(1, 31):
            for v in range(0, k):
                num = Fraction(math.comb(k, v)) * (1 - p) ** (k - v) * p**v
                den = Fraction(math.comb(k - 1, v)) * (1 - p) ** (k - 1 - v) * p**v
                assert num / den == (1 - p) * k / Fraction(k - v)


class TestTsdlapPmf:
    def test_center_mass(self):
        lam, t = 2.0, 15
        a = 1 + 2 * sum(math.exp(-c / lam) for c in range(1, t + 1))
        assert tsdlap_pmf(t, lam, t) == pytest.approx(1 / a)

    def test_outside_support_zero(self):
        assert tsdlap_pmf(31, 2.0, 15) == 0.0
        assert tsdlap_pmf(-1, 2.0, 15) == 0.0

    def test_normalization(self):
        total = sum(tsdlap_pmf(c, 2.0, 15) for c in range(0, 31))
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(
        lam=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        t=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_about_shift(self, lam, t):
        for d in range(0, t + 1):
            assert tsdlap_pmf(t - d, lam, t) == pytest.approx(tsdlap_pmf(t + d, lam, t))

    def test_invalid_scale(self):
        with pytest.raises(ParameterError):
            tsdlap_pmf(0, -1.0, 15)
        with pytest.raises(ParameterError):
            tsdlap_sample(random.Random(0), 0.0, 15)


class TestTsdlapSampler:
    def test_support(self):
        rng = random.Random(1)
        for _ in range(2000):
            assert 0 <= tsdlap_sample(rng, 2.0, 15) <= 30

    def test_determinism(self):
        rng1, rng2 = random.Random(123), random.Random(123)
        s1 = [tsdlap_sample(rng1, 2.0, 15) for _ in range(500)]
        s2 = [tsdlap_sample(rng2, 2.0, 15) for _ in range(500)]
        assert s1 == s2

    def test_empirical_mean_and_tv(self):
        # Exact pmf is the oracle: mean is t by symmetry (sd 2.776), and the
        # empirical distribution must sit within total variation 0.01.
        rng = random.Random(20240202)
        n = 10**6
        counts = [0] * 31
        total = 0
        for _ in range(n):
            c = tsdlap_sample(rng, 2.0, 15)
            counts[c] += 1
            total += c
        mean = total / n
        se = 2.7764140201732284 / math.sqrt(n)
        assert abs(mean - 15.0) <= 3 * se
        tv = 0.5 * sum(
            abs(counts[c] / n - tsdlap_pmf(c, 2.0, 15)) for c in range(31)
        )
        assert tv <= 0.01
