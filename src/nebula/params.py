"""Differential-privacy parameter derivation and the truncated noise distribution.

The protocol spends its privacy budget on two independent paths:

* the *revealed* path (values whose submission count meets the threshold),
  protected by Bernoulli client sampling plus threshold pruning, and
* the *unrevealed* path (the multiplicity histogram of sub-threshold tags),
  protected by injected dummy-data groups.

Given a budget (eps_revealed, delta_revealed, eps_unrevealed, delta_unrevealed)
and a sampling-rate knob ``alpha``, the derived mechanism parameters are

    sampling_rate = alpha * (1 - exp(-eps_revealed))
    threshold     = ceil( ln(1/delta_revealed) / C_alpha ),
                    C_alpha = ln(1/alpha) - 1/(1+alpha)
    tsdlap_scale  = SENSITIVITY / eps_unrevealed
    tsdlap_shift  = ceil( SENSITIVITY + tsdlap_scale * ln(2/delta_unrevealed) )

The overall guarantee is the max over the two paths, never the sum.

Removing one client's record moves one unit of mass between two adjacent
entries of the sub-threshold multiplicity histogram, so the sensitivity of
that histogram is 2.

The dummy-group counts are drawn from the truncated shifted discrete Laplace
distribution on {0, ..., 2*shift}:

    pmf(c) = exp(-|c - shift| / scale) / A,
    A = 1 + 2 * sum_{c=1..shift} exp(-c / scale).

``tsdlap_shift`` accepts an explicit override: the ceiling formula above uses
the natural logarithm and yields 41 for (eps=1, delta=1e-8), while deployments
may prefer a hand-picked smaller shift (the reference experiments in this repo
use 15).  Overrides are recorded so reports can distinguish derived from
pinned values.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Mapping, Optional

# L1 sensitivity of the sub-threshold multiplicity histogram under removal of
# one record (two adjacent entries change by one each).
SENSITIVITY = 2


class ParameterError(ValueError):
    """A privacy parameter is outside its valid domain."""


@dataclass(frozen=True)
class DpBudget:
    """Privacy budget split across the revealed and unrevealed paths.

    Requires eps_unrevealed <= eps_revealed and delta_unrevealed <=
    delta_revealed so the overall guarantee, the max over the two paths, is
    the revealed path's.
    """

    eps_revealed: float
    delta_revealed: float
    eps_unrevealed: float
    delta_unrevealed: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("eps_revealed", "eps_unrevealed"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive")
        for name in ("delta_revealed", "delta_unrevealed"):
            d = getattr(self, name)
            if not 0 < d < 1:
                raise ParameterError(f"{name} must lie in (0, 1)")
        if not 0 < self.alpha <= 1:
            raise ParameterError("alpha must lie in (0, 1]")
        if self.eps_unrevealed > self.eps_revealed:
            raise ParameterError("eps_unrevealed must not exceed eps_revealed")
        if self.delta_unrevealed > self.delta_revealed:
            raise ParameterError("delta_unrevealed must not exceed delta_revealed")


# Each derivation reads fields of a DpBudget, which has checked their ranges.


def sampling_rate(eps_revealed: float, alpha: float) -> float:
    """Bernoulli participation probability for the revealed-path guarantee."""
    return alpha * (1.0 - math.exp(-eps_revealed))


def alpha_constant(alpha: float) -> float:
    """Rate constant C_alpha = ln(1/alpha) - 1/(1+alpha) used by the threshold."""
    return math.log(1.0 / alpha) - 1.0 / (1.0 + alpha)


def derive_threshold(delta_revealed: float, alpha: float) -> int:
    """Smallest integer threshold meeting the delta bound for this alpha.

    The real-valued formula ln(1/delta)/C_alpha is rounded up; a larger
    threshold only suppresses more, so the ceiling is privacy-conservative.
    """
    c = alpha_constant(alpha)
    if c <= 0:
        # ln(1/a) = 1/(1+a) around a ~ 0.52; beyond that the threshold
        # formula has no positive solution.
        raise ParameterError(
            f"alpha={alpha} gives non-positive rate constant {c}; "
            "choose a smaller alpha or override the threshold"
        )
    return math.ceil(math.log(1.0 / delta_revealed) / c)


def derive_noise_scale(eps_unrevealed: float) -> float:
    return SENSITIVITY / eps_unrevealed


def derive_noise_shift(eps_unrevealed: float, delta_unrevealed: float) -> int:
    scale = derive_noise_scale(eps_unrevealed)
    return math.ceil(SENSITIVITY + scale * math.log(2.0 / delta_unrevealed))


@dataclass(frozen=True)
class DpParams:
    """Concrete mechanism parameters, with provenance of any overrides."""

    budget: DpBudget
    sampling_rate: float
    threshold: int
    tsdlap_scale: float
    tsdlap_shift: int
    overridden: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Derived rates are < 1 by construction; 1.0 is reachable only via an
        # explicit override (the lossless regime used in tests).
        if not 0 < self.sampling_rate <= 1:
            raise ParameterError("sampling_rate must lie in (0, 1]")
        if not (isinstance(self.threshold, int) and self.threshold >= 1):
            raise ParameterError("threshold must be a positive integer")
        if self.tsdlap_scale <= 0:
            raise ParameterError("tsdlap_scale must be positive")
        if not (isinstance(self.tsdlap_shift, int) and self.tsdlap_shift >= 0):
            raise ParameterError("tsdlap_shift must be a non-negative integer")


# Each mechanism field of ``DpParams``, in config-file order: its type, and
# its derivation from the budget.  A derivation runs only for a field that
# is not pinned, since some budgets (alpha near 1) admit no derived threshold.
_DERIVATIONS: dict[str, tuple[type, Callable[[DpBudget], float | int]]] = {
    "sampling_rate": (float, lambda b: sampling_rate(b.eps_revealed, b.alpha)),
    "threshold": (int, lambda b: derive_threshold(b.delta_revealed, b.alpha)),
    "tsdlap_scale": (float, lambda b: derive_noise_scale(b.eps_unrevealed)),
    "tsdlap_shift": (int, lambda b: derive_noise_shift(b.eps_unrevealed, b.delta_unrevealed)),
}


def _convert(name: str, conv: type, value) -> float | int:
    """``value`` as field ``name``'s type, refusing what the type would change.

    An integer field takes 5, 5.0 or "5", but not 2.9 or "5.0": truncating a
    pinned threshold of 2.9 to 2 would quietly lower the privacy threshold.
    """
    try:
        typed = conv(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{name} = {value!r} is not a valid {conv.__name__}") from None
    if conv is int and not isinstance(value, str) and typed != value:
        raise ParameterError(f"{name} = {value!r} is not an integer")
    return typed


def derive_params(
    budget: DpBudget, overrides: Optional[Mapping[str, float]] = None
) -> DpParams:
    """Derive all mechanism parameters from a budget.

    ``overrides`` may pin any mechanism field to an explicit value; a
    pinned field skips its derivation and is recorded in
    ``DpParams.overridden``.
    """
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(_DERIVATIONS)
    if unknown:
        raise ParameterError(f"unknown override fields: {sorted(unknown)}")
    values = {
        name: _convert(name, conv, overrides[name]) if name in overrides else derive(budget)
        for name, (conv, derive) in _DERIVATIONS.items()
    }
    return DpParams(budget=budget, **values, overridden=tuple(sorted(overrides)))


@lru_cache(maxsize=64)
def _tsdlap_table(scale: float, shift: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(pmf, cdf) over the support {0, ..., 2*shift}."""
    if scale <= 0:
        raise ParameterError("scale must be positive")
    if shift < 0:
        raise ParameterError("shift must be non-negative")
    weights = [math.exp(-abs(c - shift) / scale) for c in range(2 * shift + 1)]
    total = 1.0 + 2.0 * sum(math.exp(-c / scale) for c in range(1, shift + 1))
    pmf = tuple(w / total for w in weights)
    return pmf, (*accumulate(pmf[:-1]), 1.0)


def tsdlap_pmf(c: int, scale: float, shift: int) -> float:
    """Probability of count ``c`` under the truncated shifted discrete Laplace."""
    pmf, _ = _tsdlap_table(scale, shift)
    return pmf[c] if 0 <= c <= 2 * shift else 0.0


def tsdlap_sample(rng: random.Random, scale: float, shift: int) -> int:
    """Draw one count via inverse CDF over the finite support.

    Exact (no rejection) and deterministic given the rng state; the caller
    owns exclusive access to ``rng``.
    """
    _, cdf = _tsdlap_table(scale, shift)
    return bisect.bisect_right(cdf, rng.random())


# --- flat key/value config (consumed by the CLI and daemons) ---------------

# Every budget field is a float; the mechanism fields carry their own type.
_CONFIG_FIELDS = {f.name: float for f in fields(DpBudget)} | {
    name: conv for name, (conv, _) in _DERIVATIONS.items()
}


def config_items(params: DpParams) -> list[tuple[str, str]]:
    """``(key, text)`` of every config field in file order, then ``overridden``."""
    items = []
    for name in _CONFIG_FIELDS:
        owner = params.budget if hasattr(params.budget, name) else params
        items.append((name, repr(getattr(owner, name))))
    items.append(("overridden", ",".join(params.overridden)))
    return items


def params_to_config(params: DpParams) -> str:
    """Serialize to ``key = value`` lines, recording which fields were pinned."""
    return "".join(f"{key} = {text}\n" for key, text in config_items(params))


def params_from_config(text: str) -> DpParams:
    """Parse ``params_to_config``'s text.  A repeated or unknown key is an
    error, as is an ``overridden`` name that is no mechanism field: the file
    comes from outside the program, and a typo must not change a parameter."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno} is not 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS and key != "overridden":
            raise ParameterError(f"config line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ParameterError(f"config line {lineno}: repeated key {key!r}")
        raw[key] = value.strip()

    missing = [name for name in _CONFIG_FIELDS if name not in raw]
    if missing:
        raise ParameterError(f"config missing fields: {missing}")

    typed = {name: _convert(name, conv, raw[name]) for name, conv in _CONFIG_FIELDS.items()}
    budget = DpBudget(**{f.name: typed.pop(f.name) for f in fields(DpBudget)})
    overridden = tuple(x for x in raw.get("overridden", "").split(",") if x)
    unknown = [x for x in overridden if x not in _DERIVATIONS]
    if unknown:
        raise ParameterError(f"overridden names unknown fields: {unknown}")
    return DpParams(budget=budget, **typed, overridden=overridden)
