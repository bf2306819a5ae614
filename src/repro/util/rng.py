"""Deterministic random-number streams.

Every stochastic component of the simulation draws from a named substream
derived from a single scenario seed.  This keeps runs reproducible (the same
scenario seed always yields the same universe and the same traffic) while
letting independent subsystems draw without perturbing each other -- adding
one extra draw to the traffic generator must not change which websites the
web-ecosystem builder creates.

The derivation uses SHA-256 over ``(seed, label)`` so that substream seeds
are stable across Python versions and process invocations (unlike ``hash``).
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

_MASK_64 = (1 << 64) - 1

#: Normalized cumulative distributions, keyed by the weight tuple.
#: A pure content-keyed memo (the cdf is a function of the weights
#: alone), so it carries no per-study state: clearing it between
#: overlay runs would only cost recomputation, never change a draw.
_CDF_CACHE: dict[tuple, "np.ndarray"] = {}


def derive_seed(seed: int, label: str) -> int:
    """Derive a stable 64-bit substream seed from a root seed and a label.

    >>> derive_seed(1, "traffic") == derive_seed(1, "traffic")
    True
    >>> derive_seed(1, "traffic") != derive_seed(1, "web")
    True
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _MASK_64


class RngStream:
    """A named, seeded random stream with the distributions the repo needs.

    Wraps :class:`numpy.random.Generator` and adds the handful of
    domain-specific draws (heavy-tailed flow sizes, weighted choices over
    small catalogs) that the substrates share.
    """

    def __init__(self, seed: int, label: str = "root") -> None:
        self.seed = seed
        self.label = label
        self._gen = np.random.default_rng(derive_seed(seed, label))

    def substream(self, label: str) -> "RngStream":
        """Return an independent stream derived from this one's identity."""
        return RngStream(derive_seed(self.seed, self.label), label)

    def generator(self) -> np.random.Generator:
        """The underlying NumPy generator, for draws of whole arrays."""
        return self._gen

    # -- thin pass-throughs -------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return float(self._gen.random())

    def uniform(self, low: float, high: float) -> float:
        return float(self._gen.uniform(low, high))

    def randint(self, low: int, high: int) -> int:
        """Integer in [low, high] inclusive."""
        return int(self._gen.integers(low, high + 1))

    def normal(self, mean: float, std: float) -> float:
        return float(self._gen.normal(mean, std))

    def exponential(self, mean: float) -> float:
        return float(self._gen.exponential(mean))

    def poisson(self, lam: float) -> int:
        return int(self._gen.poisson(lam))

    def shuffle(self, items: list) -> None:
        self._gen.shuffle(items)

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p`` (clamped to [0, 1])."""
        p = min(1.0, max(0.0, p))
        return bool(self._gen.random() < p)

    # -- domain-specific draws ----------------------------------------------

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[int(self._gen.integers(0, len(items)))]

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct items (all of them if ``k >= len(items)``)."""
        if k >= len(items):
            picked = list(items)
            self._gen.shuffle(picked)
            return picked
        idx = self._gen.choice(len(items), size=k, replace=False)
        return [items[int(i)] for i in idx]

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        # Inverse-CDF sampling, replicating Generator.choice(n, p=probs)
        # draw-for-draw (one uniform double, searchsorted over the
        # normalized cumulative) while skipping its per-call validation,
        # which dominates the generators' hot loops.  The cumulative is
        # pure in the weights, so it is memoized: the catalogs draw from
        # a handful of fixed weight vectors hundreds of thousands of
        # times per study.
        key = tuple(weights)
        cdf = _CDF_CACHE.get(key)
        if cdf is None:
            if min(weights) < 0:
                raise ValueError("weights must be non-negative")
            total = float(sum(weights))
            if total <= 0:
                raise ValueError("weights must sum to a positive value")
            cdf = (np.asarray(weights, dtype=float) / total).cumsum()
            cdf /= cdf[-1]
            _CDF_CACHE[key] = cdf
        index = int(cdf.searchsorted(self._gen.random(), side="right"))
        return items[min(index, len(items) - 1)]

    def lognormal_bytes(self, median: float, sigma: float) -> int:
        """Heavy-tailed byte count with the given median (>= 1 byte).

        Flow sizes on real networks are famously heavy-tailed; a lognormal
        body captures the mice while ``sigma`` controls the elephants.
        """
        if median <= 0:
            raise ValueError("median must be positive")
        value = self._gen.lognormal(mean=math.log(median), sigma=sigma)
        return max(1, int(value))

    def pareto_bytes(self, minimum: float, alpha: float) -> int:
        """Pareto-tailed byte count, for elephant flows (downloads, video)."""
        if minimum <= 0:
            raise ValueError("minimum must be positive")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return max(1, int(minimum * (1.0 + self._gen.pareto(alpha))))

    def subset(self, items: Iterable[T], p: float) -> list[T]:
        """Independent Bernoulli(p) filter over ``items``, order-preserving."""
        return [item for item in items if self.bernoulli(p)]
