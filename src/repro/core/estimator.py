"""Contention-tolerant estimator (§3.3).

Two parts:

* **Solo-run predictor** — per partition configuration, linear models over
  the complexity features of Table 2, fit by least squares on offline
  profiling samples:

  .. math::

      T_{prefill} = t1 \\sum n_i^2 + t2 \\sum n_i r_i + t3 \\sum n_i + t4

      T_{decode} = t1 \\sum r_i + t2 \\cdot bs + t3

* **Contention guard** — a coarse grid (powers-of-4 token buckets from 2K to
  128K, the serving framework's decode batch sizes, and the partition
  configurations) storing the *maximum* observed decode slowdown per cell.
  The worst-case latency estimate is ``solo_prediction * guard`` — not a
  precise prediction, but an upper bound sufficient for SLO guarantees.
  The guard is initialised by offline pairwise profiling and refined with
  runtime observations (always by max-merge, so it only becomes more
  conservative).

numpy is imported when the first :class:`SoloRunPredictor` is built, not
with this module, so a run that builds no MuxWise estimator never loads it
(see DESIGN.md, "Cold start").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.models.costs import PrefillItem

if TYPE_CHECKING:
    import numpy as np
else:
    np = None  # numpy, bound by _bind_numpy() when the first predictor is built

#: Powers-of-4 bucket edges for token dimensions, 2K..128K (§3.3.2).
TOKEN_BUCKETS = (2048, 8192, 32768, 131072)
#: Decode batch sizes profiled, mirroring SOTA serving frameworks
#: (~20 capture sizes).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 64, 80, 96, 112, 128, 160, 192, 256)
#: Conservative prior for unprofiled cells: 30 % slowdown, the paper's
#: observed ceiling across GPUs.
DEFAULT_GUARD = 1.30


def token_bucket(tokens: float) -> int:
    """Map a token count to its powers-of-4 grid bucket."""
    for edge in TOKEN_BUCKETS:
        if tokens <= edge:
            return edge
    return TOKEN_BUCKETS[-1]


def batch_bucket(batch_size: int) -> int:
    """Map a decode batch size to the nearest profiled capture size."""
    for edge in BATCH_SIZE_BUCKETS:
        if batch_size <= edge:
            return edge
    return BATCH_SIZE_BUCKETS[-1]


@dataclass
class PrefillSample:
    """One offline solo-run measurement of a prefill batch."""

    items: list[PrefillItem]
    sm_count: int
    latency: float


@dataclass
class DecodeSample:
    """One offline solo-run measurement of a decode iteration."""

    batch_size: int
    sum_reused: float
    sm_count: int
    latency: float


def _bind_numpy() -> None:
    """Import numpy once and bind it as this module's ``np``."""
    global np
    import numpy

    np = numpy


def _prefill_features(items: list[PrefillItem]) -> np.ndarray:
    return np.array(
        [
            sum(float(i.new) ** 2 for i in items),
            sum(float(i.new) * float(i.reused) for i in items),
            sum(float(i.new) for i in items),
            1.0,
        ]
    )


def _decode_features(batch_size: int, sum_reused: float) -> np.ndarray:
    return np.array([float(sum_reused), float(batch_size), 1.0])


class SoloRunPredictor:
    """Least-squares latency models per (phase, partition configuration)."""

    def __init__(self) -> None:
        if np is None:
            _bind_numpy()
        self._prefill_theta: dict[int, np.ndarray] = {}
        self._decode_theta: dict[int, np.ndarray] = {}
        # Per table: queried sm_count -> (fitted sm_count, theta); a fit
        # clears its table's entries.
        self._prefill_nearest: dict[float, tuple[int, np.ndarray]] = {}
        self._decode_nearest: dict[float, tuple[int, np.ndarray]] = {}
        #: Bumped by every fit, so caches of predictions can tell they are stale.
        self.generation = 0
        #: Whether every decode prediction is non-decreasing in the context
        #: sum: each fitted context coefficient is >= 0, so ``sum_reused``
        #: enters the dot product only through a non-negative product and
        #: every rounded operation after it is monotone.
        self.decode_monotone = True
        self._decode_row = np.array([0.0, 0.0, 1.0])  # reused feature row

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    def fit_prefill(self, samples: list[PrefillSample]) -> None:
        """Fit Eq. (1) coefficients for every partition seen in ``samples``."""
        by_sm: dict[int, list[PrefillSample]] = {}
        for sample in samples:
            by_sm.setdefault(sample.sm_count, []).append(sample)
        for sm_count, group in by_sm.items():
            features = np.stack([_prefill_features(s.items) for s in group])
            target = np.array([s.latency for s in group])
            theta, *_ = np.linalg.lstsq(features, target, rcond=None)
            self._prefill_theta[sm_count] = theta
        self._prefill_nearest.clear()
        self.generation += 1

    def fit_decode(self, samples: list[DecodeSample]) -> None:
        """Fit Eq. (2) coefficients for every partition seen in ``samples``."""
        by_sm: dict[int, list[DecodeSample]] = {}
        for sample in samples:
            by_sm.setdefault(sample.sm_count, []).append(sample)
        for sm_count, group in by_sm.items():
            features = np.stack([_decode_features(s.batch_size, s.sum_reused) for s in group])
            target = np.array([s.latency for s in group])
            theta, *_ = np.linalg.lstsq(features, target, rcond=None)
            self._decode_theta[sm_count] = theta
        self._decode_nearest.clear()
        self.decode_monotone = all(theta[0] >= 0.0 for theta in self._decode_theta.values())
        self.generation += 1

    @property
    def fitted(self) -> bool:
        """True once both phases have at least one model."""
        return bool(self._prefill_theta) and bool(self._decode_theta)

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    @staticmethod
    def _nearest(table: dict, resolved: dict, sm_count: float) -> tuple[int, np.ndarray]:
        """The first fitted configuration closest to ``sm_count``, memoised."""
        hit = resolved.get(sm_count)
        if hit is None:
            if not table:
                raise RuntimeError("predictor is not fitted")
            best = min(table, key=lambda sm: abs(sm - sm_count))
            hit = resolved[sm_count] = (best, table[best])
        return hit

    def predict_prefill(self, items: list[PrefillItem], sm_count: int) -> float:
        """Solo-run latency of a full prefill of ``items`` on ``sm_count`` SMs.

        Compute-bound prefill scales ~1/SMs, so predictions for partitions
        between profiled configurations are rescaled from the nearest one.
        """
        fitted_sm, theta = self._nearest(self._prefill_theta, self._prefill_nearest, sm_count)
        base = float(_prefill_features(items) @ theta)
        return max(1e-6, base * fitted_sm / sm_count)

    def predict_decode(self, batch_size: int, sum_reused: float, sm_count: int) -> float:
        """Solo-run latency of one decode iteration on ``sm_count`` SMs.

        numpy's 3-element ``row @ theta`` rounds like the FMA chain
        ``fma(x2, t2, fma(x1, t1, x0 * t0))`` (no difference in 120,000
        sampled calibrated predictions on a 2-vCPU x86-64 container with
        Python 3.11.7), while the plain Python sum ``x0*t0 + x1*t1 + x2*t2``
        differs in about 6% of them.  Python 3.11 has no ``math.fma``, so
        the dot product stays numpy's; ``tests/core/test_estimator.py``
        pins calibrated predictions so a build that rounds differently
        fails there rather than moving fingerprints.
        """
        _, theta = self._nearest(self._decode_theta, self._decode_nearest, sm_count)
        # _decode_features() in a reused row: same values, same bits from ``@``.
        row = self._decode_row
        row[0] = float(sum_reused)
        row[1] = float(batch_size)
        return max(1e-6, float(row @ theta))


class GuardKey(NamedTuple):
    """Grid cell identity for the contention guard."""

    prefill_new: int
    prefill_reused: int
    decode_batch: int
    decode_tokens: int
    decode_sms: int


@dataclass
class ContentionGuard:
    """Max-slowdown table over the coarse profiling grid."""

    default: float = DEFAULT_GUARD
    _cells: dict[GuardKey, float] = field(default_factory=dict)

    @staticmethod
    def key(
        prefill_new: float,
        prefill_reused: float,
        decode_batch: int,
        decode_tokens: float,
        decode_sms: int,
    ) -> GuardKey:
        """Bucket raw features into a grid cell."""
        return GuardKey(
            token_bucket(prefill_new),
            token_bucket(prefill_reused),
            batch_bucket(decode_batch),
            token_bucket(decode_tokens),
            decode_sms,
        )

    def lookup(self, key: GuardKey) -> float:
        """Max slowdown factor for the cell (conservative default if unseen)."""
        return self._cells.get(key, self.default)

    def update(self, key: GuardKey, observed_slowdown: float) -> None:
        """Record an observed slowdown; cells only grow (stay worst-case)."""
        if observed_slowdown < 1.0:
            observed_slowdown = 1.0
        current = self._cells.get(key)
        if current is None or observed_slowdown > current:
            self._cells[key] = observed_slowdown

    def seed(self, key: GuardKey, slowdown: float) -> None:
        """Initialise a cell from offline profiling."""
        self._cells[key] = max(1.0, slowdown)

    @property
    def cells(self) -> int:
        """Number of populated grid cells."""
        return len(self._cells)


class ContentionTolerantEstimator:
    """Worst-case latency estimates combining predictor and guard (§3.3.2)."""

    def __init__(self, predictor: SoloRunPredictor, guard: ContentionGuard | None = None) -> None:
        self.predictor = predictor
        self.guard = guard if guard is not None else ContentionGuard()
        # One decode iteration's predictions, sm_count -> solo latency, for
        # its (batch_size, sum_reused) and the predictor's generation: a new
        # iteration or a refit starts a fresh table.
        self._solo_features: tuple[int, float, int] | None = None
        self._solo_by_sms: dict[int, float] = {}

    def solo_decode(self, batch_size: int, sum_reused: float, sm_count: int) -> float:
        """Predicted contention-free decode iteration latency."""
        predictor = self.predictor
        features = (batch_size, sum_reused, predictor.generation)
        if features != self._solo_features:
            self._solo_features = features
            self._solo_by_sms = {}
        by_sms = self._solo_by_sms
        solo = by_sms.get(sm_count)
        if solo is None:
            solo = by_sms[sm_count] = predictor.predict_decode(batch_size, sum_reused, sm_count)
        return solo

    def solo_prefill(self, items: list[PrefillItem], sm_count: int) -> float:
        """Predicted contention-free full-prefill latency."""
        return self.predictor.predict_prefill(items, sm_count)

    def worst_case_decode(
        self,
        batch_size: int,
        sum_reused: float,
        sm_count: int,
        prefill_new: float = 0.0,
        prefill_reused: float = 0.0,
    ) -> float:
        """Upper-bound decode latency under the current multiplexing plan.

        The guard only covers decode (§3.4.1): prefill needs no worst-case
        bound because the dispatcher merely requires launched prefill layers
        to outlast the co-running decode iteration.
        """
        solo = self.solo_decode(batch_size, sum_reused, sm_count)
        if prefill_new <= 0 and prefill_reused <= 0:
            return solo
        key = self.guard.key(prefill_new, prefill_reused, batch_size, sum_reused, sm_count)
        return solo * self.guard.lookup(key)

    def first_decode_fit(
        self,
        options: list[int],
        budget: float,
        batch_size: int,
        sum_reused: float,
        prefill_new: float = 0.0,
        prefill_reused: float = 0.0,
    ) -> int:
        """The first partition of ``options`` whose :meth:`worst_case_decode`
        is within ``budget`` (the last option when none is).

        The guard cell's token and batch buckets do not depend on the
        partition, so they are computed once for all options.
        """
        solo = self.solo_decode
        if prefill_new <= 0 and prefill_reused <= 0:
            for sm_count in options:
                if solo(batch_size, sum_reused, sm_count) <= budget:
                    return sm_count
            return options[-1]
        guard = self.guard
        cells = guard._cells
        bucketed = (
            token_bucket(prefill_new),
            token_bucket(prefill_reused),
            batch_bucket(batch_size),
            token_bucket(sum_reused),
        )
        for sm_count in options:
            worst = solo(batch_size, sum_reused, sm_count) * cells.get(
                GuardKey(*bucketed, sm_count), guard.default
            )
            if worst <= budget:
                return sm_count
        return options[-1]

    def observe_decode(
        self,
        batch_size: int,
        sum_reused: float,
        sm_count: int,
        observed_latency: float,
        prefill_new: float,
        prefill_reused: float,
    ) -> float:
        """Refine the guard with a runtime observation; returns the slowdown."""
        solo = self.solo_decode(batch_size, sum_reused, sm_count)
        slowdown = observed_latency / max(solo, 1e-9)
        if prefill_new > 0 or prefill_reused > 0:
            key = self.guard.key(prefill_new, prefill_reused, batch_size, sum_reused, sm_count)
            self.guard.update(key, slowdown)
        return slowdown
