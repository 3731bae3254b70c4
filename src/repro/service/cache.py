"""LRU cache of fitted surrogate posteriors keyed on history content.

Reconnecting clients and read-only queries (``show``, ``predict``)
repeatedly need a fitted posterior for a history that has not changed —
and fitting GPs is by far the most expensive part of serving them.
:class:`PosteriorCache` memoizes :class:`SurrogatePosterior` objects
under a content hash of the evaluation history
(:func:`history_fingerprint`), so the second client to look at the same
run pays a dictionary lookup instead of an L-BFGS-B hyperparameter
search. Any new observation changes the fingerprint, which makes stale
reads structurally impossible — an out-of-date entry can never be
returned, only evicted.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Callable

import numpy as np

from ..core.history import History
from ..core.loop import fit_pairs
from ..gp.gpr import GPR
from ..mf.nargp import NARGP
from ..obs import MetricsRegistry
from ..problems.base import Problem
from ..rng import ensure_rng

__all__ = ["history_fingerprint", "SurrogatePosterior", "PosteriorCache"]


def history_fingerprint(problem_name: str, history: History) -> str:
    """Content hash of an evaluation history (hex digest).

    Two histories with identical evaluations (designs, fidelities,
    outcomes) produce the same key; any appended evaluation changes it.
    Floats are hashed through their shortest-``repr`` JSON encoding, the
    same representation the checkpoint format round-trips bit-exactly.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(problem_name.encode())
    for record in history.records:
        digest.update(
            json.dumps(
                [
                    [float(v) for v in record.x_unit],
                    record.fidelity,
                    record.evaluation.to_dict(),
                ],
                sort_keys=True,
            ).encode()
        )
    return digest.hexdigest()


class SurrogatePosterior:
    """Fitted per-output surrogate models for one frozen history.

    One low-fidelity :class:`repro.gp.GPR` plus one fused
    :class:`repro.mf.NARGP` per output (objective first, then each
    constraint), mirroring the models
    :class:`repro.core.MFBOptimizer` fits each iteration. When the
    history only covers a single fidelity, plain GPs at that fidelity
    are used. Prediction pushes the low-fidelity mean through the fused
    model (deterministic — no Monte-Carlo draws), so identical queries
    against a cached posterior return identical answers.
    """

    def __init__(
        self,
        problem: Problem,
        history: History,
        *,
        n_restarts: int = 1,
        max_opt_iter: int = 50,
        seed: int = 0,
    ) -> None:
        self.problem = problem
        self.n_history = len(history)
        rng = ensure_rng(np.random.default_rng(seed))
        low_f, high_f = problem.lowest_fidelity, problem.highest_fidelity
        n_low = history.n_evaluations(low_f)
        n_high = history.n_evaluations(high_f)
        self.fused = bool(
            low_f != high_f and n_low >= 2 and n_high >= 2
        )
        if self.fused:
            x_low, y_low, c_low = history.data(low_f)
            x_high, y_high, c_high = history.data(high_f)
            _, self._models = fit_pairs(
                x_low,
                [y_low, *c_low.T],
                x_high,
                [y_high, *c_high.T],
                rng=rng,
                n_restarts=n_restarts,
                max_opt_iter=max_opt_iter,
            )
        else:
            fidelity = high_f if n_high >= 2 else low_f
            x, y, c = history.data(fidelity)
            self._models = [
                GPR(max_opt_iter=max_opt_iter).fit(
                    x, t, n_restarts=n_restarts, rng=rng
                )
                for t in [y, *c.T]
            ]

    @property
    def n_outputs(self) -> int:
        return len(self._models)

    def predict(self, x_unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and stddev per output at unit-cube points.

        Returns arrays of shape ``(n_points, n_outputs)`` with the
        objective in column 0 and one constraint per further column.
        """
        x_unit = np.atleast_2d(np.asarray(x_unit, dtype=float))
        means, stds = [], []
        for model in self._models:
            if isinstance(model, NARGP):
                mu, var = model.predict_mean_path(x_unit)
            else:
                mu, var = model.predict(x_unit)
            means.append(np.ravel(mu))
            stds.append(np.sqrt(np.maximum(np.ravel(var), 0.0)))
        return np.column_stack(means), np.column_stack(stds)


class PosteriorCache:
    """LRU map from history fingerprints to fitted posteriors.

    >>> cache = PosteriorCache(maxsize=4)
    >>> key = history_fingerprint(problem.name, history)   # doctest: +SKIP
    >>> posterior, hit = cache.get_or_fit(
    ...     key, lambda: SurrogatePosterior(problem, history)
    ... )                                                  # doctest: +SKIP
    """

    def __init__(
        self, maxsize: int = 8, metrics: MetricsRegistry | None = None
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[str, SurrogatePosterior] = OrderedDict()
        # Counters live in an obs registry — the server passes its own
        # so the `stats` op exports them alongside per-op latencies;
        # a standalone cache gets a private registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("cache.hits")
        self._misses = self.metrics.counter("cache.misses")
        self._evictions = self.metrics.counter("cache.evictions")

    # Legacy int attributes, now read-only views of the obs counters.
    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> SurrogatePosterior | None:
        """Cached posterior for ``key``, refreshing its recency."""
        entry = self._entries.get(key)
        if entry is None:
            self._misses.inc()
            return None
        self._entries.move_to_end(key)
        self._hits.inc()
        return entry

    def put(self, key: str, posterior: SurrogatePosterior) -> None:
        self._entries[key] = posterior
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self._evictions.inc()
        self.metrics.gauge("cache.size").set(len(self._entries))

    def get_or_fit(
        self, key: str, fit: Callable[[], SurrogatePosterior]
    ) -> tuple[SurrogatePosterior, bool]:
        """Return ``(posterior, was_hit)``, fitting on miss."""
        entry = self.get(key)
        if entry is not None:
            return entry, True
        entry = fit()
        self.put(key, entry)
        return entry, False

    def stats(self) -> dict:
        """Hit/miss/eviction counters and current size."""
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
