"""Dawid–Skene truth inference: EM over per-worker confusion matrices.

The classic (1979) model the tutorial presents as the canonical EM-based
truth-inference method:

* Latent truth ``z_t`` per task over label set L.
* Each worker w has a confusion matrix pi_w[i][j] = P(answer j | truth i).
* E-step: posterior over z_t given current matrices and class priors.
* M-step: re-estimate matrices and priors from the posteriors.

This implementation works on an arbitrary hashable label space (the union
of all observed answers), applies Laplace smoothing to keep matrices
non-degenerate, and initializes from majority voting (the standard warm
start, which also pins the label-permutation ambiguity to the sensible
solution).

The EM loop itself is :func:`fit_dawid_skene`, a pure function of the
encoded evidence (index arrays, vote weights, hyperparameters) that
records each iteration's convergence delta. :meth:`DawidSkene.infer`
validates and encodes the answers, runs the fit, then replays the recorded
deltas as the ``truth.ds`` span's ``em.iteration`` events and metrics, and
maps indices back to task ids, worker ids and labels.

CrowdSQL asks for a verdict on every single question (one CROWDEQUAL pair,
one CROWDORDER comparison), and that one-task evidence repeats constantly:
a handful of workers, a 2–1 or 3–0 split. One-task fits therefore go
through :func:`fit_one_task`, a bounded, process-wide ``functools.lru_cache``
(:data:`ONE_TASK_CACHE_SIZE` entries) keyed only on what the math reads (sizes, index arrays and vote weights as bytes,
hyperparameters, backend); ids and labels are mapped back per call, so
every instance shares the entries. A hit runs no EM but returns the very
arrays the miss computed (read-only) and replays the same deltas, so
results, spans and metrics are identical either way. Multi-task evidence
is never cached.

The default ``kernel`` backend accumulates both EM steps with
``np.bincount`` over precomputed flat indices
(``worker*K*K + true*K + answered``), avoiding the three dense
``(n_answers, K)`` ``repeat`` temporaries per iteration that the
``legacy`` backend (kept for the differential harness) materializes.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import InferenceError
from repro.platform.task import Answer
from repro.quality.truth.base import (
    InferenceResult,
    TruthInference,
    em_iteration,
    em_span,
    encode_observations,
    resolve_backend,
)

#: Distinct one-task fits kept by the process-wide memo (least recently
#: used evicted first). A service round needs a few dozen.
ONE_TASK_CACHE_SIZE = 1024


@dataclass(frozen=True)
class DawidSkeneFit:
    """One EM run on encoded evidence; the arrays are read-only.

    Attributes:
        posteriors: ``(n_tasks, n_labels)`` task posteriors.
        confusion: ``(n_workers, n_labels, n_labels)`` confusion matrices.
        iterations: EM iterations executed.
        converged: whether iteration stopped by tolerance rather than cap.
        deltas: max posterior change of each iteration, in order.
    """

    posteriors: np.ndarray
    confusion: np.ndarray
    iterations: int
    converged: bool
    deltas: tuple[float, ...]


def fit_dawid_skene(
    obs_task: np.ndarray,
    obs_worker: np.ndarray,
    obs_label: np.ndarray,
    n_tasks: int,
    n_workers: int,
    n_labels: int,
    vote_weight: np.ndarray,
    max_iterations: int,
    tolerance: float,
    smoothing: float,
    backend: str,
) -> DawidSkeneFit:
    """Run Dawid–Skene EM on the sparse encoding (see ``SparseObservations``).

    Posteriors start from a vote weighted by ``vote_weight[worker]`` (all
    ones is plain majority voting).
    """
    rows = np.bincount(
        obs_task * n_labels + obs_label,
        weights=vote_weight[obs_worker],
        minlength=n_tasks * n_labels,
    ).reshape(n_tasks, n_labels)
    totals = rows.sum(axis=1, keepdims=True)
    posteriors = np.where(totals > 0, rows / np.where(totals > 0, totals, 1.0),
                          1.0 / n_labels)

    if backend == "kernel":
        # Flat index per (answer, hypothesized truth) into the
        # (n_workers, K, K) confusion tensor: worker*K*K + true*K + answered.
        conf_flat = (obs_worker * n_labels * n_labels + obs_label)[:, None] + (
            np.arange(n_labels) * n_labels
        )[None, :]
        # Flat index per (answer, hypothesized truth) into (n_tasks, K).
        ll_flat = obs_task[:, None] * n_labels + np.arange(n_labels)[None, :]

    confusion = np.zeros((n_workers, n_labels, n_labels))
    iterations = 0
    converged = False
    deltas: list[float] = []

    for iterations in range(1, max_iterations + 1):
        # ----- M-step: confusion matrices and class priors. -----
        # Accumulate posterior mass: confusion[w, true, answered] += p(task=true).
        if backend == "kernel":
            confusion = smoothing + np.bincount(
                conf_flat.ravel(),
                weights=posteriors[obs_task].ravel(),
                minlength=n_workers * n_labels * n_labels,
            ).reshape(n_workers, n_labels, n_labels)
        else:
            confusion.fill(smoothing)
            np.add.at(
                confusion,
                (obs_worker[:, None].repeat(n_labels, axis=1),
                 np.arange(n_labels)[None, :].repeat(len(obs_task), axis=0),
                 obs_label[:, None].repeat(n_labels, axis=1)),
                posteriors[obs_task],
            )
        confusion /= confusion.sum(axis=2, keepdims=True)
        priors = posteriors.mean(axis=0)
        priors = np.clip(priors, 1e-9, None)
        priors /= priors.sum()

        # ----- E-step: task posteriors from log-likelihoods. -----
        contrib = np.log(confusion[obs_worker, :, obs_label])
        if backend == "kernel":
            log_like = np.log(priors)[None, :] + np.bincount(
                ll_flat.ravel(),
                weights=contrib.ravel(),
                minlength=n_tasks * n_labels,
            ).reshape(n_tasks, n_labels)
        else:
            log_like = np.tile(np.log(priors), (n_tasks, 1))
            np.add.at(log_like, obs_task, contrib)
        log_like -= log_like.max(axis=1, keepdims=True)
        new_posteriors = np.exp(log_like)
        new_posteriors /= new_posteriors.sum(axis=1, keepdims=True)

        delta = float(np.abs(new_posteriors - posteriors).max())
        posteriors = new_posteriors
        deltas.append(delta)
        if delta < tolerance:
            converged = True
            break
    posteriors.flags.writeable = False
    confusion.flags.writeable = False
    return DawidSkeneFit(posteriors, confusion, iterations, converged, tuple(deltas))


@functools.lru_cache(maxsize=ONE_TASK_CACHE_SIZE)
def fit_one_task(
    n_workers: int,
    n_labels: int,
    obs_worker: bytes,
    obs_label: bytes,
    vote_weight: bytes,
    max_iterations: int,
    tolerance: float,
    smoothing: float,
    backend: str,
) -> DawidSkeneFit:
    """:func:`fit_dawid_skene` on one task's evidence, memoised on its bytes."""
    workers = np.frombuffer(obs_worker, dtype=np.intp)
    return fit_dawid_skene(
        np.zeros(len(workers), dtype=np.intp), workers,
        np.frombuffer(obs_label, dtype=np.intp), 1, n_workers, n_labels,
        np.frombuffer(vote_weight, dtype=np.float64),
        max_iterations, tolerance, smoothing, backend,
    )


class DawidSkene(TruthInference):
    """EM estimation of worker confusion matrices and task truths.

    Args:
        max_iterations: EM iteration cap.
        tolerance: Convergence threshold on the max change of any task
            posterior between iterations.
        smoothing: Laplace pseudo-count added to confusion-matrix cells.
        backend: ``"kernel"`` (flat-index bincount accumulation) or
            ``"legacy"`` (dense repeat temporaries + ``np.add.at``).
    """

    name = "ds"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-5,
        smoothing: float = 0.01,
        backend: str = "kernel",
    ):
        if max_iterations < 1:
            raise InferenceError("max_iterations must be >= 1")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.smoothing = smoothing
        self.backend = resolve_backend(backend)
        self._warm_quality: dict[str, float] = {}
        self._last_quality: dict[str, float] = {}

    def export_state(self) -> dict[str, Any]:
        """Mean-diagonal worker qualities from the most recent :meth:`infer`."""
        return {"worker_quality": dict(self._last_quality)}

    def warm_start(self, state: Mapping[str, Any]) -> None:
        """Bias the initial posteriors by previously estimated worker quality.

        Full confusion matrices are label-space specific, so only the scalar
        qualities carry over: initialization becomes a quality-weighted vote
        instead of plain majority voting.
        """
        self._warm_quality = dict(state.get("worker_quality", {}))

    def infer(self, answers_by_task: Mapping[str, Sequence[Answer]]) -> InferenceResult:
        self._validate(answers_by_task)
        obs = encode_observations(answers_by_task)
        n_labels = obs.n_labels
        # With warm-start state, the initial vote is weighted by the
        # previously estimated worker quality.
        vote_weight = np.array(
            [self._warm_quality.get(w, 1.0) for w in obs.worker_ids], dtype=np.float64
        )
        hyper = (self.max_iterations, self.tolerance, self.smoothing, self.backend)
        if obs.n_tasks == 1:
            fit = fit_one_task(
                obs.n_workers, n_labels, obs.obs_worker.tobytes(),
                obs.obs_label.tobytes(), vote_weight.tobytes(), *hyper,
            )
        else:
            fit = fit_dawid_skene(
                obs.obs_task, obs.obs_worker, obs.obs_label, obs.n_tasks,
                obs.n_workers, n_labels, vote_weight, *hyper,
            )

        with em_span(self.name, answers_by_task) as span:
            for iteration, delta in enumerate(fit.deltas, start=1):
                em_iteration(self.name, iteration, delta)
            span.set_tag("iterations", fit.iterations)
            span.set_tag("converged", fit.converged)

        truths: dict[str, Any] = {}
        confidences: dict[str, float] = {}
        posterior_maps: dict[str, dict[Any, float]] = {}
        labels = obs.labels
        posteriors, confusion = fit.posteriors, fit.confusion
        for t_idx, task_id in enumerate(obs.task_ids):
            best = int(posteriors[t_idx].argmax())
            truths[task_id] = labels[best]
            confidences[task_id] = float(posteriors[t_idx, best])
            posterior_maps[task_id] = {
                labels[j]: float(posteriors[t_idx, j]) for j in range(n_labels)
            }
        worker_quality = {
            w: float(np.trace(confusion[i]) / n_labels)
            for i, w in enumerate(obs.worker_ids)
        }
        self._last_quality = dict(worker_quality)
        return InferenceResult(
            truths=truths,
            confidences=confidences,
            worker_quality=worker_quality,
            iterations=fit.iterations,
            converged=fit.converged,
            posteriors=posterior_maps,
        )
