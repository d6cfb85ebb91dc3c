"""Reference oracle for ``brainvqa.metrics.evaluate_predictions``.

The original per-resample evaluation: every bootstrap resample builds a list
of (prediction, gold) pairs and rescores each pair in Python, once per task.
The library scores each record once and resamples index vectors instead; the
tests assert that both give the same report bytes.
"""
from __future__ import annotations

import numpy as np

from brainvqa.errors import FormatError
from brainvqa.metrics import (
    BOOTSTRAP_RESAMPLES,
    MetricsReport,
    _region_record_score,
)
from brainvqa.rng import stream
from brainvqa.templates import TASKS, UNSPECIFIED


def _included(golds: list) -> list[int]:
    return [i for i, g in enumerate(golds) if g != UNSPECIFIED]


def task_accuracy(preds: list, golds: list) -> float | None:
    idx = _included(golds)
    if not idx:
        return None
    hits = sum(1 for i in idx if preds[i] == golds[i])
    return 100.0 * hits / len(idx)


def region_accuracy(preds: list, golds: list) -> float | None:
    idx = _included(golds)
    if not idx:
        return None
    return 100.0 * float(np.mean([_region_record_score(preds[i], golds[i]) for i in idx]))


def bootstrap_std(
    metric, records: list, resamples: int = BOOTSTRAP_RESAMPLES, seed: int = 0
) -> float:
    """Std of ``metric(records)`` over with-replacement resamples of size n."""
    n = len(records)
    if n == 0:
        raise FormatError("bootstrap needs at least one record")
    values = []
    for r in range(resamples):
        rng = stream(seed, "bootstrap", r)
        idx = rng.integers(0, n, size=n)
        value = metric([records[i] for i in idx])
        if value is not None:
            values.append(value)
    return float(np.std(values))


def evaluate_predictions(gold_records, predictions, seed: int = 0,
                         resamples: int = BOOTSTRAP_RESAMPLES) -> MetricsReport:
    by_id = {p.id: p for p in predictions}
    pairs_by_task: dict[str, list[tuple]] = {t: [] for t in TASKS}
    oos_pairs = []
    for rec in gold_records:
        pred = by_id[rec.id]
        pred_values = {
            "volume": pred.volume,
            "region": pred.regions,
            "shape": pred.shape,
            "spread": pred.spread,
        }
        for task in TASKS:
            pairs_by_task[task].append((pred_values[task], rec.gold[task]))
        if pred.oos is not None:
            oos_pairs.append((pred.oos, rec.oos_kind))

    accuracy: dict[str, float | None] = {}
    stds: dict[str, float | None] = {}
    counts: dict[str, int] = {"records": len(gold_records)}
    for task in TASKS:
        pairs = pairs_by_task[task]
        scorer = region_accuracy if task == "region" else task_accuracy

        def metric(sub_pairs, _scorer=scorer):
            return _scorer([p for p, _ in sub_pairs], [g for _, g in sub_pairs])

        accuracy[task] = metric(pairs)
        counts[task] = len(_included([g for _, g in pairs]))
        stds[task] = (
            bootstrap_std(metric, pairs, resamples=resamples, seed=seed)
            if accuracy[task] is not None
            else None
        )
    defined = [accuracy[t] for t in TASKS if accuracy[t] is not None]
    task_mean = float(np.mean(defined)) if len(defined) == len(TASKS) else None
    oos_acc = None
    if oos_pairs:
        oos_acc = 100.0 * sum(p == g for p, g in oos_pairs) / len(oos_pairs)
        counts["oos"] = len(oos_pairs)
    return MetricsReport(
        accuracy=accuracy,
        bootstrap_std=stds,
        task_mean=task_mean,
        counts=counts,
        oos_accuracy=oos_acc,
    )
