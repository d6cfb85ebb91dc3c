"""Scoring, uncertainty, agreement, and routing-correlation analysis.

Accuracy is exact-match over the closed task vocabularies with N/A as an
ordinary class; records whose gold for a task is Unspecified are excluded
from that task's metric.  Region accuracy is mean per-label binary
correctness within a record, averaged across records, with an N/A indicator
that must match before any label credit is given.  Uncertainty comes from
seeded bootstrap resampling; agreement from Cohen's kappa.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError
from .morphology import NOT_AVAILABLE
from .qagen import SPREAD_CATEGORIES, DatasetRecord
from .regions import REGION_NAMES, VOLUME_BINS
from .rng import stream
from .shape import SHAPE_CATEGORIES
from .templates import TASKS, UNSPECIFIED

BOOTSTRAP_RESAMPLES = 500


@dataclass
class PredictionRecord:
    id: str
    volume: str | None = None
    regions: list[str] | str | None = None  # list, "N/A", or None
    shape: str | None = None
    spread: str | None = None
    oos: str | None = None


@dataclass
class MetricsReport:
    accuracy: dict[str, float | None]
    bootstrap_std: dict[str, float | None]
    task_mean: float | None
    counts: dict[str, int]
    oos_accuracy: float | None = None
    kappa: dict[str, float] | None = None
    flags: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "schema_version": 1,
            "accuracy": self.accuracy,
            "bootstrap_std": self.bootstrap_std,
            "task_mean": self.task_mean,
            "oos_accuracy": self.oos_accuracy,
            "counts": self.counts,
            "kappa": self.kappa,
            "flags": self.flags,
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _region_record_score(pred, gold) -> float:
    pred_na = pred == NOT_AVAILABLE or pred is None
    gold_na = gold == NOT_AVAILABLE
    if pred_na or gold_na:
        # The N/A indicator must match; no label credit across that mismatch.
        return 1.0 if pred_na == gold_na else 0.0
    pred_set = set(pred)
    gold_set = set(gold)
    return sum((name in pred_set) == (name in gold_set) for name in REGION_NAMES) / len(
        REGION_NAMES
    )


def _scores(preds: list, golds: list, region: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-record ``(included, score)``: whether the task was asked (gold not
    Unspecified), and the int 0/1 exact-match hit or the float region credit."""
    asked = [g != UNSPECIFIED for g in golds]
    if region:
        score = np.array([_region_record_score(p, g) if a else 0.0
                          for p, g, a in zip(preds, golds, asked)], dtype=np.float64)
    else:
        score = np.array([p == g for p, g in zip(preds, golds)], dtype=np.int64)
    return np.array(asked, dtype=bool), score


def _percent(score: np.ndarray) -> float | None:
    """Percent of the selected records: ``100.0 * hits / count`` for int hits,
    100 times the (pairwise, in-order) mean for float credit; None if empty."""
    if not len(score):
        return None
    if score.dtype.kind == "f":
        return 100.0 * float(np.mean(score))
    return 100.0 * int(score.sum()) / len(score)


def bootstrap_std(
    scores: dict[str, tuple[np.ndarray, np.ndarray]],
    resamples: int = BOOTSTRAP_RESAMPLES,
    seed: int = 0,
) -> dict[str, float | None]:
    """Std of each task's percent score over with-replacement resamples of size n.

    ``scores`` maps a task to its per-record ``(included, score)`` vectors.
    Resample r draws n indices once, from the counter-keyed stream
    ``(seed, "bootstrap", r)``, and scores every task on them: results are the
    same under any parallel schedule, and memory stays O(n).  A resample that
    includes no record of a task is skipped for that task; a task that no
    resample includes has no spread to report and gets None (null in JSON).
    """
    n = len(next(iter(scores.values()))[0]) if scores else 0
    if n == 0:
        raise FormatError("bootstrap needs at least one record")
    values: dict[str, list[float]] = {task: [] for task in scores}
    for r in range(resamples):
        idx = stream(seed, "bootstrap", r).integers(0, n, size=n)
        for task, (included, score) in scores.items():
            value = _percent(score[idx[included[idx]]])
            if value is not None:
                values[task].append(value)
    return {task: float(np.std(v)) if v else None for task, v in values.items()}


def cohen_kappa(a: list, b: list) -> tuple[float, bool]:
    """Chance-corrected agreement; returns (kappa, degenerate_flag).

    When both annotators are constant and identical, chance agreement is 1
    and kappa is defined as 1.0 with the flag set.
    """
    if len(a) != len(b) or not a:
        raise FormatError("kappa needs two aligned, nonempty annotation lists")
    n = len(a)
    labels = sorted({*a, *b}, key=str)
    index = {lab: i for i, lab in enumerate(labels)}
    table = np.zeros((len(labels), len(labels)))
    for x, y in zip(a, b):
        table[index[x], index[y]] += 1
    p_o = float(np.trace(table)) / n
    marg_a = table.sum(axis=1) / n
    marg_b = table.sum(axis=0) / n
    p_e = float(marg_a @ marg_b)
    if p_e >= 1.0 - 1e-15:
        return 1.0, True
    return (p_o - p_e) / (1.0 - p_e), False


def routing_heatmap(
    traces: list[np.ndarray], labels: list[str] | None = None
) -> tuple[np.ndarray, list[str], list[str]]:
    """Pearson correlation matrix between expert-weight vectors.

    Zero-variance vectors (uniform routing has no direction) get correlation
    0 against everything, a unit diagonal, and a flag.
    """
    if len(traces) < 2:
        raise FormatError("need at least two routing traces")
    mat = np.asarray(traces, dtype=np.float64)
    labels = labels or [f"prompt{i}" for i in range(mat.shape[0])]
    centered = mat - mat.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    flags = [f"zero-variance routing vector: {labels[i]}" for i in np.where(norms == 0)[0]]
    safe = np.where(norms == 0, 1.0, norms)
    unit = centered / safe[:, None]
    corr = unit @ unit.T
    corr[norms == 0, :] = 0.0
    corr[:, norms == 0] = 0.0
    np.fill_diagonal(corr, 1.0)
    corr = np.clip(corr, -1.0, 1.0)
    return corr, labels, flags


def heatmap_to_csv(corr: np.ndarray, labels: list[str]) -> str:
    lines = ["prompt," + ",".join(labels)]
    for name, row in zip(labels, corr):
        lines.append(name + "," + ",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report assembly

def evaluate_predictions(
    gold_records: list[DatasetRecord],
    predictions: list[PredictionRecord],
    seed: int = 0,
    resamples: int = BOOTSTRAP_RESAMPLES,
) -> MetricsReport:
    if resamples < 1:
        raise ConfigError(f"bootstrap needs at least 1 resample, got {resamples}")
    by_id = {p.id: p for p in predictions}
    missing = [r.id for r in gold_records if r.id not in by_id]
    if missing:
        raise FormatError(f"predictions missing for {len(missing)} records, e.g. {missing[:3]}")
    preds = [by_id[rec.id] for rec in gold_records]
    scores = {
        task: _scores([getattr(p, "regions" if task == "region" else task) for p in preds],
                      [rec.gold[task] for rec in gold_records], region=task == "region")
        for task in TASKS
    }

    accuracy = {task: _percent(score[included]) for task, (included, score) in scores.items()}
    counts = {"records": len(gold_records)} | {
        task: int(included.sum()) for task, (included, _) in scores.items()}
    defined = {task: scores[task] for task in TASKS if accuracy[task] is not None}
    stds = dict.fromkeys(TASKS) | (
        bootstrap_std(defined, resamples=resamples, seed=seed) if defined else {})
    task_mean = (float(np.mean([accuracy[t] for t in defined]))
                 if len(defined) == len(TASKS) else None)
    oos_pairs = [(p.oos, rec.oos_kind) for p, rec in zip(preds, gold_records)
                 if p.oos is not None]
    oos_acc = None
    if oos_pairs:
        oos_acc = 100.0 * sum(p == g for p, g in oos_pairs) / len(oos_pairs)
        counts["oos"] = len(oos_pairs)
    return MetricsReport(accuracy=accuracy, bootstrap_std=stds, task_mean=task_mean,
                         counts=counts, oos_accuracy=oos_acc)


# ---------------------------------------------------------------------------
# Free-text answer normalization (deterministic keyword matcher)

_VOCAB_BY_TASK = {
    "volume": VOLUME_BINS,
    "shape": SHAPE_CATEGORIES,
    "spread": SPREAD_CATEGORIES,
}

_REGION_SPLIT_RE = re.compile(r",|\band\b")


def normalize_answer(text: str, task: str):
    """Map free text onto a task vocabulary by exact keyword matching.

    Case-insensitive; the longest vocabulary item found wins; N/A is
    recognized for every task.  Region answers are split on commas/'and' and
    matched per region name.  Returns None when nothing matches.
    """
    low = text.lower()
    if task == "region":
        if re.search(r"\bn/a\b", low):
            return NOT_AVAILABLE
        found = []
        for fragment in _REGION_SPLIT_RE.split(low):
            for name in REGION_NAMES:
                if name in fragment and name not in found:
                    found.append(name)
        return found or None
    if re.search(r"\bn/a\b", low):
        return NOT_AVAILABLE
    candidates = [v for v in _VOCAB_BY_TASK[task] if v.lower() in low]
    if not candidates:
        return None
    return max(candidates, key=len)
