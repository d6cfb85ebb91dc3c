"""Descriptor computation, the 4+1+1 sampling protocol, splits, and stats.

A study's descriptors come from one label split of its mask, one component
labeling per label, and one shape-metrics call for all of them.

Every (study, label) pair yields exactly six records: four multitask
templates drawn without replacement whose task sets jointly cover all four
tasks, one partially out-of-scope template, and one completely out-of-scope
template.  Sampling is keyed by (seed, study, label) so any parallel
schedule produces byte-identical datasets.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BankError, GeometryError
from .morphology import (
    NOT_AVAILABLE,
    SPREAD_CORE_SATELLITES,
    SPREAD_SCATTERED,
    SPREAD_SINGLE,
    SpreadDescriptor,
    connected_components,
    spread_classify,
)
from .nifti import LabelMask
from .regions import (
    Atlas,
    DEFAULT_MIN_OVERLAP_VOXELS,
    REGION_NAMES,
    RegionAssignment,
    VOLUME_BINS,
    VolumeBin,
    region_overlap,
    relative_volume,
    volume_bin,
)
from .rng import stream
from .shape import (
    SHAPE_CATEGORIES,
    ShapeMetrics,
    component_shape_metrics,
    describe_shape,
    shape_components,
)
from .templates import TASKS, UNSPECIFIED, Template, TemplateBank, descriptor_values, render

SCHEMA_VERSION = 1

SPLIT_FRACTIONS = (0.8, 0.1)  # test takes the remainder


@dataclass
class TaskDescriptors:
    """Per (study, label) gold values; None models N/A throughout."""

    study_id: str
    label_name: str
    volume: VolumeBin | None
    regions: RegionAssignment | None
    shape: str | None
    spread: SpreadDescriptor | None
    shape_metrics: ShapeMetrics | None = None
    warnings: list[str] = field(default_factory=list)


@dataclass
class DatasetRecord:
    id: str
    study_id: str
    label_name: str
    split: str
    question: str
    answer: str
    task_set: tuple[str, ...]
    oos_kind: str  # none | partial | full
    gold: dict[str, object]  # task -> value | "N/A" | "Unspecified"
    template_id: str
    warnings: tuple[str, ...] = ()


def compute_descriptors(
    study_id: str,
    brain_voxels: int,
    mask: LabelMask,
    atlas: Atlas,
    min_overlap_voxels: int = DEFAULT_MIN_OVERLAP_VOXELS,
) -> list[TaskDescriptors]:
    """Run the full geometry pipeline for every configured label.

    ``brain_voxels`` counts the brain on the mask's grid; the atlas must
    already be conformed onto that grid.  Every stage takes a label's voxel
    coordinates from one split of the mask, and one metrics call serves the
    components that every label's shape reads; a label with zero voxels
    yields the all-N/A descriptor rather than an error.
    """
    grid = mask.volume.header.dims
    if atlas.labels.volume.header.dims != grid:
        raise GeometryError(f"atlas grid {atlas.labels.volume.header.dims} != mask grid {grid}")
    spacing = mask.volume.header.pixdim
    split = mask.label_coords()
    labels = sorted(mask.label_names)
    labelings = [connected_components(split[label], spacing) for label in labels]
    measured = [shape_components(labeling) for labeling in labelings]
    ends = np.cumsum([len(sizes) for _, sizes in measured]).tolist()
    per_component = []
    if ends and ends[-1]:
        per_component = component_shape_metrics(*map(np.concatenate, zip(*measured)), spacing)
    out = []
    for label, labeling, start, end in zip(labels, labelings, [0] + ends, ends):
        name = mask.label_names[label]
        coords = split[label]
        if coords.shape[0] == 0:
            out.append(TaskDescriptors(study_id, name, None, None, None, None))
            continue
        vb = volume_bin(relative_volume(coords.shape[0], brain_voxels))
        assignment = region_overlap(coords, atlas, min_overlap_voxels)
        spread = spread_classify(labeling)
        category, agg = describe_shape(labeling, per_component[start:end])
        warnings = ["volume fraction above 75%, clamped"] if vb.clamped else []
        out.append(
            TaskDescriptors(
                study_id=study_id,
                label_name=name,
                volume=vb,
                regions=assignment,
                shape=category,
                spread=spread,
                shape_metrics=agg,
                warnings=warnings,
            )
        )
    return out


def sample_questions(
    desc: TaskDescriptors, bank: TemplateBank, seed: int, split: str = "train"
) -> list[DatasetRecord]:
    """Exactly six records for one descriptor under the coverage protocol."""
    rng = stream(seed, "qa", desc.study_id, desc.label_name)
    multitask = _sample_multitask(bank, rng)
    partial = bank.partial_oos[int(rng.integers(len(bank.partial_oos)))]
    full = bank.full_oos[int(rng.integers(len(bank.full_oos)))]

    records = []
    for slot, tpl in enumerate(multitask + [partial, full]):
        oos = "none" if slot < 4 else ("partial" if slot == 4 else "full")
        question, answer = render(tpl, descriptor_values(desc))
        records.append(
            DatasetRecord(
                id=f"{desc.study_id}/{desc.label_name}/{slot}",
                study_id=desc.study_id,
                label_name=desc.label_name,
                split=split,
                question=question,
                answer=answer,
                task_set=tuple(t for t in TASKS if t in tpl.task_set),
                oos_kind=oos,
                gold=_gold_for(desc, tpl.task_set),
                template_id=tpl.id,
                warnings=tuple(desc.warnings),
            )
        )
    return records


def _sample_multitask(bank: TemplateBank, rng: np.random.Generator) -> list[Template]:
    """Four distinct multitask templates whose task sets cover all tasks.

    Draw uniformly without replacement; if coverage is incomplete, resample
    the minimal number of draws: replace a redundant draw (one whose tasks
    are all covered by the others) with a uniform draw over templates that
    contain the first missing task.
    """
    pool = bank.multitask
    if len(pool) < 4:
        raise BankError("fewer than 4 multitask templates")
    idx = rng.choice(len(pool), size=4, replace=False)
    chosen = [pool[int(i)] for i in idx]

    def union_without(skip: int) -> frozenset:
        return frozenset().union(*(tpl.task_set for j, tpl in enumerate(chosen) if j != skip))

    def missing_tasks() -> list[str]:
        covered = frozenset().union(*(tpl.task_set for tpl in chosen))
        return [task for task in TASKS if task not in covered]

    missing = missing_tasks()
    guard = 0
    while missing:
        guard += 1
        if guard > 16:
            raise BankError("coverage repair failed; bank too sparse")
        target = missing[0]
        redundant = next(j for j in range(4) if chosen[j].task_set <= union_without(j))
        chosen_ids = {tpl.id for tpl in chosen}
        candidates = [tpl for tpl in pool if target in tpl.task_set and tpl.id not in chosen_ids]
        if not candidates:
            raise BankError(f"no unused multitask template covers task {target!r}")
        chosen[redundant] = candidates[int(rng.integers(len(candidates)))]
        missing = missing_tasks()
    return chosen


def _gold_for(desc: TaskDescriptors, task_set: frozenset) -> dict[str, object]:
    gold: dict[str, object] = {}
    for task in TASKS:
        if task not in task_set:
            gold[task] = UNSPECIFIED
        elif task == "volume":
            gold[task] = desc.volume.bin if desc.volume is not None else NOT_AVAILABLE
        elif task == "region":
            gold[task] = (
                list(desc.regions.regions) if desc.regions is not None else NOT_AVAILABLE
            )
        elif task == "shape":
            gold[task] = desc.shape if desc.shape is not None else NOT_AVAILABLE
        else:
            gold[task] = desc.spread.category if desc.spread is not None else NOT_AVAILABLE
    return gold


def split_dataset(study_ids, seed: int) -> dict[str, str]:
    """Study-level 80/10/10 split, deterministic under the seed."""
    ids = sorted(set(study_ids))
    if not ids:
        raise GeometryError("cannot split an empty study list")
    rng = stream(seed, "split")
    order = rng.permutation(len(ids))
    n = len(ids)
    n_train = int(SPLIT_FRACTIONS[0] * n)
    n_val = int(SPLIT_FRACTIONS[1] * n)
    assignment = {}
    for rank, idx in enumerate(order):
        if rank < n_train:
            part = "train"
        elif rank < n_train + n_val:
            part = "val"
        else:
            part = "test"
        assignment[ids[int(idx)]] = part
    return assignment


def generate_dataset(
    descriptors: list[TaskDescriptors], bank: TemplateBank, seed: int
) -> list[DatasetRecord]:
    """All records for a corpus, ordered by (study, label, slot)."""
    splits = split_dataset([d.study_id for d in descriptors], seed)
    records = []
    for desc in descriptors:
        records.extend(sample_questions(desc, bank, seed, split=splits[desc.study_id]))
    records.sort(key=lambda r: (r.study_id, r.label_name, r.id))
    return records


# ---------------------------------------------------------------------------
# JSON serialization (stable key order; jsonl, one record per line)

def record_to_json(rec: DatasetRecord) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "id": rec.id,
        "study_id": rec.study_id,
        "label_name": rec.label_name,
        "split": rec.split,
        "question": rec.question,
        "answer": rec.answer,
        "task_set": list(rec.task_set),
        "oos_kind": rec.oos_kind,
        "gold_volume": rec.gold["volume"],
        "gold_regions": rec.gold["region"],
        "gold_shape": rec.gold["shape"],
        "gold_spread": rec.gold["spread"],
        "template_id": rec.template_id,
        "warnings": list(rec.warnings),
    }
    return json.dumps(payload, separators=(",", ":"))


# The JSON types each writer gives a field, as its readers check them: one
# lookup of a value's exact type per field, so that ``true`` is no integer.
# Region lists, whose names are sorted and joined, are also checked element
# by element (``_strings``) where they are read.
_RECORD_TYPES = {
    **{key: (str,) for key in ("id", "study_id", "label_name", "split", "question", "answer",
                               "oos_kind", "gold_volume", "gold_shape", "gold_spread",
                               "template_id")},
    "task_set": (list,), "gold_regions": (list, str), "warnings": (list,)}
_NUMBER_OR_NULL = (float, int, type(None))
_DESCRIPTOR_TYPES = {
    "study_id": (str,), "label_name": (str,), "volume_bin": (str,),
    "volume_fraction": _NUMBER_OR_NULL, "volume_clamped": (bool,), "region_counts": (dict,),
    "shape": (str,), "spread": (str,), "core_fraction": _NUMBER_OR_NULL, "n_components": (int,),
    "warnings": (list,)}
_TYPE_NAMES = {(str,): "a string", (bool,): "true or false", (dict,): "an object",
               (int,): "an integer", (list,): "a list", (list, str): "a list or a string",
               _NUMBER_OR_NULL: "a number or null", (str, type(None)): "a string or null",
               (list, str, type(None)): "a list, a string or null"}


def _check_types(d: dict, types: dict) -> None:
    """A TypeError naming the first key of ``d`` whose value's type is not in ``types``."""
    for key, kinds in types.items():
        if key in d and type(d[key]) not in kinds:
            raise TypeError(f"{key} must be {_TYPE_NAMES[kinds]}, not {d[key]!r}")


def _strings(key: str, value) -> list:
    """``value`` of field ``key``, which must be a list of strings, else a TypeError."""
    if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
        raise TypeError(f"{key} must be a list of strings, not {value!r}")
    return value


def record_from_json(d: dict) -> DatasetRecord:
    """One decoded record; a field not of the type ``record_to_json`` writes is a TypeError."""
    _check_types(d, _RECORD_TYPES)
    regions = d["gold_regions"]
    return DatasetRecord(
        id=d["id"],
        study_id=d["study_id"],
        label_name=d["label_name"],
        split=d["split"],
        question=d["question"],
        answer=d["answer"],
        task_set=tuple(d["task_set"]),
        oos_kind=d["oos_kind"],
        gold={
            "volume": d["gold_volume"],
            "region": regions if isinstance(regions, str) else _strings("gold_regions", regions),
            "shape": d["gold_shape"],
            "spread": d["gold_spread"],
        },
        template_id=d.get("template_id", ""),
        warnings=tuple(d.get("warnings", ())),
    )


def descriptor_to_json(desc: TaskDescriptors) -> str:
    metrics = None
    if desc.shape_metrics is not None:
        m = desc.shape_metrics
        metrics = {
            "volume_mm3": m.volume,
            "area_mm2": m.area,
            "sphericity": m.sphericity,
            "compactness": m.compactness,
            "eigenvalues": list(m.eigenvalues),
            "elongation": m.elongation,
            "flatness": m.flatness,
            "solidity": m.solidity,
        }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "study_id": desc.study_id,
        "label_name": desc.label_name,
        "volume_bin": desc.volume.bin if desc.volume else NOT_AVAILABLE,
        "volume_fraction": desc.volume.raw_fraction if desc.volume else None,
        "volume_clamped": bool(desc.volume.clamped) if desc.volume else False,
        "regions": list(desc.regions.regions) if desc.regions is not None else NOT_AVAILABLE,
        "region_counts": dict(desc.regions.overlap_counts) if desc.regions is not None else {},
        "shape": desc.shape if desc.shape is not None else NOT_AVAILABLE,
        "spread": desc.spread.category if desc.spread is not None else NOT_AVAILABLE,
        "core_fraction": desc.spread.core_fraction if desc.spread is not None else None,
        "n_components": desc.spread.n_components if desc.spread is not None else 0,
        "shape_metrics": metrics,
        "warnings": list(desc.warnings),
    }
    return json.dumps(payload, separators=(",", ":"))


def descriptor_from_json(d: dict) -> TaskDescriptors:
    """One decoded descriptor; a field not of the type its writer emits is a TypeError.

    ``regions`` is a list of strings or "N/A"; ``region_counts`` maps names to integers."""
    _check_types(d, _DESCRIPTOR_TYPES)
    volume = None
    if d.get("volume_bin", NOT_AVAILABLE) != NOT_AVAILABLE:
        volume = VolumeBin(
            d["volume_bin"], float(d.get("volume_fraction") or 0.0),
            bool(d.get("volume_clamped", False)),
        )
    regions = None
    if d.get("regions", NOT_AVAILABLE) != NOT_AVAILABLE:
        counts = d.get("region_counts", {})
        if not all(type(c) is int for c in counts.values()):
            raise TypeError(f"region_counts must be an object of integers, not {counts!r}")
        regions = RegionAssignment(tuple(_strings("regions", d["regions"])), counts)
    shape = d.get("shape") if d.get("shape") != NOT_AVAILABLE else None
    spread = None
    if d.get("spread", NOT_AVAILABLE) != NOT_AVAILABLE:
        spread = SpreadDescriptor(
            d["spread"], float(d.get("core_fraction") or 0.0), int(d.get("n_components") or 0)
        )
    return TaskDescriptors(
        study_id=d["study_id"],
        label_name=d["label_name"],
        volume=volume,
        regions=regions,
        shape=shape,
        spread=spread,
        warnings=list(d.get("warnings", [])),
    )


# ---------------------------------------------------------------------------
# Frequency statistics

SPREAD_CATEGORIES = (SPREAD_SINGLE, SPREAD_CORE_SATELLITES, SPREAD_SCATTERED)

TASK_VOCAB = {
    "volume": VOLUME_BINS,
    "region": REGION_NAMES,
    "shape": SHAPE_CATEGORIES,
    "spread": SPREAD_CATEGORIES,
}


@dataclass
class FrequencyStats:
    summary: dict[str, int]
    rows: list[tuple[str, str, float]]  # (task, label, percent)


def dataset_stats(records: list[DatasetRecord]) -> FrequencyStats:
    """Percentage frequency of every task label per question, plus aggregates.

    Region rows count set membership, so they need not sum to 100.
    """
    n = len(records)
    if n == 0:
        raise GeometryError("no records to summarize")
    summary = {
        "questions": n,
        "mpmri": len({r.study_id for r in records}),
        "unique_questions": len({r.question for r in records}),
        "unique_answers": len({r.answer for r in records}),
    }
    rows: list[tuple[str, str, float]] = []
    for task in TASKS:
        golds = [r.gold[task] for r in records]
        rows.append((task, UNSPECIFIED, 100.0 * sum(g == UNSPECIFIED for g in golds) / n))
        rows.append((task, NOT_AVAILABLE, 100.0 * sum(g == NOT_AVAILABLE for g in golds) / n))
        for value in TASK_VOCAB[task]:
            if task == "region":
                count = sum(isinstance(g, list) and value in g for g in golds)
            else:
                count = sum(g == value for g in golds)
            rows.append((task, value, 100.0 * count / n))
    n_oos = sum(r.oos_kind != "none" for r in records)
    rows.append(("out-of-scope", "Not out-of-scope", 100.0 * (n - n_oos) / n))
    rows.append(("out-of-scope", "Out-of-scope", 100.0 * n_oos / n))
    return FrequencyStats(summary=summary, rows=rows)


def stats_to_csv(stats: FrequencyStats) -> str:
    lines = ["task,label,frequency_pct"]
    for task, label, pct in stats.rows:
        name = label if "," not in label else f'"{label}"'
        lines.append(f"{task},{name},{pct:.1f}")
    return "\n".join(lines) + "\n"
