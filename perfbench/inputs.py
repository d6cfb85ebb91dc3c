"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of ``(seed, params)``: the same seed gives
byte-identical input files.  The program under test only ever sees the files
(and, for ``moe_train``, the in-memory toy fixture) that these functions
produce.  Known facts about each input (which labels are present, which
predictions were perturbed) are returned alongside so that the benchmark can
check outputs against them.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from brainvqa.nifti import Volume3D, write_nifti_file
from brainvqa.regions import REGION_NAMES, VOLUME_BINS
from brainvqa.rng import stream
from brainvqa.shape import SHAPE_CATEGORIES
from brainvqa.synthetic import GLI_LABELS, block_atlas

SPREADS = ("single lesion", "core with satellite lesions", "scattered lesions")
NA = "N/A"

ENHANCING, CORE, FLAIR = 1, 2, 3


def _ellipsoid(shape, center, semi) -> np.ndarray:
    """Boolean ellipsoid on a grid of ``shape`` (voxel-index coordinates)."""
    grids = np.ogrid[tuple(slice(0, n) for n in shape)]
    dist2 = sum(((g - c) / a) ** 2 for g, c, a in zip(grids, center, semi))
    return dist2 <= 1.0


def _paint(seg, center, semi, value, where=None) -> None:
    """Set ``value`` inside an ellipsoid, touching only its bounding box."""
    lo = [max(0, int(np.floor(c - a)) - 1) for c, a in zip(center, semi)]
    hi = [min(n, int(np.ceil(c + a)) + 2) for c, a, n in zip(center, semi, seg.shape)]
    box = tuple(slice(l, h) for l, h in zip(lo, hi))
    inside = _ellipsoid([h - l for l, h in zip(lo, hi)],
                        [c - l for c, l in zip(center, lo)], semi)
    if where is not None:
        inside &= where[box]
    seg[box][inside] = value


def _write_corpus_config(out: Path, atlas_vol: Volume3D, region_map: dict) -> None:
    write_nifti_file(atlas_vol, out / "atlas.nii.gz")
    (out / "region_map.json").write_text(
        json.dumps({str(k): v for k, v in region_map.items()}, indent=2), encoding="utf-8")
    (out / "labels.json").write_text(
        json.dumps({"labels": {str(k): v for k, v in GLI_LABELS.items()}}, indent=2),
        encoding="utf-8")


# ---------------------------------------------------------------------------
# brats_describe: BraTS-grid studies with nested lesions

def brats_study(seed: int, index: int, dims, flair_voxels: int):
    """Brain ellipsoid plus one nested lesion (FLAIR > enhancing > core) and satellites.

    The FLAIR extent is scaled to ``flair_voxels`` so that the work per study
    depends on the schedule, not on the seed; the seed moves the lesion, its
    three side lobes and the 0-3 satellites.  The resection cavity (label 4)
    is absent, as in pre-operative scans.
    """
    rng = stream(seed, "bench-brats", index)
    center = np.array(dims, dtype=np.float64) / 2.0
    brain_semi = np.array(dims, dtype=np.float64) * np.array([0.30, 0.37, 0.40])
    brain = _ellipsoid(dims, center, brain_semi)

    lesion_c = center + rng.uniform(-0.35, 0.35, size=3) * brain_semi
    lobes = [(np.zeros(3), rng.uniform(0.9, 1.1, size=3))]
    for _ in range(3):
        direction = rng.normal(size=3)
        lobes.append((0.6 * direction / np.linalg.norm(direction), rng.uniform(0.55, 0.7, size=3)))

    def flair_at(scale: float) -> np.ndarray:
        seg = np.zeros(dims, dtype=np.int16)
        for offset, semi in lobes:
            _paint(seg, lesion_c + scale * offset, scale * semi, FLAIR, where=brain)
        return seg

    scale = 10.0
    for _ in range(2):  # two secant steps land within a few percent of the target
        count = int(np.count_nonzero(flair_at(scale)))
        scale *= (flair_voxels / max(count, 1)) ** (1.0 / 3.0)
    seg = flair_at(scale)
    enh_semi = 0.55 * scale * lobes[0][1]
    _paint(seg, lesion_c, enh_semi, ENHANCING)
    _paint(seg, lesion_c, 0.5 * enh_semi, CORE)
    for _ in range(int(rng.integers(0, 4))):  # 0-3 satellites well away from the lesion
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        sat_c = lesion_c + direction * (2.2 * scale + 6.0)
        _paint(seg, sat_c, rng.uniform(1.5, 3.5, size=3), FLAIR, where=brain & (seg == 0))
    t1 = (brain * 100).astype(np.int16)
    return t1, seg


def write_brats_corpus(out: Path, seed: int, dims, flair_schedule) -> dict:
    """Axis-aligned RAS 1 mm corpus; returns {study_id: seg array} for the checks."""
    affine = np.eye(4)
    affine[:3, 3] = -np.asarray(dims, dtype=np.float64) / 2.0
    atlas = block_atlas(tuple(dims))
    _write_corpus_config(out, Volume3D.from_array(atlas.labels.volume.data, affine=affine),
                         atlas.region_map)
    segs = {}
    for i, flair_voxels in enumerate(flair_schedule):
        study_id = f"brats_{i:03d}"
        t1, seg = brats_study(seed, i, tuple(dims), flair_voxels)
        study = out / "studies" / study_id
        study.mkdir(parents=True, exist_ok=True)
        write_nifti_file(Volume3D.from_array(t1, affine=affine), study / "t1.nii.gz")
        write_nifti_file(Volume3D.from_array(seg, affine=affine), study / "seg.nii.gz")
        segs[study_id] = seg
    return segs


# ---------------------------------------------------------------------------
# oblique_scatter: oblique anisotropic grids, many small components per label

def oblique_affine(pixdim, degrees) -> np.ndarray:
    """Rotation about z then x applied to a diagonal spacing matrix."""
    az, ax = np.radians(degrees)
    rz = np.array([[np.cos(az), -np.sin(az), 0], [np.sin(az), np.cos(az), 0], [0, 0, 1]])
    rx = np.array([[1, 0, 0], [0, np.cos(ax), -np.sin(ax)], [0, np.sin(ax), np.cos(ax)]])
    affine = np.eye(4)
    affine[:3, :3] = rz @ rx @ np.diag(pixdim)
    return affine


def scatter_study(seed: int, index: int, dims, components_per_label: int):
    """Brain ellipsoid with ``components_per_label`` scattered blobs per label.

    About a third of the blobs are single voxels; the rest are ellipsoids with
    semi-axes of 0.8-2.5 voxels.  Overlaps are allowed (they merge).
    """
    rng = stream(seed, "bench-scatter", index)
    center = np.array(dims, dtype=np.float64) / 2.0
    brain_semi = np.array(dims, dtype=np.float64) * 0.42
    brain = _ellipsoid(dims, center, brain_semi)
    seg = np.zeros(dims, dtype=np.int16)
    for label in sorted(GLI_LABELS):
        for _ in range(components_per_label):
            c = center + rng.uniform(-0.6, 0.6, size=3) * brain_semi
            if rng.random() < 0.35:
                seg[tuple(np.rint(c).astype(int))] = label
            else:
                _paint(seg, c, rng.uniform(0.8, 2.5, size=3), label, where=brain)
    t1 = (brain * 100).astype(np.int16)
    return t1, seg


def write_scatter_corpus(out: Path, seed: int, dims, n_studies: int, pixdim, degrees,
                         components_per_label: int) -> dict:
    affine = oblique_affine(pixdim, degrees)
    atlas = block_atlas(tuple(dims))
    _write_corpus_config(out, Volume3D.from_array(atlas.labels.volume.data, pixdim, affine),
                         atlas.region_map)
    segs = {}
    for i in range(n_studies):
        study_id = f"oblique_{i:03d}"
        t1, seg = scatter_study(seed, i, tuple(dims), components_per_label)
        study = out / "studies" / study_id
        study.mkdir(parents=True, exist_ok=True)
        write_nifti_file(Volume3D.from_array(t1, pixdim, affine), study / "t1.nii.gz")
        write_nifti_file(Volume3D.from_array(seg, pixdim, affine), study / "seg.nii.gz")
        segs[study_id] = seg
    return {"affine": affine, "segs": segs}


def resample_nearest(data: np.ndarray, affine: np.ndarray) -> np.ndarray:
    """Independent nearest-neighbour resampling onto the 1 mm RAS grid.

    The output grid covers the voxel-extent bounding box of the input in world
    space, sampled at voxel centres; it is the reference the conformed label
    grid is checked against.
    """
    dims = np.asarray(data.shape)
    corners = np.array(np.meshgrid(*[[-0.5, d - 0.5] for d in dims], indexing="ij"))
    world = affine[:3, :3] @ corners.reshape(3, -1) + affine[:3, 3:4]
    wmin, wmax = world.min(axis=1), world.max(axis=1)
    out_dims = np.maximum(1, np.rint(wmax - wmin).astype(int))
    inv = np.linalg.inv(affine)
    out = np.zeros(tuple(out_dims), dtype=data.dtype)
    axes = [np.arange(n) + wmin[a] + 0.5 for a, n in enumerate(out_dims)]
    x, y = np.meshgrid(axes[0], axes[1], indexing="ij")
    for k, z in enumerate(axes[2]):  # one slab per output z keeps memory small
        pts = np.stack([x.ravel(), y.ravel(), np.full(x.size, z)])
        src = np.rint(inv[:3, :3] @ pts + inv[:3, 3:4]).astype(np.int64)
        ok = ((src >= 0) & (src < dims[:, None])).all(axis=0)
        plane = np.zeros(x.size, dtype=data.dtype)
        plane[ok] = data[src[0, ok], src[1, ok], src[2, ok]]
        out[:, :, k] = plane.reshape(x.shape)
    return out


# ---------------------------------------------------------------------------
# qa_corpus: descriptor JSONL, imperfect predictions, a second annotation

def _random_descriptor(rng, study_id: str, label_name: str) -> dict:
    """One descriptor as its JSONL payload; about one in seven is all-N/A."""
    if rng.random() < 0.15:
        return {"schema_version": 1, "study_id": study_id, "label_name": label_name,
                "volume_bin": NA, "volume_fraction": None, "volume_clamped": False,
                "regions": NA, "region_counts": {}, "shape": NA, "spread": NA,
                "core_fraction": None, "n_components": 0, "shape_metrics": None,
                "warnings": []}
    vbin = VOLUME_BINS[int(rng.integers(len(VOLUME_BINS)))]
    clamped = vbin == VOLUME_BINS[-1] and rng.random() < 0.3
    n_regions = int(rng.integers(1, 5))
    regions = [REGION_NAMES[int(i)] for i in rng.choice(len(REGION_NAMES), n_regions,
                                                         replace=False)]
    counts = sorted((int(rng.integers(10, 5000)) for _ in regions), reverse=True)
    spread = SPREADS[int(rng.integers(len(SPREADS)))]
    n_comp = 1 if spread == SPREADS[0] else int(rng.integers(2, 12))
    return {"schema_version": 1, "study_id": study_id, "label_name": label_name,
            "volume_bin": vbin, "volume_fraction": round(float(rng.random()), 6),
            "volume_clamped": bool(clamped), "regions": regions,
            "region_counts": dict(zip(regions, counts)),
            "shape": SHAPE_CATEGORIES[int(rng.integers(len(SHAPE_CATEGORIES)))],
            "spread": spread, "core_fraction": round(float(rng.random()), 6),
            "n_components": n_comp, "shape_metrics": None,
            "warnings": ["volume fraction above 75%, clamped"] if clamped else []}


TASK_KEYS = {"volume": "volume_bin", "region": "regions", "shape": "shape", "spread": "spread"}
VOCAB = {"volume": VOLUME_BINS, "shape": SHAPE_CATEGORIES, "spread": SPREADS}
OOS_BY_SLOT = ("none", "none", "none", "none", "partial", "full")


def _perturb(rng, task: str, value):
    """A value for ``task`` that differs from ``value``."""
    if task == "region":
        if value == NA:
            return [REGION_NAMES[int(rng.integers(len(REGION_NAMES)))]]
        flip = REGION_NAMES[int(rng.integers(len(REGION_NAMES)))]
        out = [r for r in value if r != flip] if flip in value else value + [flip]
        return out if out else NA
    options = [v for v in VOCAB[task] + (NA,) if v != value]
    return options[int(rng.integers(len(options)))]


def write_qa_corpus(out: Path, seed: int, n_studies: int, error_rate: float) -> dict:
    """Descriptors, predictions for every record slot, and a second annotation.

    Predictions and the second annotation are keyed by record id
    ``study/label/slot`` (six slots per descriptor), which is fixed by the
    dataset protocol, so they do not depend on the program's output.
    Returns the ids whose prediction was perturbed, per task.
    """
    rng = stream(seed, "bench-qa")
    desc_lines, pred_lines, kappa_lines = [], [], []
    perturbed = {task: set() for task in ("volume", "region", "shape", "spread", "oos")}
    for s in range(n_studies):
        study_id = f"qa_{s:05d}"
        for label_name in GLI_LABELS.values():
            d = _random_descriptor(rng, study_id, label_name)
            desc_lines.append(json.dumps(d, separators=(",", ":")))
            for slot in range(6):
                rid = f"{study_id}/{label_name}/{slot}"
                pred = {"id": rid}
                other = {}
                for task, key in TASK_KEYS.items():
                    truth = d[key]
                    if rng.random() < error_rate:
                        pred[task if task != "region" else "regions"] = _perturb(rng, task, truth)
                        perturbed[task].add(rid)
                    else:
                        pred[task if task != "region" else "regions"] = truth
                    other[task] = _perturb(rng, task, truth) if rng.random() < 0.2 else truth
                oos = OOS_BY_SLOT[slot]
                if rng.random() < error_rate:
                    oos = ("none", "partial", "full")[(("none", "partial", "full").index(oos)
                                                       + int(rng.integers(1, 3))) % 3]
                    perturbed["oos"].add(rid)
                pred["oos"] = oos
                pred_lines.append(json.dumps(pred, separators=(",", ":")))
                kappa_lines.append(json.dumps({
                    "schema_version": 1, "id": rid, "study_id": study_id,
                    "label_name": label_name, "split": "train", "question": "-",
                    "answer": "-", "task_set": list(TASK_KEYS), "oos_kind": OOS_BY_SLOT[slot],
                    "gold_volume": other["volume"], "gold_regions": other["region"],
                    "gold_shape": other["shape"], "gold_spread": other["spread"],
                    "template_id": "second-annotation", "warnings": []},
                    separators=(",", ":")))
    for name, lines in (("descriptors.jsonl", desc_lines), ("pred.jsonl", pred_lines),
                        ("kappa.jsonl", kappa_lines)):
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return perturbed
