"""Synthetic volumes for tests, demos, and the bundled fixture corpus.

Ships a nine-region block atlas (real atlases are pluggable but not
redistributable) plus small random studies whose brain, lesion labels, and
grid all live on the same RAS grid at 1mm spacing.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from .nifti import LabelMask, Volume3D, write_nifti_file
from .regions import REGION_NAMES, Atlas
from .rng import stream

DEFAULT_DIMS = (48, 48, 48)

GLI_LABELS = {
    1: "Enhancing Tissue",
    2: "Non-enhancing Tumor Core",
    3: "Surrounding FLAIR Hyperintensity",
    4: "Resection Cavity",
}


def block_atlas(dims: tuple[int, int, int] = DEFAULT_DIMS) -> Atlas:
    """Nine-region atlas: a 3x3 grid of x/y columns spanning all of z."""
    data = np.zeros(dims, dtype=np.int16)
    x_edges = np.linspace(0, dims[0], 4).astype(int)
    y_edges = np.linspace(0, dims[1], 4).astype(int)
    label = 1
    region_map = {}
    for xi in range(3):
        for yi in range(3):
            data[x_edges[xi] : x_edges[xi + 1], y_edges[yi] : y_edges[yi + 1], :] = label
            region_map[label] = REGION_NAMES[label - 1]
            label += 1
    vol = Volume3D.from_array(data)
    return Atlas(labels=LabelMask(vol, dict(region_map)), region_map=region_map)


def sphere_mask(dims, center, radius) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(d) for d in dims], indexing="ij")
    dist2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    return (dist2 <= radius * radius).astype(np.uint8)


def demo_study(
    study_id: str, seed: int, dims: tuple[int, int, int] = DEFAULT_DIMS
) -> tuple[Volume3D, LabelMask]:
    """One random study: a skull-stripped-style brain ball plus lesion blobs.

    Labels may be absent (roughly one in five), single, or multi-component so
    every descriptor branch (N/A, satellites, scattered) occurs in a corpus.
    """
    rng = stream(seed, "demo-study", study_id)
    center = tuple(d // 2 for d in dims)
    brain = sphere_mask(dims, center, min(dims) // 2 - 2).astype(np.int16) * 100
    seg = np.zeros(dims, dtype=np.int16)
    for label in sorted(GLI_LABELS):
        if rng.random() < 0.2:
            continue  # label absent -> all-N/A descriptor
        n_blobs = int(rng.integers(1, 4))
        for b in range(n_blobs):
            radius = int(rng.integers(2, 6)) if b else int(rng.integers(3, 9))
            c = [int(rng.integers(radius + 3, d - radius - 3)) for d in dims]
            blob = sphere_mask(dims, c, radius)
            seg[(blob != 0) & (brain != 0) & (seg == 0)] = label
    brain_vol = Volume3D.from_array(brain)
    mask = LabelMask(Volume3D.from_array(seg), dict(GLI_LABELS))
    return brain_vol, mask


def write_fixture(
    out_dir, n_studies: int = 3, seed: int = 7, dims: tuple[int, int, int] = DEFAULT_DIMS
) -> Path:
    """Materialize a demo corpus: studies, block atlas, region map, labels config."""
    out = Path(out_dir)
    (out / "studies").mkdir(parents=True, exist_ok=True)
    atlas = block_atlas(dims)
    write_nifti_file(atlas.labels.volume, out / "atlas.nii.gz")
    with open(out / "region_map.json", "w", encoding="utf-8") as fh:
        json.dump({str(k): v for k, v in atlas.region_map.items()}, fh, indent=2)
    with open(out / "labels.json", "w", encoding="utf-8") as fh:
        json.dump({"labels": {str(k): v for k, v in GLI_LABELS.items()}}, fh, indent=2)
    for i in range(n_studies):
        study_id = f"study_{i:04d}"
        study_dir = out / "studies" / study_id
        study_dir.mkdir(parents=True, exist_ok=True)
        brain, mask = demo_study(study_id, seed, dims)
        write_nifti_file(brain, study_dir / "t1.nii.gz")
        write_nifti_file(mask.volume, study_dir / "seg.nii.gz")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write a synthetic demo corpus.")
    parser.add_argument("out_dir")
    parser.add_argument("--studies", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dims", type=int, nargs=3, default=list(DEFAULT_DIMS))
    args = parser.parse_args(argv)
    path = write_fixture(args.out_dir, args.studies, args.seed, tuple(args.dims))
    print(f"wrote fixture corpus to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
