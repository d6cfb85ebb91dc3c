from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import settings

from brainvqa.rng import stream

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# property test that fails in CI fails the same way when re-run.
settings.register_profile("ci", derandomize=True)


def digitized_sphere(radius: int, margin: int = 2) -> np.ndarray:
    n = radius + margin
    g = np.arange(-n, n + 1)
    x, y, z = np.meshgrid(g, g, g, indexing="ij")
    return (x * x + y * y + z * z <= radius * radius).astype(np.uint8)


def digitized_ellipsoid(semi_axes: tuple[int, int, int], margin: int = 2) -> np.ndarray:
    grids = np.meshgrid(
        *[np.arange(-(a + margin), a + margin + 1) for a in semi_axes], indexing="ij"
    )
    dist = sum((g / a) ** 2 for g, a in zip(grids, semi_axes))
    return (dist <= 1.0).astype(np.uint8)


def random_blob(seed: int, dims=(16, 16, 16), density: float = 0.35) -> np.ndarray:
    rng = stream(seed, "blob")
    return (rng.random(dims) < density).astype(np.uint8)


def with_manifest(raw: bytes, blob: bytes) -> bytes:
    """Checkpoint bytes ``raw`` with their manifest replaced by ``blob``."""
    blob_len = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    return raw[:4] + np.uint32(len(blob)).tobytes() + blob + raw[8 + blob_len :]


def edit_manifest(path, edit) -> None:
    """Rewrite the checkpoint at ``path`` after ``edit(manifest)`` changed its manifest."""
    raw = path.read_bytes()
    blob_len = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    manifest = json.loads(raw[8 : 8 + blob_len])
    edit(manifest)
    path.write_bytes(with_manifest(raw, json.dumps(manifest).encode("utf-8")))


@pytest.fixture(scope="session")
def sphere10() -> np.ndarray:
    return digitized_sphere(10)
