"""Array-code components and marching cubes against their loop originals.

``union_find_components`` and ``welding_marching_cubes`` are the original
implementations: a Python union-find called once per neighbor pair, and a
per-cell walk that welds vertices through a dict.  They stay here as the
references that ``connected_components`` and ``marching_cubes`` must
reproduce exactly: the same labels, ordering, coordinate arrays, vertices and
triangle numbering.  ``union_find_components`` also returns its component id
grid (0 for background, ``i + 1`` for component ``i``), which the grid rebuilt
from ``component_coords`` must equal.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from brainvqa.errors import GeometryError
from brainvqa.mc_tables import TRI_TABLE
from brainvqa.morphology import ComponentLabeling, connected_components
from brainvqa.surface import CORNER_OFFSETS, EDGE_CORNERS, ISO_LEVEL, SurfaceMesh, marching_cubes

HALF_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) < (0, 0, 0)
]


class UnionFind:
    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def union_find_components(
    mask: np.ndarray, spacing=(1.0, 1.0, 1.0)
) -> tuple[ComponentLabeling, np.ndarray]:
    mask = np.asarray(mask)
    if mask.ndim != 3:
        raise ValueError(f"mask must be 3D, got shape {mask.shape}")
    fg = mask != 0
    dv = float(spacing[0] * spacing[1] * spacing[2])
    coords = np.argwhere(fg)
    labeling = np.zeros(mask.shape, dtype=np.int32)
    if coords.shape[0] == 0:
        return ComponentLabeling([], [], [], dv), labeling

    index = np.full(mask.shape, -1, dtype=np.int64)
    index[fg] = np.arange(coords.shape[0])
    uf = UnionFind(coords.shape[0])
    dims = mask.shape
    for off in HALF_OFFSETS:
        shifted = coords + off
        valid = np.ones(coords.shape[0], dtype=bool)
        for axis in range(3):
            valid &= (shifted[:, axis] >= 0) & (shifted[:, axis] < dims[axis])
        src = index[fg][valid]
        neigh = index[shifted[valid, 0], shifted[valid, 1], shifted[valid, 2]]
        hit = neigh >= 0
        for a, b in zip(src[hit], neigh[hit]):
            uf.union(int(a), int(b))

    roots = np.array([uf.find(i) for i in range(coords.shape[0])])
    linear = np.ravel_multi_index((coords[:, 0], coords[:, 1], coords[:, 2]), dims, order="F")
    order_keys = {}
    for root in np.unique(roots):
        members = roots == root
        order_keys[root] = (-int(members.sum()), int(linear[members].min()))
    ordered_roots = sorted(order_keys, key=order_keys.get)

    voxels, volumes, coord_lists = [], [], []
    for new_id, root in enumerate(ordered_roots, start=1):
        members = coords[roots == root]
        labeling[members[:, 0], members[:, 1], members[:, 2]] = new_id
        voxels.append(members.shape[0])
        volumes.append(members.shape[0] * dv)
        coord_lists.append(members)
    return ComponentLabeling(voxels, volumes, coord_lists, dv), labeling


EDGE_GLOBAL = []
for _a, _b in EDGE_CORNERS:
    _lo = np.minimum(CORNER_OFFSETS[_a], CORNER_OFFSETS[_b])
    EDGE_GLOBAL.append((_lo, int(np.argmax(CORNER_OFFSETS[_a] != CORNER_OFFSETS[_b]))))


def welding_marching_cubes(mask: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> SurfaceMesh:
    mask = np.asarray(mask)
    if mask.ndim != 3:
        raise GeometryError(f"mask must be 3D, got shape {mask.shape}")
    if not (mask != 0).any():
        raise GeometryError("cannot mesh an empty component")
    grid = np.zeros(tuple(d + 2 for d in mask.shape), dtype=np.float64)
    grid[1:-1, 1:-1, 1:-1] = (mask != 0).astype(np.float64)
    nx, ny, nz = (s - 1 for s in grid.shape)
    case = np.zeros((nx, ny, nz), dtype=np.int32)
    for bit, (ox, oy, oz) in enumerate(CORNER_OFFSETS):
        below = grid[ox : ox + nx, oy : oy + ny, oz : oz + nz] < ISO_LEVEL
        case |= below.astype(np.int32) << bit

    active = np.argwhere((case != 0) & (case != 255))
    spacing = np.asarray(spacing, dtype=np.float64)
    vertex_ids: dict[tuple[int, int, int, int], int] = {}
    vertices: list[np.ndarray] = []
    triangles: list[tuple[int, int, int]] = []

    def edge_vertex(cell: np.ndarray, edge: int) -> int:
        lo, axis = EDGE_GLOBAL[edge]
        base = cell + lo
        key = (int(base[0]), int(base[1]), int(base[2]), axis)
        vid = vertex_ids.get(key)
        if vid is not None:
            return vid
        v0 = grid[base[0], base[1], base[2]]
        p1 = base.copy()
        p1[axis] += 1
        v1 = grid[p1[0], p1[1], p1[2]]
        mu = (ISO_LEVEL - v0) / (v1 - v0)
        pos = base.astype(np.float64)
        pos[axis] += mu
        vertices.append((pos - 1.0) * spacing)
        vertex_ids[key] = len(vertices) - 1
        return len(vertices) - 1

    for cell in active:
        row = TRI_TABLE[int(case[cell[0], cell[1], cell[2]])]
        for i in range(0, 16, 3):
            if row[i] < 0:
                break
            triangles.append(tuple(edge_vertex(cell, e) for e in row[i : i + 3]))
    return SurfaceMesh(np.array(vertices), np.array(triangles, dtype=np.int64))


def assert_same_labeling(
    got: ComponentLabeling, want: ComponentLabeling, want_ids: np.ndarray
) -> None:
    ids = np.zeros(want_ids.shape, dtype=np.int32)
    for i, coords in enumerate(got.component_coords):
        ids[tuple(coords.T)] = i + 1
    assert np.array_equal(ids, want_ids)
    assert got.component_voxels == want.component_voxels
    assert [type(v) for v in got.component_voxels] == [type(v) for v in want.component_voxels]
    assert got.component_volumes == want.component_volumes
    assert got.voxel_volume_mm3 == want.voxel_volume_mm3
    assert len(got.component_coords) == len(want.component_coords)
    for a, b in zip(got.component_coords, want.component_coords):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


def assert_same_mesh(mask: np.ndarray, spacing) -> None:
    got, want = marching_cubes(mask, spacing), welding_marching_cubes(mask, spacing)
    assert got.vertices.dtype == want.vertices.dtype
    assert got.triangles.dtype == want.triangles.dtype
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.triangles, want.triangles)


def check_both(mask: np.ndarray, spacing) -> None:
    got = connected_components(np.argwhere(mask), spacing)
    assert_same_labeling(got, *union_find_components(mask, spacing))
    if mask.any():
        assert_same_mesh(mask, spacing)


spacings = st.tuples(*[st.floats(0.25, 3.0, allow_nan=False, allow_infinity=False)] * 3)
shapes = hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=9)


@st.composite
def dense_masks(draw):
    """Seeded masks of any density, so large and touching components occur."""
    dims = draw(shapes)
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random(dims) < density).astype(draw(st.sampled_from([np.uint8, np.int16, bool])))


@st.composite
def sheets(draw):
    """A 1-voxel-thick plane with holes: diagonal links carry the connectivity."""
    dims = draw(hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=12))
    axis = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.zeros(dims, dtype=np.uint8)
    plane = [slice(None)] * 3
    plane[axis] = draw(st.integers(0, dims[axis] - 1))
    mask[tuple(plane)] = rng.random(mask[tuple(plane)].shape) < draw(st.floats(0.2, 1.0))
    return mask


@st.composite
def bordered(draw):
    """Every face of the grid set, so components run along all six borders."""
    mask = draw(dense_masks())
    mask[[0, -1], :, :] = 1
    mask[:, [0, -1], :] = 1
    mask[:, :, [0, -1]] = 1
    return mask


@st.composite
def chains(draw):
    """A 26-connected random walk of 65 to 300 steps, plus a stray voxel or two."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = (14, 14, 14)
    mask = np.zeros(dims, dtype=np.uint8)
    pos = rng.integers(0, 14, size=3)
    steps = np.array([o for o in np.ndindex(3, 3, 3) if o != (1, 1, 1)]) - 1
    for step in steps[rng.integers(0, len(steps), size=draw(st.integers(65, 300)))]:
        mask[tuple(pos)] = 1
        pos = np.clip(pos + step, 0, 13)
    mask[tuple(rng.integers(0, 14, size=3))] = 1
    return mask


class TestComponentsAndMeshAgainstLoops:
    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(np.uint8, shapes, elements=st.integers(0, 1)), spacings)
    def test_sparse_masks(self, mask, spacing):
        check_both(mask, spacing)

    @settings(max_examples=150, deadline=None)
    @given(dense_masks(), spacings)
    def test_dense_masks(self, mask, spacing):
        check_both(mask, spacing)

    @settings(max_examples=60, deadline=None)
    @given(sheets(), spacings)
    def test_one_voxel_sheets(self, mask, spacing):
        check_both(mask, spacing)

    @settings(max_examples=40, deadline=None)
    @given(bordered(), spacings)
    def test_masks_touching_the_border(self, mask, spacing):
        check_both(mask, spacing)

    @settings(max_examples=40, deadline=None)
    @given(chains(), spacings)
    def test_long_chains(self, mask, spacing):
        check_both(mask, spacing)

    @pytest.mark.parametrize("dims", [(1, 1, 1), (3, 4, 5), (1, 9, 1)])
    def test_empty_mask(self, dims):
        mask = np.zeros(dims, dtype=np.uint8)
        check_both(mask, (0.5, 1.0, 2.0))
        for mesher in (marching_cubes, welding_marching_cubes):
            with pytest.raises(GeometryError, match="empty component"):
                mesher(mask)

    @pytest.mark.parametrize("where", [(0, 0, 0), (2, 1, 3), (4, 2, 5)])
    def test_single_voxel(self, where):
        mask = np.zeros((5, 3, 6), dtype=np.uint8)
        mask[where] = 1
        check_both(mask, (0.7, 1.3, 2.1))

    def test_straight_line_of_200_voxels(self):
        # Lowest index at one end: one hooking round, then several rounds of jumping.
        mask = np.zeros((200, 3, 3), dtype=np.uint8)
        mask[:, 1, 1] = 1
        assert connected_components(np.argwhere(mask)).n_components == 1
        check_both(mask, (1.0, 1.0, 1.3))

    def test_not_3d_is_value_error(self):
        with pytest.raises(ValueError, match="3D"):
            connected_components(np.argwhere(np.ones((2, 2))))
