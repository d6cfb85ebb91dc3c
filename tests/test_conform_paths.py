"""The two sampling paths of ``conform_to_ras`` against each other and an oracle.

``full_grid_conform`` is the original implementation, which maps every output
voxel at once; it stays here as the reference the separable and slab paths
must reproduce byte for byte.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainvqa import nifti
from brainvqa.nifti import Volume3D, VolumeHeader, conform_to_ras


def full_grid_conform(vol: Volume3D, target_spacing) -> Volume3D:
    spacing = np.asarray(target_spacing, dtype=np.float64)
    affine = vol.header.affine
    inv = np.linalg.inv(affine)

    dims = np.asarray(vol.header.dims, dtype=np.float64)
    lows, highs = -0.5 * np.ones(3), dims - 0.5
    corners = np.array(
        [[highs[a] if bits[a] else lows[a] for a in range(3)] for bits in np.ndindex(2, 2, 2)]
    )
    world = (affine[:3, :3] @ corners.T).T + affine[:3, 3]
    wmin = world.min(axis=0)
    wmax = world.max(axis=0)
    span = wmax - wmin
    out_dims = np.maximum(1, np.rint(span / spacing).astype(int))
    origin = wmin + spacing / 2.0

    out_affine = np.eye(4)
    out_affine[:3, :3] = np.diag(spacing)
    out_affine[:3, 3] = origin

    ii, jj, kk = np.meshgrid(
        np.arange(out_dims[0]), np.arange(out_dims[1]), np.arange(out_dims[2]), indexing="ij"
    )
    out_idx = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3).astype(np.float64)
    world_pts = out_idx * spacing + origin
    src = (inv[:3, :3] @ world_pts.T).T + inv[:3, 3]

    nearest = np.rint(src).astype(np.int64)
    valid = ((nearest >= 0) & (nearest < vol.header.dims)).all(axis=1)
    out = np.zeros(int(np.prod(out_dims)), dtype=vol.data.dtype)
    nv = nearest[valid]
    out[valid] = vol.data[nv[:, 0], nv[:, 1], nv[:, 2]]
    out = out.reshape(tuple(out_dims))

    header = VolumeHeader(
        dims=tuple(int(d) for d in out_dims),
        pixdim=tuple(float(s) for s in spacing),
        affine=out_affine,
        datatype_code=vol.header.datatype_code,
    )
    return Volume3D(header=header, data=out)


def assert_identical(a: Volume3D, b: Volume3D) -> None:
    assert a.header.dims == b.header.dims
    assert a.header.pixdim == b.header.pixdim
    assert a.header.datatype_code == b.header.datatype_code
    assert a.header.affine.tobytes() == b.header.affine.tobytes()
    assert a.data.dtype == b.data.dtype
    assert a.data.tobytes() == b.data.tobytes()


def slab_conform(vol: Volume3D, target_spacing) -> Volume3D:
    """Force the general slab path, whatever the affine."""
    spacing = np.asarray(target_spacing, dtype=np.float64)
    header = nifti._ras_header(vol.header, spacing)
    inv = np.linalg.inv(vol.header.affine)
    return Volume3D(header, nifti._resample_slabs(vol.data, inv, header))


def rotation(axis: int, degrees: float) -> np.ndarray:
    t = np.deg2rad(degrees)
    c, s = np.cos(t), np.sin(t)
    i, j = [a for a in range(3) if a != axis]
    m = np.eye(3)
    m[i, i], m[i, j], m[j, i], m[j, j] = c, -s, s, c
    return m


def oblique_affine(z_deg: float, x_deg: float, scales, shift) -> np.ndarray:
    aff = np.eye(4)
    aff[:3, :3] = rotation(2, z_deg) @ rotation(0, x_deg) @ np.diag(scales)
    aff[:3, 3] = shift
    return aff


def random_volume(seed: int, dims, dtype, affine) -> Volume3D:
    rng = np.random.default_rng(seed)
    if np.dtype(dtype).kind == "f":
        data = rng.normal(size=dims).astype(dtype)
    else:
        data = rng.integers(0, 7, size=dims).astype(dtype)
    return Volume3D.from_array(data, affine=affine)


@st.composite
def axis_aligned_cases(draw):
    perm = draw(st.permutations([0, 1, 2]))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3))
    # round scales and spacings give strided, repeated and flipped index runs
    scale = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), st.floats(0.4, 3.0))
    scales = draw(st.lists(scale, min_size=3, max_size=3))
    shift = draw(st.lists(st.floats(-60.0, 60.0), min_size=3, max_size=3))
    aff = np.eye(4)
    aff[:3, :3] = 0.0
    for voxel_axis, world_axis in enumerate(perm):
        aff[world_axis, voxel_axis] = signs[voxel_axis] * scales[voxel_axis]
    aff[:3, 3] = shift
    dims = tuple(draw(st.lists(st.integers(1, 10), min_size=3, max_size=3)))
    dtype = draw(st.sampled_from([np.uint8, np.int16, np.int32, np.float32]))
    step = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.floats(0.5, 2.5))
    spacing = tuple(draw(st.lists(step, min_size=3, max_size=3)))
    vol = random_volume(draw(st.integers(0, 2**31 - 1)), dims, dtype, aff)
    if draw(st.booleans()):  # parsed volumes keep the on-disk (Fortran) order
        vol = Volume3D(vol.header, np.asfortranarray(vol.data))
    return vol, spacing


class TestSeparablePath:
    @settings(max_examples=80, deadline=None)
    @given(axis_aligned_cases())
    def test_equals_slab_path(self, case):
        vol, spacing = case
        assert nifti._axis_permutation(np.linalg.inv(vol.header.affine)[:3, :3]) is not None
        assert_identical(conform_to_ras(vol, spacing), slab_conform(vol, spacing))

    def test_equals_full_grid_oracle(self):
        aff = np.zeros((4, 4))
        aff[0, 1], aff[1, 2], aff[2, 0], aff[3, 3] = 0.9, -1.2, 2.0, 1.0
        aff[:3, 3] = [5.0, -3.0, 7.3]
        vol = random_volume(3, (17, 13, 9), np.int16, aff)
        for spacing in [(1, 1, 1), (0.7, 0.7, 0.7), (1.5, 1.5, 1.5)]:
            assert_identical(conform_to_ras(vol, spacing), full_grid_conform(vol, spacing))

    def test_flipped_anisotropic_float_equals_full_grid_oracle(self):
        vol = random_volume(5, (11, 8, 6), np.float32, np.diag([-2.0, 1.0, 1.5, 1.0]))
        for spacing in [(1, 1, 1), (0.8, 1.3, 0.6)]:
            assert_identical(conform_to_ras(vol, spacing), full_grid_conform(vol, spacing))

    SEPARABLE_AFFINES = {
        "identity": np.eye(4),
        "flipped": np.array([[-1.0, 0, 0, 4.0], [0, 1.0, 0, -2.0], [0, 0, -2.0, 1.5], [0, 0, 0, 1]]),
        "permuted": np.array([[0, 0.9, 0, 5.0], [0, 0, -1.2, -3.0], [2.0, 0, 0, 7.3], [0, 0, 0, 1]]),
    }

    @pytest.mark.parametrize("spacing", [(1, 1, 1), (0.7, 0.7, 0.7), (2, 2, 2)])
    @pytest.mark.parametrize("affine", sorted(SEPARABLE_AFFINES))
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_output_keeps_the_input_order(self, order, affine, spacing):
        vol = random_volume(4, (12, 9, 7), np.int16, self.SEPARABLE_AFFINES[affine])
        vol = Volume3D(vol.header, np.asarray(vol.data, order=order))
        out = conform_to_ras(vol, spacing)
        assert out.data.flags[f"{order}_CONTIGUOUS"]
        assert out.data.flags.writeable
        assert not np.shares_memory(out.data, vol.data)
        assert_identical(out, full_grid_conform(vol, spacing))

    def test_oblique_affine_is_not_separable(self):
        inv = np.linalg.inv(oblique_affine(20, 12, (1, 1, 1.3), (0, 0, 0)))
        assert nifti._axis_permutation(inv[:3, :3]) is None


class TestSlabPath:
    CASES = [
        ((20, 23, 17), oblique_affine(20, 12, (1.0, 1.0, 1.3), (-10, -12, -8)), (1, 1, 1)),
        ((16, 16, 16), oblique_affine(-35, 50, (0.8, 1.1, 1.0), (3, 2, -5)), (0.7, 1.0, 1.4)),
        ((9, 30, 12), oblique_affine(90, 7, (2.0, 1.0, 1.5), (0, 0, 0)), (1.2, 1.2, 1.2)),
    ]

    @pytest.mark.parametrize("slab_voxels", [1, 700, 1 << 15])
    @pytest.mark.parametrize("dims,affine,spacing", CASES)
    def test_oblique_equals_full_grid_oracle(self, monkeypatch, slab_voxels, dims, affine,
                                             spacing):
        monkeypatch.setattr(nifti, "_SLAB_VOXELS", slab_voxels)
        for dtype in (np.int16, np.float32):
            vol = random_volume(11, dims, dtype, affine)
            assert_identical(conform_to_ras(vol, spacing), full_grid_conform(vol, spacing))


def traced_peak(fn, *args) -> tuple[object, int]:
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestMemory:
    def test_identity_conform_below_three_inputs(self):
        vol = random_volume(1, (96, 96, 64), np.int16, np.eye(4))
        out, peak = traced_peak(conform_to_ras, vol, (1, 1, 1))
        assert np.array_equal(out.data, vol.data)
        assert peak < 3 * vol.data.nbytes

    def test_oblique_peak_bounded_by_slab_and_output(self):
        # the full-grid oracle peaks near 144 bytes per output voxel; the slab
        # path adds to the output under 200 bytes per slab voxel, whatever the
        # grid size
        for n in (40, 64):
            vol = random_volume(2, (n, n, n), np.int16, oblique_affine(20, 12, (1, 1, 1.3), 0))
            out, peak = traced_peak(conform_to_ras, vol, (1, 1, 1))
            plane = out.header.dims[1] * out.header.dims[2]
            assert out.data.size > 4 * max(nifti._SLAB_VOXELS, plane)
            assert peak < out.data.nbytes + 256 * max(nifti._SLAB_VOXELS, plane)
