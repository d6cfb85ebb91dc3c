from __future__ import annotations

import gzip
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from brainvqa.errors import (
    CapacityError,
    FormatError,
    GeometryError,
    TruncatedFileError,
    UnsupportedDatatypeError,
)
from brainvqa.nifti import (
    HEADER_SIZE,
    LabelMask,
    Volume3D,
    VolumeHeader,
    conform_to_ras,
    orientation_code,
    parse_nifti,
    read_nifti_file,
    write_nifti,
    write_nifti_file,
)
from geometry_helpers import voxel_volume


def label_arrays():
    return hnp.arrays(
        st.sampled_from([np.uint8, np.int16, np.int32, np.uint16]),
        hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6),
        elements=st.integers(0, 5),
    )


# Memory layouts a label volume can arrive in: contiguous either way, and
# strided, flipped and transposed views of both.
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "strided": lambda a: a[::2, :, ::2],
    "strided F": lambda a: np.asfortranarray(a)[:, ::2, :],
    "flipped": lambda a: a[::-1, :, ::-1],
    "flipped F": lambda a: np.asfortranarray(a)[:, ::-1, :],
    "transposed": lambda a: a.transpose(2, 0, 1),
    "transposed F": lambda a: np.asfortranarray(a).transpose(1, 2, 0),
}
layouts = st.sampled_from(sorted(LAYOUTS))


def make_volume(data, pixdim=(1.0, 1.0, 1.0), affine=None) -> Volume3D:
    return Volume3D.from_array(np.asarray(data), pixdim=pixdim, affine=affine)


def big_endian(raw: bytes) -> bytes:
    """``write_nifti`` output of an int16 volume as a big-endian writer would
    have written it: every decoded header field and the payload byte-swapped."""
    swapped = bytearray(raw)

    def swap(fmt_le, fmt_be, offset):
        values = struct.unpack_from(fmt_le, raw, offset)
        struct.pack_into(fmt_be, swapped, offset, *values)

    swap("<i", ">i", 0)
    swap("<8h", ">8h", 40)
    swap("<h", ">h", 70)
    swap("<h", ">h", 72)
    swap("<8f", ">8f", 76)
    swap("<f", ">f", 108)
    swap("<h", ">h", 254)
    swap("<4f", ">4f", 280)
    swap("<4f", ">4f", 296)
    swap("<4f", ">4f", 312)
    swapped[352:] = np.frombuffer(raw[352:], dtype="<i2").astype(">i2").tobytes()
    return bytes(swapped)


def hand_built_header_bytes() -> bytes:
    """348-byte header assembled field by field, little-endian, float32 data."""
    buf = bytearray(HEADER_SIZE)
    struct.pack_into("<i", buf, 0, 348)  # sizeof_hdr
    struct.pack_into("<8h", buf, 40, 3, 4, 4, 4, 1, 1, 1, 1)  # dim
    struct.pack_into("<h", buf, 70, 16)  # datatype: float32
    struct.pack_into("<h", buf, 72, 32)  # bitpix
    struct.pack_into("<8f", buf, 76, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)  # pixdim
    struct.pack_into("<f", buf, 108, 352.0)  # vox_offset
    struct.pack_into("<h", buf, 254, 1)  # sform_code
    struct.pack_into("<4f", buf, 280, 1.0, 0.0, 0.0, 0.0)  # srow_x
    struct.pack_into("<4f", buf, 296, 0.0, 1.0, 0.0, 0.0)  # srow_y
    struct.pack_into("<4f", buf, 312, 0.0, 0.0, 1.0, 0.0)  # srow_z
    buf[344:348] = b"n+1\x00"
    return bytes(buf)


class TestParse:
    def test_round_trip_zero_volume(self):
        v = make_volume(np.zeros((4, 4, 4), dtype=np.float64))
        assert parse_nifti(write_nifti(v)) == v

    def test_hand_built_header_field_by_field(self):
        payload = np.arange(64, dtype="<f4").tobytes()
        raw = hand_built_header_bytes() + b"\x00" * 4 + payload
        vol = parse_nifti(raw)
        assert vol.header.dims == (4, 4, 4)
        assert vol.header.pixdim == (1.0, 1.0, 1.0)
        assert vol.header.datatype_code == 16
        assert vol.data.dtype == np.float32
        # fastest-varying first axis matches the on-disk order
        assert vol.data[1, 0, 0] == 1.0
        assert vol.data[0, 1, 0] == 4.0
        assert vol.data[0, 0, 1] == 16.0
        assert np.allclose(vol.header.affine, np.eye(4))

    def test_gzip_transparency(self):
        v = make_volume(np.arange(27, dtype=np.int32).reshape(3, 3, 3))
        raw = write_nifti(v)
        assert parse_nifti(gzip.compress(raw)) == parse_nifti(raw) == v

    def test_big_endian_header_detected(self):
        v = make_volume(np.arange(8, dtype=np.int16).reshape(2, 2, 2))
        parsed = parse_nifti(big_endian(write_nifti(v)))
        assert np.array_equal(parsed.data, v.data)

    def test_big_endian_gzip_payload_swapped_in_place(self):
        v = make_volume(np.arange(8, dtype=np.int16).reshape(2, 2, 2))
        parsed = parse_nifti(gzip.compress(big_endian(write_nifti(v))))
        assert parsed == v
        assert parsed.data.dtype.isnative and parsed.data.flags.writeable

    def test_gzip_payload_is_held_once(self, tmp_path):
        """A BraTS-grid int16 seg.nii.gz is inflated into one buffer and viewed
        in place; a parse that copies the payload peaks at twice its size."""
        data = np.zeros((240, 240, 155), dtype=np.int16)
        data[100:140, 90:150, 60:90] = 2
        path = tmp_path / "seg.nii.gz"
        write_nifti_file(make_volume(data), path)
        tracemalloc.start()
        try:
            vol = read_nifti_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(vol.data, data) and vol.data.flags.writeable
        assert peak < 1.3 * data.nbytes

    def test_raw_bytes_are_not_aliased(self):
        raw = bytearray(write_nifti(make_volume(np.zeros((2, 2, 2), dtype=np.int16))))
        parsed = parse_nifti(raw)
        parsed.data[0, 0, 0] = 7
        assert parse_nifti(raw).data[0, 0, 0] == 0

    def test_scl_slope_applied(self):
        v = make_volume(np.ones((2, 2, 2), dtype=np.int16))
        raw = bytearray(write_nifti(v))
        struct.pack_into("<f", raw, 112, 2.0)  # scl_slope
        struct.pack_into("<f", raw, 116, 0.5)  # scl_inter
        parsed = parse_nifti(bytes(raw))
        assert parsed.data.dtype == np.float64
        assert np.all(parsed.data == 2.5)

    def test_bad_magic_rejected(self):
        raw = bytearray(write_nifti(make_volume(np.zeros((2, 2, 2), dtype=np.uint8))))
        raw[344:348] = b"abcd"
        with pytest.raises(FormatError, match="magic"):
            parse_nifti(bytes(raw))

    def test_header_image_pair_rejected(self):
        raw = bytearray(write_nifti(make_volume(np.zeros((2, 2, 2), dtype=np.uint8))))
        raw[344:348] = b"ni1\x00"
        with pytest.raises(FormatError, match="pair"):
            parse_nifti(bytes(raw))

    def test_nifti2_rejected(self):
        raw = bytearray(write_nifti(make_volume(np.zeros((2, 2, 2), dtype=np.uint8))))
        struct.pack_into("<i", raw, 0, 540)
        with pytest.raises(FormatError, match="NIfTI-2"):
            parse_nifti(bytes(raw))

    def test_unsupported_datatype(self):
        raw = bytearray(write_nifti(make_volume(np.zeros((2, 2, 2), dtype=np.uint8))))
        struct.pack_into("<h", raw, 70, 128)  # RGB24
        with pytest.raises(UnsupportedDatatypeError):
            parse_nifti(bytes(raw))

    def test_truncated_payload(self):
        raw = write_nifti(make_volume(np.zeros((4, 4, 4), dtype=np.float32)))
        with pytest.raises(TruncatedFileError):
            parse_nifti(raw[:-10])

    def test_truncated_gzip_stream(self):
        data = np.arange(64, dtype=np.int16).reshape(4, 4, 4)
        raw = gzip.compress(write_nifti(make_volume(data)))
        for cut in (len(raw) // 2, len(raw) - 4):
            with pytest.raises(TruncatedFileError):
                parse_nifti(raw[:cut])

    def test_corrupt_gzip_stream(self):
        raw = bytearray(gzip.compress(write_nifti(make_volume(np.zeros((4, 4, 4), np.int16)))))
        raw[-8:-4] = bytes(b ^ 0xFF for b in raw[-8:-4])  # CRC32 of the stream
        with pytest.raises(FormatError):
            parse_nifti(bytes(raw))

    def test_quaternion_affine_fallback(self):
        raw = bytearray(write_nifti(make_volume(np.zeros((2, 2, 2), dtype=np.uint8))))
        struct.pack_into("<h", raw, 254, 0)  # sform off
        struct.pack_into("<h", raw, 252, 1)  # qform on, identity quaternion
        struct.pack_into("<3f", raw, 268, 5.0, 6.0, 7.0)  # offsets
        parsed = parse_nifti(bytes(raw))
        expected = np.eye(4)
        expected[:3, 3] = [5.0, 6.0, 7.0]
        assert np.allclose(parsed.header.affine, expected)


class TestWrite:
    def test_integer_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        v = make_volume(rng.integers(0, 5, size=(8, 8, 8)).astype(np.int16))
        back = parse_nifti(write_nifti(v))
        assert back.data.dtype == np.int16
        assert np.array_equal(back.data, v.data)

    def test_affine_srow_bit_exact(self):
        affine = np.array(
            [[0.0, -1.0, 0.0, 3.5], [1.0, 0.0, 0.0, -2.25], [0.0, 0.0, 2.0, 0.5], [0, 0, 0, 1]]
        )
        v = make_volume(np.zeros((3, 3, 3), dtype=np.uint8), pixdim=(1, 1, 2), affine=affine)
        back = parse_nifti(write_nifti(v))
        assert np.array_equal(back.header.affine, affine)

    def test_dim_capacity_error(self):
        header = VolumeHeader(dims=(70000, 1, 1), pixdim=(1, 1, 1), affine=np.eye(4))
        vol = Volume3D(header=header, data=np.zeros((70000, 1, 1), dtype=np.uint8))
        with pytest.raises(CapacityError):
            write_nifti(vol)


class TestVoxelVolume:
    @pytest.mark.parametrize(
        "pixdim,expected",
        [((1, 1, 1), 1.0), ((1, 1, 2), 2.0), ((0.5, 0.5, 0.5), 0.125)],
    )
    def test_products(self, pixdim, expected):
        header = VolumeHeader(dims=(2, 2, 2), pixdim=pixdim, affine=np.diag([*pixdim, 1.0]))
        assert voxel_volume(header) == pytest.approx(expected)


class TestOrientation:
    def test_identity_is_ras(self):
        assert orientation_code(np.eye(4)) == "RAS"

    def test_lps(self):
        assert orientation_code(np.diag([-1.0, -1.0, 1.0, 1.0])) == "LPS"

    def test_permuted_axes(self):
        affine = np.zeros((4, 4))
        affine[0, 1] = 1.0  # voxel axis 1 -> world R
        affine[1, 2] = 1.0  # voxel axis 2 -> world A
        affine[2, 0] = -1.0  # voxel axis 0 -> world I
        affine[3, 3] = 1.0
        assert orientation_code(affine) == "IRA"


class TestConform:
    def test_identity_on_conformed_input(self):
        data = np.arange(64, dtype=np.int16).reshape(4, 4, 4)
        v = make_volume(data)
        out = conform_to_ras(v, (1, 1, 1))
        assert out.header.orientation == "RAS"
        assert np.array_equal(out.data, data)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        aff = np.diag([-1.0, 1.0, -1.0, 1.0])
        aff[:3, 3] = [3.0, 1.0, 7.0]
        v = make_volume(rng.integers(0, 4, size=(4, 5, 6)).astype(np.int16), affine=aff)
        once = conform_to_ras(v, (1, 1, 1))
        twice = conform_to_ras(once, (1, 1, 1))
        assert once == twice

    def test_lps_voxel_world_coordinate_preserved(self):
        aff = np.diag([-1.0, -1.0, 1.0, 1.0])
        aff[:3, 3] = [3.0, 3.0, 0.0]
        data = np.zeros((4, 4, 4), dtype=np.int16)
        data[1, 2, 3] = 7
        v = make_volume(data, affine=aff)
        world_in = aff[:3, :3] @ [1, 2, 3] + aff[:3, 3]
        out = conform_to_ras(v, (1, 1, 1))
        assert out.header.orientation == "RAS"
        locs = np.argwhere(out.data == 7)
        assert len(locs) == 1
        world_out = out.header.affine[:3, :3] @ locs[0] + out.header.affine[:3, 3]
        assert np.linalg.norm(world_out - world_in) <= 0.5

    def test_2mm_to_1mm_nearest_blocks(self):
        data = np.zeros((3, 3, 3), dtype=np.int16)
        data[1, 1, 1] = 9
        v = make_volume(data, pixdim=(2, 2, 2))
        out = conform_to_ras(v, (1, 1, 1))
        assert out.header.dims == (6, 6, 6)
        hits = np.argwhere(out.data == 9)
        assert len(hits) == 8  # a 2x2x2 block per original voxel
        assert hits.min() == 2 and hits.max() == 3

    def test_label_set_preserved(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 4, size=(6, 6, 6)).astype(np.int16)
        v = make_volume(data, pixdim=(2, 2, 2))
        out = conform_to_ras(v, (1, 1, 1))
        assert set(np.unique(out.data)) <= set(np.unique(data))
        # every label whose extent exceeds the target spacing survives
        assert set(np.unique(out.data)) == set(np.unique(data))

    def test_float_constant_field_keeps_value_and_datatype(self):
        v = make_volume(np.full((3, 3, 3), 5.0, dtype=np.float32), pixdim=(2, 2, 2))
        out = conform_to_ras(v, (1, 1, 1))
        assert out.header.dims == (6, 6, 6)
        assert out.header.datatype_code == v.header.datatype_code == 16
        assert out.data.dtype == np.float32
        assert np.all(out.data == 5.0)

    def test_identity_on_aligned_float_grid(self):
        data = np.arange(60, dtype=np.float64).reshape(3, 4, 5)
        v = make_volume(data)
        out = conform_to_ras(v, (1, 1, 1))
        assert out.header.datatype_code == v.header.datatype_code
        assert out.data.dtype == data.dtype
        assert np.array_equal(out.data, data)

    def test_upsampled_ramp_takes_the_nearest_input_value(self):
        x = np.arange(6, dtype=np.float64)
        data = np.broadcast_to(x[:, None, None], (6, 6, 6)).copy()
        v = make_volume(data, pixdim=(2, 2, 2))
        out = conform_to_ras(v, (1, 1, 1))
        world_x = out.header.affine[0, 0] * np.arange(out.header.dims[0]) \
            + out.header.affine[0, 3]
        a = v.header.affine
        expected = np.rint((world_x - a[0, 3]) / a[0, 0])  # nearest input index = field value
        assert np.array_equal(out.data[:, 6, 6], expected)

    def test_singular_affine_rejected(self):
        with pytest.raises(GeometryError):
            VolumeHeader(dims=(2, 2, 2), pixdim=(1, 1, 1), affine=np.zeros((4, 4)))


class TestLabelMask:
    def test_label_names_must_cover(self):
        data = np.zeros((2, 2, 2), dtype=np.int16)
        data[0, 0, 0] = 3
        from brainvqa.errors import ConfigError

        with pytest.raises(ConfigError):
            LabelMask(make_volume(data), {1: "a"})

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_negative_label_rejected(self, layout):
        data = np.zeros((4, 3, 5), dtype=np.int8)
        data[2, 2, 2] = -1  # kept by every layout
        with pytest.raises(FormatError, match="negative"):
            LabelMask(make_volume(LAYOUTS[layout](data)), {})

    def test_binary_extraction(self):
        data = np.zeros((2, 2, 2), dtype=np.int16)
        data[0, 0, 0] = 2
        mask = LabelMask(make_volume(data), {1: "absent", 2: "thing"})
        assert mask.label_set == {2}
        coords = mask.label_coords()
        assert len(coords[2]) == 1
        assert len(coords[1]) == 0

    def test_label_set_and_split_are_computed_once(self, monkeypatch):
        from brainvqa.regions import Atlas

        data = np.zeros((3, 3, 3), dtype=np.int32)
        data[0, 0, :] = 2
        data[2, 1, 1] = 5
        mask = LabelMask(make_volume(data), {2: "a", 5: "b"})
        first = mask.label_coords()

        def fail(*args, **kwargs):
            raise AssertionError("label set or split recomputed")

        monkeypatch.setattr(np, "unique", fail)
        monkeypatch.setattr(np, "flatnonzero", fail)
        Atlas(labels=mask, region_map={2: "frontal", 5: "parietal"})
        second = mask.label_coords()
        assert all(second[label] is first[label] for label in first)
        assert not first[2].flags.writeable
        assert mask.label_set == {2, 5}

    @settings(max_examples=120, deadline=None)
    @given(label_arrays(), st.sets(st.integers(0, 7), max_size=4), layouts)
    def test_label_coords_equal_argwhere(self, data, extra, layout):
        data = LAYOUTS[layout](data)
        names = {int(v): f"label {v}" for v in set(np.unique(data[data != 0])) | extra}
        coords = LabelMask(make_volume(data), names).label_coords()
        assert sorted(coords) == sorted(names)
        for label, got in coords.items():
            want = np.argwhere(data == label)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)

    @settings(max_examples=120, deadline=None)
    @given(label_arrays(), layouts)
    def test_label_set_equals_unique(self, data, layout):
        data = LAYOUTS[layout](data)
        mask = LabelMask(make_volume(data), {v: f"label {v}" for v in range(1, 6)})
        assert mask.label_set == set(np.unique(data).tolist()) - {0}

    @settings(max_examples=40, deadline=None)
    @given(hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6),
           st.sampled_from(["C", "F"]))
    def test_label_set_when_every_voxel_starts_a_run(self, shape, order):
        # neighbours in memory order always differ, so each voxel starts a run
        data = (np.arange(int(np.prod(shape))) % 3).astype(np.int16).reshape(shape, order=order)
        assert data.flags.c_contiguous if order == "C" else data.flags.f_contiguous
        mask = LabelMask(make_volume(data), {1: "a", 2: "b"})
        assert mask.label_set == set(np.unique(data).tolist()) - {0}
