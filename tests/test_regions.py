from __future__ import annotations

import argparse

import numpy as np
import pytest

from brainvqa.cli import _describe_study
from brainvqa.errors import ConfigError, GeometryError
from brainvqa.nifti import LabelMask, Volume3D, write_nifti_file
from brainvqa.qagen import compute_descriptors
from brainvqa.regions import (
    Atlas,
    VOLUME_BINS,
    region_list_text,
    region_overlap,
    relative_volume,
    volume_bin,
)
from brainvqa.synthetic import block_atlas


def brain_with(n_nonzero: int, dims=(10, 10, 10)) -> Volume3D:
    data = np.zeros(dims, dtype=np.int16)
    data.reshape(-1)[:n_nonzero] = 100
    return Volume3D.from_array(data)


def nonzero(volume: Volume3D) -> int:
    return int(np.count_nonzero(volume.data))


def one_label(dims) -> LabelMask:
    data = np.zeros(dims, dtype=np.int16)
    data[1:3, 1:3, 1:3] = 1
    return LabelMask(Volume3D.from_array(data), {1: "lesion"})


class TestRelativeVolume:
    def test_empty_mask(self):
        assert relative_volume(0, nonzero(brain_with(1000))) == 0.0

    def test_thirty_over_thousand(self):
        mask = np.zeros((10, 10, 10))
        mask.reshape(-1)[:30] = 1
        assert relative_volume(np.count_nonzero(mask), nonzero(brain_with(1000))) == (
            pytest.approx(0.03)
        )

    def test_mask_equals_brain_support(self):
        brain = brain_with(1000)
        assert relative_volume(np.count_nonzero(brain.data != 0), nonzero(brain)) == 1.0

    def test_zero_brain_is_error(self):
        with pytest.raises(GeometryError):
            relative_volume(1000, nonzero(brain_with(0)))

    def test_grid_mismatch(self, tmp_path):
        # The grid check lives where the brain is counted: the study's describe.
        write_nifti_file(brain_with(10, (5, 5, 5)), tmp_path / "t1.nii.gz")
        write_nifti_file(one_label((10, 10, 10)).volume, tmp_path / "seg.nii.gz")
        args = argparse.Namespace(spacing=1.0, min_overlap=5)
        with pytest.raises(GeometryError, match="brain grid"):
            _describe_study(tmp_path, {1: "lesion"}, block_atlas((10, 10, 10)), args)

    def test_zero_brain_raises_only_with_a_present_label(self):
        atlas = block_atlas((10, 10, 10))
        with pytest.raises(GeometryError, match="no nonzero voxels"):
            compute_descriptors("s", 0, one_label((10, 10, 10)), atlas)
        empty = LabelMask(Volume3D.from_array(np.zeros((10, 10, 10), np.int16)), {1: "x"})
        (desc,) = compute_descriptors("s", 0, empty, atlas)
        assert desc.absent

    def test_invariant_under_conform_round_trip(self):
        from brainvqa.nifti import conform_to_ras

        rng = np.random.default_rng(3)
        brain = brain_with(700)
        mask = (rng.random((10, 10, 10)) < 0.1).astype(np.int16)
        before = relative_volume(np.count_nonzero(mask), nonzero(brain))
        mask_vol = Volume3D.from_array(mask)
        conformed_mask = conform_to_ras(mask_vol, (1, 1, 1))
        conformed_brain = conform_to_ras(brain, (1, 1, 1))
        after = relative_volume(np.count_nonzero(conformed_mask.data), nonzero(conformed_brain))
        assert after == pytest.approx(before)


class TestVolumeBin:
    @pytest.mark.parametrize(
        "fraction,expected",
        [
            (0.0, "<1%"),
            (0.005, "<1%"),
            (0.01, "1-5%"),  # boundary joins the upper bin
            (0.03, "1-5%"),
            (0.05, "5-10%"),
            (0.10, "10-25%"),
            (0.25, "25-50%"),
            (0.50, "50-75%"),
            (0.75, "50-75%"),
        ],
    )
    def test_bin_edges(self, fraction, expected):
        vb = volume_bin(fraction)
        assert vb.bin == expected
        assert not vb.clamped

    def test_above_075_clamps_with_warning(self):
        vb = volume_bin(0.9)
        assert vb.bin == "50-75%"
        assert vb.clamped

    def test_monotone_total_scan(self):
        order = {name: i for i, name in enumerate(VOLUME_BINS)}
        last = -1
        for frac in np.arange(0.0, 1.0 + 1e-12, 1e-4):
            vb = volume_bin(min(float(frac), 1.0))
            assert vb.bin in order
            assert order[vb.bin] >= last or order[vb.bin] == order["50-75%"]
            last = max(last, order[vb.bin])

    def test_out_of_range_is_error(self):
        with pytest.raises(GeometryError):
            volume_bin(1.5)


class TestRegionOverlap:
    def test_empty_mask_is_na(self):
        atlas = block_atlas((12, 12, 12))
        assert region_overlap(np.argwhere(np.zeros((12, 12, 12))), atlas) is None

    def test_single_region_containment(self):
        atlas = block_atlas((12, 12, 12))
        mask = np.zeros((12, 12, 12))
        mask[0:3, 0:3, :] = 1  # inside atlas label 1 -> "frontal"
        out = region_overlap(np.argwhere(mask), atlas, min_overlap_voxels=10)
        assert out.regions == ("frontal",)

    def test_two_region_straddle_with_counts(self):
        # precise straddle: 100 voxels in label 1 (frontal), 40 in label 2 (parietal)
        atlas = block_atlas((12, 12, 12))
        mask = np.zeros((12, 12, 12))
        frontal = np.argwhere(atlas.labels.volume.data == 1)[:100]
        parietal = np.argwhere(atlas.labels.volume.data == 2)[:40]
        for x, y, z in np.vstack([frontal, parietal]):
            mask[x, y, z] = 1
        out = region_overlap(np.argwhere(mask), atlas, min_overlap_voxels=10)
        assert out.regions == ("frontal", "parietal")
        assert out.overlap_counts == {"frontal": 100, "parietal": 40}

    def test_overlap_floor_suppresses_small(self):
        atlas = block_atlas((12, 12, 12))
        mask = np.zeros((12, 12, 12))
        coords = np.argwhere(atlas.labels.volume.data == 3)[:5]
        for x, y, z in coords:
            mask[x, y, z] = 1
        out = region_overlap(np.argwhere(mask), atlas, min_overlap_voxels=10)
        assert out is not None
        assert out.regions == ()

    def test_raising_floor_never_adds_regions(self):
        atlas = block_atlas((12, 12, 12))
        rng = np.random.default_rng(0)
        mask = (rng.random((12, 12, 12)) < 0.2).astype(np.uint8)
        previous = None
        for floor in (1, 5, 20, 80):
            names = set(region_overlap(np.argwhere(mask), atlas, floor).regions)
            if previous is not None:
                assert names <= previous
            previous = names

    def test_renumbering_invariance(self):
        atlas = block_atlas((12, 12, 12))
        # renumber labels 1..9 -> 11..19 keeping the same region names
        data = atlas.labels.volume.data.copy()
        data[data > 0] += 10
        remap = {k + 10: v for k, v in atlas.region_map.items()}
        renumbered = Atlas(
            labels=LabelMask(Volume3D.from_array(data), dict(remap)),
            region_map=remap,
        )
        rng = np.random.default_rng(1)
        mask = (rng.random((12, 12, 12)) < 0.3).astype(np.uint8)
        a = region_overlap(np.argwhere(mask), atlas, 5)
        b = region_overlap(np.argwhere(mask), renumbered, 5)
        assert a.regions == b.regions
        assert a.overlap_counts == b.overlap_counts

    def test_ordering_desc_count_then_alpha(self):
        atlas = block_atlas((12, 12, 12))
        mask = np.zeros((12, 12, 12))
        # equal counts in parietal (label 2) and occipital (label 3): alphabetical
        for label in (2, 3):
            for x, y, z in np.argwhere(atlas.labels.volume.data == label)[:20]:
                mask[x, y, z] = 1
        out = region_overlap(np.argwhere(mask), atlas, 10)
        assert out.regions == ("occipital", "parietal")

    def test_grid_mismatch(self):
        # The grid check lives where the label split is made: compute_descriptors.
        with pytest.raises(GeometryError, match="atlas grid"):
            compute_descriptors("s", 1000, one_label((10, 10, 10)), block_atlas((12, 12, 12)))

    @pytest.mark.parametrize("voxel", [(12, 0, 0), (0, 0, 12), (0, -1, 0), (-5, 3, 3)])
    def test_coords_outside_atlas_grid(self, voxel):
        atlas = block_atlas((12, 12, 12))
        coords = np.array([(1, 1, 1), voxel])
        with pytest.raises(GeometryError, match="outside the atlas grid"):
            region_overlap(coords, atlas)


class TestAtlasValidation:
    def test_unknown_region_name_rejected(self):
        data = np.ones((4, 4, 4), dtype=np.int16)
        with pytest.raises(ConfigError):
            Atlas(labels=LabelMask(Volume3D.from_array(data), {1: "nowhere"}),
                  region_map={1: "nowhere"})

    def test_unmapped_label_rejected(self):
        data = np.ones((4, 4, 4), dtype=np.int16)
        data[0, 0, 0] = 2
        with pytest.raises(ConfigError):
            Atlas(labels=LabelMask(Volume3D.from_array(data), {1: "frontal", 2: "parietal"}),
                  region_map={1: "frontal"})


class TestRegionListText:
    def test_empty_is_na(self):
        assert region_list_text(None) == "N/A"
        assert region_list_text(()) == "N/A"

    def test_single(self):
        assert region_list_text(("frontal",)) == "frontal"

    def test_comma_and(self):
        assert (
            region_list_text(("cerebellum", "frontal", "parietal"))
            == "cerebellum, frontal and parietal"
        )
