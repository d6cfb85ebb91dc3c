from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from brainvqa.morphology import SpreadDescriptor
from brainvqa.qagen import (
    TaskDescriptors,
    compute_descriptors,
    dataset_stats,
    descriptor_from_json,
    descriptor_to_json,
    generate_dataset,
    record_from_json,
    record_to_json,
    sample_questions,
    split_dataset,
    stats_to_csv,
)
from brainvqa.nifti import LabelMask, Volume3D, conform_to_ras
from brainvqa.regions import RegionAssignment, VolumeBin
from brainvqa.synthetic import block_atlas, demo_study, sphere_mask
from brainvqa.templates import TASKS, UNSPECIFIED, default_bank


def descriptor(study="s1", label="Enhancing Tissue", absent=False) -> TaskDescriptors:
    if absent:
        return TaskDescriptors(study, label, None, None, None, None)
    return TaskDescriptors(
        study_id=study,
        label_name=label,
        volume=VolumeBin("<1%", 0.004),
        regions=RegionAssignment(("frontal",), {"frontal": 25}),
        shape="round",
        spread=SpreadDescriptor("single lesion", 1.0, 1),
    )


class TestComputeDescriptors:
    def test_pipeline_composition(self):
        dims = (24, 24, 24)
        atlas = block_atlas(dims)
        brain = Volume3D.from_array(sphere_mask(dims, (12, 12, 12), 10).astype(np.int16) * 50)
        seg = np.zeros(dims, dtype=np.int16)
        blob = sphere_mask(dims, (4, 4, 12), 2)  # 33 voxels inside "frontal"
        seg[blob != 0] = 1
        mask = LabelMask(Volume3D.from_array(seg), {1: "Enhancing Tissue", 2: "Resection Cavity"})
        brain_voxels = int((brain.data != 0).sum())
        descs = compute_descriptors("study_a", brain_voxels, mask, atlas, min_overlap_voxels=5)
        by_label = {d.label_name: d for d in descs}
        et = by_label["Enhancing Tissue"]
        assert et.volume.raw_fraction == pytest.approx(int(blob.sum()) / brain_voxels)
        assert et.volume.bin == "<1%"
        assert et.regions.regions == ("frontal",)
        assert et.spread.category == "single lesion"
        assert et.shape == "focus"  # 33 mm^3 < 100 mm^3
        rc = by_label["Resection Cavity"]
        assert (rc.volume, rc.regions, rc.shape, rc.spread) == (None, None, None, None)

    def test_memory_order_and_axis_flip_do_not_change_descriptors(self):
        dims = (32, 28, 24)
        atlas = block_atlas(dims)
        brain, mask = demo_study("study_a", 3, dims)
        flip = np.diag([-1.0, 1.0, 1.0, 1.0])
        flip[0, 3] = dims[0] - 1  # voxel i lies at x = dims[0] - 1 - i, as before the flip
        variants = {
            "C": lambda a: (np.ascontiguousarray(a), None),
            "F": lambda a: (np.asfortranarray(a), None),
            "flipped": lambda a: (np.asfortranarray(a[::-1]), flip),
        }
        out = {}
        for name, variant in variants.items():
            conformed = []
            for vol in (brain, mask.volume):
                data, affine = variant(vol.data)
                conformed.append(conform_to_ras(Volume3D.from_array(data, affine=affine)))
            study_mask = LabelMask(conformed[1], mask.label_names)
            brain_voxels = int(np.count_nonzero(conformed[0].data))
            descs = compute_descriptors("study_a", brain_voxels, study_mask, atlas, 5)
            out[name] = [descriptor_to_json(d) for d in descs]
        assert sum(d.volume is not None for d in descs) >= 2
        assert out["F"] == out["C"]
        assert out["flipped"] == out["C"]

    def test_absent_label_all_na_together(self):
        dims = (20, 20, 20)
        seg = np.zeros(dims, dtype=np.int16)
        seg[sphere_mask(dims, (6, 6, 10), 3) != 0] = 1
        mask = LabelMask(Volume3D.from_array(seg),
                         {1: "Enhancing Tissue", 3: "Surrounding FLAIR Hyperintensity"})
        present, absent = compute_descriptors("study_a", 4000, mask, block_atlas(dims), 5)
        assert present.volume is not None and present.spread is not None
        assert absent.label_name == "Surrounding FLAIR Hyperintensity"
        assert (absent.volume, absent.regions, absent.shape, absent.spread) == (None,) * 4
        written = json.loads(descriptor_to_json(absent))
        assert [written[k] for k in ("volume_bin", "regions", "shape", "spread")] == ["N/A"] * 4

    def test_descriptor_json_round_trip(self):
        for d in (descriptor(), descriptor(absent=True)):
            back = descriptor_from_json(json.loads(descriptor_to_json(d)))
            assert back.study_id == d.study_id
            assert back.label_name == d.label_name
            assert (back.volume is None) == (d.volume is None)
            if d.volume is not None:
                assert back.volume.bin == d.volume.bin
                assert back.regions.regions == d.regions.regions
                assert back.shape == d.shape
                assert back.spread.category == d.spread.category


class TestSampleQuestions:
    def test_four_plus_one_plus_one(self):
        recs = sample_questions(descriptor(), default_bank(), seed=9)
        assert len(recs) == 6
        assert [r.oos_kind for r in recs] == ["none"] * 4 + ["partial", "full"]

    def test_multitask_distinct_and_covering(self):
        bank = default_bank()
        for i in range(200):
            recs = sample_questions(descriptor(study=f"s{i}"), bank, seed=3)
            multitask = recs[:4]
            assert len({r.template_id for r in multitask}) == 4
            union = set().union(*(set(r.task_set) for r in multitask))
            assert union == set(TASKS)

    def test_deterministic_per_key(self):
        bank = default_bank()
        a = [record_to_json(r) for r in sample_questions(descriptor(), bank, seed=5)]
        b = [record_to_json(r) for r in sample_questions(descriptor(), bank, seed=5)]
        assert a == b
        c = [record_to_json(r) for r in sample_questions(descriptor(), bank, seed=6)]
        assert a != c

    def test_gold_unspecified_for_unasked(self):
        recs = sample_questions(descriptor(), default_bank(), seed=9)
        for rec in recs[:4]:
            for task in TASKS:
                if task in rec.task_set:
                    assert rec.gold[task] != UNSPECIFIED
                else:
                    assert rec.gold[task] == UNSPECIFIED

    def test_full_oos_all_unspecified(self):
        recs = sample_questions(descriptor(), default_bank(), seed=9)
        full = recs[5]
        assert full.oos_kind == "full"
        assert all(full.gold[t] == UNSPECIFIED for t in TASKS)
        assert full.task_set == ()

    def test_partial_oos_carries_real_gold(self):
        recs = sample_questions(descriptor(), default_bank(), seed=9)
        partial = recs[4]
        assert partial.oos_kind == "partial"
        assert partial.task_set
        for task in partial.task_set:
            assert partial.gold[task] != UNSPECIFIED

    def test_no_braces_in_rendered_text(self):
        for i in range(50):
            recs = sample_questions(descriptor(study=f"t{i}"), default_bank(), seed=1)
            for r in recs:
                assert "{" not in r.question + r.answer
                assert "}" not in r.question + r.answer

    def test_record_json_round_trip(self):
        recs = sample_questions(descriptor(), default_bank(), seed=9)
        for r in recs:
            assert record_from_json(json.loads(record_to_json(r))) == r


class TestSplit:
    def test_ten_studies(self):
        counts = Counter(split_dataset([f"s{i}" for i in range(10)], 0).values())
        assert counts == {"train": 8, "val": 1, "test": 1}

    def test_partition_no_overlap(self):
        ids = [f"s{i}" for i in range(57)]
        assignment = split_dataset(ids, 1)
        assert sorted(assignment) == sorted(ids)
        assert set(assignment.values()) <= {"train", "val", "test"}

    def test_1621_studies_matches_floor_arithmetic(self):
        counts = Counter(split_dataset([f"s{i}" for i in range(1621)], 2).values())
        assert counts["train"] == 1296
        assert counts["val"] == 162
        assert counts["test"] == 163

    def test_deterministic(self):
        ids = [f"s{i}" for i in range(20)]
        assert split_dataset(ids, 7) == split_dataset(ids, 7)
        assert split_dataset(ids, 7) != split_dataset(ids, 8)

    def test_order_invariance(self):
        ids = [f"s{i}" for i in range(20)]
        shuffled = list(reversed(ids))
        assert split_dataset(ids, 3) == split_dataset(shuffled, 3)


class TestGenerateDataset:
    def test_count_law_small(self):
        descriptors = [
            descriptor(study=f"s{i}", label=lab, absent=(i + j) % 3 == 0)
            for i in range(5)
            for j, lab in enumerate(["A", "B", "C"])
        ]
        bank = default_bank()
        records = generate_dataset(descriptors, bank, seed=4)
        assert len(records) == 6 * 5 * 3
        per_study = Counter(r.study_id for r in records)
        assert all(v == 18 for v in per_study.values())

    def test_split_consistent_within_study(self):
        descriptors = [descriptor(study=f"s{i}", label=l) for i in range(12) for l in "AB"]
        records = generate_dataset(descriptors, default_bank(), seed=4)
        by_study = {}
        for r in records:
            by_study.setdefault(r.study_id, set()).add(r.split)
        assert all(len(s) == 1 for s in by_study.values())

    def test_byte_identical_reruns(self):
        descriptors = [descriptor(study=f"s{i}") for i in range(6)]
        a = "\n".join(record_to_json(r) for r in generate_dataset(descriptors, default_bank(), 5))
        b = "\n".join(record_to_json(r) for r in generate_dataset(descriptors, default_bank(), 5))
        assert a == b

    def test_order_independent_of_input_order(self):
        descriptors = [descriptor(study=f"s{i}", label=l) for i in range(4) for l in "AB"]
        a = generate_dataset(descriptors, default_bank(), 5)
        b = generate_dataset(list(reversed(descriptors)), default_bank(), 5)
        assert [record_to_json(r) for r in a] == [record_to_json(r) for r in b]


class TestStats:
    def test_all_full_oos_rows(self):
        recs = []
        for i in range(10):
            six = sample_questions(descriptor(study=f"s{i}"), default_bank(), seed=2)
            recs.append(six[5])  # keep only the full-OOS record
        stats = dataset_stats(recs)
        rows = {(t, l): p for t, l, p in stats.rows}
        assert rows[("out-of-scope", "Out-of-scope")] == 100.0
        assert rows[("volume", UNSPECIFIED)] == 100.0

    def test_oos_row_is_one_third(self):
        descriptors = [descriptor(study=f"s{i}") for i in range(30)]
        records = generate_dataset(descriptors, default_bank(), 3)
        stats = dataset_stats(records)
        rows = {(t, l): p for t, l, p in stats.rows}
        assert rows[("out-of-scope", "Out-of-scope")] == pytest.approx(100 / 3, abs=0.01)
        assert rows[("out-of-scope", "Not out-of-scope")] == pytest.approx(200 / 3, abs=0.01)

    def test_region_membership_rows(self):
        recs = [r for r in sample_questions(descriptor(), default_bank(), seed=2)
                if "region" in r.task_set]
        stats = dataset_stats(recs)
        rows = {(t, l): p for t, l, p in stats.rows}
        assert rows[("region", "frontal")] == 100.0
        assert rows[("region", "parietal")] == 0.0

    def test_summary_aggregates(self):
        descriptors = [descriptor(study=f"s{i}") for i in range(4)]
        records = generate_dataset(descriptors, default_bank(), 3)
        stats = dataset_stats(records)
        assert stats.summary["questions"] == 24
        assert stats.summary["mpmri"] == 4
        assert 1 <= stats.summary["unique_questions"] <= 24
        assert 1 <= stats.summary["unique_answers"] <= 24

    def test_csv_shape(self):
        descriptors = [descriptor(study=f"s{i}") for i in range(3)]
        records = generate_dataset(descriptors, default_bank(), 3)
        csv = stats_to_csv(dataset_stats(records))
        lines = csv.strip().splitlines()
        assert lines[0] == "task,label,frequency_pct"
        # 8 volume + 11 region + 7 shape + 5 spread + 2 oos rows
        assert len(lines) == 1 + 8 + 11 + 7 + 5 + 2
