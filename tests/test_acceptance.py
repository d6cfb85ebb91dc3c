"""Acceptance suite: one test per exit criterion, printed pass/fail per line.

Run with ``pytest -v tests/test_acceptance.py``.  Two assertions are known
to fail and are kept failing on purpose (see the docstrings of criterion 3b
and 4b): they pin tolerances that no faithful binary-mask marching-cubes
implementation can meet, including the standard library extractor, which
produces the identical mesh.  Everything else must pass.
"""
from __future__ import annotations

import time
from collections import Counter

import numpy as np
import pytest

from brainvqa.cli import main
from brainvqa.metrics import (
    PredictionRecord,
    bootstrap_std,
    cohen_kappa,
    evaluate_predictions,
)
from brainvqa.moe import (
    high_route,
    init_moe_params,
    moe_forward,
    moe_forward_oracle,
)
from brainvqa.morphology import (
    SPREAD_CORE_SATELLITES,
    SPREAD_SCATTERED,
    connected_components,
    spread_classify,
)
from brainvqa.qagen import (
    TaskDescriptors,
    dataset_stats,
    descriptor_to_json,
    generate_dataset,
    sample_questions,
)
from brainvqa.regions import RegionAssignment, VolumeBin
from brainvqa.morphology import SpreadDescriptor
from brainvqa.rng import stream
from brainvqa.shape import describe_shape, shape_metrics
from brainvqa.surface import marching_cubes, mesh_area
from brainvqa.templates import TASKS, UNSPECIFIED, default_bank
from brainvqa.training import (
    evaluate,
    finite_difference_errors,
    make_toy_task,
    smoothed,
    train_toy,
)
from conftest import digitized_ellipsoid, digitized_sphere, random_blob
from geometry_helpers import convex_hull_volume, is_closed, voxel_corner_points
from test_morphology import bfs_components, partition_of


def announce(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})", flush=True)


def stub_descriptor(study: str, label: str) -> TaskDescriptors:
    return TaskDescriptors(
        study_id=study,
        label_name=label,
        volume=VolumeBin("<1%", 0.004),
        regions=RegionAssignment(("frontal",), {"frontal": 30}),
        shape="irregular",
        spread=SpreadDescriptor("single lesion", 1.0, 1),
    )


# ---------------------------------------------------------------------------
# 1. Count-law reproduction

def test_criterion_01_count_law(tmp_path):
    started = time.time()
    bank = default_bank()
    corpora = [("GLI", 1621, 4, 38_904), ("MET", 651, 3, 11_718), ("GoAT", 1351, 3, 24_318)]
    labels4 = ["Enhancing Tissue", "Non-enhancing Tumor Core",
               "Surrounding FLAIR Hyperintensity", "Resection Cavity"]
    for name, n_studies, n_labels, expected in corpora:
        descriptors = [
            stub_descriptor(f"{name}_{i:05d}", labels4[j])
            for i in range(n_studies)
            for j in range(n_labels)
        ]
        if name == "GLI":
            # run the real CLI for one corpus end to end
            desc_path = tmp_path / "gli_descriptors.jsonl"
            out_path = tmp_path / "gli_data.jsonl"
            desc_path.write_text(
                "\n".join(descriptor_to_json(d) for d in descriptors) + "\n"
            )
            assert main(["generate", "--descriptors", str(desc_path), "--seed", "1",
                         "--out", str(out_path)]) == 0
            count = sum(1 for line in out_path.read_text().splitlines() if line)
        else:
            count = len(generate_dataset(descriptors, bank, seed=1))
        assert count == expected, f"{name}: {count} != {expected}"
    elapsed = time.time() - started
    assert elapsed < 300.0, f"count-law run took {elapsed:.0f}s"
    announce("criterion 1 count law", f"38904/11718/24318 records in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. Protocol coverage law

def test_criterion_02_protocol_coverage():
    bank = default_bank()
    for i in range(1000):
        records = sample_questions(stub_descriptor(f"s{i}", "Enhancing Tissue"),
                                   bank, seed=77)
        assert len(records) == 6
        assert [r.oos_kind for r in records] == ["none"] * 4 + ["partial", "full"]
        multitask = records[:4]
        assert len({r.template_id for r in multitask}) == 4, "duplicate multitask template"
        union = set().union(*(set(r.task_set) for r in multitask))
        assert union == set(TASKS), f"coverage hole at sample {i}"
    announce("criterion 2 protocol coverage", "1000/1000 samplings valid")


# ---------------------------------------------------------------------------
# 3. Geometry oracle suite

def test_criterion_03_geometry_categories():
    started = time.time()
    sphere = digitized_sphere(10)
    category, agg = describe_shape(connected_components(np.argwhere(sphere)))
    assert category == "round", f"sphere classified {category}"
    assert agg.elongation <= 1.05

    ellipsoid = digitized_ellipsoid((30, 8, 8))
    category_e, agg_e = describe_shape(connected_components(np.argwhere(ellipsoid)))
    assert abs(agg_e.elongation - 3.75) / 3.75 <= 0.10, agg_e.elongation
    assert category_e == "elongated"

    core_sat = np.zeros((24, 6, 6))
    core_sat[0:4, 0:4, 0:5] = 1  # 80 voxels
    core_sat[8:11, 0:5, 0:1] = 1  # 15
    core_sat[14:15, 0:5, 0:1] = 1  # 5
    spread = spread_classify(connected_components(np.argwhere(core_sat)))
    assert spread.core_fraction == pytest.approx(0.8)
    assert spread.category == SPREAD_CORE_SATELLITES

    scattered = np.zeros((20, 6, 6))
    scattered[0:3, 0:4, 0:5] = 1  # 60
    scattered[6:8, 0:4, 0:5] = 1  # 40
    spread2 = spread_classify(connected_components(np.argwhere(scattered)))
    assert spread2.core_fraction == pytest.approx(0.6)
    assert spread2.category == SPREAD_SCATTERED
    elapsed = time.time() - started
    assert elapsed < 60.0
    announce("criterion 3 geometry oracles",
             f"round/elongated/core-satellites/scattered in {elapsed:.1f}s")


def test_criterion_03b_sphere_sphericity_threshold(sphere10):
    """KNOWN RED: sphericity >= 0.95 is unattainable from a binary mask.

    The r=10 digitized sphere meshes to ~1372 mm^2 (both here and in the
    standard library extractor, identical vertices), giving sphericity
    ~0.913.  The 0.95 bound presumes an area bias that binary-input marching
    cubes does not have; the classification threshold (round >= 0.85) still
    holds, so categories are unaffected.  See the decisions ledger.
    """
    metrics = shape_metrics(np.argwhere(sphere10))
    assert metrics.sphericity >= 0.95, (
        f"sphericity {metrics.sphericity:.4f} < 0.95: structural ~9% area "
        f"overestimate of binary marching cubes (matches the reference "
        f"extractor exactly); category remains 'round'"
    )


# ---------------------------------------------------------------------------
# 4. Marching-cubes area check

def test_criterion_04_mesh_closure_100_blobs():
    for seed in range(100):
        blob = random_blob(seed, dims=(14, 14, 14), density=0.35)
        mesh = marching_cubes(blob)
        assert is_closed(mesh), f"blob {seed} not closed"
    announce("criterion 4 mesh closure", "100/100 random blobs closed")


def test_criterion_04b_sphere_area_tolerance(sphere10):
    """KNOWN RED: 5% area tolerance is unattainable from a binary mask.

    Binary-input marching cubes overestimates smooth-surface area by a
    resolution-independent ~9% (staircase bias): r=5/10/20/30 digitized
    spheres all land at +8.3% to +9.2%, and the standard library extractor
    produces the identical 1372.04 mm^2 mesh at r=10.  Implemented as stated
    and left failing; see the decisions ledger.
    """
    area = mesh_area(marching_cubes(sphere10))
    analytic = 4 * np.pi * 100.0
    rel = abs(area - analytic) / analytic
    assert rel <= 0.05, (
        f"area {area:.2f} vs 4*pi*100 = {analytic:.2f}: rel err {rel:.4f} > 0.05 "
        f"(identical to the reference extractor's mesh; bias is structural)"
    )


# ---------------------------------------------------------------------------
# 5. Convex-hull oracle

def test_criterion_05_convex_hull():
    cube = np.array(list(np.ndindex(2, 2, 2)), dtype=float)
    assert convex_hull_volume(cube) == pytest.approx(1.0, abs=1e-9)
    tetra = np.array(
        [[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0],
         [0.5, np.sqrt(3) / 6, np.sqrt(6) / 3]]
    )
    assert convex_hull_volume(tetra) == pytest.approx(1 / (6 * np.sqrt(2)), abs=1e-9)

    checked = 0
    for seed in range(100):
        blob = random_blob(seed + 1000, dims=(10, 10, 10), density=0.25)
        coords = np.argwhere(blob)
        if len(coords) == 0:
            continue
        hull = convex_hull_volume(voxel_corner_points(coords))
        voxel_volume = float(len(coords))
        assert voxel_volume / hull <= 1.0 + 1e-6
        checked += 1
    assert checked >= 95
    announce("criterion 5 convex hull", f"analytic volumes exact; S <= 1 on {checked} blobs")


# ---------------------------------------------------------------------------
# 6. Connected-components oracle

def test_criterion_06_connected_components_oracle():
    for seed in range(200):
        mask = random_blob(seed + 333, dims=(16, 16, 16), density=0.35)
        mine = partition_of(connected_components(np.argwhere(mask)))
        oracle = {frozenset(g) for g in bfs_components(mask)}
        assert mine == oracle, f"partition mismatch at seed {seed}"
    announce("criterion 6 connected components", "200/200 partitions equal BFS oracle")


# ---------------------------------------------------------------------------
# 7. Fusion-formula equivalence

def test_criterion_07_fusion_oracle_equivalence():
    rng = stream(99, "accept-configs")
    worst = 0.0
    for trial in range(100):
        n = int(rng.choice([1, 2, 4, 16]))
        n_m = int(rng.choice([1, 2, 4]))
        n_i = int(rng.choice([1, 3, 8]))
        d_i = int(rng.integers(2, 6))
        d_t = int(rng.integers(3, 8))
        params = init_moe_params(5000 + trial, n_experts=n, n_modalities=n_m,
                                 d_image=d_i, d_text=d_t, hidden=3)
        for arr in params.arrays.values():
            arr += 0.4 * rng.normal(size=arr.shape)
        v = rng.normal(size=(n_i, n_m, d_i))
        cls = rng.normal(size=(n_m, d_i))
        t = rng.normal(size=(d_t,))
        fused, _ = moe_forward(v, cls, t, params)
        diff = float(np.abs(fused - moe_forward_oracle(v, cls, t, params)).max())
        worst = max(worst, diff)
        assert diff < 1e-12, f"config {trial}: diff {diff}"
    announce("criterion 7 fusion equivalence", f"100 configs, max abs diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. Gradient check

def test_criterion_08_gradient_check():
    """Central finite differences over every scalar of a small model."""
    started = time.time()
    from brainvqa.training import MultiTaskModel, ToyBatch, init_heads

    rng = stream(7, "accept-grad")
    n, n_m, n_i, d_i, d_t, batch = 3, 2, 3, 5, 6, 4
    moe = init_moe_params(71, n_experts=n, n_modalities=n_m, d_image=d_i,
                          d_text=d_t, hidden=3)
    for arr in moe.arrays.values():
        arr += 0.3 * rng.normal(size=arr.shape)
    heads = init_heads(72, d_text=d_t, n_token_vocab=5)
    model = MultiTaskModel(moe=moe, heads=heads)
    gold = {
        "volume": rng.integers(0, 7, size=batch),
        "shape": rng.integers(0, 6, size=batch),
        "spread": rng.integers(0, 4, size=batch),
        "oos": rng.integers(0, 3, size=batch),
        "token": rng.integers(0, 5, size=batch),
        "region": (rng.random((batch, 9)) < 0.4).astype(np.float64),
        "region_mask": np.ones(batch, dtype=bool),
    }
    data = ToyBatch(
        v=rng.normal(size=(batch, n_i, n_m, d_i)),
        cls=rng.normal(size=(batch, n_m, d_i)),
        t=rng.normal(size=(batch, d_t)),
        gold=gold,
    )
    every_scalar = {name: range(arr.size) for name, arr in model.all_arrays().items()}
    errors = finite_difference_errors(model, data, every_scalar)
    n_checked = sum(len(indices) for indices in every_scalar.values())
    bad = {name: rel for name, rel in errors.items() if not rel < 1e-4}  # NaN fails too
    assert not bad, f"rel errors at or above 1e-4: {bad}"
    worst = max(errors.values())
    elapsed = time.time() - started
    assert elapsed < 120.0, f"gradient check took {elapsed:.0f}s"
    announce("criterion 8 gradients",
             f"{n_checked} scalars, worst rel {worst:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. Routing invariants

def test_criterion_09_routing_invariants():
    rng = stream(13, "accept-routing")
    params = init_moe_params(14, n_experts=16, n_modalities=4, d_image=6, d_text=12)
    for arr in params.arrays.values():
        arr += 0.3 * rng.normal(size=arr.shape)
    prompts = rng.normal(size=(10_000, 12))
    h = np.tanh(prompts @ params.arrays["high.W1"].T + params.arrays["high.b1"])
    logits = h @ params.arrays["high.W2"].T + params.arrays["high.b2"]
    z = logits - logits.max(axis=1, keepdims=True)
    pi = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    assert np.abs(pi.sum(axis=1) - 1.0).max() <= 1e-6
    assert (pi > 0).all()
    spot = high_route(prompts[0], params)
    assert spot == pytest.approx(pi[0], abs=1e-12)

    for n_m in (1, 2, 4, 8):
        p = init_moe_params(15, n_experts=4, n_modalities=n_m, d_image=5, d_text=9)
        for arr in p.arrays.values():
            arr += 0.3 * rng.normal(size=arr.shape)
        v = rng.normal(size=(6, n_m, 5))
        fused, trace = moe_forward(v, rng.normal(size=(n_m, 5)), rng.normal(size=9), p)
        assert fused.shape == (6, 9), f"token count changed at N_m={n_m}"
        for low in trace.pi_low:
            assert (low > 0).all() and (low < 1).all()
    announce("criterion 9 routing invariants",
             "simplex over 10^4 prompts; pi_low in (0,1); N_I invariant")


# ---------------------------------------------------------------------------
# 10. Toy multi-task training

def test_criterion_10_toy_training():
    started = time.time()
    task = make_toy_task(seed=11)
    curve = train_toy(task.train, task.model, steps=2000, lr=0.5,
                      val=task.val, eval_every=25, target_accuracy=95.0)
    assert len(curve) <= 2000
    accs = evaluate(task.model, task.val)
    for name, value in accs.items():
        assert value >= 95.0, f"{name} held-out accuracy {value:.1f} < 95"
    sm = smoothed(curve, 50)
    assert np.all(np.diff(sm) <= 1e-9), "smoothed loss curve not monotone"
    assert curve[-1] < curve[0]
    elapsed = time.time() - started
    assert elapsed < 300.0, f"toy training took {elapsed:.0f}s"
    announce("criterion 10 toy training",
             f"{len(curve)} steps, accs " +
             " ".join(f"{k}={v:.1f}" for k, v in sorted(accs.items())) +
             f", {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 11. Metric fixtures

def test_criterion_11_metric_fixtures():
    assert cohen_kappa(list("ABAB"), list("ABAB"))[0] == 1.0
    assert cohen_kappa(list("AABB"), list("BBAA"))[0] == pytest.approx(-1.0)
    assert cohen_kappa(list("AABB"), list("ABAB"))[0] == pytest.approx(0.0)

    all_hits = (np.ones(9, dtype=bool), np.ones(9, dtype=np.int64))
    assert bootstrap_std({"shape": all_hits}, seed=0) == {"shape": 0.0}

    records = generate_dataset([stub_descriptor(f"s{i}", "Enhancing Tissue")
                                for i in range(6)], default_bank(), seed=8)
    preds = [PredictionRecord(id=r.id, volume=r.gold["volume"], regions=r.gold["region"],
                              shape=r.gold["shape"], spread=r.gold["spread"], oos=r.oos_kind)
             for r in records]
    a = evaluate_predictions(records, preds, seed=21, resamples=500).to_json()
    b = evaluate_predictions(records, preds, seed=21, resamples=500).to_json()
    assert a == b, "bootstrap reports not byte-equal under a fixed seed"
    announce("criterion 11 metric fixtures", "kappa 1/-1/0 exact; bootstrap 0 and byte-equal")


# ---------------------------------------------------------------------------
# 12. Declared non-reproducible at desk scale

def test_criterion_12_declared_substitutes():
    """Paper-scale model accuracies and the clinician agreement study need
    GPU training and clinician annotations; this artifact reproduces the
    metric machinery and the dataset arithmetic instead (criteria 1-11)."""
    # Table-2-shaped report: four task accuracies plus their arithmetic mean
    records = generate_dataset([stub_descriptor("s0", "Enhancing Tissue")],
                               default_bank(), seed=3)
    preds = [PredictionRecord(id=r.id, volume=r.gold["volume"], regions=r.gold["region"],
                              shape=r.gold["shape"], spread=r.gold["spread"], oos=r.oos_kind)
             for r in records]
    report = evaluate_predictions(records, preds, seed=0, resamples=25)
    assert set(report.accuracy) == {"volume", "region", "shape", "spread"}
    assert report.task_mean is not None
    # kappa machinery reports on the x100 scale used for agreement studies
    kappa, _ = cohen_kappa(list("AABBB"), list("AABBA"))
    assert -1.0 <= kappa <= 1.0 and isinstance(100.0 * kappa, float)
    announce("criterion 12 declared substitutes",
             "metric machinery and dataset arithmetic stand in for GPU-scale results")


# ---------------------------------------------------------------------------
# 13. Frequency-table plausibility

def test_criterion_13_frequency_plausibility():
    bank = default_bank()

    # Monte-Carlo protocol prediction with one stream ...
    n_mc = 3000
    unspecified = Counter()
    for i in range(n_mc):
        for rec in sample_questions(stub_descriptor(f"mc{i}", "Enhancing Tissue"),
                                    bank, seed=101):
            for task in TASKS:
                if rec.gold[task] == UNSPECIFIED:
                    unspecified[task] += 1
    predicted = {t: 100.0 * unspecified[t] / (6 * n_mc) for t in TASKS}

    # ... versus a generated desk-scale corpus under a different seed
    labels = ["Enhancing Tissue", "Non-enhancing Tumor Core",
              "Surrounding FLAIR Hyperintensity", "Resection Cavity"]
    descriptors = [stub_descriptor(f"c{i:04d}", lab) for i in range(400) for lab in labels]
    records = generate_dataset(descriptors, bank, seed=202)
    stats = dataset_stats(records)
    observed = {t: p for t, l, p in stats.rows if l == UNSPECIFIED}

    for task in TASKS:
        gap = abs(observed[task] - predicted[task])
        assert gap <= 2.0, (
            f"{task}: corpus {observed[task]:.2f}% vs protocol-predicted "
            f"{predicted[task]:.2f}% (gap {gap:.2f}pp)"
        )
        # plausibility band around the exact enumeration of the protocol
        assert 50.0 <= predicted[task] <= 58.0
    announce("criterion 13 frequency plausibility",
             "corpus within 2pp of protocol prediction ("
             + " ".join(f"{t}={observed[t]:.1f}%" for t in TASKS) + ")")
