from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainvqa.errors import ConfigError, FormatError
from brainvqa.metrics import (
    PredictionRecord,
    bootstrap_std,
    cohen_kappa,
    evaluate_predictions,
    heatmap_to_csv,
    normalize_answer,
    region_accuracy,
    routing_heatmap,
    task_accuracy,
)
from brainvqa.qagen import SPREAD_CATEGORIES, DatasetRecord, generate_dataset
from brainvqa.regions import REGION_NAMES, VOLUME_BINS
from brainvqa.shape import SHAPE_CATEGORIES
from brainvqa.templates import UNSPECIFIED, default_bank
from test_qagen import descriptor
import metrics_oracle as oracle


def hits(*values):
    """One task whose records are all included, with these 0/1 exact-match hits."""
    return {"t": (np.ones(len(values), dtype=bool), np.array(values, dtype=np.int64))}


def oracle_std(pairs, resamples, seed):
    """The per-resample bootstrap of exact-match accuracy over (pred, gold) pairs."""
    return oracle.bootstrap_std(
        lambda sub: oracle.task_accuracy([p for p, _ in sub], [g for _, g in sub]),
        pairs, resamples=resamples, seed=seed)


class TestTaskAccuracy:
    def test_all_correct(self):
        assert task_accuracy(["a", "b"], ["a", "b"], "shape") == 100.0

    def test_half_correct_of_four(self):
        assert task_accuracy(list("abcd"), list("abxy"), "shape") == 50.0

    def test_na_is_an_ordinary_class(self):
        assert task_accuracy(["N/A"], ["N/A"], "volume") == 100.0
        assert task_accuracy(["N/A"], ["<1%"], "volume") == 0.0

    def test_unspecified_records_excluded(self):
        assert task_accuracy(["x", "b"], [UNSPECIFIED, "b"], "volume") == 100.0

    def test_zero_included_is_absent(self):
        assert task_accuracy(["x"], [UNSPECIFIED], "volume") is None

    def test_permutation_invariance(self):
        preds, golds = list("aabb"), list("abab")
        base = task_accuracy(preds, golds, "shape")
        order = [2, 0, 3, 1]
        assert task_accuracy([preds[i] for i in order], [golds[i] for i in order],
                             "shape") == base


class TestRegionAccuracy:
    def test_exact_match_everywhere(self):
        golds = [["frontal"], ["parietal", "insula"]]
        assert region_accuracy(golds, golds) == 100.0

    def test_one_extra_label_is_eight_ninths(self):
        score = region_accuracy([["frontal", "parietal"]], [["frontal"]])
        assert score == pytest.approx(100 * 8 / 9)

    def test_gold_na_pred_region_scores_zero(self):
        assert region_accuracy([["frontal"]], ["N/A"]) == 0.0

    def test_both_na_scores_one(self):
        assert region_accuracy(["N/A"], ["N/A"]) == 100.0

    def test_exact_set_cross_check(self):
        # when every record matches exactly, region accuracy agrees with
        # exact-set-match task accuracy
        golds = [["frontal"], "N/A", ["insula", "limbic"]]
        canon = lambda g: g if isinstance(g, str) else tuple(sorted(g))
        exact = task_accuracy([canon(g) for g in golds], [canon(g) for g in golds], "region")
        assert region_accuracy(golds, golds) == exact == 100.0


class TestBootstrap:
    def test_constant_records_zero_std(self):
        assert bootstrap_std(hits(*[1] * 7), seed=0) == {"t": 0.0}

    def test_two_record_closed_form(self):
        # resampled accuracy is {0, 50, 100} w.p. {1/4, 1/2, 1/4}: std = sqrt(1250)
        value = bootstrap_std(hits(1, 0), seed=3)["t"]
        assert value == pytest.approx(np.sqrt(1250), rel=0.02)

    def test_deterministic_under_seed(self):
        a = bootstrap_std(hits(1, 0, 1), seed=11)
        b = bootstrap_std(hits(1, 0, 1), seed=11)
        assert a == b
        assert a != bootstrap_std(hits(1, 0, 1), seed=12)

    def test_empty_is_error(self):
        with pytest.raises(FormatError):
            bootstrap_std(hits(), seed=0)

    def test_one_draw_scores_every_task(self):
        # Every task sees the same indices, so scoring tasks together or
        # one at a time gives the same stds.
        scores = {"a": (np.ones(5, dtype=bool), np.array([1, 0, 0, 1, 1])),
                  "b": (np.array([1, 1, 0, 1, 0], dtype=bool),
                        np.array([0.5, 1.0, 0.0, 0.25, 0.0]))}
        stds = bootstrap_std(scores, resamples=40, seed=2)
        assert stds == {task: bootstrap_std({task: v}, resamples=40, seed=2)[task]
                        for task, v in scores.items()}
        assert all(v > 0.0 for v in stds.values())

    def test_matches_the_per_resample_oracle(self):
        pairs = [("a", "a"), ("b", "x"), ("c", "c"), ("d", "d")]
        assert (bootstrap_std(hits(1, 0, 1, 1), resamples=70, seed=5)
                == {"t": oracle_std(pairs, resamples=70, seed=5)})


class TestCohenKappa:
    def test_identity_is_one(self):
        kappa, flag = cohen_kappa(list("AABB"), list("AABB"))
        assert kappa == 1.0 and not flag

    def test_anti_aligned_is_minus_one(self):
        kappa, _ = cohen_kappa(list("AABB"), list("BBAA"))
        assert kappa == pytest.approx(-1.0)

    def test_chance_case_is_zero(self):
        kappa, _ = cohen_kappa(list("AABB"), list("ABAB"))
        assert kappa == pytest.approx(0.0)

    def test_symmetry(self):
        a, b = list("AABBC"), list("ABABC")
        assert cohen_kappa(a, b)[0] == pytest.approx(cohen_kappa(b, a)[0])

    def test_constant_identical_is_flagged_one(self):
        kappa, flag = cohen_kappa(["A", "A"], ["A", "A"])
        assert kappa == 1.0 and flag

    def test_self_agreement_always_one(self):
        ann = ["x", "y", "z", "x", "x"]
        assert cohen_kappa(ann, ann)[0] == 1.0


class TestRoutingHeatmap:
    def test_identical_vectors_correlate_one(self):
        v = np.array([0.5, 0.3, 0.2])
        corr, _, _ = routing_heatmap([v, v.copy()])
        assert corr[0, 1] == pytest.approx(1.0)

    def test_mean_adjusted_opposite_is_minus_one(self):
        v = np.array([1.0, 2.0, 3.0])
        corr, _, _ = routing_heatmap([v, -v + 10.0])
        assert corr[0, 1] == pytest.approx(-1.0)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(0)
        traces = [rng.dirichlet(np.ones(8)) for _ in range(12)]
        corr, labels, flags = routing_heatmap(traces)
        assert np.allclose(corr, corr.T)
        assert np.allclose(np.diag(corr), 1.0)
        assert corr.min() >= -1.0 and corr.max() <= 1.0
        assert not flags

    def test_zero_variance_flagged_zero(self):
        uniform = np.full(4, 0.25)
        spiky = np.array([0.7, 0.1, 0.1, 0.1])
        corr, _, flags = routing_heatmap([uniform, spiky])
        assert corr[0, 1] == 0.0
        assert corr[0, 0] == 1.0
        assert len(flags) == 1

    def test_csv_layout(self):
        corr, labels, _ = routing_heatmap([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                                          ["a", "b"])
        csv = heatmap_to_csv(corr, labels)
        lines = csv.strip().splitlines()
        assert lines[0] == "prompt,a,b"
        assert len(lines) == 3


class TestEvaluatePredictions:
    def _records(self):
        descriptors = [descriptor(study=f"s{i}") for i in range(5)]
        return generate_dataset(descriptors, default_bank(), seed=6)

    def test_perfect_predictions(self):
        records = self._records()
        preds = [
            PredictionRecord(id=r.id, volume=r.gold["volume"], regions=r.gold["region"],
                             shape=r.gold["shape"], spread=r.gold["spread"], oos=r.oos_kind)
            for r in records
        ]
        report = evaluate_predictions(records, preds, seed=0, resamples=50)
        assert all(v == 100.0 for v in report.accuracy.values())
        assert report.task_mean == 100.0
        assert report.oos_accuracy == 100.0
        assert all(v == 0.0 for v in report.bootstrap_std.values())

    def test_task_mean_is_arithmetic_mean(self):
        records = self._records()
        preds = []
        for i, r in enumerate(records):
            wrong = i % 2 == 0
            preds.append(PredictionRecord(
                id=r.id,
                volume="N/A" if wrong else r.gold["volume"],
                regions=r.gold["region"],
                shape=r.gold["shape"],
                spread=r.gold["spread"],
                oos=r.oos_kind,
            ))
        report = evaluate_predictions(records, preds, seed=0, resamples=20)
        expected = np.mean([report.accuracy[t] for t in ("volume", "region", "shape", "spread")])
        assert report.task_mean == pytest.approx(expected)

    def test_missing_prediction_is_error(self):
        records = self._records()
        with pytest.raises(FormatError):
            evaluate_predictions(records, [], seed=0)

    @pytest.mark.parametrize("resamples", [0, -3])
    def test_fewer_than_one_resample_is_config_error(self, resamples):
        records = self._records()
        with pytest.raises(ConfigError):
            evaluate_predictions(records, [], seed=0, resamples=resamples)

    def test_report_json_stable(self):
        records = self._records()
        preds = [PredictionRecord(id=r.id, volume=r.gold["volume"], regions=r.gold["region"],
                                  shape=r.gold["shape"], spread=r.gold["spread"], oos=r.oos_kind)
                 for r in records]
        a = evaluate_predictions(records, preds, seed=1, resamples=30).to_json()
        b = evaluate_predictions(records, preds, seed=1, resamples=30).to_json()
        assert a == b


GOLD_CHOICES = {
    "volume": st.sampled_from([*VOLUME_BINS, "N/A", UNSPECIFIED]),
    "region": st.one_of(st.sampled_from(["N/A", UNSPECIFIED]),
                        st.lists(st.sampled_from(REGION_NAMES), unique=True)),
    "shape": st.sampled_from([*SHAPE_CATEGORIES, "N/A", UNSPECIFIED]),
    "spread": st.sampled_from([*SPREAD_CATEGORIES, "N/A", UNSPECIFIED]),
}
# None, N/A, a vocabulary or free string, or a region list, for any task.
PREDICTION = st.one_of(
    st.none(), st.just("N/A"), st.sampled_from([*VOLUME_BINS, *SHAPE_CATEGORIES, *SPREAD_CATEGORIES]),
    st.text(max_size=8), st.lists(st.sampled_from(REGION_NAMES), max_size=4),
)
OOS = ("none", "partial", "full")


@st.composite
def scored_corpus(draw):
    n = draw(st.integers(1, 40))
    # A task asked of every k-th record only: small resamples then often
    # draw none of its records and must skip it.
    every = {task: draw(st.integers(1, 20)) for task in GOLD_CHOICES}
    golds, preds = [], []
    for i in range(n):
        gold = {task: draw(choice) if i % every[task] == 0 else UNSPECIFIED
                for task, choice in GOLD_CHOICES.items()}
        golds.append(DatasetRecord(
            id=f"r{i}", study_id=f"s{i}", label_name="Enhancing Tissue", split="test",
            question="", answer="", task_set=(), oos_kind=draw(st.sampled_from(OOS)),
            gold=gold, template_id="t"))
        preds.append(PredictionRecord(
            id=f"r{i}", volume=draw(PREDICTION), regions=draw(PREDICTION),
            shape=draw(PREDICTION), spread=draw(PREDICTION),
            oos=draw(st.one_of(st.none(), st.sampled_from(OOS)))))
    return golds, preds[::-1]


class TestAgainstPerResampleOracle:
    # A task with few included records can have no resample that draws one;
    # its std is then None under both implementations.
    @settings(deadline=None)
    @given(corpus=scored_corpus(), resamples=st.integers(1, 60),
           seed=st.integers(0, 2**31 - 1))
    def test_report_bytes_equal(self, corpus, resamples, seed):
        golds, preds = corpus
        got = evaluate_predictions(golds, preds, seed=seed, resamples=resamples).to_json()
        want = oracle.evaluate_predictions(golds, preds, seed=seed, resamples=resamples)
        assert got == want.to_json()

    def test_resample_without_included_records_is_skipped(self):
        # One included record in 40: about a third of the resamples miss it.
        included = np.zeros(40, dtype=bool)
        included[7] = True
        hit = np.zeros(40, dtype=np.int64)
        hit[7] = 1
        pairs = [("a", "a" if i == 7 else UNSPECIFIED) for i in range(40)]
        assert (bootstrap_std({"t": (included, hit)}, resamples=60, seed=0)
                == {"t": oracle_std(pairs, resamples=60, seed=0)})

    def test_task_no_resample_draws_reports_null(self):
        # 40 records, the volume task asked of one; the single resample of
        # seed 1 misses it, so volume has an accuracy but no spread.
        golds = [DatasetRecord(
            id=f"r{i}", study_id=f"s{i}", label_name="Enhancing Tissue", split="test",
            question="", answer="", task_set=(), oos_kind="none",
            gold={"volume": "<1%" if i == 0 else UNSPECIFIED, "region": ["frontal"],
                  "shape": "round", "spread": "single lesion"}, template_id="t")
            for i in range(40)]
        preds = [PredictionRecord(id=f"r{i}", volume="<1%", regions=["frontal"], shape="round",
                                  spread="single lesion") for i in range(40)]

        def reject(name):
            raise AssertionError(f"report holds {name}")

        report = json.loads(evaluate_predictions(golds, preds, seed=1, resamples=1).to_json(),
                            parse_constant=reject)
        assert report["accuracy"]["volume"] == 100.0
        assert report["bootstrap_std"] == {"volume": None, "region": 0.0, "shape": 0.0,
                                           "spread": 0.0}

    def test_point_estimates_equal(self):
        golds = ["a", UNSPECIFIED, "N/A", "b", "c"]
        preds = ["a", "a", "N/A", None, "c"]
        assert task_accuracy(preds, golds, "shape") == oracle.task_accuracy(preds, golds)
        region_golds = [["frontal"], "N/A", UNSPECIFIED, ["insula", "limbic"]]
        region_preds = [["frontal", "insula"], None, "N/A", ["limbic"]]
        assert (region_accuracy(region_preds, region_golds)
                == oracle.region_accuracy(region_preds, region_golds))


class TestNormalizer:
    @pytest.mark.parametrize(
        "text,task,expected",
        [
            ("The shape of X is irregular.", "shape", "irregular"),
            ("Its volume is 1-5% of the brain.", "volume", "1-5%"),
            ("The spread of X is N/A.", "spread", "N/A"),
            ("described as core with satellite lesions", "spread",
             "core with satellite lesions"),
            ("totally unrelated text", "shape", None),
        ],
    )
    def test_categorical(self, text, task, expected):
        assert normalize_answer(text, task) == expected

    def test_region_list_splitting(self):
        out = normalize_answer("located in cerebellum, frontal and parietal", "region")
        assert out == ["cerebellum", "frontal", "parietal"]

    def test_region_na(self):
        assert normalize_answer("The region is N/A here", "region") == "N/A"

    def test_case_insensitive(self):
        assert normalize_answer("SHAPE: Irregular", "shape") == "irregular"
