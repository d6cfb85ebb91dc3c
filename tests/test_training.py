from __future__ import annotations

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from brainvqa.errors import TrainingError
from brainvqa import training
from brainvqa.training import (
    evaluate,
    finite_difference_errors,
    head_sizes,
    heads_forward,
    init_heads,
    make_toy_task,
    model_loss_and_grads,
    multitask_loss,
    smoothed,
    train_toy,
)
from brainvqa.moe import moe_backward_batch, moe_forward_batch
from brainvqa.rng import stream


def tiny_task(**overrides):
    defaults = dict(seed=1, n_train=6, n_val=4, n_positions=3, n_modalities=2,
                    d_image=41, d_text=41, n_experts=2, hidden=4, noise=0.05)
    defaults.update(overrides)
    return make_toy_task(**defaults)


class TestHeads:
    def test_logit_shapes(self):
        heads = init_heads(0, d_text=16, n_token_vocab=12)
        hidden = stream(1, "h").normal(size=(5, 16))
        logits = heads_forward(hidden, heads)
        sizes = head_sizes(12)
        for task, k in sizes.items():
            assert logits[task].shape == (5, k)

    def test_region_head_emits_nine_logits(self):
        heads = init_heads(0, d_text=8)
        logits = heads_forward(np.zeros((2, 8)), heads)
        assert logits["region"].shape == (2, 9)

    def test_class_counts_include_na(self):
        sizes = head_sizes(12)
        assert sizes["volume"] == 7  # 6 bins + N/A
        assert sizes["shape"] == 6  # 5 categories + N/A
        assert sizes["spread"] == 4  # 3 categories + N/A
        assert sizes["oos"] == 3

    def test_zero_weights_uniform_softmax(self):
        heads = {k: np.zeros_like(v) for k, v in init_heads(0, d_text=8).items()}
        logits = heads_forward(np.ones((3, 8)), heads)
        assert np.all(logits["volume"] == 0.0)


class TestMultitaskLoss:
    def test_uniform_logits_give_log_k(self):
        n = 4
        sizes = head_sizes(12)
        logits = {t: np.zeros((n, k)) for t, k in sizes.items()}
        gold = {
            "volume": np.zeros(n, dtype=int),
            "shape": np.zeros(n, dtype=int),
            "spread": np.zeros(n, dtype=int),
            "oos": np.zeros(n, dtype=int),
            "token": np.zeros(n, dtype=int),
            "region": np.zeros((n, 9)),
            "region_mask": np.ones(n, dtype=bool),
        }
        total, breakdown, _ = multitask_loss(logits, gold)
        for task, k in sizes.items():
            if task == "region":
                continue
            assert breakdown[task] == pytest.approx(np.log(k), abs=1e-12)

    def test_region_all_zero_logits_is_nine_ln_two(self):
        sizes = head_sizes(12)
        logits = {t: np.zeros((1, k)) for t, k in sizes.items()}
        region = np.zeros((1, 9))
        region[0, 0] = 1.0  # gold {frontal}
        gold = {
            "volume": np.array([-1]), "shape": np.array([-1]), "spread": np.array([-1]),
            "oos": np.array([-1]), "token": np.array([-1]),
            "region": region, "region_mask": np.ones(1, dtype=bool),
        }
        total, breakdown, _ = multitask_loss(logits, gold)
        assert breakdown["region"] == pytest.approx(9 * np.log(2), abs=1e-12)
        assert total == pytest.approx(9 * np.log(2), abs=1e-12)

    def test_perfect_logits_near_zero(self):
        sizes = head_sizes(12)
        n = 3
        gold = {
            "volume": np.arange(n) % sizes["volume"],
            "shape": np.arange(n) % sizes["shape"],
            "spread": np.arange(n) % sizes["spread"],
            "oos": np.arange(n) % sizes["oos"],
            "token": np.arange(n) % sizes["token"],
            "region": (stream(3, "r").random((n, 9)) < 0.4).astype(float),
            "region_mask": np.ones(n, dtype=bool),
        }
        logits = {}
        for task in ("volume", "shape", "spread", "oos", "token"):
            z = np.full((n, sizes[task]), -50.0)
            z[np.arange(n), gold[task]] = 50.0
            logits[task] = z
        logits["region"] = np.where(gold["region"] > 0.5, 50.0, -50.0)
        total, breakdown, _ = multitask_loss(logits, gold)
        assert total == pytest.approx(0.0, abs=1e-6)

    def test_masked_tasks_contribute_nothing(self):
        sizes = head_sizes(12)
        logits = {t: stream(4, t).normal(size=(2, k)) for t, k in sizes.items()}
        gold = {
            "volume": np.array([-1, -1]), "shape": np.array([-1, -1]),
            "spread": np.array([-1, -1]), "oos": np.array([-1, -1]),
            "token": np.array([-1, -1]),
            "region": np.zeros((2, 9)), "region_mask": np.zeros(2, dtype=bool),
        }
        total, breakdown, dlogits = multitask_loss(logits, gold)
        assert total == 0.0
        assert all(np.all(d == 0) for d in dlogits.values())


class TestTrainToy:
    def test_lr_zero_flat_curve(self):
        task = tiny_task()
        before = {k: v.copy() for k, v in task.model.all_arrays().items()}
        curve = train_toy(task.train, task.model, steps=5, lr=0.0)
        assert len(set(np.round(curve, 12))) == 1
        after = task.model.all_arrays()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_stacked_update_matches_update_by_name(self):
        task = tiny_task()
        ref = copy.deepcopy(task.model)
        _, _, grads = model_loss_and_grads(ref, task.train)
        for name, arr in ref.all_arrays().items():
            arr -= 0.1 * grads[name]
        train_toy(task.train, task.model, steps=1, lr=0.1)
        after = ref.all_arrays()
        assert all(np.array_equal(a, after[n]) for n, a in task.model.all_arrays().items())

    def test_single_sample_monotone_descent(self):
        task = tiny_task(n_train=1)
        curve = train_toy(task.train, task.model, steps=40, lr=0.05)
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_loss_decreases(self):
        task = tiny_task()
        curve = train_toy(task.train, task.model, steps=30, lr=0.2)
        assert curve[-1] < curve[0]

    def test_divergence_raises(self):
        task = tiny_task()
        with np.errstate(over="ignore"), pytest.raises(TrainingError):
            train_toy(task.train, task.model, steps=400, lr=500.0)

    def test_gradient_check_composite_loss(self):
        task = tiny_task()
        _, _, grads = model_loss_and_grads(task.model, task.train)
        eps = 1e-5
        for name, arr in task.model.all_arrays().items():
            flat = arr.reshape(-1)
            picks = stream(9, name).choice(flat.size, size=min(4, flat.size), replace=False)
            for i in picks:
                orig = flat[i]
                flat[i] = orig + eps
                lp, _, _ = model_loss_and_grads(task.model, task.train)
                flat[i] = orig - eps
                lm, _, _ = model_loss_and_grads(task.model, task.train)
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                g = grads[name].reshape(-1)[i]
                denom = max(abs(fd), abs(g), 1e-8)
                assert abs(fd - g) / denom < 1e-4, name

    @pytest.mark.parametrize("order", [[0, 1], [1, 0]])
    def test_finite_difference_errors_keep_nan(self, monkeypatch, order):
        task = tiny_task()
        real = training.model_loss_and_grads

        def nan_gradient(model, batch):
            total, breakdown, grads = real(model, batch)
            grads["expert0.Ws"].flat[1] = np.nan
            return total, breakdown, grads

        monkeypatch.setattr(training, "model_loss_and_grads", nan_gradient)
        picks = {name: order for name in task.model.all_arrays()}
        errors = finite_difference_errors(task.model, task.train, picks)
        assert np.isnan(errors["expert0.Ws"])
        assert all(e < 1e-4 for name, e in errors.items() if name != "expert0.Ws")

    def test_smoothed_window(self):
        curve = list(range(100, 0, -1))
        sm = smoothed(curve, 50)
        assert len(sm) == 51
        assert np.all(np.diff(sm) < 0)

    def test_evaluate_reports_all_tasks(self):
        task = tiny_task()
        accs = evaluate(task.model, task.val)
        assert set(accs) == {"volume", "region", "shape", "spread", "oos", "token"}
        assert all(0.0 <= v <= 100.0 for v in accs.values())


class TestWorkspace:
    """Training steps write their activations into the batch's workspace: same bytes, no
    aliasing of anything returned, the same buffers on every step."""

    def test_bytes_match_without_the_workspace_and_when_stepping_from_outside(self):
        task = make_toy_task(seed=5, n_train=64, n_val=8)
        models = [copy.deepcopy(task.model) for _ in range(3)]
        curves = [train_toy(task.train, models[0], steps=60, lr=0.25), [], []]
        fresh = dataclasses.replace(task.train, work=None)
        for _ in range(60):
            curves[1] += train_toy(task.train, models[1], steps=1, lr=0.25)
            curves[2] += train_toy(fresh, models[2], steps=1, lr=0.25)
        assert task.train.work and fresh.work is None
        for curve, model in zip(curves[1:], models[1:]):
            assert np.asarray(curve).tobytes() == np.asarray(curves[0]).tobytes()
            for key, arr in model.stored_arrays().items():
                assert arr.tobytes() == models[0].stored_arrays()[key].tobytes(), key

    def test_nothing_returned_aliases_the_workspace(self):
        task = make_toy_task(seed=6, n_train=16, n_val=4)
        batch, model = task.train, task.model
        e, cache = moe_forward_batch(batch.v, batch.cls, batch.t, model.moe, batch.work)
        grads = moe_backward_batch(stream(6, "de").normal(size=e.shape), cache)
        _, _, step_grads = model_loss_and_grads(model, batch)
        returned = [e, *grads.stacks.values(), *step_grads.stacks.values()]
        kept = [a.copy() for a in returned]
        for arr in model.stored_arrays().values():
            arr += 0.01 * stream(7, "perturb").normal(size=arr.shape)
        moe_forward_batch(batch.v, batch.cls, batch.t, model.moe, batch.work)
        model_loss_and_grads(model, batch)
        assert all(np.array_equal(a, b) for a, b in zip(returned, kept))
        assert not any(np.shares_memory(a, slot)
                       for a in returned for slot in batch.work.values())

    def test_buffers_are_reused_and_evaluate_leaves_them_alone(self):
        task = make_toy_task(seed=7, n_train=32, n_val=8)
        train_toy(task.train, task.model, steps=1, lr=0.25)
        work = task.train.work
        pointers = {name: slot.ctypes.data for name, slot in work.items()}
        contents = {name: slot.copy() for name, slot in work.items()}
        evaluate(task.model, task.val)
        assert {name: slot.ctypes.data for name, slot in work.items()} == pointers
        assert all(np.array_equal(work[name], contents[name]) for name in contents)
        assert task.val.work == {}
        train_toy(task.train, task.model, steps=2, lr=0.25)
        assert {name: slot.ctypes.data for name, slot in work.items()} == pointers

    def test_a_step_allocates_at_most_3_mb_after_warm_up(self):
        # B=256, the fixture of the moe_train benchmark; fresh arrays for every
        # activation took 15 MB per step, and the input gradients of a backward
        # that formed them 3.3 MB.
        task = make_toy_task(seed=0, n_train=256, n_val=8)
        train_toy(task.train, task.model, steps=1, lr=0.25)
        assert not {"dvt", "dvt_shared"} & set(task.train.work)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train_toy(task.train, task.model, steps=1, lr=0.25)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20, f"{peak / 2**20:.2f} MB"
