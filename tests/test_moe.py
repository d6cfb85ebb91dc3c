from __future__ import annotations

import copy
import hashlib
import json

import numpy as np
import pytest

from brainvqa.errors import ConfigError, FormatError
from brainvqa.moe import (
    MODALITY_LEVEL,
    MoEParams,
    TOKEN_LEVEL,
    _param_layout,
    default_granularity,
    embed_text,
    high_route,
    init_moe_params,
    load_checkpoint,
    low_route,
    moe_backward_batch,
    moe_forward,
    moe_forward_batch,
    moe_forward_oracle,
    save_checkpoint,
    token_count_comparison,
)
from brainvqa.rng import stream
from conftest import edit_manifest, with_manifest
from moe_helpers import save_unchecked, spatial_pool


def randomized_params(seed, **kwargs):
    params = init_moe_params(seed, **kwargs)
    rng = stream(seed, "randomize")
    for arr in params.arrays.values():
        arr += 0.4 * rng.normal(size=arr.shape)
    return params


def random_inputs(seed, n_i, n_m, d_i, d_t):
    rng = stream(seed, "inputs")
    return (
        rng.normal(size=(n_i, n_m, d_i)),
        rng.normal(size=(n_m, d_i)),
        rng.normal(size=(d_t,)),
    )


class TestSpatialPool:
    def test_factor_one_identity(self):
        tokens = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(spatial_pool(tokens, 1), tokens)

    def test_mean_of_pairs(self):
        assert spatial_pool(np.array([[1.0], [3.0]]), 2).ravel() == pytest.approx([2.0])

    def test_constant_tokens(self):
        tokens = np.full((8, 5), 2.5)
        out = spatial_pool(tokens, 4)
        assert out.shape == (2, 5)
        assert np.all(out == 2.5)

    def test_non_divisible_factor(self):
        with pytest.raises(FormatError):
            spatial_pool(np.zeros((5, 2)), 2)


class TestHighRoute:
    def test_zero_init_uniform(self):
        params = init_moe_params(0, n_experts=8, n_modalities=2, d_image=4, d_text=6)
        pi = high_route(np.zeros(6), params)
        assert pi == pytest.approx(np.full(8, 1 / 8))

    def test_shift_invariance(self):
        params = randomized_params(1, n_experts=5, n_modalities=2, d_image=4, d_text=6)
        t = stream(2, "t").normal(size=6)
        pi = high_route(t, params)
        params.arrays["high.b2"] += 3.7  # constant logit shift
        assert high_route(t, params) == pytest.approx(pi, abs=1e-9)

    def test_identical_prompts_identical_weights(self):
        params = randomized_params(3, n_experts=4, n_modalities=2, d_image=4, d_text=6)
        t = stream(4, "t").normal(size=6)
        assert np.array_equal(high_route(t, params), high_route(t.copy(), params))

    def test_different_prompts_can_route_differently(self):
        params = randomized_params(3, n_experts=4, n_modalities=2, d_image=4, d_text=6)
        rng = stream(5, "pair")
        a = high_route(rng.normal(size=6), params)
        b = high_route(rng.normal(size=6), params)
        assert not np.allclose(a, b)

    def test_simplex_over_many_prompts(self):
        params = randomized_params(5, n_experts=16, n_modalities=4, d_image=4, d_text=8)
        rng = stream(6, "prompts")
        for _ in range(200):
            pi = high_route(rng.normal(size=8), params)
            assert pi.sum() == pytest.approx(1.0, abs=1e-6)
            assert (pi > 0).all()


class TestLowRoute:
    def test_zero_routers_give_half(self):
        params = init_moe_params(0, n_experts=2, n_modalities=3, d_image=4, d_text=6)
        for name in list(params.arrays):
            if ".low." in name:
                params.arrays[name][:] = 0.0  # fully zeroed router
        v, cls, _ = random_inputs(1, 5, 3, 4, 6)
        assert low_route(0, v, cls, params) == pytest.approx(np.full(3, 0.5))
        assert low_route(1, v, cls, params) == pytest.approx(np.full((3, 5), 0.5))

    def test_token_level_constant_positions(self):
        params = randomized_params(2, n_experts=2, n_modalities=2, d_image=3, d_text=6)
        assert params.config.granularity[1] == TOKEN_LEVEL
        v = np.tile(stream(3, "x").normal(size=(1, 2, 3)), (4, 1, 1))
        pi = low_route(1, v, v[0], params)
        assert pi.shape == (2, 4)
        assert np.allclose(pi, pi[:, :1])

    def test_modality_level_ignores_non_cls(self):
        params = randomized_params(4, n_experts=2, n_modalities=2, d_image=3, d_text=6)
        assert params.config.granularity[0] == MODALITY_LEVEL
        v1, cls, _ = random_inputs(5, 4, 2, 3, 6)
        v2 = v1 + 100.0
        assert np.array_equal(low_route(0, v1, cls, params), low_route(0, v2, cls, params))

    def test_range_open_interval(self):
        params = randomized_params(6, n_experts=2, n_modalities=3, d_image=4, d_text=6)
        v, cls, _ = random_inputs(7, 6, 3, 4, 6)
        for n in range(2):
            pi = low_route(n, v, cls, params)
            assert (pi > 0).all() and (pi < 1).all()


class TestMoEForward:
    def test_forced_specific_branch(self):
        params = init_moe_params(0, n_experts=1, n_modalities=2, d_image=3, d_text=4,
                                 granularity=(MODALITY_LEVEL,))
        rng = stream(8, "f")
        for key in ("expert0.Wm", "expert0.bm", "expert0.Ws", "expert0.bs"):
            params.arrays[key] += rng.normal(size=params.arrays[key].shape)
        params.arrays["expert0.low.b2"][:] = 30.0  # sigmoid -> 1 within 1e-13
        v, cls, t = random_inputs(9, 5, 2, 3, 4)
        fused, _ = moe_forward(v, cls, t, params)
        expected = sum(
            v[:, m, :] @ params.arrays["expert0.Wm"][m].T + params.arrays["expert0.bm"][m]
            for m in range(2)
        )
        assert fused == pytest.approx(expected, abs=1e-10)

    def test_forced_shared_branch(self):
        params = init_moe_params(0, n_experts=1, n_modalities=2, d_image=3, d_text=4,
                                 granularity=(MODALITY_LEVEL,))
        rng = stream(10, "f")
        for key in ("expert0.Wm", "expert0.bm", "expert0.Ws", "expert0.bs"):
            params.arrays[key] += rng.normal(size=params.arrays[key].shape)
        params.arrays["expert0.low.b2"][:] = -30.0  # sigmoid -> 0
        v, cls, t = random_inputs(11, 5, 2, 3, 4)
        fused, _ = moe_forward(v, cls, t, params)
        expected = sum(
            v[:, m, :] @ params.arrays["expert0.Ws"].T + params.arrays["expert0.bs"]
            for m in range(2)
        )
        assert fused == pytest.approx(expected, abs=1e-10)

    def test_oracle_equivalence_random_configs(self):
        rng = stream(12, "cfg")
        for trial in range(30):
            n = int(rng.choice([1, 2, 4]))
            n_m = int(rng.choice([1, 2, 4]))
            n_i = int(rng.choice([1, 3, 8]))
            d_i = int(rng.integers(2, 5))
            d_t = int(rng.integers(3, 7))
            params = randomized_params(100 + trial, n_experts=n, n_modalities=n_m,
                                       d_image=d_i, d_text=d_t, hidden=3)
            v, cls, t = random_inputs(200 + trial, n_i, n_m, d_i, d_t)
            fused, _ = moe_forward(v, cls, t, params)
            assert np.abs(fused - moe_forward_oracle(v, cls, t, params)).max() < 1e-12

    def test_token_count_invariance(self):
        for n_m in (1, 2, 4, 8):
            params = randomized_params(13, n_experts=4, n_modalities=n_m,
                                       d_image=5, d_text=7)
            v, cls, t = random_inputs(14, 6, n_m, 5, 7)
            fused, _ = moe_forward(v, cls, t, params)
            assert fused.shape == (6, 7)

    def test_convex_combination_bound(self):
        # bounded projections keep each modality's blend bounded by the same B
        params = randomized_params(15, n_experts=2, n_modalities=3, d_image=4, d_text=5)
        v, cls, t = random_inputs(16, 4, 3, 4, 5)
        bound = 0.0
        A = params.arrays
        for n in range(2):
            for m in range(3):
                spec = v[:, m, :] @ A[f"expert{n}.Wm"][m].T + A[f"expert{n}.bm"][m]
                shared = v[:, m, :] @ A[f"expert{n}.Ws"].T + A[f"expert{n}.bs"]
                bound = max(bound, np.abs(spec).max(), np.abs(shared).max())
        fused, _ = moe_forward(v, cls, t, params)
        assert np.abs(fused).max() <= 3 * bound + 1e-9

    def test_shape_mismatch_raises(self):
        params = init_moe_params(0, n_experts=2, n_modalities=2, d_image=3, d_text=4)
        v, cls, t = random_inputs(17, 4, 2, 3, 4)
        with pytest.raises(FormatError):
            moe_forward(v, cls, np.zeros(9), params)

    @pytest.mark.parametrize("cls_shape", [(3, 2), (2, 4), (1, 2, 3)])
    def test_cls_shape_mismatch_raises(self, cls_shape):
        params = init_moe_params(0, n_experts=2, n_modalities=2, d_image=3, d_text=4)
        v, _, t = random_inputs(17, 4, 2, 3, 4)
        with pytest.raises(FormatError, match="cls"):
            moe_forward(v, np.zeros(cls_shape), t, params)

    def test_v_must_be_4d_with_positions(self):
        params = init_moe_params(0, n_experts=2, n_modalities=2, d_image=3, d_text=4)
        v, cls, t = random_inputs(17, 4, 2, 3, 4)
        with pytest.raises(FormatError, match="v"):
            moe_forward_batch(v, cls[None], t[None], params)
        with pytest.raises(FormatError, match="v"):
            moe_forward(v[:0], cls, t, params)

    def test_trace_shapes(self):
        params = randomized_params(18, n_experts=2, n_modalities=3, d_image=4, d_text=5,
                                   granularity=(MODALITY_LEVEL, TOKEN_LEVEL))
        v, cls, t = random_inputs(19, 6, 3, 4, 5)
        _, trace = moe_forward(v, cls, t, params)
        assert trace.pi_high.shape == (2,)
        assert trace.pi_low[0].shape == (3,)
        assert trace.pi_low[1].shape == (3, 6)


class TestMoEBackward:
    def test_zero_upstream_zero_grads(self):
        params = randomized_params(20, n_experts=2, n_modalities=2, d_image=3, d_text=4)
        v, cls, t = random_inputs(21, 4, 2, 3, 4)
        _, cache = moe_forward_batch(v[None], cls[None], t[None], params)
        grads = moe_backward_batch(np.zeros((1, 4, 4)), cache)
        assert all(np.all(g == 0) for g in grads.values())

    def test_finite_difference_all_parameters(self):
        params = randomized_params(22, n_experts=2, n_modalities=2, d_image=3, d_text=4,
                                   hidden=3)
        v, cls, t = random_inputs(23, 3, 2, 3, 4)
        rng = stream(24, "proj")
        proj = rng.normal(size=(3, 4))  # fixed projection -> scalar loss

        def loss() -> float:
            e, _ = moe_forward_batch(v[None], cls[None], t[None], params)
            return float((e[0] * proj).sum())

        e, cache = moe_forward_batch(v[None], cls[None], t[None], params)
        grads = moe_backward_batch(proj[None], cache)
        eps = 1e-6
        for name, arr in params.arrays.items():
            flat = arr.reshape(-1)
            picks = stream(25, name).choice(flat.size, size=min(6, flat.size), replace=False)
            for i in picks:
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss()
                flat[i] = orig - eps
                lm = loss()
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                g = grads[name].reshape(-1)[i]
                assert fd == pytest.approx(g, rel=1e-5, abs=1e-8), name

    def test_unused_expert_gets_no_gradient(self):
        params = randomized_params(27, n_experts=2, n_modalities=2, d_image=3, d_text=4)
        # drive expert 1's routing weight to ~0
        params.arrays["high.b2"][:] = np.array([40.0, -40.0])
        params.arrays["high.W2"][:] = 0.0
        v, cls, t = random_inputs(28, 4, 2, 3, 4)
        _, cache = moe_forward_batch(v[None], cls[None], t[None], params)
        grads = moe_backward_batch(np.ones((1, 4, 4)), cache)
        for name, g in grads.items():
            if name.startswith("expert1."):
                assert np.linalg.norm(g) <= 1e-10, name


class TestGranularityAndUtilities:
    def test_default_granularity_alternates(self):
        tags = default_granularity(16)
        assert tags.count(MODALITY_LEVEL) == 8
        assert tags.count(TOKEN_LEVEL) == 8

    def test_token_count_comparison(self):
        out = token_count_comparison(144, 4)
        assert out == {"fused_tokens": 144, "concatenated_tokens": 576}

    @pytest.mark.parametrize("size", ["n_experts", "n_modalities", "d_image", "d_text", "hidden"])
    def test_sizes_must_be_positive(self, size):
        kwargs = {"n_experts": 2, "n_modalities": 2, "d_image": 3, "d_text": 4, "hidden": 2}
        kwargs[size] = 0
        with pytest.raises(ConfigError, match=size):
            init_moe_params(0, **kwargs)

    def test_parameter_count_reportable(self):
        params = init_moe_params(0, n_experts=2, n_modalities=2, d_image=3, d_text=4,
                                 hidden=2)
        assert params.n_parameters() == sum(a.size for a in params.arrays.values())
        assert params.n_parameters() > 0

    def test_checkpoint_round_trip(self, tmp_path):
        params = randomized_params(29, n_experts=3, n_modalities=2, d_image=4, d_text=5)
        path = tmp_path / "params.bin"
        save_checkpoint(path, params, extra={"seed": 29})
        back = load_checkpoint(path)
        assert back.config == params.config
        assert set(back.arrays) == set(params.arrays)
        for name in params.arrays:
            assert np.array_equal(back.arrays[name], params.arrays[name])

    def test_checkpoint_rewrite_is_byte_identical(self, tmp_path):
        params = randomized_params(31, n_experts=2, n_modalities=2, d_image=3, d_text=4)
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(first, params, extra={"seed": 31})
        save_checkpoint(second, load_checkpoint(first), extra={"seed": 31})
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("damage", [
        "empty", "prefix", "manifest", "array", "trailing", "not_json", "not_utf8",
        "missing_key", "bad_shape", "bad_granularity", "zero_n_experts", "zero_d_text",
    ])
    def test_malformed_checkpoint_is_format_error(self, tmp_path, damage):
        params = randomized_params(3, n_experts=2, n_modalities=2, d_image=3, d_text=4)
        path = tmp_path / "params.bin"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        blob_len = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
        edits = {
            "missing_key": lambda m: m.pop("hidden"),
            "bad_shape": lambda m: m["arrays"][0].update(shape=[-1]),
            "bad_granularity": lambda m: m.update(granularity=["token"]),
            "zero_n_experts": lambda m: m.update(n_experts=0),
            "zero_d_text": lambda m: m.update(d_text=0),
        }
        damaged = {
            "empty": b"",
            "prefix": raw[:6],
            "manifest": raw[: 8 + blob_len // 2],
            "array": raw[:-5],
            "trailing": raw + b"\0",
            "not_json": with_manifest(raw, b"{not json"),
            "not_utf8": with_manifest(raw, b"\xff\xfe"),
        }
        if damage in edits:
            edit_manifest(path, edits[damage])
        else:
            path.write_bytes(damaged[damage])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("change", ["shape", "rename", "drop", "extra"])
    def test_checkpoint_layout_must_match_config(self, tmp_path, change):
        params = randomized_params(5, n_experts=2, n_modalities=2, d_image=3, d_text=4)
        arrays = dict(params.arrays)
        if change == "shape":
            for name in ("high.W1", "high.b1", "high.W2", "high.b2"):
                arrays[name] = np.ones(1)
        elif change == "rename":
            arrays["expert9.Ws"] = arrays.pop("expert1.Ws")
        elif change == "drop":
            del arrays["expert0.bm"]
        else:
            arrays["expert2.bs"] = np.zeros(4)
        path = tmp_path / "params.bin"
        save_unchecked(path, params.config, arrays)
        with pytest.raises(FormatError, match="do not match its config"):
            load_checkpoint(path)

    def test_checkpoint_layout_checked_before_payload(self, tmp_path):
        params = init_moe_params(0, n_experts=1, n_modalities=1, d_image=2, d_text=4)
        path = tmp_path / "params.bin"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        blob_len = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
        manifest = json.loads(raw[8 : 8 + blob_len])
        manifest["arrays"][0]["shape"] = [10**15, 10**15]  # no payload could hold it
        blob = json.dumps(manifest).encode("utf-8")
        path.write_bytes(raw[:4] + np.uint32(len(blob)).tobytes() + blob)
        with pytest.raises(FormatError, match="do not match its config"):
            load_checkpoint(path)

    def test_embed_text_deterministic_unit_norm(self):
        a = embed_text("How large is the lesion?", 32)
        b = embed_text("How large is the lesion?", 32)
        c = embed_text("Entirely different words here", 32)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0)
        assert not np.allclose(a, c)


class TestStackedStore:
    """``MoEParams`` keeps one array per kind; parameter names are views into them."""

    def test_names_are_contiguous_views_into_the_stacks(self):
        params = randomized_params(40, n_experts=3, n_modalities=2, d_image=3, d_text=4)
        for name, arr in params.arrays.items():
            kind = name.split(".", 1)[1] if name.startswith("expert") else name
            assert np.shares_memory(arr, params.stacks[kind]), name
            assert arr.flags.c_contiguous, name
        assert list(params.arrays) == [name for name, _ in _param_layout(params.config)]
        assert len(params.arrays) == len(list(params.arrays))
        for absent in ("Wm", "expert3.Wm", "expert01.Wm", "expert0.W9", "high.W3"):
            assert absent not in params.arrays
        assert params.n_parameters() == sum(a.size for a in params.stacks.values())

    def test_deepcopy_is_independent(self):
        params = randomized_params(41, n_experts=4, n_modalities=2, d_image=3, d_text=4)
        v, cls, t = random_inputs(42, 3, 2, 3, 4)
        before, _ = moe_forward(v, cls, t, params)
        clone = copy.deepcopy(params)
        for arr in clone.arrays.values():
            arr += 0.25
        changed, _ = moe_forward(v, cls, t, clone)
        after, _ = moe_forward(v, cls, t, params)
        assert np.array_equal(after, before)
        assert not np.allclose(changed, before)
        assert all(not np.shares_memory(a, b)
                   for a, b in zip(params.stacks.values(), clone.stacks.values()))

    @pytest.mark.parametrize("edit", ["add", "assign"])
    def test_in_place_edit_by_name_matches_a_fresh_build(self, edit):
        params = randomized_params(43, n_experts=3, n_modalities=2, d_image=3, d_text=4,
                                   granularity=(MODALITY_LEVEL, TOKEN_LEVEL, TOKEN_LEVEL))
        v, cls, t = random_inputs(44, 3, 2, 3, 4)
        base, _ = moe_forward(v, cls, t, params)
        for name in params.arrays:
            edited = copy.deepcopy(params)
            delta = stream(45, name).normal(size=edited.arrays[name].shape)
            if edit == "add":
                edited.arrays[name] += delta
            else:
                edited.arrays[name][:] = delta
            arrays = {n: a.copy() for n, a in params.arrays.items()}
            arrays[name] = arrays[name] + delta if edit == "add" else delta
            fresh = MoEParams(params.config, arrays)
            got, got_trace = moe_forward(v, cls, t, edited)
            want, want_trace = moe_forward(v, cls, t, fresh)
            assert np.array_equal(got, want), name
            assert np.array_equal(got_trace.pi_high, want_trace.pi_high), name
            assert not np.array_equal(got, base), name

    @pytest.mark.parametrize("change", ["shape", "rename", "drop", "extra"])
    def test_mismatched_names_refused_at_construction(self, change):
        params = randomized_params(46, n_experts=2, n_modalities=2, d_image=3, d_text=4)
        arrays = dict(params.arrays)
        if change == "shape":
            arrays["high.b1"] = np.ones(1)
        elif change == "rename":
            arrays["expert9.Ws"] = arrays.pop("expert1.Ws")
        elif change == "drop":
            del arrays["expert0.bm"]
        else:
            arrays["expert2.bs"] = np.zeros(4)
        with pytest.raises(FormatError, match="do not match the config"):
            MoEParams(params.config, arrays)

    # SHA-256 of the checkpoint bytes of init_moe_params(3, **config), as
    # written before the parameters were stored as stacks.
    @pytest.mark.parametrize("config, digest", [
        ({}, "85744a7044b1551e65b99084be71060ab07954ab64c8f2faaeed3cf092a7f7fc"),
        (dict(n_experts=4, n_modalities=2, d_image=48, d_text=48, hidden=12),
         "5e03a910cac79e4036f9c129aa8f02aa242b75e95649dfeca992f2bc33e51e41"),
        (dict(n_experts=1, n_modalities=1, d_image=1, d_text=1, hidden=1),
         "c704df23a991e6598550a85cec29b59efa3f75a1bb45dff515368dce3d25deb8"),
        (dict(n_experts=4, n_modalities=3, d_image=5, d_text=6, hidden=3,
              granularity=(TOKEN_LEVEL,) * 4),
         "2f6f355898aed6523a093935d832287ce15f79820d69be8170caf23b62f16191"),
    ], ids=["default", "toy", "ones", "token"])
    def test_checkpoint_bytes_pinned(self, tmp_path, config, digest):
        path = tmp_path / "params.bvqm"
        save_checkpoint(path, init_moe_params(3, **config))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        save_checkpoint(path, load_checkpoint(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
