"""Stacked-expert MoE forward and backward against their per-expert originals.

``loop_forward_batch`` and ``loop_backward_batch`` are the original
implementations: a Python loop over the experts that branches on each
expert's granularity and contracts with ``np.einsum``.  They stay here as the
references that ``moe_forward_batch`` and ``moe_backward_batch`` must
reproduce.  The stacked code sums in a different order, so agreement is to
1e-12: absolute for the fused output, and relative to the largest gradient
entry for every parameter gradient.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainvqa.moe import (
    MODALITY_LEVEL,
    TOKEN_LEVEL,
    MoEParams,
    init_moe_params,
    moe_backward_batch,
    moe_forward,
    moe_forward_batch,
    sigmoid,
    softmax,
)
from brainvqa.rng import stream


def loop_forward_batch(v, cls, t, params: MoEParams):
    cfg = params.config
    A = params.arrays
    B, n_i, n_m, d_i = v.shape

    h_pre = t @ A["high.W1"].T + A["high.b1"]
    h_act = np.tanh(h_pre)
    logits = h_act @ A["high.W2"].T + A["high.b2"]
    pi_high = softmax(logits, axis=1)  # (B, N)

    e = np.zeros((B, n_i, cfg.d_text))
    expert_cache = []
    for n in range(cfg.n_experts):
        p = f"expert{n}"
        if cfg.granularity[n] == MODALITY_LEVEL:
            x = cls.reshape(B, n_m * d_i)
            z_act = np.tanh(x @ A[f"{p}.low.W1"].T + A[f"{p}.low.b1"])  # (B, h)
            gate_logits = z_act @ A[f"{p}.low.W2"].T + A[f"{p}.low.b2"]  # (B, N_m)
            pi = sigmoid(gate_logits)
            gate = pi[:, None, :]  # broadcast over positions
        else:
            x = v.reshape(B, n_i, n_m * d_i)
            z_act = np.tanh(x @ A[f"{p}.low.W1"].T + A[f"{p}.low.b1"])  # (B, N_I, h)
            gate_logits = z_act @ A[f"{p}.low.W2"].T + A[f"{p}.low.b2"]  # (B, N_I, N_m)
            pi = sigmoid(gate_logits)
            gate = pi
        spec = np.einsum("bimd,mtd->bimt", v, A[f"{p}.Wm"]) + A[f"{p}.bm"][None, None]
        shared = np.einsum("bimd,td->bimt", v, A[f"{p}.Ws"]) + A[f"{p}.bs"]
        mix = gate[..., None] * spec + (1.0 - gate)[..., None] * shared
        expert_out = mix.sum(axis=2)  # (B, N_I, d_T)
        e += pi_high[:, n, None, None] * expert_out
        expert_cache.append(
            {"x": x, "z_act": z_act, "pi": pi, "gate": gate, "spec": spec,
             "shared": shared, "expert_out": expert_out}
        )
    cache = {
        "v": v, "cls": cls, "t": t, "h_act": h_act, "pi_high": pi_high,
        "experts": expert_cache, "params": params,
    }
    return e, cache


def loop_backward_batch(de, cache):
    params: MoEParams = cache["params"]
    cfg = params.config
    A = params.arrays
    v, t = cache["v"], cache["t"]
    pi_high = cache["pi_high"]

    grads = {name: np.zeros_like(arr) for name, arr in A.items()}
    dpi_high = np.zeros_like(pi_high)

    for n in range(cfg.n_experts):
        p = f"expert{n}"
        ec = cache["experts"][n]
        gate, spec, shared = ec["gate"], ec["spec"], ec["shared"]
        d_expert = pi_high[:, n, None, None] * de  # (B, N_I, d_T)
        dpi_high[:, n] = np.einsum("bit,bit->b", de, ec["expert_out"])

        dmix = d_expert[:, :, None, :]  # broadcast of the sum over modalities
        dspec = gate[..., None] * dmix
        dshared = (1.0 - gate)[..., None] * dmix
        dgate = np.einsum("bimt->bim", dmix * (spec - shared))

        grads[f"{p}.Wm"] += np.einsum("bimt,bimd->mtd", dspec, v)
        grads[f"{p}.bm"] += dspec.sum(axis=(0, 1))
        grads[f"{p}.Ws"] += np.einsum("bimt,bimd->td", dshared, v)
        grads[f"{p}.bs"] += dshared.sum(axis=(0, 1, 2))

        pi, z_act, x = ec["pi"], ec["z_act"], ec["x"]
        if cfg.granularity[n] == MODALITY_LEVEL:
            dpi = dgate.sum(axis=1)  # (B, N_m); gate shared across positions
            dlogit = dpi * pi * (1.0 - pi)
            grads[f"{p}.low.W2"] += dlogit.T @ z_act
            grads[f"{p}.low.b2"] += dlogit.sum(axis=0)
            dz = (dlogit @ A[f"{p}.low.W2"]) * (1.0 - z_act**2)
            grads[f"{p}.low.W1"] += dz.T @ x
            grads[f"{p}.low.b1"] += dz.sum(axis=0)
        else:
            dlogit = dgate * pi * (1.0 - pi)  # (B, N_I, N_m)
            grads[f"{p}.low.W2"] += np.einsum("bim,bih->mh", dlogit, z_act)
            grads[f"{p}.low.b2"] += dlogit.sum(axis=(0, 1))
            dz = np.einsum("bim,mh->bih", dlogit, A[f"{p}.low.W2"]) * (1.0 - z_act**2)
            grads[f"{p}.low.W1"] += np.einsum("bih,bik->hk", dz, x)
            grads[f"{p}.low.b1"] += dz.sum(axis=(0, 1))

    dlogits = pi_high * (dpi_high - (dpi_high * pi_high).sum(axis=1, keepdims=True))
    h_act = cache["h_act"]
    grads["high.W2"] += dlogits.T @ h_act
    grads["high.b2"] += dlogits.sum(axis=0)
    dh = (dlogits @ A["high.W2"]) * (1.0 - h_act**2)
    grads["high.W1"] += dh.T @ t
    grads["high.b1"] += dh.sum(axis=0)
    return grads


def assert_matches_loop(seed, granularity, batch, n_i, n_m, d_i, d_t, hidden):
    params = init_moe_params(seed, n_experts=len(granularity), n_modalities=n_m, d_image=d_i,
                             d_text=d_t, hidden=hidden, granularity=tuple(granularity))
    rng = stream(seed, "moe-reference")
    for arr in params.arrays.values():
        arr += 0.5 * rng.normal(size=arr.shape)
    v = rng.normal(size=(batch, n_i, n_m, d_i))
    cls = rng.normal(size=(batch, n_m, d_i))
    t = rng.normal(size=(batch, d_t))
    de = rng.normal(size=(batch, n_i, d_t))

    e, cache = moe_forward_batch(v, cls, t, params)
    e_ref, cache_ref = loop_forward_batch(v, cls, t, params)
    assert e.shape == e_ref.shape
    assert np.abs(e - e_ref).max() <= 1e-12

    grads = moe_backward_batch(de, cache)
    grads_ref = loop_backward_batch(de, cache_ref)
    assert set(grads) == set(grads_ref)
    scale = max(float(np.abs(ref).max()) for ref in grads_ref.values())
    for name, ref in grads_ref.items():
        assert grads[name].shape == ref.shape, name
        assert np.abs(grads[name] - ref).max() <= 1e-12 * scale, name


MIXED = (MODALITY_LEVEL, TOKEN_LEVEL, TOKEN_LEVEL)


@pytest.mark.parametrize("granularity, batch, n_i, n_m, d_i, d_t, hidden", [
    ((MODALITY_LEVEL,) * 4, 3, 5, 2, 4, 6, 3),  # all modality-level
    ((TOKEN_LEVEL,) * 4, 3, 5, 2, 4, 6, 3),  # all token-level
    (MIXED, 2, 4, 3, 3, 5, 2),
    ((MODALITY_LEVEL,), 2, 3, 2, 3, 4, 3),  # N=1
    ((TOKEN_LEVEL,), 2, 3, 2, 3, 4, 3),
    (tuple(MODALITY_LEVEL if n % 3 else TOKEN_LEVEL for n in range(16)), 2, 3, 4, 5, 7, 4),
    (MIXED, 3, 1, 2, 3, 4, 3),  # N_I=1
    (MIXED, 3, 4, 1, 3, 4, 3),  # N_m=1
    (MIXED, 2, 3, 2, 1, 1, 1),  # d_I = d_T = hidden = 1
    (MIXED, 1, 4, 2, 3, 4, 3),  # B=1
])
def test_corner_configs_match_loop(granularity, batch, n_i, n_m, d_i, d_t, hidden):
    assert_matches_loop(1, granularity, batch, n_i, n_m, d_i, d_t, hidden)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    granularity=st.one_of(
        st.lists(st.sampled_from([MODALITY_LEVEL, TOKEN_LEVEL]), min_size=1, max_size=5),
        st.lists(st.sampled_from([MODALITY_LEVEL, TOKEN_LEVEL]), min_size=16, max_size=16),
    ),
    batch=st.sampled_from([1, 2, 5]),
    n_i=st.integers(1, 6),
    n_m=st.integers(1, 4),
    d_i=st.integers(1, 6),
    d_t=st.integers(1, 7),
    hidden=st.integers(1, 5),
)
def test_random_configs_match_loop(seed, granularity, batch, n_i, n_m, d_i, d_t, hidden):
    assert_matches_loop(seed, granularity, batch, n_i, n_m, d_i, d_t, hidden)


def test_trace_is_sliced_from_the_batched_gate():
    params = init_moe_params(3, n_experts=2, n_modalities=3, d_image=4, d_text=5,
                             granularity=(MODALITY_LEVEL, TOKEN_LEVEL))
    rng = stream(3, "trace")
    for arr in params.arrays.values():
        arr += 0.5 * rng.normal(size=arr.shape)
    v, cls, t = rng.normal(size=(6, 3, 4)), rng.normal(size=(3, 4)), rng.normal(size=5)
    _, trace = moe_forward(v, cls, t, params)
    _, cache = loop_forward_batch(v[None], cls[None], t[None, :], params)
    assert np.abs(trace.pi_high - cache["pi_high"][0]).max() <= 1e-12
    assert np.abs(trace.pi_low[0] - cache["experts"][0]["pi"][0]).max() <= 1e-12
    assert np.abs(trace.pi_low[1] - cache["experts"][1]["pi"][0].T).max() <= 1e-12
