"""Multi-task heads, the six-term loss, and desk-scale training.

Heads are single linear layers over the mean of the fused tokens (the
stand-in for an LLM last-layer hidden state).  The loss is the sum of
categorical cross-entropies for volume, shape, spread, and out-of-scope,
a multi-label binary cross-entropy for region (summed over the nine region
bits per record), and a next-token proxy cross-entropy over a small
synthetic vocabulary so gradient flow through all six terms is exercised.
Tasks whose gold is Unspecified are masked out of their term.

The optimizer is plain full-batch gradient descent.  Only the fusion block
and the heads are trained; the image tokens and prompt embeddings are fixed
inputs, so the backward stops at the parameters and forms no gradient for them.

Each :class:`ToyBatch` owns the workspace of its training steps, ``work``:
:func:`model_loss_and_grads` hands it to the fusion block, whose forward and
backward write their activation-sized intermediates into its slots (see
:mod:`brainvqa.moe`), so every step on a batch after the first reuses the
same buffers, whether ``train_toy`` runs all the steps or is called once per
step.  :func:`evaluate` and the single-sample routing pass no workspace.
Nothing returned from a step (loss, gradients) lives in the workspace.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError
from .moe import (
    MoEParams, NameView, init_moe_params, moe_backward_batch, moe_forward_batch, sigmoid, softmax,
)
from .morphology import NOT_AVAILABLE, SPREAD_CORE_SATELLITES, SPREAD_SCATTERED, SPREAD_SINGLE
from .regions import REGION_NAMES, VOLUME_BINS
from .rng import stream
from .shape import SHAPE_CATEGORIES

VOLUME_CLASSES = tuple(VOLUME_BINS) + (NOT_AVAILABLE,)
SHAPE_CLASSES = tuple(SHAPE_CATEGORIES) + (NOT_AVAILABLE,)
SPREAD_CLASSES = (SPREAD_SINGLE, SPREAD_CORE_SATELLITES, SPREAD_SCATTERED, NOT_AVAILABLE)
OOS_CLASSES = ("none", "partial", "full")

N_REGION_LABELS = len(REGION_NAMES)

CATEGORICAL_TASKS = ("volume", "shape", "spread", "oos", "token")
ALL_TASKS = ("volume", "region", "shape", "spread", "oos", "token")


def head_sizes(n_token_vocab: int) -> dict[str, int]:
    return {
        "volume": len(VOLUME_CLASSES),
        "region": N_REGION_LABELS,
        "shape": len(SHAPE_CLASSES),
        "spread": len(SPREAD_CLASSES),
        "oos": len(OOS_CLASSES),
        "token": n_token_vocab,
    }


def init_heads(seed: int, d_text: int, n_token_vocab: int = 12) -> dict[str, np.ndarray]:
    rng = stream(seed, "heads-init")
    bound = 1.0 / np.sqrt(d_text)
    heads: dict[str, np.ndarray] = {}
    for task, k in head_sizes(n_token_vocab).items():
        heads[f"head_{task}.W"] = rng.uniform(-bound, bound, size=(k, d_text))
        heads[f"head_{task}.b"] = np.zeros(k)
    return heads


def heads_forward(hidden: np.ndarray, heads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Per-task logits from the pooled hidden state (B, d_T)."""
    out = {}
    for task in ALL_TASKS:
        out[task] = hidden @ heads[f"head_{task}.W"].T + heads[f"head_{task}.b"]
    return out


def _masked_ce(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over rows with target >= 0, plus dL/dlogits."""
    mask = targets >= 0
    dlogits = np.zeros_like(logits)
    count = int(mask.sum())
    if count == 0:
        return 0.0, dlogits
    z = logits[mask]
    tgt = targets[mask]
    zmax = z.max(axis=1, keepdims=True)
    logsumexp = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    loss = float(np.mean(logsumexp - z[np.arange(count), tgt]))
    probs = softmax(z, axis=1)
    probs[np.arange(count), tgt] -= 1.0
    dlogits[mask] = probs / count
    return loss, dlogits


def _masked_bce(
    logits: np.ndarray, targets: np.ndarray, included: np.ndarray
) -> tuple[float, np.ndarray]:
    """Multi-label BCE summed over labels per record, averaged over records."""
    dlogits = np.zeros_like(logits)
    count = int(included.sum())
    if count == 0:
        return 0.0, dlogits
    z = logits[included]
    y = targets[included]
    # log(1 + exp(z)) - y*z, stable via logaddexp
    per_label = np.logaddexp(0.0, z) - y * z
    loss = float(per_label.sum(axis=1).mean())
    dlogits[included] = (sigmoid(z) - y) / count
    return loss, dlogits


def multitask_loss(
    logits: dict[str, np.ndarray], gold: dict[str, np.ndarray]
) -> tuple[float, dict[str, float], dict[str, np.ndarray]]:
    """Six-term loss; returns (total, per-term breakdown, dL/dlogits per task).

    ``gold`` uses -1 targets (categorical) and a ``region_mask`` boolean row
    filter (multi-label) for Unspecified tasks.
    """
    breakdown: dict[str, float] = {}
    dlogits: dict[str, np.ndarray] = {}
    for task in CATEGORICAL_TASKS:
        breakdown[task], dlogits[task] = _masked_ce(logits[task], gold[task])
    breakdown["region"], dlogits["region"] = _masked_bce(
        logits["region"], gold["region"], gold["region_mask"]
    )
    total = float(sum(breakdown.values()))
    return total, breakdown, dlogits


# ---------------------------------------------------------------------------
# Full model: fusion block + heads, end to end

@dataclass
class MultiTaskModel:
    moe: MoEParams
    heads: dict[str, np.ndarray]

    def stored_arrays(self) -> dict[str, np.ndarray]:
        """The MoE stacks and the head arrays, each stored once."""
        return {**self.moe.stacks, **self.heads}

    def all_arrays(self) -> NameView:
        """Every parameter by name; the MoE names are views into its stacks."""
        return NameView(self.moe.config.n_experts, self.stored_arrays())


@dataclass
class ToyBatch:
    v: np.ndarray  # (B, N_I, N_m, d_I)
    cls: np.ndarray  # (B, N_m, d_I)
    t: np.ndarray  # (B, d_T)
    gold: dict[str, np.ndarray]
    # Activation buffers of training steps on this batch (moe.moe_forward_batch's work).
    work: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return self.v.shape[0]


def model_forward(model: MultiTaskModel, batch: ToyBatch, work: dict | None = None):
    """Pooled hidden state, per-task logits and the fusion block's cache.

    The fused tokens are dropped once pooled, so a training step does not hold
    them through the backward."""
    e, cache = moe_forward_batch(batch.v, batch.cls, batch.t, model.moe, work)
    hidden = e.mean(axis=1)
    return hidden, heads_forward(hidden, model.heads), cache


def model_loss_and_grads(
    model: MultiTaskModel, batch: ToyBatch
) -> tuple[float, dict[str, float], NameView]:
    """Loss plus gradients for every parameter array (moe + heads).

    The gradients are laid out like ``model.stored_arrays()`` and named like
    ``model.all_arrays()``.
    """
    hidden, logits, cache = model_forward(model, batch, batch.work)
    total, breakdown, dlogits = multitask_loss(logits, batch.gold)

    grads: dict[str, np.ndarray] = {}
    dhidden = np.zeros_like(hidden)
    for task in ALL_TASKS:
        grads[f"head_{task}.W"] = dlogits[task].T @ hidden
        grads[f"head_{task}.b"] = dlogits[task].sum(axis=0)
        dhidden += dlogits[task] @ model.heads[f"head_{task}.W"]
    n_positions = batch.v.shape[1]
    de = np.repeat(dhidden[:, None, :], n_positions, axis=1) / n_positions
    moe_grads = moe_backward_batch(de, cache)
    return total, breakdown, NameView(model.moe.config.n_experts, {**moe_grads.stacks, **grads})


def finite_difference_errors(
    model: MultiTaskModel, batch: ToyBatch, picks: dict
) -> dict[str, float]:
    """Worst relative error of the analytic gradient per array, by central differences.

    ``picks`` maps each array name of ``model.all_arrays()`` to the flat
    indices of the scalars to probe.  Each probe moves one scalar by +-1e-5
    and compares ``fd = (L+ - L-) / 2e-5`` with the analytic gradient ``g`` as
    ``|fd - g| / max(|fd|, |g|, 1e-8)``; the model is left unchanged.  An
    array with a NaN error at any probe reports NaN.
    """
    eps = 1e-5
    _, _, grads = model_loss_and_grads(model, batch)
    worst: dict[str, float] = {}
    for name, arr in model.all_arrays().items():
        worst[name] = 0.0
        for i in picks[name]:
            orig = arr.flat[i]
            arr.flat[i] = orig + eps
            lp, _, _ = model_loss_and_grads(model, batch)
            arr.flat[i] = orig - eps
            lm, _, _ = model_loss_and_grads(model, batch)
            arr.flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            g = grads[name].flat[i]
            rel = abs(fd - g) / max(abs(fd), abs(g), 1e-8)
            worst[name] = float(np.maximum(worst[name], rel))  # a NaN stays NaN
    return worst


def evaluate(model: MultiTaskModel, batch: ToyBatch) -> dict[str, float]:
    """Per-task accuracy in percent (region is per-label binary accuracy)."""
    _, logits, _ = model_forward(model, batch)
    out = {}
    for task in CATEGORICAL_TASKS:
        targets = batch.gold[task]
        mask = targets >= 0
        if mask.sum() == 0:
            continue
        pred = logits[task][mask].argmax(axis=1)
        out[task] = 100.0 * float((pred == targets[mask]).mean())
    included = batch.gold["region_mask"]
    if included.sum():
        pred = logits["region"][included] > 0.0
        tgt = batch.gold["region"][included] > 0.5
        out["region"] = 100.0 * float((pred == tgt).mean())
    return out


def train_toy(
    train: ToyBatch,
    model: MultiTaskModel,
    steps: int,
    lr: float,
    val: ToyBatch | None = None,
    eval_every: int = 25,
    target_accuracy: float | None = None,
) -> list[float]:
    """Plain gradient descent; returns the per-step loss curve.

    Stops early once every task's held-out accuracy reaches
    ``target_accuracy`` (checked every ``eval_every`` steps).  Raises
    :class:`TrainingError` on divergence: a non-finite loss at any step, or a
    non-finite parameter after the last update.
    """
    curve: list[float] = []
    for step in range(steps):
        loss, _, grads = model_loss_and_grads(model, train)
        if not np.isfinite(loss):
            raise TrainingError(f"loss diverged to {loss} at step {step}")
        curve.append(loss)
        if lr != 0.0:
            for key, arr in model.stored_arrays().items():
                arr -= lr * grads.stacks[key]
        if (
            target_accuracy is not None
            and val is not None
            and step % eval_every == eval_every - 1
        ):
            accs = evaluate(model, val)
            if all(a >= target_accuracy for a in accs.values()):
                break
    bad = [key for key, arr in model.stored_arrays().items() if not np.isfinite(arr).all()]
    if bad:
        raise TrainingError(f"parameters {bad} are not finite after {len(curve)} steps")
    return curve


# ---------------------------------------------------------------------------
# Linearly separable synthetic fixture

@dataclass
class ToyTask:
    train: ToyBatch
    val: ToyBatch
    model: MultiTaskModel
    signal_dim: int = 0


def make_toy_task(
    seed: int = 0,
    n_train: int = 256,
    n_val: int = 64,
    n_positions: int = 4,
    n_modalities: int = 2,
    d_image: int = 48,
    d_text: int = 48,
    n_experts: int = 4,
    hidden: int = 12,
    n_token_vocab: int = 12,
    noise: float = 0.02,
    signal_scale: float = 2.0,
) -> ToyTask:
    """Per-sample gold one-hots are linearly embedded into every token.

    A fixed random full-column-rank map sends the concatenated task one-hots
    into image-token space, so a linear readout solves every task; small
    token noise keeps the problem honest.
    """
    sizes = head_sizes(n_token_vocab)
    signal_dim = sum(sizes.values())
    if d_image < signal_dim or d_text < signal_dim:
        raise TrainingError(
            f"embedding dims must be >= signal dim {signal_dim} for separability"
        )
    rng = stream(seed, "toy-task")
    embed = rng.normal(size=(n_modalities, d_image, signal_dim)) / np.sqrt(signal_dim)

    def make_batch(n: int, tag: str) -> ToyBatch:
        r = stream(seed, "toy-batch", tag)
        gold = {
            "volume": r.integers(sizes["volume"], size=n),
            "shape": r.integers(sizes["shape"], size=n),
            "spread": r.integers(sizes["spread"], size=n),
            "oos": r.integers(sizes["oos"], size=n),
            "token": r.integers(sizes["token"], size=n),
            "region": (r.random(size=(n, N_REGION_LABELS)) < 0.3).astype(np.float64),
            "region_mask": np.ones(n, dtype=bool),
        }
        signal = np.zeros((n, signal_dim))
        offset = 0
        for task in ("volume", "region", "shape", "spread", "oos", "token"):
            k = sizes[task]
            if task == "region":
                signal[:, offset : offset + k] = gold["region"]
            else:
                signal[np.arange(n), offset + gold[task]] = 1.0
            offset += k
        signal *= signal_scale
        clean = np.einsum("mds,ns->nmd", embed, signal)  # (n, N_m, d_I)
        v = np.repeat(clean[:, None, :, :], n_positions, axis=1)
        v = v + noise * r.normal(size=v.shape)
        cls = clean + noise * r.normal(size=clean.shape)
        t = 0.1 * r.normal(size=(n, d_text))
        return ToyBatch(v=v, cls=cls, t=t, gold=gold)

    moe = init_moe_params(
        seed,
        n_experts=n_experts,
        n_modalities=n_modalities,
        d_image=d_image,
        d_text=d_text,
        hidden=hidden,
    )
    heads = init_heads(seed, d_text, n_token_vocab)
    return ToyTask(
        train=make_batch(n_train, "train"),
        val=make_batch(n_val, "val"),
        model=MultiTaskModel(moe=moe, heads=heads),
        signal_dim=signal_dim,
    )


def smoothed(curve: list[float], window: int = 50) -> np.ndarray:
    """Moving average used for the monotonicity check of loss curves."""
    arr = np.asarray(curve, dtype=np.float64)
    if arr.size < window:
        return arr
    kernel = np.ones(window) / window
    return np.convolve(arr, kernel, mode="valid")
