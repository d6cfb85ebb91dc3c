"""Prompt-conditioned hierarchical mixture-of-experts fusion block.

The fused output for tokens ``v`` (positions x modalities x embedding) and a
prompt embedding ``t`` is

    e = sum_n pi_high_n(t) * sum_m [ pi_n_m W_(m,n) v_m + (1 - pi_n_m) W_(shared,n) v_m ]

where ``pi_high = softmax(two-layer MLP of t)`` routes over experts and each
expert's ``pi = sigmoid(two-layer MLP)`` blends the modality-specific and
shared linear projections per modality (weights that total 1, so neither
branch can collapse).  Modality-level experts route from the concatenated
[CLS] tokens; token-level experts apply one router position-wise and so emit
a weight per (modality, position).

``MoEParams`` stores the ``high.*`` router arrays and each expert kind stacked
along a leading expert axis (``Wm`` is ``(N, N_m, d_T, d_I)``).  The batched
forward and backward contract these stacks directly, all experts and both
granularities at once.  ``MoEParams.arrays`` names the same memory:
``expert{n}.{kind}`` is the view ``stacks[kind][n]``, so edits by name write
through.  Gradients are hand-derived, stacked like the parameters, and checked
against central finite differences in the test suite.  The backward returns
parameter gradients only: the image tokens and the prompt embedding are fixed
inputs (no command trains them), so dL/d(v, cls, t) is never formed.  All math
is float64.

A training step can pass the batched forward a workspace, a dict that the
caller owns and keeps across steps (``training.ToyBatch.work``, one per
batch); the forward carries it in the cache to the backward.  The expert
projections, the routers' hidden layer and their gradients are then written
through ``out=`` into slots of that dict (:func:`_out`) instead of fresh arrays, so
after its first step a batch's steps allocate only input-sized arrays and
what they return.  Slots whose tenants are never live at once are shared: the
shared projections, dead once the forward ends, later hold the backward's
``dspec``, and their sum over modalities later holds ``expert_out * de``.
Nothing returned to a caller lives in a slot (the fused output and the
gradients are fresh arrays); only the cache does, so it is valid until the
next call with the same workspace.  Without a workspace every
intermediate is fresh; the operations and their order are the same either
way, and so are the results, bit for bit.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, TruncatedFileError
from .fileio import atomic_write
from .rng import stream

MODALITY_LEVEL = "modality"
TOKEN_LEVEL = "token"

DEFAULT_N_EXPERTS = 16

_SIZES = ("n_experts", "n_modalities", "d_image", "d_text", "hidden")

# Per-expert parameter kinds; expert n's arrays are named ``expert{n}.{kind}``.
_EXPERT_KINDS = ("low.W1", "low.b1", "low.W2", "low.b2", "Wm", "bm", "Ws", "bs")
_EXPERT_NAME = re.compile(r"expert(0|[1-9][0-9]*)\.(.+)")


@dataclass
class MoEConfig:
    n_experts: int
    n_modalities: int
    d_image: int
    d_text: int
    hidden: int
    granularity: tuple[str, ...]

    def __post_init__(self):
        small = [name for name in _SIZES if getattr(self, name) < 1]
        if small:
            raise ConfigError(f"MoE sizes {small} must be at least 1")
        if len(self.granularity) != self.n_experts:
            raise ConfigError("granularity tags must match the expert count")
        bad = set(self.granularity) - {MODALITY_LEVEL, TOKEN_LEVEL}
        if bad:
            raise ConfigError(f"unknown granularity tags {sorted(bad)}")


class NameView(Mapping):
    """Names over stacked arrays: ``expert{n}.{kind}`` is ``stacks[kind][n]`` for an
    expert kind, any other key is its own name.  Edits by name write into the stacks."""

    def __init__(self, n_experts: int, stacks: dict[str, np.ndarray]):
        self.n_experts, self.stacks = n_experts, stacks

    def __getitem__(self, name: str) -> np.ndarray:
        match = _EXPERT_NAME.fullmatch(name)
        if match and match[2] in _EXPERT_KINDS and int(match[1]) < self.n_experts:
            return self.stacks[match[2]][int(match[1])]
        if name in _EXPERT_KINDS:
            raise KeyError(name)
        return self.stacks[name]

    def __setitem__(self, name: str, value) -> None:
        self[name][...] = value

    def __iter__(self):
        yield from (key for key in self.stacks if key not in _EXPERT_KINDS)
        for n in range(self.n_experts):
            yield from (f"expert{n}.{kind}" for kind in _EXPERT_KINDS)

    def __len__(self) -> int:
        return len(self.stacks) + (self.n_experts - 1) * len(_EXPERT_KINDS)


class MoEParams:
    """Parameters stored as :func:`_stack_layout`; built from names and shapes that
    must be exactly :func:`_param_layout`'s, else :class:`FormatError`."""

    def __init__(self, config: MoEConfig, arrays: Mapping[str, np.ndarray]):
        if {name: np.shape(a) for name, a in arrays.items()} != dict(_param_layout(config)):
            raise FormatError("parameter array names or shapes do not match the config")
        self.config = config
        self.stacks = {key: np.empty(shape) for key, shape in _stack_layout(config).items()}
        for name, view in self.arrays.items():
            view[...] = arrays[name]
        # The router columns (N*H) of token-level experts, used by every batched call.
        self.token_cols = np.repeat([g == TOKEN_LEVEL for g in config.granularity], config.hidden)

    @property
    def arrays(self) -> NameView:
        return NameView(self.config.n_experts, self.stacks)

    def n_parameters(self) -> int:
        return int(sum(a.size for a in self.stacks.values()))


@dataclass
class RoutingTrace:
    pi_high: np.ndarray  # (N,)
    pi_low: list[np.ndarray]  # per expert: (N_m,) modality-level or (N_m, N_I) token-level


def default_granularity(n_experts: int) -> tuple[str, ...]:
    # Alternating tags: half modality-level, half token-level.
    return tuple(MODALITY_LEVEL if i % 2 == 0 else TOKEN_LEVEL for i in range(n_experts))


def init_moe_params(
    seed: int,
    n_experts: int = DEFAULT_N_EXPERTS,
    n_modalities: int = 4,
    d_image: int = 32,
    d_text: int = 64,
    hidden: int | None = None,
    granularity: tuple[str, ...] | None = None,
) -> MoEParams:
    """Symmetric-uniform init scaled by 1/sqrt(fan_in), zero biases.

    Zero router biases and weights*0 contributions mean softmax routing is
    uniform at step 0.
    """
    if hidden is None:
        hidden = max(2, d_text // 4)
    granularity = tuple(granularity) if granularity else default_granularity(n_experts)
    cfg = MoEConfig(n_experts, n_modalities, d_image, d_text, hidden, granularity)
    rng = stream(seed, "moe-init")
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _param_layout(cfg):
        if name.rsplit(".", 1)[1].startswith("b"):  # biases b*, weights W*
            arrays[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[-1])  # fan-in is the last axis
            arrays[name] = rng.uniform(-bound, bound, size=shape)
    return MoEParams(cfg, arrays)


def _stack_layout(cfg: MoEConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every stored array: the high router, then the expert kinds stacked."""
    N, H, M, d_i, d_t = cfg.n_experts, cfg.hidden, cfg.n_modalities, cfg.d_image, cfg.d_text
    return {"high.W1": (H, d_t), "high.b1": (H,), "high.W2": (N, H), "high.b2": (N,),
            "low.W1": (N, H, M * d_i), "low.b1": (N, H), "low.W2": (N, M, H), "low.b2": (N, M),
            "Wm": (N, M, d_t, d_i), "bm": (N, M, d_t), "Ws": (N, d_t, d_i), "bs": (N, d_t)}


def _param_layout(cfg: MoEConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter array, in initialization order."""
    stacks = _stack_layout(cfg)
    return [(key, shape) for key, shape in stacks.items() if key not in _EXPERT_KINDS] + [
        (f"expert{n}.{kind}", stacks[kind][1:])
        for n in range(cfg.n_experts) for kind in _EXPERT_KINDS]


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=axis, keepdims=True)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so exp never overflows."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


# ---------------------------------------------------------------------------
# Batched forward / backward over all experts at once.  Shapes: v (B, N_I, N_m,
# d_I), cls (B, N_m, d_I), t (B, d_T); fused output (B, N_I, d_T); R = B*N_I.
# The projections and their difference are (N, N_m, R, d_T), batched like Wm.

def _out(work: dict | None, name: str, shape: tuple[int, ...]) -> np.ndarray | None:
    """Workspace slot ``name`` viewed as ``shape``, or None (a fresh result) without
    a workspace.  A slot is allocated again only when its size changes."""
    if work is None:
        return None
    size = math.prod(shape)
    if name not in work or work[name].size != size:
        work[name] = np.empty(size)
    return work[name].reshape(shape)


def moe_forward_batch(
    v: np.ndarray, cls: np.ndarray, t: np.ndarray, params: MoEParams, work: dict | None = None
) -> tuple[np.ndarray, dict]:
    """Fused tokens ``e`` and the cache :func:`moe_backward_batch` needs.

    With a ``work`` dict the activations are written into its slots (see the
    module docstring): ``e`` is fresh, the cache lives until the next call.
    """
    cfg, S = params.config, params.stacks
    v, cls, t = (np.asarray(a, dtype=np.float64) for a in (v, cls, t))
    if (v.ndim != 4 or v.shape[1] < 1 or v.shape[2:] != (cfg.n_modalities, cfg.d_image)
            or cls.shape != (v.shape[0], cfg.n_modalities, cfg.d_image)
            or t.shape != (v.shape[0], cfg.d_text)):
        raise FormatError(
            f"shape mismatch: v {v.shape}, cls {cls.shape}, t {t.shape} vs config "
            f"(N_m={cfg.n_modalities}, d_I={cfg.d_image}, d_T={cfg.d_text})"
        )
    B, n_i, n_m, d_i = v.shape
    N, R, T, H = cfg.n_experts, B * n_i, cfg.d_text, cfg.hidden

    h_act = np.tanh(t @ S["high.W1"].T + S["high.b1"])
    pi_high = softmax(h_act @ S["high.W2"].T + S["high.b2"], axis=1)  # (B, N)

    # Token-level experts route from each position's tokens, modality-level ones
    # from the [CLS] tokens; choosing per expert column of the first layer's
    # output (R, N*H) builds no per-expert copy of the router input.
    W1 = S["low.W1"].reshape(N * H, n_m * d_i)
    x_tok, x_cls = v.reshape(R, n_m * d_i), cls.reshape(B, n_m * d_i)
    pre = np.matmul(x_tok, W1.T, out=_out(work, "pre", (R, N * H)))
    np.copyto(pre.reshape(B, n_i, N * H), (x_cls @ W1.T)[:, None], where=~params.token_cols)
    pre += S["low.b1"].reshape(N * H)
    z_act = np.tanh(pre, out=pre).reshape(R, N, H).transpose(1, 0, 2)
    gate = sigmoid(z_act @ S["low.W2"].transpose(0, 2, 1) + S["low.b2"][:, None])  # (N, R, N_m)

    vt = np.ascontiguousarray(v.reshape(R, n_m, d_i).transpose(1, 0, 2))  # (N_m, R, d_I)
    spec = np.matmul(vt, S["Wm"].transpose(0, 1, 3, 2), out=_out(work, "spec", (N, n_m, R, T)))
    spec += S["bm"][:, :, None]
    shared = np.matmul(vt.reshape(n_m * R, d_i), S["Ws"].transpose(0, 2, 1),
                       out=_out(work, "shared", (N, n_m * R, T))).reshape(spec.shape)
    shared += S["bs"][:, None, None]
    diff = np.subtract(spec, shared, out=spec)
    # Sum over modalities of shared + pi * (specific - shared), the gated part as
    # one small matmul per (expert, row).
    expert_out = np.matmul(gate[:, :, None], diff.transpose(0, 2, 1, 3),
                           out=_out(work, "expert_out", (N, R, 1, T)))[:, :, 0]  # (N, R, d_T)
    expert_out += shared.sum(axis=1, out=_out(work, "shared_sum", (N, R, T)))
    pi_rows = np.repeat(pi_high, n_i, axis=0)  # (R, N)
    e = (pi_rows[:, None] @ expert_out.transpose(1, 0, 2)).reshape(B, n_i, T)
    return e, {"v": v, "cls": cls, "t": t, "h_act": h_act, "pi_high": pi_high,
               "pi_rows": pi_rows, "z_act": z_act, "gate": gate, "vt": vt, "diff": diff,
               "expert_out": expert_out, "params": params, "work": work}


def moe_backward_batch(de: np.ndarray, cache: dict) -> NameView:
    """dL/d(every parameter) given dL/de, stacked under a :class:`NameView`."""
    params: MoEParams = cache["params"]
    S, cfg = params.stacks, params.config
    v, cls, t, h_act, pi_high, z_act, gate, vt = (
        cache[k] for k in ("v", "cls", "t", "h_act", "pi_high", "z_act", "gate", "vt"))
    B, n_i, n_m, d_i = v.shape
    N, R, T, H = cfg.n_experts, B * n_i, cfg.d_text, cfg.hidden

    work = cache["work"]
    de = np.asarray(de, dtype=np.float64).reshape(R, T)
    # expert_out * de takes the slot of the forward's shared.sum, dspec that of shared.
    weighted = np.multiply(cache["expert_out"], de, out=_out(work, "shared_sum", (N, R, T)))
    dpi_high = weighted.sum(axis=2).T.reshape(B, n_i, N).sum(axis=1)
    dout = np.multiply(cache["pi_rows"][:, :, None], de[:, None],
                       out=_out(work, "dout", (R, N, T)))  # (R, N, d_T), equal for every modality
    dgate = (cache["diff"].transpose(0, 2, 1, 3) @ dout.transpose(1, 0, 2)[..., None])[..., 0]
    # dspec = pi * dout is laid out so that one matmul per modality contracts experts
    # and d_T together.  The shared branch gets dout - dspec, so its gradients are
    # dout's summed over modalities minus dspec's.
    dspec = np.multiply(gate.transpose(2, 1, 0)[..., None], dout, order="C",
                        out=_out(work, "shared", (n_m, R, N, T)))
    dspec = dspec.reshape(n_m, R, N * T)
    G = {"Wm": (dspec.transpose(0, 2, 1) @ vt).reshape(n_m, N, T, d_i).transpose(1, 0, 2, 3),
         "bm": dspec.sum(axis=1).reshape(n_m, N, T).transpose(1, 0, 2)}
    dout = dout.reshape(R, N * T)
    G["Ws"] = (dout.T @ vt.sum(axis=0)).reshape(N, T, d_i) - G["Wm"].sum(axis=1)
    G["bs"] = n_m * dout.sum(axis=0).reshape(N, T) - G["bm"].sum(axis=1)

    dlogit = dgate * gate * (1.0 - gate)  # (N, R, N_m)
    G["low.W2"] = dlogit.transpose(0, 2, 1) @ z_act
    G["low.b2"] = dlogit.sum(axis=1)
    dz = np.matmul(dlogit, S["low.W2"], out=_out(work, "dz", (N, R, H))).transpose(1, 0, 2)
    dz = np.multiply(dz, 1.0 - z_act.transpose(1, 0, 2)**2,
                     out=_out(work, "dz_rows", (R, N, H))).reshape(R, N * H)  # like `pre`
    G["low.b1"] = dz.sum(axis=0).reshape(N, H)
    # Token-level experts' first router layer reads the tokens, modality-level
    # experts' the [CLS] tokens, so dz pairs with the former and its sum over
    # positions with the latter; dz becomes the former.
    dz_cls = np.where(params.token_cols, 0.0, dz.reshape(B, n_i, N * H).sum(axis=1))
    dz_tok = dz
    np.copyto(dz_tok, 0.0, where=~params.token_cols)
    x_tok, x_cls = v.reshape(R, n_m * d_i), cls.reshape(B, n_m * d_i)
    G["low.W1"] = (dz_tok.T @ x_tok + dz_cls.T @ x_cls).reshape(N, H, n_m * d_i)

    # softmax jacobian, then the high router MLP
    dlogits = pi_high * (dpi_high - (dpi_high * pi_high).sum(axis=1, keepdims=True))
    dh = (dlogits @ S["high.W2"]) * (1.0 - h_act**2)
    G.update({"high.W1": dh.T @ t, "high.b1": dh.sum(axis=0),
              "high.W2": dlogits.T @ h_act, "high.b2": dlogits.sum(axis=0)})
    return NameView(N, G)


# ---------------------------------------------------------------------------
# Single-sample wrappers (the natural unit of the routing analysis)

def high_route(t: np.ndarray, params: MoEParams) -> np.ndarray:
    S, t = params.stacks, np.asarray(t, dtype=np.float64).reshape(1, -1)
    h_act = np.tanh(t @ S["high.W1"].T + S["high.b1"])
    return softmax(h_act @ S["high.W2"].T + S["high.b2"], axis=1)[0]


def low_route(expert: int, v: np.ndarray, cls: np.ndarray, params: MoEParams) -> np.ndarray:
    """Blending weights of one expert: (N_m,) modality-level, (N_m, N_I) token-level."""
    W1, b1, W2, b2 = (params.stacks[k][expert] for k in ("low.W1", "low.b1", "low.W2", "low.b2"))
    if params.config.granularity[expert] == MODALITY_LEVEL:
        x = np.asarray(cls, dtype=np.float64).reshape(1, -1)
        return sigmoid(np.tanh(x @ W1.T + b1) @ W2.T + b2)[0]
    x = np.asarray(v, dtype=np.float64).reshape(v.shape[0], -1)
    return sigmoid(np.tanh(x @ W1.T + b1) @ W2.T + b2).T  # (N_m, N_I)


def moe_forward(
    v: np.ndarray, cls: np.ndarray, t: np.ndarray, params: MoEParams
) -> tuple[np.ndarray, RoutingTrace]:
    """Fuse one sample; returns (N_I, d_T) tokens plus the routing trace."""
    e, cache = moe_forward_batch(v[None], cls[None], t[None], params)
    gate = cache["gate"]  # (N, N_I, N_m)
    pi_low = [gate[n, 0] if g == MODALITY_LEVEL else gate[n].T  # (N_m,) or (N_m, N_I)
              for n, g in enumerate(params.config.granularity)]
    return e[0], RoutingTrace(pi_high=cache["pi_high"][0], pi_low=pi_low)


def moe_forward_oracle(
    v: np.ndarray, cls: np.ndarray, t: np.ndarray, params: MoEParams
) -> np.ndarray:
    """Straight-line evaluation of the fusion formula with explicit loops.

    Deliberately scalar-indexed and slow; the vectorized forward must agree
    with this to 1e-12.
    """
    cfg, S, n_i = params.config, params.stacks, v.shape[0]
    pi_high = high_route(t, params)
    e = np.zeros((n_i, cfg.d_text))
    for n in range(cfg.n_experts):
        pi = low_route(n, v, cls, params)
        for i in range(n_i):
            acc = np.zeros(cfg.d_text)
            for m in range(cfg.n_modalities):
                w = pi[m] if cfg.granularity[n] == MODALITY_LEVEL else pi[m, i]
                specific = S["Wm"][n, m] @ v[i, m] + S["bm"][n, m]
                shared = S["Ws"][n] @ v[i, m] + S["bs"][n]
                acc += w * specific + (1.0 - w) * shared
            e[i] += pi_high[n] * acc
    return e


def token_count_comparison(n_positions: int, n_modalities: int) -> dict[str, int]:
    """Fused token count vs the multi-image concatenation baseline."""
    return {
        "fused_tokens": n_positions,
        "concatenated_tokens": n_positions * n_modalities,
    }


# ---------------------------------------------------------------------------
# Deterministic prompt embedding (stand-in for an LLM hidden state)

_WORD_RE = re.compile(r"[a-z0-9]+")


def embed_text(text: str, dim: int) -> np.ndarray:
    """Hash words and character trigrams into a fixed-dim unit vector.

    Deterministic across runs and platforms; similar prompts land near each
    other because they share features.
    """
    vec = np.zeros(dim)
    tokens = _WORD_RE.findall(text.lower())
    features = list(tokens)
    joined = " ".join(tokens)
    features.extend(joined[i : i + 3] for i in range(len(joined) - 2))
    for feat in features:
        digest = hashlib.blake2b(feat.encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "little")
        idx = value % dim
        sign = 1.0 if (value >> 63) & 1 else -1.0
        vec[idx] += sign
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


# ---------------------------------------------------------------------------
# Checkpoint container: magic, JSON manifest, raw little-endian float64 payload

_CHECKPOINT_MAGIC = b"BVQM"


def save_checkpoint(path, params: MoEParams, extra: dict | None = None) -> None:
    cfg, arrays, names = params.config, params.arrays, sorted(params.arrays)
    manifest = {"schema_version": 1, **{k: getattr(cfg, k) for k in _SIZES},
                "granularity": list(cfg.granularity),
                "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names]}
    if extra:
        manifest["extra"] = extra
    blob = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    payload = [arrays[n].astype("<f8").tobytes() for n in names]
    prefix = [_CHECKPOINT_MAGIC, np.uint32(len(blob)).tobytes(), blob]
    atomic_write(path, b"".join(prefix + payload))


def load_checkpoint(path) -> MoEParams:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Malformed bytes and non-finite values raise :class:`FormatError`, and
    :class:`TruncatedFileError` when the file ends early.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise TruncatedFileError("checkpoint shorter than its 8-byte prefix")
    if raw[:4] != _CHECKPOINT_MAGIC:
        raise FormatError("not a parameter checkpoint (bad magic)")
    blob_len = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    offset = 8 + blob_len
    if offset > len(raw):
        raise TruncatedFileError(f"checkpoint truncated in its {blob_len}-byte manifest")
    try:
        manifest = json.loads(raw[8:offset].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise FormatError(f"checkpoint manifest is not UTF-8 JSON: {exc}") from None
    cfg, entries = _manifest_layout(manifest)
    arrays = {}
    for name, shape in entries:
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(raw):
            raise TruncatedFileError(f"checkpoint truncated at array {name}")
        try:
            arrays[name] = np.frombuffer(raw[offset : offset + nbytes], "<f8").reshape(shape)
        except ValueError:  # more dims, or a larger extent, than numpy allows
            raise FormatError(f"checkpoint array {name} has unusable shape {shape}") from None
        if not np.isfinite(arrays[name]).all():
            raise FormatError(f"checkpoint array {name} holds a NaN or infinite value")
        offset += nbytes
    if offset != len(raw):
        raise FormatError(f"checkpoint has {len(raw) - offset} trailing bytes")
    return MoEParams(cfg, arrays)


def _manifest_layout(manifest) -> tuple[MoEConfig, list[tuple[str, tuple[int, ...]]]]:
    """Config and (name, shape) array entries of a checkpoint manifest, validated."""

    def count(value) -> bool:  # ranges are checked by MoEConfig and the layout match
        return isinstance(value, int) and not isinstance(value, bool)

    required = set(_SIZES) | {"granularity", "arrays"}
    if not isinstance(manifest, dict) or not required <= set(manifest):
        raise FormatError("checkpoint manifest lacks required keys")
    if not all(count(manifest[k]) for k in _SIZES):
        raise FormatError(f"checkpoint manifest sizes {_SIZES} must be integers")
    tags, listed = manifest["granularity"], manifest["arrays"]
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise FormatError("checkpoint granularity must be a list of strings")
    if not isinstance(listed, list):
        raise FormatError("checkpoint arrays must be a list")
    entries = []
    for entry in listed:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(count(n) for n in entry["shape"])):
            raise FormatError("checkpoint arrays must be {name, shape} entries")
        entries.append((entry["name"], tuple(entry["shape"])))
    try:
        cfg = MoEConfig(**{k: manifest[k] for k in _SIZES}, granularity=tuple(tags))
    except ConfigError as exc:
        raise FormatError(f"checkpoint manifest: {exc}") from None
    if sorted(entries) != sorted(_param_layout(cfg)):
        raise FormatError("checkpoint array names or shapes do not match its config")
    return cfg, entries
