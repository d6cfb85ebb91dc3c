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

The batched forward and backward stack each expert parameter kind along an
expert axis per call and run all experts at once: token-level experts route
from each position's tokens, modality-level ones from the [CLS] tokens
broadcast over positions, and the gates and both projections are a few
matmuls over the stack.  Parameters stay stored as ``expert{n}.*`` arrays.

Everything is explicit numpy with hand-derived gradients; ``moe_backward_batch``
returns gradients for every parameter and all inputs, verified against
central finite differences in the test suite.  All math is float64.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
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


@dataclass
class MoEParams:
    config: MoEConfig
    arrays: dict[str, np.ndarray]

    def n_parameters(self) -> int:
        return int(sum(a.size for a in self.arrays.values()))


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


def _param_layout(cfg: MoEConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter array, in initialization order."""
    hidden, n_mod, d_image, d_text = cfg.hidden, cfg.n_modalities, cfg.d_image, cfg.d_text
    expert_shapes = (
        (hidden, n_mod * d_image), (hidden,), (n_mod, hidden), (n_mod,),  # low.W1 .. low.b2
        (n_mod, d_text, d_image), (n_mod, d_text), (d_text, d_image), (d_text,),  # Wm .. bs
    )
    layout = [
        ("high.W1", (hidden, d_text)),
        ("high.b1", (hidden,)),
        ("high.W2", (cfg.n_experts, hidden)),
        ("high.b2", (cfg.n_experts,)),
    ]
    for n in range(cfg.n_experts):
        layout += [(f"expert{n}.{k}", shape) for k, shape in zip(_EXPERT_KINDS, expert_shapes)]
    return layout


def spatial_pool(tokens: np.ndarray, factor: int) -> np.ndarray:
    """Mean over non-overlapping groups of ``factor`` consecutive tokens."""
    tokens = np.asarray(tokens, dtype=np.float64)
    n = tokens.shape[0]
    if factor < 1 or n % factor != 0:
        raise FormatError(f"pooling factor {factor} does not divide {n} tokens")
    return tokens.reshape(n // factor, factor, *tokens.shape[1:]).mean(axis=1)


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=axis, keepdims=True)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# Batched forward / backward over all experts at once.  Shapes: v (B, N_I, N_m,
# d_I), cls (B, N_m, d_I), t (B, d_T); fused output (B, N_I, d_T); R = B*N_I.

def _stacked(params: MoEParams) -> dict[str, np.ndarray]:
    """Each expert parameter kind stacked along a leading expert axis."""
    A = params.arrays
    experts = range(params.config.n_experts)
    return {kind: np.stack([A[f"expert{n}.{kind}"] for n in experts]) for kind in _EXPERT_KINDS}


def moe_forward_batch(
    v: np.ndarray, cls: np.ndarray, t: np.ndarray, params: MoEParams
) -> tuple[np.ndarray, dict]:
    cfg = params.config
    A = params.arrays
    v = np.asarray(v, dtype=np.float64)
    cls = np.asarray(cls, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if (v.ndim != 4 or v.shape[1] < 1 or v.shape[2:] != (cfg.n_modalities, cfg.d_image)
            or cls.shape != (v.shape[0], cfg.n_modalities, cfg.d_image)
            or t.shape != (v.shape[0], cfg.d_text)):
        raise FormatError(
            f"shape mismatch: v {v.shape}, cls {cls.shape}, t {t.shape} vs config "
            f"(N_m={cfg.n_modalities}, d_I={cfg.d_image}, d_T={cfg.d_text})"
        )
    B, n_i, n_m, d_i = v.shape
    N, R, T, H = cfg.n_experts, B * n_i, cfg.d_text, cfg.hidden

    h_act = np.tanh(t @ A["high.W1"].T + A["high.b1"])
    pi_high = softmax(h_act @ A["high.W2"].T + A["high.b2"], axis=1)  # (B, N)

    S = _stacked(params)
    # Token-level experts route from each position's tokens, modality-level ones
    # from the [CLS] tokens; choosing per expert column of the first layer's
    # output (R, N*H) builds no per-expert copy of the router input.
    token_cols = np.repeat([g == TOKEN_LEVEL for g in cfg.granularity], H)
    W1 = S["low.W1"].reshape(N * H, n_m * d_i)
    x_tok, x_cls = v.reshape(R, n_m * d_i), cls.reshape(B, n_m * d_i)
    pre = np.where(token_cols, x_tok @ W1.T, np.repeat(x_cls @ W1.T, n_i, axis=0))
    z_act = np.tanh(pre + S["low.b1"].reshape(N * H)).reshape(R, N, H).transpose(1, 0, 2)
    gate = sigmoid(z_act @ S["low.W2"].transpose(0, 2, 1) + S["low.b2"][:, None])  # (N, R, N_m)

    vt = np.ascontiguousarray(v.reshape(R, n_m, d_i).transpose(1, 0, 2))  # (N_m, R, d_I)
    Wm = S["Wm"].transpose(1, 0, 2, 3).reshape(n_m, N * T, d_i)
    Ws = S["Ws"].reshape(N * T, d_i)
    spec = vt @ Wm.transpose(0, 2, 1) + S["bm"].transpose(1, 0, 2).reshape(n_m, 1, N * T)
    shared = vt @ Ws.T + S["bs"].reshape(N * T)  # (N_m, R, N*d_T)
    diff = np.subtract(spec, shared, out=spec).reshape(n_m, R, N, T)
    mix = shared.reshape(n_m, R, N, T)
    mix += gate.transpose(2, 1, 0)[..., None] * diff  # shared + pi * (specific - shared)
    expert_out = mix.sum(axis=0)  # (R, N, d_T)
    pi_rows = np.repeat(pi_high, n_i, axis=0)  # (R, N)
    e = (pi_rows[:, :, None] * expert_out).sum(axis=1).reshape(B, n_i, T)
    cache = {
        "v": v, "cls": cls, "t": t, "h_act": h_act, "pi_high": pi_high, "pi_rows": pi_rows,
        "token_cols": token_cols, "z_act": z_act, "gate": gate.reshape(N, B, n_i, n_m),
        "vt": vt, "Wm": Wm, "Ws": Ws, "diff": diff, "expert_out": expert_out,
        "stacked": S, "params": params,
    }
    return e, cache


def moe_backward_batch(de: np.ndarray, cache: dict) -> tuple[dict[str, np.ndarray], dict]:
    """Gradients of a scalar loss wrt all parameters and inputs given dL/de."""
    params: MoEParams = cache["params"]
    A, S = params.arrays, cache["stacked"]
    v, cls, t, z_act, vt = cache["v"], cache["cls"], cache["t"], cache["z_act"], cache["vt"]
    pi_high, pi_rows, expert_out = cache["pi_high"], cache["pi_rows"], cache["expert_out"]
    B, n_i, n_m, d_i = v.shape
    N, R, T, H = params.config.n_experts, B * n_i, params.config.d_text, params.config.hidden
    gate = cache["gate"].reshape(N, R, n_m)

    de = np.asarray(de, dtype=np.float64).reshape(R, 1, T)
    dpi_high = (expert_out * de).sum(axis=2).reshape(B, n_i, N).sum(axis=1)
    dout = pi_rows[:, :, None] * de  # (R, N, d_T), broadcast of the sum over modalities
    dgate = (dout * cache["diff"]).sum(axis=3).transpose(2, 1, 0)  # (N, R, N_m)
    g = np.ascontiguousarray(gate.transpose(2, 1, 0))[..., None]  # (N_m, R, N, 1)
    dspec = g * dout  # (N_m, R, N, d_T), C-ordered so that its reshapes are views
    G = {
        "Wm": (dspec.reshape(n_m, R, N * T).transpose(0, 2, 1) @ vt)
        .reshape(n_m, N, T, d_i).transpose(1, 0, 2, 3),
        "bm": dspec.sum(axis=1).transpose(1, 0, 2),
    }
    dvt = dspec.reshape(n_m, R, N * T) @ cache["Wm"]  # (N_m, R, d_I)
    dshared = np.subtract(dout, dspec, out=dspec).reshape(n_m * R, N * T)  # (1 - pi) * dout
    G["Ws"] = (dshared.T @ vt.reshape(n_m * R, d_i)).reshape(N, T, d_i)
    G["bs"] = dshared.sum(axis=0).reshape(N, T)
    dvt += (dshared @ cache["Ws"]).reshape(n_m, R, d_i)

    dlogit = dgate * gate * (1.0 - gate)  # (N, R, N_m)
    G["low.W2"] = dlogit.transpose(0, 2, 1) @ z_act
    G["low.b2"] = dlogit.sum(axis=1)
    dz = ((dlogit @ S["low.W2"]) * (1.0 - z_act**2)).transpose(1, 0, 2).reshape(R, N * H)
    # Token-level experts' router gradient goes to the tokens, modality-level
    # experts' to the [CLS] tokens, summed over positions.
    dz_tok = np.where(cache["token_cols"], dz, 0.0)
    dz_cls = np.where(cache["token_cols"], 0.0, dz).reshape(B, n_i, N * H).sum(axis=1)
    x_tok, x_cls = v.reshape(R, n_m * d_i), cls.reshape(B, n_m * d_i)
    G["low.W1"] = (dz_tok.T @ x_tok + dz_cls.T @ x_cls).reshape(N, H, n_m * d_i)
    G["low.b1"] = dz.sum(axis=0).reshape(N, H)
    W1 = S["low.W1"].reshape(N * H, n_m * d_i)
    dv = dvt.transpose(1, 0, 2).reshape(v.shape) + (dz_tok @ W1).reshape(v.shape)
    dcls = (dz_cls @ W1).reshape(cls.shape)

    # softmax jacobian, then the high router MLP
    dlogits = pi_high * (dpi_high - (dpi_high * pi_high).sum(axis=1, keepdims=True))
    h_act = cache["h_act"]
    grads = {"high.W2": dlogits.T @ h_act, "high.b2": dlogits.sum(axis=0)}
    dh = (dlogits @ A["high.W2"]) * (1.0 - h_act**2)
    grads["high.W1"] = dh.T @ t
    grads["high.b1"] = dh.sum(axis=0)
    grads.update({f"expert{n}.{kind}": G[kind][n] for n in range(N) for kind in _EXPERT_KINDS})
    return grads, {"v": dv, "cls": dcls, "t": dh @ A["high.W1"]}


# ---------------------------------------------------------------------------
# Single-sample wrappers (the natural unit of the routing analysis)

def high_route(t: np.ndarray, params: MoEParams) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64).reshape(1, -1)
    A = params.arrays
    h_act = np.tanh(t @ A["high.W1"].T + A["high.b1"])
    return softmax(h_act @ A["high.W2"].T + A["high.b2"], axis=1)[0]


def low_route(expert: int, v: np.ndarray, cls: np.ndarray, params: MoEParams) -> np.ndarray:
    """Blending weights of one expert: (N_m,) modality-level, (N_m, N_I) token-level."""
    cfg = params.config
    A = params.arrays
    p = f"expert{expert}"
    if cfg.granularity[expert] == MODALITY_LEVEL:
        x = np.asarray(cls, dtype=np.float64).reshape(1, -1)
        z = np.tanh(x @ A[f"{p}.low.W1"].T + A[f"{p}.low.b1"])
        return sigmoid(z @ A[f"{p}.low.W2"].T + A[f"{p}.low.b2"])[0]
    x = np.asarray(v, dtype=np.float64).reshape(v.shape[0], -1)
    z = np.tanh(x @ A[f"{p}.low.W1"].T + A[f"{p}.low.b1"])
    pi = sigmoid(z @ A[f"{p}.low.W2"].T + A[f"{p}.low.b2"])  # (N_I, N_m)
    return pi.T


def moe_forward(
    v: np.ndarray, cls: np.ndarray, t: np.ndarray, params: MoEParams
) -> tuple[np.ndarray, RoutingTrace]:
    """Fuse one sample; returns (N_I, d_T) tokens plus the routing trace."""
    e, cache = moe_forward_batch(v[None], cls[None], t[None], params)
    gate = cache["gate"][:, 0]  # (N, N_I, N_m)
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
    cfg = params.config
    A = params.arrays
    n_i = v.shape[0]
    pi_high = high_route(t, params)
    e = np.zeros((n_i, cfg.d_text))
    for n in range(cfg.n_experts):
        p = f"expert{n}"
        pi = low_route(n, v, cls, params)
        for i in range(n_i):
            acc = np.zeros(cfg.d_text)
            for m in range(cfg.n_modalities):
                w = pi[m] if cfg.granularity[n] == MODALITY_LEVEL else pi[m, i]
                specific = A[f"{p}.Wm"][m] @ v[i, m] + A[f"{p}.bm"][m]
                shared = A[f"{p}.Ws"] @ v[i, m] + A[f"{p}.bs"]
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
    names = sorted(params.arrays)
    manifest = {
        "schema_version": 1,
        "n_experts": params.config.n_experts,
        "n_modalities": params.config.n_modalities,
        "d_image": params.config.d_image,
        "d_text": params.config.d_text,
        "hidden": params.config.hidden,
        "granularity": list(params.config.granularity),
        "arrays": [
            {"name": n, "shape": list(params.arrays[n].shape)} for n in names
        ],
    }
    if extra:
        manifest["extra"] = extra
    blob = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    payload = [params.arrays[n].astype("<f8").tobytes() for n in names]
    prefix = [_CHECKPOINT_MAGIC, np.uint32(len(blob)).tobytes(), blob]
    atomic_write(path, b"".join(prefix + payload))


def load_checkpoint(path) -> MoEParams:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Malformed bytes raise :class:`FormatError`, and
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
            arr = np.frombuffer(raw[offset : offset + nbytes], dtype="<f8").reshape(shape)
        except ValueError:  # more dims, or a larger extent, than numpy allows
            raise FormatError(f"checkpoint array {name} has unusable shape {shape}") from None
        arrays[name] = arr.astype(np.float64)
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
