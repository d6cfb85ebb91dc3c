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

Everything is explicit numpy with hand-derived gradients; ``moe_backward``
returns gradients for every parameter and both inputs, verified against
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
from .rng import stream

MODALITY_LEVEL = "modality"
TOKEN_LEVEL = "token"

DEFAULT_N_EXPERTS = 16


@dataclass
class MoEConfig:
    n_experts: int
    n_modalities: int
    d_image: int
    d_text: int
    hidden: int
    granularity: tuple[str, ...]

    def __post_init__(self):
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
    layout = [
        ("high.W1", (hidden, d_text)),
        ("high.b1", (hidden,)),
        ("high.W2", (cfg.n_experts, hidden)),
        ("high.b2", (cfg.n_experts,)),
    ]
    for n in range(cfg.n_experts):
        p = f"expert{n}"
        layout += [
            (f"{p}.low.W1", (hidden, n_mod * d_image)),
            (f"{p}.low.b1", (hidden,)),
            (f"{p}.low.W2", (n_mod, hidden)),
            (f"{p}.low.b2", (n_mod,)),
            (f"{p}.Wm", (n_mod, d_text, d_image)),
            (f"{p}.bm", (n_mod, d_text)),
            (f"{p}.Ws", (d_text, d_image)),
            (f"{p}.bs", (d_text,)),
        ]
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
# Batched forward / backward.  Shapes: v (B, N_I, N_m, d_I), cls (B, N_m, d_I),
# t (B, d_T); fused output (B, N_I, d_T).

def moe_forward_batch(
    v: np.ndarray, cls: np.ndarray, t: np.ndarray, params: MoEParams
) -> tuple[np.ndarray, dict]:
    cfg = params.config
    A = params.arrays
    v = np.asarray(v, dtype=np.float64)
    cls = np.asarray(cls, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    B, n_i, n_m, d_i = v.shape
    if n_m != cfg.n_modalities or d_i != cfg.d_image or t.shape != (B, cfg.d_text):
        raise FormatError(
            f"shape mismatch: v {v.shape}, t {t.shape} vs config "
            f"(N_m={cfg.n_modalities}, d_I={cfg.d_image}, d_T={cfg.d_text})"
        )

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


def moe_backward_batch(de: np.ndarray, cache: dict) -> tuple[dict[str, np.ndarray], dict]:
    """Gradients of a scalar loss wrt all parameters and inputs given dL/de."""
    params: MoEParams = cache["params"]
    cfg = params.config
    A = params.arrays
    v, cls, t = cache["v"], cache["cls"], cache["t"]
    pi_high = cache["pi_high"]
    B, n_i, n_m, d_i = v.shape

    grads = {name: np.zeros_like(arr) for name, arr in A.items()}
    dv = np.zeros_like(v)
    dcls = np.zeros_like(cls)
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
        dv += np.einsum("bimt,mtd->bimd", dspec, A[f"{p}.Wm"])
        dv += np.einsum("bimt,td->bimd", dshared, A[f"{p}.Ws"])

        pi, z_act, x = ec["pi"], ec["z_act"], ec["x"]
        if cfg.granularity[n] == MODALITY_LEVEL:
            dpi = dgate.sum(axis=1)  # (B, N_m); gate shared across positions
            dlogit = dpi * pi * (1.0 - pi)
            grads[f"{p}.low.W2"] += dlogit.T @ z_act
            grads[f"{p}.low.b2"] += dlogit.sum(axis=0)
            dz = (dlogit @ A[f"{p}.low.W2"]) * (1.0 - z_act**2)
            grads[f"{p}.low.W1"] += dz.T @ x
            grads[f"{p}.low.b1"] += dz.sum(axis=0)
            dcls += (dz @ A[f"{p}.low.W1"]).reshape(B, n_m, d_i)
        else:
            dlogit = dgate * pi * (1.0 - pi)  # (B, N_I, N_m)
            grads[f"{p}.low.W2"] += np.einsum("bim,bih->mh", dlogit, z_act)
            grads[f"{p}.low.b2"] += dlogit.sum(axis=(0, 1))
            dz = np.einsum("bim,mh->bih", dlogit, A[f"{p}.low.W2"]) * (1.0 - z_act**2)
            grads[f"{p}.low.W1"] += np.einsum("bih,bik->hk", dz, x)
            grads[f"{p}.low.b1"] += dz.sum(axis=(0, 1))
            dv += np.einsum("bih,hk->bik", dz, A[f"{p}.low.W1"]).reshape(B, n_i, n_m, d_i)

    # softmax jacobian, then the high router MLP
    dlogits = pi_high * (dpi_high - (dpi_high * pi_high).sum(axis=1, keepdims=True))
    h_act = cache["h_act"]
    grads["high.W2"] += dlogits.T @ h_act
    grads["high.b2"] += dlogits.sum(axis=0)
    dh = (dlogits @ A["high.W2"]) * (1.0 - h_act**2)
    grads["high.W1"] += dh.T @ t
    grads["high.b1"] += dh.sum(axis=0)
    dt = dh @ A["high.W1"]
    return grads, {"v": dv, "cls": dcls, "t": dt}


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
    pi_low = []
    for n, ec in enumerate(cache["experts"]):
        if params.config.granularity[n] == MODALITY_LEVEL:
            pi_low.append(ec["pi"][0])
        else:
            pi_low.append(ec["pi"][0].T)  # (N_m, N_I)
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
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(np.uint32(len(blob)).tobytes())
        fh.write(blob)
        for n in names:
            fh.write(params.arrays[n].astype("<f8").tobytes())


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

    def count(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    ints = ("n_experts", "n_modalities", "d_image", "d_text", "hidden")
    required = set(ints) | {"granularity", "arrays"}
    if not isinstance(manifest, dict) or not required <= set(manifest):
        raise FormatError("checkpoint manifest lacks required keys")
    if not all(count(manifest[k]) for k in ints):
        raise FormatError(f"checkpoint manifest sizes {ints} must be non-negative integers")
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
        cfg = MoEConfig(**{k: manifest[k] for k in ints}, granularity=tuple(tags))
    except ConfigError as exc:
        raise FormatError(f"checkpoint manifest: {exc}") from None
    if sorted(entries) != sorted(_param_layout(cfg)):
        raise FormatError("checkpoint array names or shapes do not match its config")
    return cfg, entries
