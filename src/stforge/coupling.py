"""Numerics for the encoder-decoder coupling layers and training math.

Reference implementations, in plain numpy, of the pieces that sit
between a frozen speech encoder and a frozen text decoder: the residual
bottleneck adapter (with exact analytic gradients), the stride-2
convolutional length adaptor, feature-span masking, the full named
parameter inventory with its fine-tuning mask, checkpoint averaging and
interchange, the tri-stage learning-rate schedule, and label-smoothed
cross-entropy.
"""

from __future__ import annotations

import logging
import math
import re
import zipfile

import numpy as np

from .ioutil import atomic_write, record

logger = logging.getLogger(__name__)

LN_EPS = 1e-5

ENCODER_LAYERS = 24
DECODER_LAYERS = 12
MODEL_DIM = 1024
FFN_DIM = 4096
ADAPTER_DIM = 4096
VOCAB_SIZE = 250000
EXTRACTOR_CHANNELS = 512
# feature-extractor ladder: (kernel, stride) per conv layer, 20 ms hop total
EXTRACTOR_LADDER = ((10, 5), (3, 2), (3, 2), (3, 2), (3, 2), (2, 2), (2, 2))


def _layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    return gain * xhat + bias, xhat, inv


def _layer_norm_backward(grad_ln: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: np.ndarray):
    grad_gain = (grad_ln * xhat).sum(axis=0)
    grad_bias = grad_ln.sum(axis=0)
    g = grad_ln * gain
    # d/dx of (x - mu)/sigma: remove the mean and the xhat-projected mean
    grad_x = inv * (g - g.mean(axis=-1, keepdims=True) - xhat * (g * xhat).mean(axis=-1, keepdims=True))
    return grad_x, grad_gain, grad_bias


class AdapterParams(record("AdapterParams", "ln_gain ln_bias w_up b_up w_down b_down")):
    """Residual bottleneck-in-reverse block: LN -> up -> ReLU -> down."""

    __slots__ = ()

    def __new__(cls, ln_gain, ln_bias, w_up, b_up, w_down, b_down):
        self = tuple.__new__(cls, (ln_gain, ln_bias, w_up, b_up, w_down, b_down))
        d, h = self.dim, self.hidden_dim
        expected = {
            "ln_gain": (d,),
            "ln_bias": (d,),
            "w_up": (h, d),
            "b_up": (h,),
            "w_down": (d, h),
            "b_down": (d,),
        }
        for name, shape in expected.items():
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {got}")
        return self

    @property
    def dim(self) -> int:
        return len(self.ln_gain)

    @property
    def hidden_dim(self) -> int:
        return len(self.b_up)

    @classmethod
    def zeros(cls, dim: int, hidden_dim: int) -> "AdapterParams":
        """Neutral LN, zero projections: the adapter reduces to identity."""
        return cls(
            ln_gain=np.ones(dim),
            ln_bias=np.zeros(dim),
            w_up=np.zeros((hidden_dim, dim)),
            b_up=np.zeros(hidden_dim),
            w_down=np.zeros((dim, hidden_dim)),
            b_down=np.zeros(dim),
        )

    def n_params(self) -> int:
        return sum(np.size(a) for a in self)


def adapter_param_count(dim: int = MODEL_DIM, hidden_dim: int = ADAPTER_DIM) -> int:
    """Closed-form parameter count: LN + up projection + down projection."""
    return 2 * dim + (hidden_dim * dim + hidden_dim) + (dim * hidden_dim + dim)


def adapter_forward(x: np.ndarray, p: AdapterParams) -> np.ndarray:
    """y_t = x_t + w_down @ relu(w_up @ LN(x_t) + b_up) + b_down."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.dim:
        raise ValueError(f"expected (T, {p.dim}) input, got {x.shape}")
    ln, _, _ = _layer_norm_forward(x, p.ln_gain, p.ln_bias)
    hidden = np.maximum(ln @ p.w_up.T + p.b_up, 0.0)
    return x + hidden @ p.w_down.T + p.b_down


def adapter_backward(x: np.ndarray, p: AdapterParams, grad_out: np.ndarray):
    """Exact gradients of adapter_forward w.r.t. input and parameters.

    Returns (grad_x, grad_p) with grad_p an AdapterParams of matching
    shapes.
    """
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.dim:
        raise ValueError(f"expected (T, {p.dim}) input, got {x.shape}")
    if grad_out.shape != x.shape:
        raise ValueError(f"grad_out shape {grad_out.shape} != input shape {x.shape}")

    ln, xhat, inv = _layer_norm_forward(x, p.ln_gain, p.ln_bias)
    pre = ln @ p.w_up.T + p.b_up
    hidden = np.maximum(pre, 0.0)

    grad_b_down = grad_out.sum(axis=0)
    grad_w_down = grad_out.T @ hidden
    grad_hidden = (grad_out @ p.w_down) * (pre > 0.0)
    grad_b_up = grad_hidden.sum(axis=0)
    grad_w_up = grad_hidden.T @ ln
    grad_ln = grad_hidden @ p.w_up
    grad_x_ln, grad_gain, grad_bias = _layer_norm_backward(grad_ln, xhat, inv, p.ln_gain)
    grad_x = grad_out + grad_x_ln  # residual path
    grad_p = AdapterParams(grad_gain, grad_bias, grad_w_up, grad_b_up, grad_w_down, grad_b_down)
    return grad_x, grad_p


class LengthAdaptorParams(record("LengthAdaptorParams", "kernels biases")):
    """Three kernel-3, stride-2, padding-1 convolutions over time: kernels each (d_out, d_in, 3), biases (d_out,)."""

    __slots__ = ()

    def __new__(cls, kernels, biases):
        if len(kernels) != 3 or len(biases) != 3:
            raise ValueError("length adaptor has exactly 3 layers")
        for i, (k, b) in enumerate(zip(kernels, biases)):
            k, b = np.asarray(k), np.asarray(b)
            if k.ndim != 3 or k.shape[2] != 3:
                raise ValueError(f"layer {i}: kernel must be (d_out, d_in, 3), got {k.shape}")
            if b.shape != (k.shape[0],):
                raise ValueError(f"layer {i}: bias shape {b.shape} does not match kernel {k.shape}")
        return tuple.__new__(cls, (kernels, biases))

    @property
    def dim(self) -> int:
        return np.asarray(self.kernels[0]).shape[1]

    @classmethod
    def zeros(cls, dim: int = MODEL_DIM) -> "LengthAdaptorParams":
        return cls(
            kernels=tuple(np.zeros((dim, dim, 3)) for _ in range(3)),
            biases=tuple(np.zeros(dim) for _ in range(3)),
        )

    @classmethod
    def identity(cls, dim: int = MODEL_DIM) -> "LengthAdaptorParams":
        """Center tap = identity matrix: each layer passes every 2nd frame."""
        kernel = np.zeros((dim, dim, 3))
        kernel[:, :, 1] = np.eye(dim)
        return cls(
            kernels=tuple(kernel.copy() for _ in range(3)),
            biases=tuple(np.zeros(dim) for _ in range(3)),
        )

    def n_params(self) -> int:
        return sum(np.size(k) + np.size(b) for k, b in zip(self.kernels, self.biases))


def _conv1d_stride2(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    t = x.shape[0]
    out_len = (t + 1) // 2  # (T + 2*pad - kernel)//stride + 1 with pad 1, kernel 3
    if out_len == 0:
        return np.zeros((0, kernel.shape[0]))
    pad = np.zeros((1, x.shape[1]))
    padded = np.concatenate([pad, x, pad])
    idx = 2 * np.arange(out_len)[:, None] + np.arange(3)[None, :]
    windows = padded[idx]  # (out_len, 3, d_in)
    return np.einsum("okc,dck->od", windows, kernel) + bias


def length_adaptor_output_length(t: int, n_layers: int = 3) -> int:
    """Output frame count: ceil(t/2) applied once per layer."""
    for _ in range(n_layers):
        t = (t + 1) // 2
    return t


def length_adaptor_forward(x: np.ndarray, p: LengthAdaptorParams) -> np.ndarray:
    """8x temporal down-sampling: three stride-2 convs, ReLU after the
    first two."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.dim:
        raise ValueError(f"expected (T, {p.dim}) input, got {x.shape}")
    for i in range(3):
        x = _conv1d_stride2(x, np.asarray(p.kernels[i], dtype=np.float64), np.asarray(p.biases[i], dtype=np.float64))
        if i < 2:
            x = np.maximum(x, 0.0)
    return x


def feature_mask(x: np.ndarray, n_spans: int, max_span: float, rng: np.random.Generator) -> np.ndarray:
    """Zero out n_spans random time spans of up to max_span * T frames.

    Stand-in for spectrogram masking when the raw input is a waveform:
    the mask lands on extracted features instead. Span starts are
    uniform over [0, T); lengths are uniform over [1, floor(max_span*T)];
    spans may overlap and are clipped at the end.
    """
    if not 0.0 <= max_span <= 1.0:
        raise ValueError(f"max_span must be in [0, 1], got {max_span}")
    if n_spans < 0:
        raise ValueError(f"n_spans must be >= 0, got {n_spans}")
    x = np.asarray(x, dtype=np.float64)
    out = x.copy()
    t = x.shape[0]
    hi = int(max_span * t)
    if t == 0 or n_spans == 0 or hi < 1:
        return out
    for _ in range(n_spans):
        start = int(rng.integers(0, t))
        length = int(rng.integers(1, hi + 1))
        out[start : start + length] = 0.0
    return out


class ParamEntry(record("ParamEntry", "name shape trainable", defaults=(False,))):
    """One named parameter tensor's shape, and whether fine-tuning trains it."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


class ParamInventory(record("ParamInventory", "entries")):
    """A model's parameter entries, names unique."""

    __slots__ = ()

    def __new__(cls, entries):
        entries = tuple(entries)
        seen = set()
        for e in entries:
            if e.name in seen:
                raise ValueError(f"duplicate parameter name {e.name!r}")
            seen.add(e.name)
            if not e.shape or any(dim < 1 for dim in e.shape):
                raise ValueError(f"{e.name}: bad shape {e.shape}")
        return tuple.__new__(cls, (entries,))

    def total_params(self) -> int:
        return sum(e.size for e in self.entries)

    def trainable_params(self) -> int:
        return sum(e.size for e in self.entries if e.trainable)

    def trainable_fraction(self) -> float:
        return self.trainable_params() / self.total_params()


def _weight_bias(entries: list, name: str, weight_shape: tuple) -> None:
    entries.append(ParamEntry(f"{name}.weight", weight_shape))
    entries.append(ParamEntry(f"{name}.bias", (weight_shape[0],)))


def _attention_entries(entries: list, name: str, dim: int) -> None:
    for proj in ("q_proj", "k_proj", "v_proj", "out_proj"):
        _weight_bias(entries, f"{name}.{proj}", (dim, dim))


def build_reference_inventory() -> ParamInventory:
    """Named shapes of the full translation model, everything frozen.

    Encoder: 7-layer convolutional feature extractor (512 channels,
    per-layer layer norms), post-extraction projection, convolutional
    positional encoding, 24 transformer layers. Coupling: adapter and
    length adaptor. Decoder: shared 250k embedding table, learned
    positions, 12 transformer layers with cross-attention. The output
    projection is tied to the embedding and not counted twice.
    """
    d, ffn, ch = MODEL_DIM, FFN_DIM, EXTRACTOR_CHANNELS
    entries: list = []

    in_ch = 1
    for i, (kernel, _) in enumerate(EXTRACTOR_LADDER):
        conv = f"encoder.feature_extractor.conv{i}"
        _weight_bias(entries, conv, (ch, in_ch, kernel))
        _weight_bias(entries, f"{conv}.layer_norm", (ch,))
        in_ch = ch
    _weight_bias(entries, "encoder.post_extract_layer_norm", (ch,))
    _weight_bias(entries, "encoder.post_extract_proj", (d, ch))
    # grouped positional convolution: kernel 128, 16 groups
    entries.append(ParamEntry("encoder.pos_conv.weight", (d, d // 16, 128)))
    entries.append(ParamEntry("encoder.pos_conv.bias", (d,)))
    for i in range(ENCODER_LAYERS):
        layer = f"encoder.layers.{i}"
        _attention_entries(entries, f"{layer}.self_attn", d)
        _weight_bias(entries, f"{layer}.self_attn_layer_norm", (d,))
        _weight_bias(entries, f"{layer}.fc1", (ffn, d))
        _weight_bias(entries, f"{layer}.fc2", (d, ffn))
        _weight_bias(entries, f"{layer}.final_layer_norm", (d,))
    _weight_bias(entries, "encoder.layer_norm", (d,))

    _weight_bias(entries, "adapter.layer_norm", (d,))
    _weight_bias(entries, "adapter.up_proj", (ADAPTER_DIM, d))
    _weight_bias(entries, "adapter.down_proj", (d, ADAPTER_DIM))
    for i in range(3):
        _weight_bias(entries, f"length_adaptor.layers.{i}", (d, d, 3))

    entries.append(ParamEntry("decoder.embed_tokens.weight", (VOCAB_SIZE, d)))
    entries.append(ParamEntry("decoder.embed_positions.weight", (1026, d)))
    _weight_bias(entries, "decoder.layernorm_embedding", (d,))
    for i in range(DECODER_LAYERS):
        layer = f"decoder.layers.{i}"
        _attention_entries(entries, f"{layer}.self_attn", d)
        _weight_bias(entries, f"{layer}.self_attn_layer_norm", (d,))
        _attention_entries(entries, f"{layer}.encoder_attn", d)
        _weight_bias(entries, f"{layer}.encoder_attn_layer_norm", (d,))
        _weight_bias(entries, f"{layer}.fc1", (ffn, d))
        _weight_bias(entries, f"{layer}.fc2", (d, ffn))
        _weight_bias(entries, f"{layer}.final_layer_norm", (d,))
    _weight_bias(entries, "decoder.layer_norm", (d,))

    return ParamInventory(tuple(entries))


_TRAINABLE_PATTERNS = (
    re.compile(r"layer_?norm\w*\.(weight|bias)$"),
    re.compile(r"^encoder\.layers\.\d+\.self_attn\."),
    re.compile(r"^decoder\.layers\.\d+\.encoder_attn\."),
    re.compile(r"^adapter\."),
    re.compile(r"^length_adaptor\."),
)

_FROZEN_PATTERNS = (
    re.compile(r"^encoder\.feature_extractor\.conv\d+\.(weight|bias)$"),
    re.compile(r"^encoder\.post_extract_proj\."),
    re.compile(r"^encoder\.pos_conv\."),
    re.compile(r"^(encoder|decoder)\.layers\.\d+\.(fc1|fc2)\."),
    re.compile(r"^decoder\.layers\.\d+\.self_attn\."),
    re.compile(r"^decoder\.embed_(tokens|positions)\."),
)


def lna_trainable_mask(inv: ParamInventory) -> ParamInventory:
    """Flag the fine-tuned subset: every layer norm, encoder
    self-attention, decoder cross-attention, adapter, and length adaptor.

    Names matching no known pattern are reported and left frozen.
    """
    masked = []
    unknown = []
    for e in inv.entries:
        if any(p.search(e.name) for p in _TRAINABLE_PATTERNS):
            trainable = True
        elif any(p.search(e.name) for p in _FROZEN_PATTERNS):
            trainable = False
        else:
            unknown.append(e.name)
            trainable = False
        masked.append(ParamEntry(e.name, e.shape, trainable))
    if unknown:
        logger.warning("%d unrecognized parameter names left frozen: %s", len(unknown), ", ".join(unknown[:5]))
    return ParamInventory(tuple(masked))


def group_counts(inv: ParamInventory, depth: int = 2) -> dict:
    """Parameter and trainable-parameter totals keyed by name prefix."""
    groups: dict = {}
    for e in inv.entries:
        key = ".".join(e.name.split(".")[:depth])
        total, trainable = groups.get(key, (0, 0))
        groups[key] = (total + e.size, trainable + (e.size if e.trainable else 0))
    return groups


def average_checkpoints(checkpoints: list) -> dict:
    """Element-wise mean of identically shaped named tensor sets."""
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    names = sorted(checkpoints[0])
    for i, ckpt in enumerate(checkpoints[1:], start=2):
        if sorted(ckpt) != names:
            raise ValueError(f"checkpoint {i} has a different tensor set")
    out = {}
    for name in names:
        shapes = {np.shape(c[name]) for c in checkpoints}
        if len(shapes) != 1:
            raise ValueError(f"{name}: inconsistent shapes {sorted(shapes)}")
        acc = np.zeros(shapes.pop(), dtype=np.float64)
        for c in checkpoints:
            acc += np.asarray(c[name], dtype=np.float64)
        out[name] = acc / len(checkpoints)
    return out


def write_checkpoint(path, tensors: dict) -> None:
    """Write tensors atomically as one .npz file of little-endian float32 ``<name>.npy`` members, sorted by name and
    dated 1980-01-01 (same tensors, same bytes). A reader sees the old file or the new, never a mix. A tensor that
    float32 cannot hold (a dtype not bool, integer or float, or a finite value past its range) raises ValueError
    naming it before the file is opened."""
    for name, tensor in tensors.items():
        if "\0" in name:  # zipfile would cut the member's name there
            raise ValueError(f"tensor name {name!r} holds a NUL")
        arr = np.asarray(tensor)
        if arr.dtype.kind not in "biuf":
            raise ValueError(f"tensor {name!r} has dtype {arr.dtype}, not bool, integer or float")
        if arr.dtype.kind == "f" and arr.dtype.itemsize > 4:  # no other dtype can overflow float32
            with np.errstate(over="ignore"):
                overflows = (np.isinf(arr.astype("<f4")) & np.isfinite(arr)).any()
            if overflows:
                raise ValueError(f"tensor {name!r} holds a finite value past float32's range")
    with atomic_write(path, "wb") as fh, zipfile.ZipFile(fh, "w") as archive:
        for name in sorted(tensors):  # not np.savez: it refuses a tensor named "file" and drops "allow_pickle"
            with archive.open(name + ".npy", "w", force_zip64=True) as member:  # a member may pass 2 GiB
                np.lib.format.write_array(member, np.asarray(tensors[name], "<f4", order="C"), allow_pickle=False)


def read_checkpoint(path) -> dict:
    """The tensors of the .npz file at path, by name, never a mix of two writes. A truncated or non-zip file, and a
    member that is not a little-endian float32 array (a pickled object included), raise ValueError naming the path."""
    try:
        with np.lib.npyio.NpzFile(path, allow_pickle=False) as npz:  # np.load's non-zip error suggests unpickling
            out = {m: npz[m] for m in npz.zip.namelist()}  # by member: npz.files would merge "x" with "x.npy"
        if bad := [m for m, arr in out.items() if not (m.endswith(".npy") and getattr(arr, "dtype", "") == "<f4")]:
            raise ValueError(f"member {bad[0]!r} is not a little-endian float32 array")
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return {m[:-4]: arr for m, arr in out.items()}


class TriStageConfig(record("TriStageConfig", "total_steps base_lr ratios init_scale final_scale")):
    """Warm-up, hold and decay of the learning rate: phase ratios of total_steps, scales of base_lr."""

    __slots__ = ()

    def __new__(cls, total_steps, base_lr=1e-4, ratios=(0.15, 0.15, 0.7), init_scale=0.01, final_scale=0.01):
        if not total_steps > 0:  # also rejects nan
            raise ValueError(f"total_steps must be positive, got {total_steps}")
        if len(ratios) != 3 or not all(r >= 0 for r in ratios):
            raise ValueError(f"need 3 nonnegative phase ratios, got {ratios}")
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ValueError(f"phase ratios must sum to 1, got {ratios}")
        for name, scale in (("init_scale", init_scale), ("final_scale", final_scale)):
            if not 0 < scale <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {scale}")
        if not base_lr > 0:
            raise ValueError(f"base_lr must be positive, got {base_lr}")
        return tuple.__new__(cls, (total_steps, base_lr, ratios, init_scale, final_scale))


def tri_stage_lr(step: int, cfg: TriStageConfig) -> float:
    """Linear warmup, hold, exponential decay; continuous at boundaries."""
    if not 0 <= step <= cfg.total_steps:
        raise ValueError(f"step {step} outside [0, {cfg.total_steps}]")
    warmup = cfg.ratios[0] * cfg.total_steps
    hold_end = (cfg.ratios[0] + cfg.ratios[1]) * cfg.total_steps
    if step < warmup:
        frac = step / warmup
        return cfg.base_lr * (cfg.init_scale + (1.0 - cfg.init_scale) * frac)
    if step <= hold_end:
        return cfg.base_lr
    decay_steps = cfg.total_steps - hold_end
    frac = (step - hold_end) / decay_steps
    return cfg.base_lr * math.exp(math.log(cfg.final_scale) * frac)


def label_smoothed_ce(logprobs: np.ndarray, target: int, eps: float = 0.2) -> float:
    """loss = -(1-eps) * lp[target] - (eps/V) * sum(lp).

    logprobs must be a normalized log-distribution.
    """
    lp = np.asarray(logprobs, dtype=np.float64)
    if lp.ndim != 1 or lp.size == 0:
        raise ValueError(f"logprobs must be a nonempty vector, got shape {lp.shape}")
    if not 0 <= eps < 1:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    total = np.logaddexp.reduce(lp)
    if abs(total) > 1e-6:
        raise ValueError(f"logprobs do not normalize: logsumexp = {total:.3e}")
    if not 0 <= target < lp.size:
        raise ValueError(f"target {target} out of range for {lp.size} classes")
    return float(-(1.0 - eps) * lp[target] - (eps / lp.size) * lp.sum())
