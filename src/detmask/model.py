"""A small masked language model with hand-derived gradients.

Architecture: token plus position embeddings, one single-head self-attention
block with a residual connection, one ReLU feed-forward block with a residual
connection, and an LM head tied to the token embedding matrix.  A separate
d-by-3 matrix classifies contextual embeddings into the three masked-input
variants.  Everything runs in float64 numpy on sequences of at most max_len
tokens; pad tokens are excluded from attention as keys.

Three losses over a (keep, drop, random) item:

* L_mlm   mean cross-entropy at the object positions of the keep input,
* L_con   mean truth probability at those positions under the drop input
          minus the same under the keep input (lower means the clues help),
* L_cls   mean cross-entropy of the 3-way variant classifier over the object
          position embeddings of all three inputs.

Total = L_mlm + lambda_con * L_con + lambda_cls * L_cls.  Gradients are exact
and checked against central finite differences.

The losses read the vocabulary distribution only at the object positions, so
the LM head (``h2 @ tok_emb.T + lm_bias``) and its softmax run only at those
rows: for the keep and drop inputs in training, at the mask positions in
prediction, and not at all for the random input, which the classifier reads
through ``h2``.  The backward pass takes the head gradient at those rows
alone.  One forward serves a single sequence or a batch of sequences of one
length; ``predict_fill_batch`` fills a batch in one pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import DataError, EmptyMaskSet, NoMask, NonFiniteLoss, SequenceTooLong
from .fileio import atomic_write
from .masking import MASK_ID, PAD_ID, UNK_ID, MaskedSample, Vocabulary

_NEG_INF = -1e30

TrainItem = Union[
    MaskedSample,
    tuple[MaskedSample, MaskedSample],
    tuple[MaskedSample, MaskedSample, MaskedSample],
]


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d: int = 16
    max_len: int = 128
    seed: int = 0
    lambda_con: float = 1.0
    lambda_cls: float = 1.0

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("embedding dimension must be at least 2")
        if self.vocab_size < 4:
            raise ValueError("vocabulary needs pad, mask, unknown and a content token")


@dataclass
class ModelState:
    tok_emb: np.ndarray
    pos_emb: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    lm_bias: np.ndarray
    w_cls: np.ndarray

    def params(self) -> dict[str, np.ndarray]:
        return {
            "tok_emb": self.tok_emb,
            "pos_emb": self.pos_emb,
            "wq": self.wq,
            "wk": self.wk,
            "wv": self.wv,
            "wo": self.wo,
            "w1": self.w1,
            "b1": self.b1,
            "w2": self.w2,
            "b2": self.b2,
            "lm_bias": self.lm_bias,
            "w_cls": self.w_cls,
        }


@dataclass(frozen=True)
class ForwardOutput:
    embeddings: np.ndarray  # (n, d) contextual vectors
    probs: np.ndarray  # (n, vocab) rows summing to 1


@dataclass(frozen=True)
class LogEntry:
    step: int
    l_mlm: float
    l_con: float
    l_cls: float
    l_total: float


_BIASES = frozenset({"b1", "b2", "lm_bias"})


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every ``ModelState`` field under ``config``, in field order."""
    d, v, h = config.d, config.vocab_size, 4 * config.d
    return {
        "tok_emb": (v, d),
        "pos_emb": (config.max_len, d),
        "wq": (d, d),
        "wk": (d, d),
        "wv": (d, d),
        "wo": (d, d),
        "w1": (d, h),
        "b1": (h,),
        "w2": (h, d),
        "b2": (d,),
        "lm_bias": (v,),
        "w_cls": (d, 3),
    }


def init(config: ModelConfig) -> ModelState:
    """Fresh parameters: zero-mean normals at scale 0.02, zero biases."""
    rng = np.random.default_rng(config.seed)
    return ModelState(**{
        name: np.zeros(shape) if name in _BIASES else rng.normal(0.0, 0.02, size=shape)
        for name, shape in _param_shapes(config).items()
    })


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, in place in ``z`` so that the
    head's rows x V distribution needs no second buffer."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _forward(state: ModelState, tokens, max_len: int, rows=None) -> dict:
    """Forward one sequence, or a (B, n) batch of sequences of one length.

    The LM head and its softmax run only at ``rows``, an index into the
    token array's positions (a position array for one sequence, a pair of
    batch and position arrays for a batch): ``probs`` holds one vocabulary
    distribution per indexed row.  With ``rows`` None the head is skipped.
    """
    toks = np.asarray(tokens, dtype=np.int64)
    n = toks.shape[-1]
    if n > max_len:
        raise SequenceTooLong(f"sequence of {n} tokens exceeds max_len {max_len}")
    d = state.tok_emb.shape[1]
    x = state.tok_emb[toks] + state.pos_emb[:n]
    key_mask = toks == PAD_ID
    q = x @ state.wq
    k = x @ state.wk
    v = x @ state.wv
    scores = (q @ np.swapaxes(k, -1, -2)) / math.sqrt(d)
    if key_mask.any():
        scores = np.where(key_mask[..., None, :], _NEG_INF, scores)
    attn = _softmax(scores)
    ctx = attn @ v
    h1 = x + ctx @ state.wo
    pre = h1 @ state.w1 + state.b1
    f = np.maximum(pre, 0.0)
    h2 = h1 + f @ state.w2 + state.b2
    cache = {
        "toks": toks,
        "key_mask": key_mask,
        "x": x,
        "q": q,
        "k": k,
        "v": v,
        "attn": attn,
        "ctx": ctx,
        "h1": h1,
        "pre": pre,
        "f": f,
        "h2": h2,
    }
    if rows is not None:
        logits = h2[rows] @ state.tok_emb.T
        logits += state.lm_bias
        cache["probs"] = _softmax(logits)
    return cache


def forward(state: ModelState, input_tokens: Sequence[int],
            max_len: Optional[int] = None) -> ForwardOutput:
    """Contextual embeddings and vocabulary distributions at every position."""
    limit = state.pos_emb.shape[0] if max_len is None else max_len
    cache = _forward(state, input_tokens, limit, rows=slice(None))
    return ForwardOutput(embeddings=cache["h2"], probs=cache["probs"])


def avg_truth_prob(output: ForwardOutput, mask_positions: Sequence[int],
                   targets: Sequence[int]) -> float:
    """Arithmetic mean of the probability given to each target at its position."""
    if len(mask_positions) == 0:
        raise EmptyMaskSet("no mask positions to average over")
    pos = np.asarray(mask_positions, dtype=np.int64)
    tgt = np.asarray(targets, dtype=np.int64)
    return float(output.probs[pos, tgt].mean())


def _zero_grads(state: ModelState) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in state.params().items()}


def _backward(state: ModelState, cache: dict, dh2: np.ndarray,
              grads: dict[str, np.ndarray]) -> None:
    """Accumulate into ``grads`` the gradients that ``dh2``, the loss gradient
    at ``h2`` of one sequence, sends back through the block and embeddings."""
    d = state.tok_emb.shape[1]
    grads["b2"] += dh2.sum(axis=0)
    df = dh2 @ state.w2.T
    grads["w2"] += cache["f"].T @ dh2
    dpre = df * (cache["pre"] > 0)
    grads["w1"] += cache["h1"].T @ dpre
    grads["b1"] += dpre.sum(axis=0)
    dh1 = dh2 + dpre @ state.w1.T
    dctx = dh1 @ state.wo.T
    grads["wo"] += cache["ctx"].T @ dh1
    dx = dh1.copy()
    dattn = dctx @ cache["v"].T
    dv = cache["attn"].T @ dctx
    grads["wv"] += cache["x"].T @ dv
    dx += dv @ state.wv.T
    row_dot = (dattn * cache["attn"]).sum(axis=1, keepdims=True)
    dscores = cache["attn"] * (dattn - row_dot)
    if cache["key_mask"].any():
        dscores[:, cache["key_mask"]] = 0.0
    scale = 1.0 / math.sqrt(d)
    dq = dscores @ cache["k"] * scale
    dk = dscores.T @ cache["q"] * scale
    grads["wq"] += cache["x"].T @ dq
    grads["wk"] += cache["x"].T @ dk
    dx += dq @ state.wq.T + dk @ state.wk.T
    np.add.at(grads["tok_emb"], cache["toks"], dx)
    grads["pos_emb"][: len(cache["toks"])] += dx


def _unpack(item: TrainItem) -> tuple[MaskedSample, Optional[MaskedSample], Optional[MaskedSample]]:
    if isinstance(item, MaskedSample):
        return item, None, None
    if len(item) == 2:
        return item[0], item[1], None
    return item[0], item[1], item[2]


def loss_and_grad(
    state: ModelState,
    item: TrainItem,
    coeffs: tuple[float, float, float],
    max_len: int,
    want_grad: bool = True,
) -> tuple[tuple[float, float, float, float], Optional[dict[str, np.ndarray]]]:
    """Losses and exact parameter gradients of the weighted total.

    ``coeffs`` weights (mlm, con, cls) in the total; a zero weight skips that
    component's gradient so each can be checked in isolation.
    """
    w_mlm, w_con, w_cls = coeffs
    keep, drop, randv = _unpack(item)
    if len(keep.mask_positions) == 0:
        raise EmptyMaskSet("keep input has no mask positions")
    pos = np.asarray(keep.mask_positions, dtype=np.int64)
    tgt = np.asarray(keep.targets, dtype=np.int64)
    n_obj = len(pos)

    passes: dict[str, dict] = {"keep": _forward(state, keep.input_tokens, max_len, pos)}
    if drop is not None:
        passes["drop"] = _forward(state, drop.input_tokens, max_len, pos)
    if randv is not None:
        passes["rand"] = _forward(state, randv.input_tokens, max_len)

    grads = _zero_grads(state) if want_grad else None
    # Loss gradients at the head rows, for the passes whose head gets one;
    # row i of probs and of dlogits is mask position i.
    dlogits: dict[str, np.ndarray] = {}
    dh2 = {name: np.zeros_like(c["h2"]) for name, c in passes.items()}
    rank = np.arange(n_obj)

    p_keep = passes["keep"]["probs"][rank, tgt]
    l_mlm = float(-np.log(p_keep).mean())
    if want_grad and w_mlm:
        g = passes["keep"]["probs"].copy()
        g[rank, tgt] -= 1.0
        dlogits["keep"] = (w_mlm / n_obj) * g

    l_con = 0.0
    if drop is not None:
        p_drop = passes["drop"]["probs"][rank, tgt]
        l_con = float(p_drop.mean() - p_keep.mean())
        if want_grad and w_con:
            for name, sign, pvals in (("drop", 1.0, p_drop), ("keep", -1.0, p_keep)):
                jac = -passes[name]["probs"] * pvals[:, None]
                jac[rank, tgt] += pvals
                dlogits[name] = dlogits.get(name, 0.0) + (sign * w_con / n_obj) * jac

    l_cls = 0.0
    if randv is not None:
        total = 3 * n_obj
        acc = 0.0
        for label, name in enumerate(("keep", "drop", "rand")):
            e = passes[name]["h2"][pos]
            y = _softmax(e @ state.w_cls)
            acc += float(-np.log(y[:, label]).sum())
            if want_grad and w_cls:
                ds = y.copy()
                ds[:, label] -= 1.0
                ds *= w_cls / total
                grads["w_cls"] += e.T @ ds
                np.add.at(dh2[name], pos, ds @ state.w_cls.T)
        l_cls = acc / total

    l_total = w_mlm * l_mlm + w_con * l_con + w_cls * l_cls
    if not math.isfinite(l_total):
        raise NonFiniteLoss(-1, l_total)
    if dlogits:
        # One product over the head rows of every pass: with a drop pass it
        # has at least two rows, which numpy multiplies far faster than one.
        dl = np.concatenate(list(dlogits.values()))
        grads["tok_emb"] += dl.T @ np.concatenate([passes[name]["h2"][pos] for name in dlogits])
        grads["lm_bias"] += dl.sum(axis=0)
        for name, dh in zip(dlogits, np.split(dl @ state.tok_emb, len(dlogits))):
            np.add.at(dh2[name], pos, dh)
    if want_grad:
        for name, cache in passes.items():
            _backward(state, cache, dh2[name], grads)
    return (l_mlm, l_con, l_cls, l_total), grads


def grad(state: ModelState, item: TrainItem, config: ModelConfig) -> dict[str, np.ndarray]:
    """d L_total / d theta at the configured loss weights."""
    _losses, grads = loss_and_grad(
        state, item, (1.0, config.lambda_con, config.lambda_cls), config.max_len
    )
    return grads


def finite_diff_check(
    state: ModelState,
    item: TrainItem,
    eps: float = 1e-5,
    coeffs: tuple[float, float, float] = (1.0, 1.0, 1.0),
    max_len: int = 128,
    min_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error of analytic gradients against central differences.

    Samples at least ``min_coords`` coordinates spread over every parameter
    group in proportion to its size (small groups are checked exhaustively).
    """
    if not 0 < eps <= 1e-3:
        raise ValueError("eps must be in (0, 1e-3]")
    _losses, grads = loss_and_grad(state, item, coeffs, max_len)
    params = state.params()
    total = sum(arr.size for arr in params.values())
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, arr in params.items():
        share = max(8, math.ceil(min_coords * arr.size / total))
        if arr.size <= share:
            picks = np.arange(arr.size)
        else:
            picks = rng.choice(arr.size, size=share, replace=False)
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in picks:
            idx = int(idx)
            original = flat[idx]
            flat[idx] = original + eps
            (_, _, _, up), _ = loss_and_grad(state, item, coeffs, max_len, want_grad=False)
            flat[idx] = original - eps
            (_, _, _, down), _ = loss_and_grad(state, item, coeffs, max_len, want_grad=False)
            flat[idx] = original
            numeric = (up - down) / (2.0 * eps)
            analytic = gflat[idx]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            worst = max(worst, err)
    return worst


def train(
    config: ModelConfig,
    items: Iterable[TrainItem],
    steps: int,
    lr: float,
) -> tuple[ModelState, list[LogEntry]]:
    """Plain gradient descent cycling through the items one at a time.

    Deterministic given the config seed and item order.  Raises NonFiniteLoss
    with the offending step index if any loss leaves the reals.
    """
    data = list(items)
    if not data:
        raise EmptyMaskSet("no training items")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    state = init(config)
    coeffs = (1.0, config.lambda_con, config.lambda_cls)
    log: list[LogEntry] = []
    for step in range(steps):
        item = data[step % len(data)]
        try:
            (l_mlm, l_con, l_cls, l_total), grads = loss_and_grad(
                state, item, coeffs, config.max_len
            )
        except NonFiniteLoss as exc:
            raise NonFiniteLoss(step, exc.value) from None
        log.append(LogEntry(step, l_mlm, l_con, l_cls, l_total))
        if lr:
            params = state.params()
            for name, g in grads.items():
                params[name] -= lr * g
    return state, log


def predict_fill(state: ModelState, tokens: Sequence[int],
                 max_len: Optional[int] = None) -> list[int]:
    """Independent argmax at every mask position, skipping sentinel ids.

    Ties resolve to the lowest token id.
    """
    return predict_fill_batch(state, [tokens], max_len)[0]


def predict_fill_batch(state: ModelState, batch: Sequence[Sequence[int]],
                       max_len: Optional[int] = None) -> list[list[int]]:
    """``predict_fill`` of each sequence in ``batch``, all of one length, in one pass."""
    toks = np.asarray(batch, dtype=np.int64)
    is_mask = toks == MASK_ID
    if not is_mask.any(axis=1).all():
        raise NoMask("input has no mask positions")
    limit = state.pos_emb.shape[0] if max_len is None else max_len
    probs = _forward(state, toks, limit, np.nonzero(is_mask))["probs"]
    probs[:, [PAD_ID, MASK_ID, UNK_ID]] = -1.0
    # np.nonzero lists the rows sequence by sequence, each in position order.
    ends = np.cumsum(is_mask.sum(axis=1))[:-1]
    return [part.tolist() for part in np.split(probs.argmax(axis=1), ends)]


CHECKPOINT_FORMAT = "detmask-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, state: ModelState, config: ModelConfig,
                    vocab: Optional[Vocabulary] = None) -> None:
    """Write a checkpoint: one JSON header line, then raw little-endian float64.

    Tensor offsets are byte positions within the binary section, in the order
    listed in the header.  The file replaces ``path`` only once complete.
    """
    params = state.params()
    entries = []
    offset = 0
    for name, arr in params.items():
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += 8 * arr.size
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "dtype": "<f8",
        "vocab": list(vocab.id_to_token) if vocab is not None else None,
        "tensors": entries,
    }
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n")
        for arr in params.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_checkpoint(path) -> tuple[ModelState, ModelConfig, Optional[Vocabulary]]:
    """Read a checkpoint written by ``save_checkpoint``.

    A header that is not the expected JSON, a vocabulary with more tokens
    than the config, a tensor set or shape other than ``_param_shapes`` of
    the config, a tensor reaching past the end of the file, or a NaN or
    infinite value raises ``DataError``.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        body = fh.read()
    try:
        header = json.loads(first)
    except ValueError:
        raise DataError(f"{path}: checkpoint header is not JSON") from None
    if (not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT
            or header.get("version") != CHECKPOINT_VERSION):
        raise DataError(f"{path}: not a version-{CHECKPOINT_VERSION} {CHECKPOINT_FORMAT} file")
    try:
        entries = {e["name"]: (tuple(e["shape"]), e["offset"]) for e in header["tensors"]}
        config = ModelConfig(**header["config"])
        toks = header.get("vocab")
        vocab = None
        if toks is not None:
            vocab = Vocabulary(tuple(toks), {t: i for i, t in enumerate(toks)})
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc!r}") from None
    if not all(type(x) is int for x in (config.vocab_size, config.d, config.max_len)):
        raise DataError(f"{path}: checkpoint config sizes are not integers")
    if vocab is not None and vocab.size > config.vocab_size:
        raise DataError(f"{path}: vocabulary has {vocab.size} tokens, "
                        f"more than the config's {config.vocab_size}")
    shapes = _param_shapes(config)
    if set(entries) != set(shapes):
        raise DataError(f"{path}: checkpoint tensors are not the model's parameters")
    tensors: dict[str, np.ndarray] = {}
    for name, (shape, start) in entries.items():
        if shape != shapes[name]:
            raise DataError(f"{path}: tensor {name!r} has shape {list(shape)}, "
                            f"expected {list(shapes[name])}")
        if type(start) is not int or start < 0:
            raise DataError(f"{path}: tensor {name!r} has a malformed offset")
        count = math.prod(shapes[name])
        if start + 8 * count > len(body):
            raise DataError(f"{path}: tensor {name!r} reaches past the end of the file")
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=start)
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: tensor {name!r} holds a non-finite value")
        tensors[name] = arr.reshape(shapes[name]).astype(np.float64)
    return ModelState(**tensors), config, vocab
