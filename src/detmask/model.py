"""A small masked language model with hand-derived gradients.

Architecture: token plus position embeddings, one single-head self-attention
block with a residual connection, one ReLU feed-forward block with a residual
connection, and an LM head tied to the token embedding matrix.  A separate
d-by-3 matrix classifies contextual embeddings into the three masked-input
variants.  Everything runs in float64 numpy on sequences of at most max_len
tokens; pad tokens are excluded from attention as keys.

A training item is a tuple of one to three masked inputs: (keep,),
(keep, drop) or (keep, drop, random).  Three losses, each 0 on an item
without the inputs it reads:

* L_mlm   mean cross-entropy at the object positions of the keep input,
* L_con   mean truth probability at those positions under the drop input
          minus the same under the keep input (lower means the clues help),
* L_cls   mean cross-entropy of the 3-way variant classifier over the object
          position embeddings of all three inputs.

Total = L_mlm + lambda_con * L_con + lambda_cls * L_cls.  Gradients are exact;
the test suite checks them against central finite differences.

Every loss reads only the object positions: the fill and contrast losses
read the vocabulary distribution there, and the classifier reads ``h2``
there.  The block has one attention layer, so row i of ``h2`` depends only on
position i's query and on every position's keys and values.  The forward
pass therefore runs the embeddings and the key and value projections at
every position, and the query, the attention row, the feed-forward block and
``h2`` only at the read rows: k x n scores and k x 4d activations for k rows,
not n x n and n x 4d.  The LM head (``h2 @ tok_emb.T + lm_bias``) and its
softmax run at those rows for the keep and drop inputs in training; the
random input's pass skips the head.  Prediction runs the head at the mask
positions and reads each answer off the logits, with the softmax only for
rows where rounding could make the two disagree.  The backward pass sends
dK and dV to every position and dq and dh1 to the rows.  One forward serves
a single sequence or a batch of sequences of one length; ``predict_fill``
fills a batch in one pass.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DataError
from .fileio import atomic_write, decode_json
from .masking import MASK_ID, PAD_ID, MaskedSample, Vocabulary

_NEG_INF = -1e30


class ModelConfig(NamedTuple):
    vocab_size: int
    d: int = 16
    max_len: int = 128
    seed: int = 0
    lambda_con: float = 1.0
    lambda_cls: float = 1.0


class ModelState(NamedTuple):
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
        """Every parameter by name, in field order: the checkpoint order."""
        return self._asdict()


class LogEntry(NamedTuple):
    step: int
    l_mlm: float
    l_con: float
    l_cls: float
    l_total: float


_BIASES = frozenset({"b1", "b2", "lm_bias"})


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every ``ModelState`` field under ``config``, in field order;
    ``ValueError`` if the config is too small for the model."""
    if config.d < 2:
        raise ValueError("embedding dimension must be at least 2")
    if config.vocab_size < 4:
        raise ValueError("vocabulary needs pad, mask, unknown and a content token")
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


def _forward(state: ModelState, tokens, rows, head: bool = True) -> dict:
    """Forward one sequence, or a (B, n) batch of sequences of one length,
    at ``rows``: a position array for one sequence, or the batch and position
    arrays that ``np.nonzero`` gives for a batch.  A position may repeat.

    Keys and values cover every position; from the query on, everything runs
    at the rows only.  With ``head`` the LM head and its softmax run there
    too: ``probs`` holds one vocabulary distribution per row.
    """
    toks = np.asarray(tokens, dtype=np.int64)
    n = toks.shape[-1]
    max_len = state.pos_emb.shape[0]
    if n > max_len:
        raise DataError(f"sequence of {n} tokens exceeds max_len {max_len}")
    d = state.tok_emb.shape[1]
    x = state.tok_emb[toks] + state.pos_emb[:n]
    k = x @ state.wk
    v = x @ state.wv
    key_mask = toks == PAD_ID
    xr = x[rows]
    q = xr @ state.wq
    # Each row attends over the keys and values of its own sequence.
    if toks.ndim == 1:
        seq_k, seq_v, row_pad = k, v, key_mask
    else:
        seq = rows[0]
        seq_k, seq_v, row_pad = k[seq], v[seq], key_mask[seq]
    scores = np.matmul(seq_k, q[:, :, None])[:, :, 0]
    scores /= math.sqrt(d)
    if row_pad.any():
        np.copyto(scores, _NEG_INF, where=row_pad)
    attn = _softmax(scores)
    ctx = np.matmul(attn[:, None, :], seq_v)[:, 0, :]
    h1 = xr + ctx @ state.wo
    pre = h1 @ state.w1 + state.b1
    f = np.maximum(pre, 0.0)
    h2 = h1 + f @ state.w2 + state.b2
    cache = {
        "toks": toks,
        "rows": rows,
        "key_mask": key_mask,
        "x": x,
        "k": k,
        "v": v,
        "xr": xr,
        "q": q,
        "attn": attn,
        "ctx": ctx,
        "h1": h1,
        "pre": pre,
        "f": f,
        "h2": h2,
    }
    if head:
        cache["probs"] = _softmax(_logits(state, h2))
    return cache


def _logits(state: ModelState, h2: np.ndarray) -> np.ndarray:
    """The tied LM head at the rows of ``h2``: one row of V logits each."""
    logits = h2 @ state.tok_emb.T
    logits += state.lm_bias
    return logits


def _zero_grads(state: ModelState) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in state.params().items()}


def _rows_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.T @ b`` over the read rows.  With one row the product sums
    nothing, and a broadcast multiply gives the same numbers faster."""
    return a.T * b if len(a) == 1 else a.T @ b


def _backward(state: ModelState, cache: dict, dh2: np.ndarray,
              grads: dict[str, np.ndarray]) -> None:
    """Accumulate into ``grads`` the gradients that ``dh2``, the loss gradient
    at the rows' ``h2`` of one sequence, sends back through the block and
    embeddings.  dq and dh1 reach the rows; dK and dV reach every position."""
    d = state.tok_emb.shape[1]
    grads["b2"] += dh2.sum(axis=0)
    df = dh2 @ state.w2.T
    grads["w2"] += _rows_product(cache["f"], dh2)
    dpre = df * (cache["pre"] > 0)
    grads["w1"] += _rows_product(cache["h1"], dpre)
    grads["b1"] += dpre.sum(axis=0)
    dh1 = dh2 + dpre @ state.w1.T
    dctx = dh1 @ state.wo.T
    grads["wo"] += _rows_product(cache["ctx"], dh1)
    attn = cache["attn"]
    dattn = dctx @ cache["v"].T
    dv = attn.T @ dctx
    row_dot = (dattn * attn).sum(axis=1, keepdims=True)
    dscores = attn * (dattn - row_dot)
    if cache["key_mask"].any():
        dscores[:, cache["key_mask"]] = 0.0
    scale = 1.0 / math.sqrt(d)
    dq = dscores @ cache["k"] * scale
    dk = dscores.T @ cache["q"] * scale
    grads["wq"] += _rows_product(cache["xr"], dq)
    grads["wk"] += cache["x"].T @ dk
    grads["wv"] += cache["x"].T @ dv
    dx = dk @ state.wk.T + dv @ state.wv.T
    # A position may be listed more than once: add.at sums every row's share.
    np.add.at(dx, cache["rows"], dh1 + dq @ state.wq.T)
    np.add.at(grads["tok_emb"], cache["toks"], dx)
    grads["pos_emb"][: len(cache["toks"])] += dx


def loss_and_grad(
    state: ModelState,
    item: tuple[MaskedSample, ...],
    coeffs: tuple[float, float, float],
    grads: Optional[dict[str, np.ndarray]] = None,
) -> tuple[tuple[float, float, float, float], dict[str, np.ndarray]]:
    """Losses and exact parameter gradients of the weighted total over an
    item: a (keep,) input, a (keep, drop) pair or a (keep, drop, random) triple.

    ``coeffs`` weights (mlm, con, cls) in the total; a zero weight skips that
    component's gradient so each can be checked in isolation.  The gradients
    go into ``grads``, one buffer per parameter zeroed here, when it is given,
    and into fresh buffers otherwise.
    """
    w_mlm, w_con, w_cls = coeffs
    keep = item[0]
    if len(keep.mask_positions) == 0:
        raise DataError("keep input has no mask positions")
    pos = np.asarray(keep.mask_positions, dtype=np.int64)
    tgt = np.asarray(keep.targets, dtype=np.int64)
    n_obj = len(pos)

    # The classifier reads only the random input's h2 at the rows.
    passes = {name: _forward(state, m.input_tokens, pos, head=name != "rand")
              for name, m in zip(("keep", "drop", "rand"), item)}

    if grads is None:
        grads = _zero_grads(state)
    else:
        # tok_emb is zeroed below only when no head product overwrites it.
        for name, buf in grads.items():
            if name != "tok_emb":
                buf.fill(0.0)
    # Loss gradients at the rows, for the passes that get one; row i of
    # probs, h2, dlogits and dh2 is mask position i.
    dlogits: dict[str, np.ndarray] = {}
    dh2: dict[str, np.ndarray] = {}
    rank = np.arange(n_obj)

    p_keep = passes["keep"]["probs"][rank, tgt]
    l_mlm = float(-np.log(p_keep).mean())
    if w_mlm:
        g = passes["keep"]["probs"].copy()
        g[rank, tgt] -= 1.0
        dlogits["keep"] = (w_mlm / n_obj) * g

    l_con = 0.0
    if "drop" in passes:
        p_drop = passes["drop"]["probs"][rank, tgt]
        l_con = float(p_drop.mean() - p_keep.mean())
        if w_con:
            for name, sign, pvals in (("drop", 1.0, p_drop), ("keep", -1.0, p_keep)):
                jac = -passes[name]["probs"] * pvals[:, None]
                jac[rank, tgt] += pvals
                dlogits[name] = dlogits.get(name, 0.0) + (sign * w_con / n_obj) * jac

    l_cls = 0.0
    if "rand" in passes:
        total = 3 * n_obj
        acc = 0.0
        for label, name in enumerate(("keep", "drop", "rand")):
            e = passes[name]["h2"]
            y = _softmax(e @ state.w_cls)
            acc += float(-np.log(y[:, label]).sum())
            if w_cls:
                ds = y.copy()
                ds[:, label] -= 1.0
                ds *= w_cls / total
                grads["w_cls"] += e.T @ ds
                dh2[name] = ds @ state.w_cls.T
        l_cls = acc / total

    l_total = w_mlm * l_mlm + w_con * l_con + w_cls * l_cls
    if dlogits:
        # One product over the head rows of every pass: with a drop pass it
        # has at least two rows, which numpy multiplies far faster than one.
        # Nothing has reached the tok_emb gradient yet, so the V x d product
        # is written straight into its buffer.
        dl = np.concatenate(list(dlogits.values()))
        np.matmul(dl.T, np.concatenate([passes[name]["h2"] for name in dlogits]),
                  out=grads["tok_emb"])
        grads["lm_bias"] += dl.sum(axis=0)
        for name, dh in zip(dlogits, np.split(dl @ state.tok_emb, len(dlogits))):
            dh2[name] = dh2.get(name, 0.0) + dh
    else:
        grads["tok_emb"].fill(0.0)
    for name, cache in passes.items():
        if name in dh2:
            _backward(state, cache, dh2[name], grads)
    return (l_mlm, l_con, l_cls, l_total), grads


def train(
    config: ModelConfig,
    items: Iterable[tuple[MaskedSample, ...]],
    steps: int,
    lr: float,
) -> tuple[ModelState, list[LogEntry]]:
    """Plain gradient descent cycling through the items one at a time.

    Deterministic given the config seed and item order.  Raises DataError,
    naming the step, if a step's total loss leaves the reals or the last
    update leaves a parameter non-finite.  One set of gradient buffers serves
    every step, and each update scales its gradient in place: ``g * lr`` is
    the same number as ``lr * g``.
    """
    data = list(items)
    if not data:
        raise DataError("no training items")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    state = init(config)
    coeffs = (1.0, config.lambda_con, config.lambda_cls)
    params = state.params()
    grads = _zero_grads(state)
    log: list[LogEntry] = []
    # A run that diverges ends in a DataError, not in numpy warnings.
    with np.errstate(all="ignore"):
        for step in range(steps):
            item = data[step % len(data)]
            (l_mlm, l_con, l_cls, l_total), _ = loss_and_grad(state, item, coeffs, grads=grads)
            if not math.isfinite(l_total):
                raise DataError(f"non-finite loss {l_total!r} at step {step}")
            log.append(LogEntry(step, l_mlm, l_con, l_cls, l_total))
            if lr:
                for name, g in grads.items():
                    g *= lr
                    params[name] -= g
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise DataError(f"parameter {name!r} is non-finite after step {steps - 1}")
    return state, log


def predict_fill(state: ModelState, batch: Sequence[Sequence[int]]) -> list[list[int]]:
    """Independent argmax of the head softmax at every mask position of each
    sequence in ``batch``, all of one length, in one pass, skipping sentinel
    ids; ties resolve to the lowest content id.

    Each answer is read off the logits where that provably equals the
    softmax's argmax, and from the softmax elsewhere (``_fill_argmax``).
    Parameters so large that the forward pass overflows raise ``DataError``.
    """
    toks = np.asarray(batch, dtype=np.int64)
    is_mask = toks == MASK_ID
    if not is_mask.any(axis=1).all():
        raise DataError("input has no mask positions")
    with np.errstate(over="ignore", invalid="ignore"):
        h2 = _forward(state, toks, np.nonzero(is_mask), head=False)["h2"]
        answers = _fill_argmax(_logits(state, h2))
    # np.nonzero lists the rows sequence by sequence, each in position order.
    ends = np.cumsum(is_mask.sum(axis=1))[:-1]
    return [part.tolist() for part in np.split(answers, ends)]


# The sentinels PAD_ID, MASK_ID and UNK_ID are ids 0-2; content starts here.
_CONTENT = 3


def _fill_argmax(logits: np.ndarray) -> np.ndarray:
    """Each row's argmax over the content ids of the head softmax, lowest id
    on ties; ``DataError`` if a row's softmax is non-finite.

    That softmax is non-finite exactly when the row max ``m`` over all V is:
    NaN, +inf, or a row of -inf.  Otherwise a row is answered from its
    logits when the softmax provably agrees.  The softmax computes
    ``p_j = fl(e_j / S)`` with ``e_j = fl(exp(fl(l_j - m)))``.  Let ``b`` be
    the best content logit and ``r`` the runner-up, so every other content
    logit is some ``l <= r``, and let ``u = 2**-53``.  The subtraction errs
    by at most ``u (m - l)`` and ``m - l = (m - b) + (b - l)``; exp errs by
    a few ulps.  So ``ln(e_b / e_l) >= (b - l)(1 - u) - 2u(|b| + |m|) - 10u``.
    If ``b - r > 1e-12 (1 + |b| + |m|)``, about ``9000u (1 + |b| + |m|)``,
    that bound exceeds 4u, a gap that the correctly rounded division by
    ``S`` cannot close while ``p_b`` is a normal number.  ``b >= m - 600``
    ensures that: ``e_b >= exp(-600) ~ 1e-261`` and ``S <= V``.  Every other
    row goes through the softmax itself: exact and near ties, and content
    probabilities that underflow beneath a dominating sentinel.
    """
    # Whole-row reductions run on contiguous rows; the sentinels sit at -inf
    # meanwhile.  argmax stops at a NaN, so m is NaN whenever the row holds one.
    rank = np.arange(len(logits))
    sentinels = logits[:, :_CONTENT].copy()
    logits[:, :_CONTENT] = -np.inf
    best = logits.argmax(axis=1)
    b = logits[rank, best]
    m = np.maximum(b, sentinels.max(axis=1))
    if not np.isfinite(m).all():
        raise DataError("non-finite activations: the model's parameters overflow its forward pass")
    logits[rank, best] = -np.inf
    r = logits.max(axis=1)
    logits[rank, best] = b
    logits[:, :_CONTENT] = sentinels
    clear = (b - r > 1e-12 * (1.0 + np.abs(b) + np.abs(m))) & (b >= m - 600.0)
    slow = np.flatnonzero(~clear)
    if len(slow):
        probs = _softmax(logits[slow])
        probs[:, :_CONTENT] = -1.0
        best[slow] = probs.argmax(axis=1)
    return best


CHECKPOINT_FORMAT = "detmask-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, state: ModelState, config: ModelConfig, vocab: Vocabulary) -> None:
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
        "config": config._asdict(),
        "dtype": "<f8",
        "vocab": list(vocab.id_to_token),
        "tensors": entries,
    }
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n")
        for arr in params.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_checkpoint(path) -> tuple[ModelState, ModelConfig, Vocabulary]:
    """Read a checkpoint written by ``save_checkpoint``.

    A header that is not the expected JSON, a vocabulary that is missing,
    that ``Vocabulary.from_stored`` rejects or whose size is not the config's,
    a tensor set or shape other than ``_param_shapes`` of the config, a
    tensor reaching past the end of the file, or a NaN or infinite value
    raises ``DataError``.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        body = fh.read()
    try:
        header = decode_json(first)
    except ValueError:
        raise DataError(f"{path}: checkpoint header is not JSON") from None
    if (not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT
            or header.get("version") != CHECKPOINT_VERSION):
        raise DataError(f"{path}: not a version-{CHECKPOINT_VERSION} {CHECKPOINT_FORMAT} file")
    try:
        entries = {e["name"]: (tuple(e["shape"]), e["offset"]) for e in header["tensors"]}
        config = ModelConfig(**header["config"])
        shapes = _param_shapes(config)
        vocab = Vocabulary.from_stored(header.get("vocab"), path)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc!r}") from None
    if not all(type(x) is int for x in (config.vocab_size, config.d, config.max_len)):
        raise DataError(f"{path}: checkpoint config sizes are not integers")
    if vocab.size != config.vocab_size:
        raise DataError(f"{path}: vocabulary has {vocab.size} tokens, "
                        f"but the config has {config.vocab_size}")
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
