"""Decoder-only transformer in two variants.

AR: causal self-attention over [phonemes][SEP][prompt tokens][target prefix],
predicting the next token of a discrete stream (phonetic tokens for the
two-stage system, layer-1 codec ids for the single-stage baseline). The
stream gains a STOP id (= vocab) the model learns to emit at the end, and a
SEP id (= vocab + 1) that separates the phoneme region from the token region.

NAR: full (non-causal) self-attention over [phonemes][SEP][prompt frames]
[target frames], predicting codec layer j at every target frame in parallel.
A target frame's input embedding is the sum of its conditioning-token
embedding (phonetic token, if the variant uses one), the embeddings of its
codec ids at layers < j, and a layer-index embedding; prompt frames sum the
embeddings of all of their codec layers.

Both variants share one trunk shape and one position-index space, run a
batch as its real rows packed one item after another (attention alone pads
them, and masks the padding out), and serialize through the shared
checkpoint container with a JSON config sidecar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import checkpoint
from . import numerics as nm
from .numerics import ContractError, ShapeError, Tensor

AR = "ar"
NAR = "nar"
STREAM_PHONETIC = "phonetic"
STREAM_CODEC = "codec"
VARIANT_PROPOSED = "proposed"
VARIANT_BASELINE = "baseline"

_INIT_STD = 0.02
_NEG_INF = -np.inf


class SequenceLengthError(ValueError):
    """Sequence would exceed the model's max_sequence_len."""


@dataclass
class ModelConfig:
    n_layers: int = 4
    n_heads: int = 4
    d_model: int = 128
    d_ff: int = 512
    dropout: float = 0.1
    phoneme_vocab: int = 32
    phonetic_vocab: int = 64
    codec_vocab: int = 32
    n_codec_layers: int = 8
    max_sequence_len: int = 256

    def __post_init__(self):
        counts = {name: 0 if name == "n_layers" else 1 for name in asdict(self) if name != "dropout"}
        nm.check_counts(self, counts)  # every field but dropout is a count
        nm.check_reals(self, ("dropout",))
        if self.dropout >= 1.0:
            raise ContractError(f"ModelConfig.dropout must be in [0, 1), got {self.dropout!r}")
        if self.d_model % self.n_heads != 0:
            raise ContractError("d_model must be divisible by n_heads")


class DecoderModel:
    """Config + named parameter set; the forward functions live below."""

    def __init__(self, config: ModelConfig, kind: str, role: str, params: dict, training: dict | None):
        self.config = config
        self.kind = kind      # "ar" | "nar"
        self.role = role      # ar: token stream; nar: conditioning variant
        self.params = params  # name -> Tensor, insertion-ordered
        self.training = training  # the TrainingConfig dict `pipeline.train_mode` used, or None

    # AR vocabulary layout
    @property
    def token_vocab(self) -> int:
        if self.kind != AR:
            raise ContractError("token_vocab is an AR notion")
        return self.config.phonetic_vocab if self.role == STREAM_PHONETIC else self.config.codec_vocab

    @property
    def stop_id(self) -> int:
        return self.token_vocab

    @property
    def sep_id(self) -> int:
        return self.token_vocab + 1

    @property
    def output_vocab(self) -> int:
        if self.kind == AR:
            return self.token_vocab + 1  # stream ids + STOP
        return self.config.codec_vocab

    @property
    def min_layer(self) -> int:
        # lowest codec layer the NAR predicts (1-based)
        return 1 if self.role == VARIANT_PROPOSED else 2

    def parameters(self) -> list:
        return list(self.params.values())

    def save(self, path) -> None:
        """Write the weights to `path`; config and training record go to its .json sidecar."""
        checkpoint.save_tensors(path, {k: v.data for k, v in self.params.items()})
        meta = {"kind": self.kind, "role": self.role, "config": asdict(self.config), "training": self.training}
        checkpoint.write_atomic(Path(path).with_suffix(".json"), json.dumps(meta, indent=2) + "\n")


def _init_params(entries, rng: np.random.Generator) -> dict:
    """entries: (name, shape, kind) with kind in {weight, zeros, ones}."""
    params = {}
    for name, shape, kind in entries:
        if kind == "weight":
            data = rng.normal(0.0, _INIT_STD, size=shape)
        elif kind == "zeros":
            data = np.zeros(shape)
        else:
            data = np.ones(shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def _trunk_entries(cfg: ModelConfig) -> list:
    d, ff = cfg.d_model, cfg.d_ff
    entries = []
    for i in range(cfg.n_layers):
        b = f"blocks/{i}"
        entries += [
            (f"{b}/ln1/gain", (d,), "ones"),
            (f"{b}/ln1/bias", (d,), "zeros"),
            (f"{b}/attn/wq", (d, d), "weight"),
            (f"{b}/attn/bq", (d,), "zeros"),
            (f"{b}/attn/wk", (d, d), "weight"),
            (f"{b}/attn/bk", (d,), "zeros"),
            (f"{b}/attn/wv", (d, d), "weight"),
            (f"{b}/attn/bv", (d,), "zeros"),
            (f"{b}/attn/wo", (d, d), "weight"),
            (f"{b}/attn/bo", (d,), "zeros"),
            (f"{b}/ln2/gain", (d,), "ones"),
            (f"{b}/ln2/bias", (d,), "zeros"),
            (f"{b}/ffn/w1", (d, ff), "weight"),
            (f"{b}/ffn/b1", (ff,), "zeros"),
            (f"{b}/ffn/w2", (ff, d), "weight"),
            (f"{b}/ffn/b2", (d,), "zeros"),
        ]
    entries += [("final_ln/gain", (d,), "ones"), ("final_ln/bias", (d,), "zeros")]
    return entries


def _ar_entries(config: ModelConfig, stream: str) -> list:
    if stream not in (STREAM_PHONETIC, STREAM_CODEC):
        raise ContractError(f"unknown AR stream {stream!r}")
    d = config.d_model
    vocab = config.phonetic_vocab if stream == STREAM_PHONETIC else config.codec_vocab
    entries = [
        ("emb/phoneme", (config.phoneme_vocab, d), "weight"),
        ("emb/token", (vocab + 2, d), "weight"),  # + STOP + SEP
        ("emb/pos", (config.max_sequence_len, d), "weight"),
    ]
    entries += _trunk_entries(config)
    entries += [("head/w", (d, vocab + 1), "weight")]
    return entries


def _nar_entries(config: ModelConfig, variant: str) -> list:
    if variant not in (VARIANT_PROPOSED, VARIANT_BASELINE):
        raise ContractError(f"unknown NAR variant {variant!r}")
    if variant == VARIANT_BASELINE and config.n_codec_layers < 2:
        raise ContractError(f"the baseline NAR predicts codec layers 2..L and needs n_codec_layers >= 2, "
                            f"got {config.n_codec_layers}")
    d = config.d_model
    entries = [
        ("emb/phoneme", (config.phoneme_vocab, d), "weight"),
        ("emb/sep", (1, d), "weight"),
        ("emb/pos", (config.max_sequence_len, d), "weight"),
        ("emb/layer", (config.n_codec_layers, d), "weight"),
    ]
    if variant == VARIANT_PROPOSED:
        entries.append(("emb/cond", (config.phonetic_vocab, d), "weight"))
    # per-layer codec-token embeddings, stacked: row (i * K + c) is layer i, id c
    entries.append(("emb/codec", (config.n_codec_layers * config.codec_vocab, d), "weight"))
    entries += _trunk_entries(config)
    entries += [("head/w", (d, config.codec_vocab), "weight")]
    return entries


def build_ar_model(config: ModelConfig, stream: str, seed: int) -> DecoderModel:
    entries = _ar_entries(config, stream)
    rng = np.random.default_rng([seed, 0xA12])
    return DecoderModel(config, AR, stream, _init_params(entries, rng), None)


def build_nar_model(config: ModelConfig, variant: str, seed: int) -> DecoderModel:
    entries = _nar_entries(config, variant)
    rng = np.random.default_rng([seed, 0xB34])
    return DecoderModel(config, NAR, variant, _init_params(entries, rng), None)


def load_model(path) -> DecoderModel:
    """Read a model saved by `DecoderModel.save`. The checkpoint must hold
    exactly the tensors, by name and shape, that its config and role imply;
    anything else, or a missing or malformed .json sidecar (a config that
    ModelConfig rejects, or a kind other than AR and NAR, included), raises
    CheckpointError."""
    with checkpoint.sidecar(Path(path).with_suffix(".json")) as meta:
        config = ModelConfig(**meta["config"])
        kind, role, training = meta["kind"], meta["role"], meta.get("training")
        if kind not in (AR, NAR):
            raise ValueError(f"model kind {kind!r} is neither {AR!r} nor {NAR!r}")
        entries = _ar_entries(config, role) if kind == AR else _nar_entries(config, role)
    tensors = checkpoint.load_tensors(path)
    expected = {name: shape for name, shape, _ in entries}
    if set(tensors) != set(expected):
        missing = set(expected) - set(tensors)
        extra = set(tensors) - set(expected)
        raise checkpoint.CheckpointError(f"parameter mismatch: missing {missing}, extra {extra}")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise checkpoint.CheckpointError(f"shape mismatch for {name}: {tensors[name].shape} != {shape}")
    params = {name: Tensor(tensors[name], requires_grad=True) for name in expected}
    return DecoderModel(config, kind, role, params, training)


# ---------------------------------------------------------------------------
# trunk
# ---------------------------------------------------------------------------


def _attention_mask(lengths, n_queries: int, n_keys: int, causal: bool, offsets=0) -> np.ndarray:
    """Additive attention mask: 0 where attending is allowed, -inf where not.

    Entry b has keys at positions [0, lengths[b]) and queries at positions
    offsets[b] + [0, n_queries). Keys at or past the entry's length are never
    attended; a causal mask also hides keys after the query. Padded query
    rows still get at least one allowed key so softmax stays finite (their
    outputs are dropped from the loss anyway). Shape (B, 1, Q, K), or
    (B, 1, 1, K) when not causal.
    """
    keys = np.arange(n_keys)
    allowed = keys < np.asarray(lengths)[:, None, None, None]
    if causal:
        queries = np.arange(n_queries)[:, None] + np.asarray(offsets)[..., None, None, None]
        allowed = allowed & (keys <= queries)
    return np.where(allowed, 0.0, _NEG_INF)


class KVCache:
    """Per-block attention keys and values of a batch of AR sequences, so
    decoding feeds each new token once instead of the whole prefix.

    Block i keeps (B, H, capacity, hd) arrays; entry b has its first
    `lengths[b]` rows filled. Rows past that may hold leftovers of padding,
    which the length mask hides. A forward given the cache places entry b's
    new rows at positions lengths[b] onward and then advances `lengths`.
    """

    def __init__(self, model: DecoderModel, batch: int, capacity: int):
        cfg = model.config
        shape = (batch, cfg.n_heads, capacity, cfg.d_model // cfg.n_heads)
        self.keys = [np.zeros(shape) for _ in range(cfg.n_layers)]
        self.values = [np.zeros(shape) for _ in range(cfg.n_layers)]
        self.lengths = np.zeros(batch, dtype=np.int64)

    def write(self, block: int, k: Tensor, v: Tensor) -> tuple:
        """Store a forward's new (B, H, T, hd) rows after each entry's filled
        rows; return the block's keys and values up to the longest entry."""
        B, _, T, _ = k.shape
        pos = self.lengths[:, None] + np.arange(T)
        rows = np.arange(B)[:, None]
        self.keys[block][rows, :, pos] = k.data.transpose(0, 2, 1, 3)
        self.values[block][rows, :, pos] = v.data.transpose(0, 2, 1, 3)
        n = int(pos.max()) + 1
        return Tensor(self.keys[block][:, :, :n]), Tensor(self.values[block][:, :, :n])

    def keep(self, entries) -> None:
        """Drop every entry not listed in `entries` (indices, in order)."""
        self.keys = [k[entries] for k in self.keys]
        self.values = [v[entries] for v in self.values]
        self.lengths = self.lengths[entries]


def _trunk_forward(model: DecoderModel, x: Tensor, batch: tuple, layout, mask: np.ndarray, drop, cache=None) -> Tensor:
    """Pre-LN blocks over packed (N, d) rows: `x` holds the real rows of a
    (B, T) = `batch` padded batch, at the places `layout` gives them. Every
    op but attention runs on these rows; attention scatters q, k and v into
    zeroed (B, H, T, hd) heads and gathers the mixed rows back, under `mask`.
    `drop(t, row_layout=None)` drops out the attention weights and each
    residual branch (the identity in an inference pass). With a KVCache, the
    T positions sit after each entry's cached rows and attend over those
    rows too; `mask` must then cover the keys up to the longest entry."""
    cfg = model.config
    p = model.params
    B, T = batch
    d, H = cfg.d_model, cfg.n_heads
    hd = d // H
    inv_sqrt = 1.0 / np.sqrt(hd)

    def split_heads(t):  # packed (N, d) rows -> zero-padded (B, H, T, hd)
        return nm.transpose(nm.reshape(nm.pad_rows(t, layout), (B, T, H, hd)), (0, 2, 1, 3))

    for i in range(cfg.n_layers):
        b = f"blocks/{i}"
        h = nm.layer_norm(x, p[f"{b}/ln1/gain"], p[f"{b}/ln1/bias"])
        q = split_heads(nm.matmul(h, p[f"{b}/attn/wq"], p[f"{b}/attn/bq"], layout))
        k = split_heads(nm.matmul(h, p[f"{b}/attn/wk"], p[f"{b}/attn/bk"], layout))
        v = split_heads(nm.matmul(h, p[f"{b}/attn/wv"], p[f"{b}/attn/bv"], layout))
        if cache is not None:
            k, v = cache.write(i, k, v)
        att = drop(nm.softmax_rows(nm.matmul(q, nm.transpose(k, (0, 1, 3, 2))), inv_sqrt, mask))
        mix = nm.reshape(nm.transpose(nm.matmul(att, v), (0, 2, 1, 3)), (B * T, d))
        out = nm.matmul(nm.unpad_rows(mix, layout), p[f"{b}/attn/wo"], p[f"{b}/attn/bo"], layout)
        x = nm.add(x, drop(out, layout))
        h2 = nm.layer_norm(x, p[f"{b}/ln2/gain"], p[f"{b}/ln2/bias"])
        f = nm.gelu(nm.matmul(h2, p[f"{b}/ffn/w1"], p[f"{b}/ffn/b1"], layout))
        f = nm.matmul(f, p[f"{b}/ffn/w2"], p[f"{b}/ffn/b2"], layout)
        x = nm.add(x, drop(f, layout))
    return nm.layer_norm(x, p["final_ln/gain"], p["final_ln/bias"])


def _run_batch(model: DecoderModel, x: Tensor, lengths, heads, rng=None, cache=None) -> Tensor:
    """The one forward tail: training, NAR passes, AR prefill and cached
    decode steps all end here.

    `x` holds the items' input embeddings, (sum(lengths), d), item b's
    `lengths[b]` rows right after those of item b - 1. Item b's rows sit at
    positions starts[b] + [0, lengths[b]), where starts is `cache.lengths`
    given a KVCache (the cached rows come first) and 0 without one; a
    sequence that would end past max_sequence_len raises
    SequenceLengthError before anything is looked up or cached. Position
    embeddings are added and the rows run through the trunk packed, as
    the real rows of a (B, T) batch padded to the longest item: the row
    layout, the index of each real row among the B·T padded ones and B·T,
    is computed here once (and `cache`'s lengths then grow by `lengths`).
    Attention is causal iff the model is AR. A pass given a dropout `rng`
    is a training pass, its masks drawn from `rng` (none at a zero rate);
    one without is an inference pass. Each item's last `heads[b]` rows are
    projected through the head, concatenated in item order.
    """
    cfg = model.config
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.zeros_like(lengths) if cache is None else cache.lengths
    ends = starts + lengths
    if ends.max() > cfg.max_sequence_len:
        raise SequenceLengthError(f"sequence length {ends.max()} exceeds max_sequence_len {cfg.max_sequence_len}")
    B, T = len(lengths), int(lengths.max())
    pos = np.arange(T)
    real = pos < lengths[:, None]  # (B, T); row-major order is item order
    layout = (np.flatnonzero(real), B * T)

    def drop(t, row_layout=None):
        return t if rng is None else nm.dropout(t, cfg.dropout, rng, row_layout)

    x = drop(nm.add(x, nm.embedding(model.params["emb/pos"], (starts[:, None] + pos)[real])), layout)
    mask = _attention_mask(ends, T, int(starts.max()) + T, model.kind == AR, starts)
    h = _trunk_forward(model, x, (B, T), layout, mask, drop, cache)
    if cache is not None:
        cache.lengths = ends
    last = np.flatnonzero((pos >= (lengths - np.asarray(heads))[:, None])[real])
    return nm.matmul(nm.gather_rows(h, last), model.params["head/w"])


# ---------------------------------------------------------------------------
# AR forward
# ---------------------------------------------------------------------------


def ar_batch_logits(model: DecoderModel, items, rng=None, cache=None) -> tuple:
    """Batched AR forward.

    items: (phonemes, prompt_ids, target_ids) triples. The full token input
    per item is prompt + target; logits are returned for every target
    position plus the STOP slot, concatenated across items in order.

    Returns (logits Tensor (M, V), target ids (M,) with STOP appended).

    The phoneme and token tables are looked up as one stacked table, token
    ids offset by phoneme_vocab, in one embedding op over every item's ids
    in item order. An empty KVCache with one entry per item, if given, is
    filled with the items' keys and values (inference only): that is how
    decoding starts, with empty targets, before `ar_step` feeds each
    sampled token.
    """
    if model.kind != AR:
        raise ContractError("ar_batch_logits needs an AR model")
    if cache is not None and (rng is not None or cache.lengths.shape != (len(items),) or cache.lengths.any()):
        raise ContractError("a cache is filled by an inference forward, one empty entry per item")
    n_ph = model.config.phoneme_vocab
    ids, lengths, flat_targets = [], [], []
    for phonemes, prompt, target in items:
        phonemes = np.asarray(phonemes, dtype=np.int64)
        prompt = np.asarray(prompt, dtype=np.int64)
        target = np.asarray(target, dtype=np.int64)
        tokens = np.concatenate([[model.sep_id], prompt, target])
        if phonemes.min(initial=0) < 0 or phonemes.max(initial=0) >= n_ph or tokens.min() < 0:
            raise IndexError("AR input id out of range")  # it would read the other table's rows
        ids += [phonemes, tokens + n_ph]
        lengths.append(len(phonemes) + len(tokens))
        flat_targets.append(np.concatenate([target, [model.stop_id]]))
    table = nm.concat([model.params["emb/phoneme"], model.params["emb/token"]])
    x = nm.embedding(table, np.concatenate(ids))
    logits = _run_batch(model, x, lengths, [len(t) for t in flat_targets], rng, cache)
    return logits, np.concatenate(flat_targets)


def ar_step(model: DecoderModel, cache: KVCache, tokens) -> Tensor:
    """Feed one token per cache entry at the entry's next position.

    Returns logits (B, V) of the token that follows; equal, up to rounding,
    to the last row a full ar_batch_logits pass over the same prefix gives.
    The step is `_run_batch` over one-position items.
    """
    B = len(cache.lengths)
    x = nm.embedding(model.params["emb/token"], tokens)
    return _run_batch(model, x, [1] * B, [1] * B, cache=cache)


def ar_sample_next(logits_row, temperature: float, top_k: int, rng: np.random.Generator) -> int:
    """Top-k / temperature sampling from one logits row."""
    if not (np.isfinite(temperature) and temperature > 0):
        raise ContractError(f"temperature must be a finite number > 0, got {temperature}")
    if top_k < 1:
        raise ContractError("top_k must be >= 1")
    row = np.asarray(logits_row).reshape(-1)
    k = min(top_k, row.size)
    cand = np.argsort(-row, kind="stable")[:k]
    z = row[cand] / temperature
    z = z - z.max()
    probs = np.exp(z)
    probs /= probs.sum()
    r = rng.random()
    return int(cand[min(np.searchsorted(np.cumsum(probs), r, side="right"), k - 1)])


# ---------------------------------------------------------------------------
# NAR forward
# ---------------------------------------------------------------------------


def _validate_nar_item(model, phonemes, cond_tokens, prompt_codes, target_below, layer_index):
    cfg = model.config
    phonemes = np.asarray(phonemes, dtype=np.int64)
    prompt_codes = np.asarray(prompt_codes, dtype=np.int64)
    target_below = np.asarray(target_below, dtype=np.int64)
    j = int(layer_index)
    if not model.min_layer <= j <= cfg.n_codec_layers:
        raise ContractError(f"layer index {j} outside [{model.min_layer}, {cfg.n_codec_layers}]")
    if prompt_codes.ndim != 2 or prompt_codes.shape[1] != cfg.n_codec_layers:
        raise ContractError(f"prompt codes must be (T, {cfg.n_codec_layers})")
    if target_below.ndim != 2 or target_below.shape[1] != j - 1:
        raise ContractError(f"target codes must have {j - 1} columns for layer {j}")
    for name, codes in (("prompt", prompt_codes), ("below-layer", target_below)):
        # an id past its layer's range would read a neighbouring layer's rows of emb/codec
        bad = ((codes < 0) | (codes >= cfg.codec_vocab)).any(axis=0)
        if bad.any():
            raise IndexError(f"{name} codec id out of range [0, {cfg.codec_vocab}) "
                             f"at layer {int(np.argmax(bad)) + 1}")
    n_frames = target_below.shape[0]
    if model.role == VARIANT_PROPOSED:
        if cond_tokens is None:
            raise ContractError("this variant conditions on phonetic tokens")
        cond_tokens = np.asarray(cond_tokens, dtype=np.int64)
        if cond_tokens.shape[0] != n_frames:
            raise ContractError(f"frame count mismatch: {cond_tokens.shape[0]} conditioning tokens "
                                f"vs {n_frames} target frames")
    elif cond_tokens is not None:
        raise ContractError("the layer-1-conditioned variant takes no phonetic tokens")
    return phonemes, cond_tokens, prompt_codes, target_below, j


def nar_batch_logits(model: DecoderModel, items, rng=None) -> Tensor:
    """Batched NAR forward. items: (phonemes, cond_tokens, prompt_codes,
    target_below, layer_index). Returns logits (sum of frame counts, K_c),
    concatenated in item order. A dropout `rng` makes it a training pass
    (see `_run_batch`).

    Every lookup covers the whole batch. Codec ids go through the stacked
    per-layer table with offset ids: a prompt frame sums its L codes, and a
    target frame is (layer + cond) + the sum of its codes below its layer,
    padded to the batch's widest with the id of a zero row appended to the
    table. One gather then puts each item's phoneme, SEP, prompt and target
    rows in item order."""
    if model.kind != NAR:
        raise ContractError("nar_batch_logits needs a NAR model")
    cfg, p = model.config, model.params
    K, L = cfg.codec_vocab, cfg.n_codec_layers
    layer_offset = np.arange(L, dtype=np.int64) * K
    clean = [_validate_nar_item(model, *item) for item in items]
    phonemes, cond, prompts, below, layers = zip(*clean)
    # rows per item of each source: phonemes, SEP, prompt frames, target frames
    counts = np.array([(len(ph), 1, len(pc), len(tb)) for ph, pc, tb in zip(phonemes, prompts, below)])

    e_ph = nm.embedding(p["emb/phoneme"], np.concatenate(phonemes))
    e_sep = nm.embedding(p["emb/sep"], np.zeros(len(clean), dtype=np.int64))
    e_prompt = nm.sum_axis(nm.embedding(p["emb/codec"], np.concatenate(prompts) + layer_offset), 1)
    e_target = nm.embedding(p["emb/layer"], np.repeat(np.array(layers) - 1, counts[:, 3]))
    if model.role == VARIANT_PROPOSED:
        e_target = nm.add(e_target, nm.embedding(p["emb/cond"], np.concatenate(cond)))
    top = max(layers)  # pad every item's codes below its layer to the batch's widest
    below_ids = np.concatenate([
        np.hstack([tb + layer_offset[: j - 1], np.full((len(tb), top - j), L * K)]) for tb, j in zip(below, layers)
    ])
    codec_and_zero = nm.concat([p["emb/codec"], Tensor(np.zeros((1, cfg.d_model)))])
    e_target = nm.add(e_target, nm.sum_axis(nm.embedding(codec_and_zero, below_ids), 1))

    # the item each row of the concat belongs to; a stable sort puts the rows in item order
    owner = np.repeat(np.tile(np.arange(len(clean)), 4), counts.T.ravel())
    x = nm.gather_rows(nm.concat([e_ph, e_sep, e_prompt, e_target]), np.argsort(owner, kind="stable"))
    return _run_batch(model, x, counts.sum(axis=1), counts[:, 3], rng)
