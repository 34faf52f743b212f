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

Both variants share one trunk shape and one position-index space, process
padded batches (padding is masked out of attention and of the loss), and
serialize through the shared checkpoint container with a JSON config sidecar.
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
        if self.d_model % self.n_heads != 0:
            raise ContractError("d_model must be divisible by n_heads")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def desk_model_config(phoneme_vocab, phonetic_vocab, codec_vocab, n_codec_layers=8, **kw):
    return ModelConfig(
        phoneme_vocab=phoneme_vocab,
        phonetic_vocab=phonetic_vocab,
        codec_vocab=codec_vocab,
        n_codec_layers=n_codec_layers,
        **kw,
    )


def paper_scale_config(phoneme_vocab, phonetic_vocab, codec_vocab) -> ModelConfig:
    """The full-size configuration (12 layers / 16 heads / 1024 / 4096).

    Constructible for scale-up runs; the desk tests never train it.
    """
    return ModelConfig(
        n_layers=12,
        n_heads=16,
        d_model=1024,
        d_ff=4096,
        dropout=0.1,
        phoneme_vocab=phoneme_vocab,
        phonetic_vocab=phonetic_vocab,
        codec_vocab=codec_vocab,
        max_sequence_len=1024,
    )


class DecoderModel:
    """Config + named parameter set; the forward functions live below."""

    def __init__(self, config: ModelConfig, kind: str, role: str, params: dict):
        self.config = config
        self.kind = kind      # "ar" | "nar"
        self.role = role      # ar: token stream; nar: conditioning variant
        self.params = params  # name -> Tensor, insertion-ordered

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

    def named_parameters(self) -> dict:
        return self.params

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def save(self, path, meta_path=None) -> None:
        checkpoint.save_tensors(path, {k: v.data for k, v in self.params.items()})
        meta = {"kind": self.kind, "role": self.role, "config": self.config.to_dict()}
        if meta_path is None:
            meta_path = Path(path).with_suffix(".json")
        Path(meta_path).write_text(json.dumps(meta, indent=2) + "\n")


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
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xA12])))
    return DecoderModel(config, AR, stream, _init_params(entries, rng))


def build_nar_model(config: ModelConfig, variant: str, seed: int) -> DecoderModel:
    entries = _nar_entries(config, variant)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xB34])))
    return DecoderModel(config, NAR, variant, _init_params(entries, rng))


def load_model(path, meta_path=None) -> DecoderModel:
    """Read a model saved by `DecoderModel.save`. The checkpoint must hold
    exactly the tensors, by name and shape, that its config and role imply;
    anything else raises CheckpointError."""
    if meta_path is None:
        meta_path = Path(path).with_suffix(".json")
    meta = json.loads(Path(meta_path).read_text())
    config = ModelConfig.from_dict(meta["config"])
    kind, role = (AR if meta["kind"] == AR else NAR), meta["role"]
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
    return DecoderModel(config, kind, role, params)


# ---------------------------------------------------------------------------
# trunk
# ---------------------------------------------------------------------------


def _attention_mask(lengths, n_queries: int, n_keys: int, causal: bool, offsets=0) -> Tensor:
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
    return Tensor(np.where(allowed, 0.0, _NEG_INF))


class KVCache:
    """Per-block attention keys and values of a batch of AR sequences, so
    decoding feeds each new token once instead of the whole prefix.

    Block i keeps (B, H, capacity, hd) arrays; entry b has its first
    `lengths[b]` rows filled. Rows past that may hold leftovers of padding,
    which the length mask hides.
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


def _trunk_forward(model: DecoderModel, x: Tensor, mask: Tensor, train: bool, rng, cache=None) -> Tensor:
    """Pre-LN blocks over (B, T, d) inputs. With a KVCache, the T inputs sit
    after each entry's cached rows and attend over those rows too; `mask`
    must then cover the keys up to the longest entry."""
    cfg = model.config
    p = model.params
    B, T, d = x.shape
    H = cfg.n_heads
    hd = d // H
    inv_sqrt = 1.0 / np.sqrt(hd)

    def drop(t):
        return nm.dropout(t, cfg.dropout, rng) if train and cfg.dropout > 0 else t

    for i in range(cfg.n_layers):
        b = f"blocks/{i}"
        h = nm.layer_norm(x, p[f"{b}/ln1/gain"], p[f"{b}/ln1/bias"])
        q = nm.matmul(h, p[f"{b}/attn/wq"], p[f"{b}/attn/bq"])
        k = nm.matmul(h, p[f"{b}/attn/wk"], p[f"{b}/attn/bk"])
        v = nm.matmul(h, p[f"{b}/attn/wv"], p[f"{b}/attn/bv"])
        q = nm.transpose(nm.reshape(q, (B, T, H, hd)), (0, 2, 1, 3))
        k = nm.transpose(nm.reshape(k, (B, T, H, hd)), (0, 2, 1, 3))
        v = nm.transpose(nm.reshape(v, (B, T, H, hd)), (0, 2, 1, 3))
        if cache is not None:
            k, v = cache.write(i, k, v)
        scores = nm.scale(nm.matmul(q, nm.transpose(k, (0, 1, 3, 2))), inv_sqrt)
        att = nm.softmax_rows(nm.add(scores, mask))
        att = drop(att)
        mix = nm.reshape(nm.transpose(nm.matmul(att, v), (0, 2, 1, 3)), (B, T, d))
        out = nm.matmul(mix, p[f"{b}/attn/wo"], p[f"{b}/attn/bo"])
        x = nm.add(x, drop(out))
        h2 = nm.layer_norm(x, p[f"{b}/ln2/gain"], p[f"{b}/ln2/bias"])
        f = nm.gelu(nm.matmul(h2, p[f"{b}/ffn/w1"], p[f"{b}/ffn/b1"]))
        f = nm.matmul(f, p[f"{b}/ffn/w2"], p[f"{b}/ffn/b2"])
        x = nm.add(x, drop(f))
    return nm.layer_norm(x, p["final_ln/gain"], p["final_ln/bias"])


def _check_len(model: DecoderModel, n: int):
    if n > model.config.max_sequence_len:
        raise SequenceLengthError(
            f"sequence length {n} exceeds max_sequence_len {model.config.max_sequence_len}"
        )


# ---------------------------------------------------------------------------
# AR forward
# ---------------------------------------------------------------------------


def ar_batch_logits(model: DecoderModel, items, train: bool = False, rng=None, cache=None) -> tuple:
    """Batched AR forward.

    items: (phonemes, prompt_ids, target_ids) triples. The full token input
    per item is prompt + target; logits are returned for every target
    position plus the STOP slot, concatenated across items in order.

    Returns (logits Tensor (M, V), target ids (M,) with STOP appended).

    Lookups are batched: one embedding op per table over all items' ids, then
    per-item slices are reassembled for padding. An empty KVCache with one
    entry per item, if given, is filled with the items' keys and values
    (inference only).
    """
    if model.kind != AR:
        raise ContractError("ar_batch_logits needs an AR model")
    if train and model.config.dropout > 0 and rng is None:
        raise ContractError("training forward needs an rng for dropout")
    if cache is not None and (train or cache.lengths.shape != (len(items),) or cache.lengths.any()):
        raise ContractError("a cache is filled by an inference forward, one empty entry per item")
    p = model.params
    ph_list, tok_list, lengths, rows, flat_targets = [], [], [], [], []
    for phonemes, prompt, target in items:
        phonemes = np.asarray(phonemes, dtype=np.int64)
        prompt = np.asarray(prompt, dtype=np.int64)
        target = np.asarray(target, dtype=np.int64)
        T = len(phonemes) + 1 + len(prompt) + len(target)
        _check_len(model, T)
        ph_list.append(phonemes)
        tok_list.append(np.concatenate([[model.sep_id], prompt, target]))
        lengths.append(T)
        rows.append((len(phonemes) + 1 + len(prompt) - 1, len(target) + 1))
        flat_targets.append(np.concatenate([target, [model.stop_id]]))
    e_ph = nm.embedding(p["emb/phoneme"], np.concatenate(ph_list))
    e_tok = nm.embedding(p["emb/token"], np.concatenate(tok_list))
    e_pos = nm.embedding(p["emb/pos"], np.concatenate([np.arange(n) for n in lengths]))
    pieces, ph_off, tok_off = [], 0, 0
    for ph, tok in zip(ph_list, tok_list):
        pieces.append(nm.narrow(e_ph, 0, ph_off, len(ph)))
        pieces.append(nm.narrow(e_tok, 0, tok_off, len(tok)))
        ph_off += len(ph)
        tok_off += len(tok)
    flat = nm.add(nm.concat(pieces), e_pos)
    embeds, off = [], 0
    for n in lengths:
        embeds.append(nm.narrow(flat, 0, off, n))
        off += n
    T = max(lengths)
    x = nm.pad_stack(embeds, T)
    if train and model.config.dropout > 0:
        x = nm.dropout(x, model.config.dropout, rng)
    mask = _attention_mask(lengths, T, T, causal=True)
    h = _trunk_forward(model, x, mask, train, rng, cache)
    if cache is not None:
        cache.lengths = np.asarray(lengths, dtype=np.int64)
    flat = nm.reshape(h, (len(items) * T, model.config.d_model))
    indices = np.concatenate(
        [b * T + start + np.arange(count) for b, (start, count) in enumerate(rows)]
    )
    logits = nm.matmul(nm.gather_rows(flat, indices), model.params["head/w"])
    return logits, np.concatenate(flat_targets)


def ar_forward(model: DecoderModel, phonemes, prompt_tokens, target_prefix) -> Tensor:
    """Single-sequence AR logits: one row per target position, starting with
    the row that predicts the first target token. Inference mode (no dropout)."""
    logits, _ = ar_batch_logits(model, [(phonemes, prompt_tokens, target_prefix)])
    return logits


def ar_prefill(model: DecoderModel, items, capacity: int) -> tuple:
    """Start incremental decoding of (phonemes, prompt_ids) items.

    Runs [phonemes][SEP][prompt] once per item and returns (logits (B, V) of
    the first token to generate, a KVCache with room for `capacity`
    positions per entry).
    """
    cache = KVCache(model, len(items), capacity)
    logits, _ = ar_batch_logits(model, [(ph, prompt, ()) for ph, prompt in items], cache=cache)
    return logits, cache


def ar_step(model: DecoderModel, cache: KVCache, tokens) -> Tensor:
    """Feed one token per cache entry at the entry's next position.

    Returns logits (B, V) of the token that follows; equal, up to rounding,
    to the last row a full ar_batch_logits pass over the same prefix gives.
    """
    p = model.params
    pos = cache.lengths
    n_keys = int(pos.max()) + 1
    _check_len(model, n_keys)
    x = nm.add(nm.embedding(p["emb/token"], tokens), nm.embedding(p["emb/pos"], pos))
    B, d = x.shape
    mask = _attention_mask(pos + 1, 1, n_keys, causal=True, offsets=pos)
    h = _trunk_forward(model, nm.reshape(x, (B, 1, d)), mask, False, None, cache)
    cache.lengths = pos + 1
    return nm.matmul(nm.reshape(h, (B, d)), p["head/w"])


def ar_sample_next(logits_row, temperature: float, top_k: int, rng: np.random.Generator) -> int:
    """Top-k / temperature sampling from one logits row."""
    if temperature <= 0:
        raise ContractError("temperature must be > 0")
    if top_k < 1:
        raise ContractError("top_k must be >= 1")
    row = logits_row.data if isinstance(logits_row, Tensor) else np.asarray(logits_row)
    row = row.reshape(-1)
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
        raise ContractError(
            f"layer index {j} outside [{model.min_layer}, {cfg.n_codec_layers}]"
        )
    if prompt_codes.ndim != 2 or prompt_codes.shape[1] != cfg.n_codec_layers:
        raise ContractError(f"prompt codes must be (T, {cfg.n_codec_layers})")
    if target_below.ndim != 2 or target_below.shape[1] != j - 1:
        raise ContractError(f"target codes must have {j - 1} columns for layer {j}")
    n_frames = target_below.shape[0]
    if model.role == VARIANT_PROPOSED:
        if cond_tokens is None:
            raise ContractError("this variant conditions on phonetic tokens")
        cond_tokens = np.asarray(cond_tokens, dtype=np.int64)
        if cond_tokens.shape[0] != n_frames:
            raise ContractError(
                f"frame count mismatch: {cond_tokens.shape[0]} conditioning tokens "
                f"vs {n_frames} target frames"
            )
    elif cond_tokens is not None:
        raise ContractError("the layer-1-conditioned variant takes no phonetic tokens")
    T = len(phonemes) + 1 + prompt_codes.shape[0] + n_frames
    _check_len(model, T)
    return phonemes, cond_tokens, prompt_codes, target_below, j, T


def nar_batch_logits(model: DecoderModel, items, train: bool = False, rng=None) -> Tensor:
    """Batched NAR forward. items: (phonemes, cond_tokens, prompt_codes,
    target_below, layer_index). Returns logits (sum of frame counts, K_c),
    concatenated in item order.

    Codec-token lookups go through the stacked per-layer table with offset
    ids, one embedding op per step."""
    if model.kind != NAR:
        raise ContractError("nar_batch_logits needs a NAR model")
    if train and model.config.dropout > 0 and rng is None:
        raise ContractError("training forward needs an rng for dropout")
    cfg = model.config
    p = model.params
    K, L, d = cfg.codec_vocab, cfg.n_codec_layers, cfg.d_model
    layer_offset = np.arange(L, dtype=np.int64) * K
    clean = [_validate_nar_item(model, *item) for item in items]
    lengths = [T for *_, T in clean]
    rows = [(len(ph) + 1 + pc.shape[0], tb.shape[0]) for ph, _, pc, tb, _, _ in clean]

    e_ph = nm.embedding(p["emb/phoneme"], np.concatenate([c[0] for c in clean]))
    prompt_flat = np.concatenate([c[2] for c in clean])  # (sum Tp, L)
    e_prompt = nm.sum_axis(
        nm.reshape(
            nm.embedding(p["emb/codec"], (prompt_flat + layer_offset).reshape(-1)),
            (prompt_flat.shape[0], L, d),
        ),
        1,
    )
    e_target = nm.embedding(
        p["emb/layer"], np.concatenate([np.full(tb.shape[0], j - 1) for _, _, _, tb, j, _ in clean])
    )
    if model.role == VARIANT_PROPOSED:
        e_target = nm.add(e_target, nm.embedding(p["emb/cond"], np.concatenate([c[1] for c in clean])))
    below_ids = [
        (tb + layer_offset[: j - 1]).reshape(-1) for _, _, _, tb, j, _ in clean
    ]
    below_flat = np.concatenate(below_ids) if below_ids else np.zeros(0, dtype=np.int64)
    e_below = nm.embedding(p["emb/codec"], below_flat) if below_flat.size else None
    e_pos = nm.embedding(p["emb/pos"], np.concatenate([np.arange(n) for n in lengths]))

    pieces = []
    ph_off = pr_off = tg_off = bl_off = 0
    for (ph, _, pc, tb, j, _), ids in zip(clean, below_ids):
        pieces.append(nm.narrow(e_ph, 0, ph_off, len(ph)))
        pieces.append(p["emb/sep"])
        pieces.append(nm.narrow(e_prompt, 0, pr_off, pc.shape[0]))
        n = tb.shape[0]
        target_k = nm.narrow(e_target, 0, tg_off, n)
        if ids.size:
            below_k = nm.reshape(nm.narrow(e_below, 0, bl_off, ids.size), (n, j - 1, d))
            target_k = nm.add(target_k, nm.sum_axis(below_k, 1))
        pieces.append(target_k)
        ph_off += len(ph)
        pr_off += pc.shape[0]
        tg_off += n
        bl_off += ids.size
    flat = nm.add(nm.concat(pieces), e_pos)
    embeds, off = [], 0
    for n in lengths:
        embeds.append(nm.narrow(flat, 0, off, n))
        off += n
    T = max(lengths)
    x = nm.pad_stack(embeds, T)
    if train and model.config.dropout > 0:
        x = nm.dropout(x, model.config.dropout, rng)
    mask = _attention_mask(lengths, T, T, causal=False)
    h = _trunk_forward(model, x, mask, train, rng)
    flat = nm.reshape(h, (len(items) * T, model.config.d_model))
    indices = np.concatenate(
        [b * T + start + np.arange(count) for b, (start, count) in enumerate(rows)]
    )
    return nm.matmul(nm.gather_rows(flat, indices), model.params["head/w"])


def nar_forward(model, phonemes, phonetic_upsampled, prompt_codes, target_codes_below, layer_index) -> Tensor:
    """Single-sequence NAR logits, one row per target frame. Inference mode."""
    return nar_batch_logits(
        model, [(phonemes, phonetic_upsampled, prompt_codes, target_codes_below, layer_index)]
    )
