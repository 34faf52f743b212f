"""End-to-end orchestration: tokenize a corpus, train the two-stage system
(AR over phonetic tokens + NAR over codec layers), train the single-stage
baseline (AR over layer-1 codec ids + NAR over the remaining layers), and
synthesize via acoustic prompting.

`MODES` is the one table of the 2 x 2 trained models: each training mode
names its system, model kind (AR or NAR), role (AR token stream or NAR
conditioning variant) and checkpoint file. `train_mode`, the bundle file
layout and the bundle checks all read it. `bundle_files` names every file a
bundle is read from, and `save_stages` is the one writer of bundle files.

Every batch item comes from one (phonemes, prompt, target) triple of
`TokenizedUtterance` pieces. Training prompts are a random prefix of the same
utterance, which `prompted_items` cuts at a duration slot boundary so the 2:3
phonetic/acoustic alignment stays exact: a prefix of k slots is 2k phonetic
tokens and 3k acoustic frames. The phoneme input always covers the whole
utterance, which is the same layout inference uses (prompt transcript
concatenated with the text to synthesize). `nar_items` builds every NAR item
of such triples, in training and in synthesis.

Batch selection and prompt-split draws come from rng streams that depend only
on (seed, step), never on the system variant, so proposed and baseline
trainings with the same seed consume identical batches and differ only in the
target stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from . import checkpoint
from . import model as md
from . import numerics as nm
from . import quantizer as qz
from . import tokenworld as tw
from .numerics import AdamState, ContractError, Tape, adam_step, backward, clip_grad_norm, fill_missing_grads
from .quantizer import Quantizers

KIND_PROPOSED = "proposed"
KIND_BASELINE = "baseline"

MODE_PROPOSED_AR = "proposed_ar"
MODE_NAR = "nar"
MODE_BASELINE_AR = "baseline_ar"
MODE_BASELINE_NAR = "baseline_nar"


@dataclass(frozen=True)
class Mode:
    system: str      # KIND_PROPOSED | KIND_BASELINE
    kind: str        # md.AR | md.NAR
    role: str        # AR: token stream; NAR: conditioning variant
    checkpoint: str  # file name in a bundle directory


MODES = {
    MODE_PROPOSED_AR: Mode(KIND_PROPOSED, md.AR, md.STREAM_PHONETIC, "ar.ckpt"),
    MODE_NAR: Mode(KIND_PROPOSED, md.NAR, md.VARIANT_PROPOSED, "nar.ckpt"),
    MODE_BASELINE_AR: Mode(KIND_BASELINE, md.AR, md.STREAM_CODEC, "baseline_ar.ckpt"),
    MODE_BASELINE_NAR: Mode(KIND_BASELINE, md.NAR, md.VARIANT_BASELINE, "baseline_nar.ckpt"),
}
SYSTEMS = tuple(dict.fromkeys(m.system for m in MODES.values()))

PROMPT_FRACTION = (0.2, 0.5)

_IDX_STREAM = 0x11
_SPLIT_STREAM = 0x22
_LAYER_STREAM = 0x33
_DROP_STREAM = 0x44

_SYNTH_CHUNK = 8  # requests tokenized and decoded as one batch
QUANTIZERS = "quantizers.ckpt"  # a quantize run's output and every bundle's copy


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss or gradient) or could not proceed."""


@dataclass
class TrainingConfig:
    steps: int = 600
    batch_size: int = 8
    learning_rate: float = 1e-3
    seed: int = 0
    grad_clip: float = 1.0

    def __post_init__(self):
        nm.check_counts(self, {"steps": 1, "batch_size": 1, "seed": 0})
        # first, so that a string or NaN is a ContractError, not a failed comparison
        nm.check_reals(self, ("learning_rate", "grad_clip"))
        # a negative clip norm flips every gradient, and 0 zeroes them
        if not (self.learning_rate > 0 and self.grad_clip > 0):
            raise ContractError("learning_rate and grad_clip must be positive")


@dataclass
class TokenizedUtterance:
    phonemes: np.ndarray
    phonetic: np.ndarray   # (2 * slots,)
    codes: np.ndarray      # (3 * slots, n_layers)
    speaker_id: int

    @property
    def slots(self) -> int:
        return self.phonetic.shape[0] // 2

    def stream(self, name: str) -> np.ndarray:
        """The AR token stream `name`: phonetic tokens (2 per slot) for the
        proposed system, codec layer 1 (3 per slot) for the baseline."""
        return self.phonetic if name == md.STREAM_PHONETIC else self.codes[:, 0]


def tokenize_utterances(utts, quantizers: Quantizers) -> list:
    """Encode every utterance with one search per codebook over all of their
    frames; the search is row by row, so the codes are those of encoding
    each utterance alone."""
    utts = list(utts)
    if not utts:
        return []

    def encode(frames, fn, book):
        bounds = np.cumsum([f.shape[0] for f in frames])[:-1]
        return np.split(fn(np.concatenate(frames), book), bounds)

    phonetic = encode([u.phonetic_frames for u in utts], qz.kmeans_assign, quantizers.phonetic)
    codes = encode([u.acoustic_frames for u in utts], qz.rvq_encode, quantizers.rvq)
    return [
        TokenizedUtterance(
            phonemes=np.asarray(u.phonemes, dtype=np.int64), phonetic=ph, codes=c, speaker_id=u.speaker_id
        )
        for u, ph, c in zip(utts, phonetic, codes)
    ]


def batch_schedule(n_items: int, config: TrainingConfig) -> tuple:
    """(idxs, fracs) arrays of shape (steps, batch): the full draw plan.

    Depends only on (n_items, steps, batch_size, seed); every trainer mode
    consumes the same plan.
    """
    shape = (config.steps, config.batch_size)
    idx_rng = np.random.default_rng([config.seed, _IDX_STREAM])
    split_rng = np.random.default_rng([config.seed, _SPLIT_STREAM])
    idxs = idx_rng.integers(0, n_items, size=shape)
    fracs = split_rng.uniform(PROMPT_FRACTION[0], PROMPT_FRACTION[1], size=shape)
    return idxs, fracs


def layer_schedule(config: TrainingConfig, min_layer: int, n_layers: int) -> np.ndarray:
    rng = np.random.default_rng([config.seed, _LAYER_STREAM])
    return rng.integers(min_layer, n_layers + 1, size=(config.steps, config.batch_size))


def prompted_items(tokenized, idxs, fracs) -> list:
    """(phonemes, prompt, target) triples: each `tokenized[i]` cut after the
    whole slot nearest its `frac` of the slots, so prompt and target keep at
    least one slot each. The two pieces keep the utterance's phonemes."""
    out = []
    for i, f in zip(idxs, fracs):
        tu = tokenized[int(i)]
        if tu.slots < 2:
            raise ContractError("utterance too short to split into prompt and target")
        k = min(max(int(round(float(f) * tu.slots)), 1), tu.slots - 1)
        prompt = replace(tu, phonetic=tu.phonetic[: 2 * k], codes=tu.codes[: 3 * k])
        out.append((tu.phonemes, prompt, replace(tu, phonetic=tu.phonetic[2 * k :], codes=tu.codes[3 * k :])))
    return out


def ar_training_items(tokenized, idxs, fracs, stream: str) -> list:
    """(phonemes, prompt, target) id triples of `stream` for one AR step."""
    return [(ph, p.stream(stream), t.stream(stream)) for ph, p, t in prompted_items(tokenized, idxs, fracs)]


def nar_items(prompted, layers, variant: str) -> tuple:
    """(model items, label ids) of `prompted` triples, each predicting its
    `layers` layer of the target's codes from the codes below it."""
    items, labels = [], []
    for (phonemes, prompt, target), j in zip(prompted, layers):
        j = int(j)
        cond = qz.upsample_tokens(target.phonetic) if variant == md.VARIANT_PROPOSED else None
        items.append((phonemes, cond, prompt.codes, target.codes[:, : j - 1], j))
        labels.append(target.codes[:, j - 1])
    return items, np.concatenate(labels)


def nar_training_items(tokenized, idxs, fracs, layers, variant: str) -> tuple:
    """(model items, label ids) for one NAR step."""
    return nar_items(prompted_items(tokenized, idxs, fracs), layers, variant)


def teacher_forced(model, tokenized, idxs, fracs, layers, train: bool = False, rng=None) -> tuple:
    """(logits, labels) of one teacher-forced batch: `tokenized[i]` for each
    i in `idxs`, its prompt the `fracs` prefix; a NAR model predicts the
    `layers` layer of each target, an AR model its next tokens and ignores
    `layers`."""
    if model.kind == md.AR:
        return md.ar_batch_logits(model, ar_training_items(tokenized, idxs, fracs, model.role), train, rng)
    items, labels = nar_training_items(tokenized, idxs, fracs, layers, model.role)
    return md.nar_batch_logits(model, items, train, rng), labels


def _run_training(model, step_forward, config: TrainingConfig) -> list:
    """Shared loop: step_forward(step, tape_active_rng) -> scalar loss Tensor."""
    params = model.parameters()
    adam = AdamState(learning_rate=config.learning_rate)
    drop_rng = np.random.default_rng([config.seed, _DROP_STREAM])
    losses = []
    for step in range(config.steps):
        with Tape() as tape:
            loss = step_forward(step, drop_rng)
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingError(f"non-finite loss {value} at step {step}")
        backward(loss, tape)
        grads = fill_missing_grads(params)
        norm = clip_grad_norm(grads, config.grad_clip)
        if not np.isfinite(norm):
            raise TrainingError(f"non-finite gradient norm {norm} at step {step}")
        adam_step(params, grads, adam)
        losses.append(value)
    return losses


def train_mode(mode: str, corpus, quantizers, config, model_config=None) -> tuple:
    """Train the model of one `MODES` entry from its seeded init on the
    corpus's train split; returns (model, per-step losses).

    The proposed and baseline AR decoders differ only in the target stream
    (phonetic tokens, or layer-1 codec ids, which by world construction
    entangle content, speaker and recording noise). The proposed NAR
    conditions on phonetic tokens and predicts layers 1..L, the baseline
    NAR on layer 1 and predicts layers 2..L.
    """
    if mode not in MODES:
        raise ContractError(f"unknown training mode {mode!r}; expected one of {tuple(MODES)}")
    kind, role = MODES[mode].kind, MODES[mode].role
    if model_config is None:
        model_config = default_model_config(corpus.world_spec, quantizers)
    _check_vocab(model_config, quantizers)
    build = md.build_ar_model if kind == md.AR else md.build_nar_model
    model = build(model_config, role, seed=config.seed)  # its own seeded stream: fails before tokenizing
    idxs, fracs = batch_schedule(len(corpus.train), config)
    drawn = np.unique(idxs)  # tokenize only what the schedule draws, keyed by train index
    tokenized = dict(zip(drawn.tolist(), tokenize_utterances([corpus.train[i] for i in drawn], quantizers)))
    for i, tu in tokenized.items():  # every step splits its utterances: fail before step 0, not at the step
        if tu.slots < 2:
            raise ContractError(f"train utterance {i} has {tu.slots} slot(s), too few for a prompt and a target")
    # an AR step ignores the layers, and a 1-layer codec has none above layer 1 to draw
    layers = layer_schedule(config, model.min_layer, model_config.n_codec_layers) if kind == md.NAR else idxs

    def step_forward(step, drop_rng):
        batch = teacher_forced(model, tokenized, idxs[step], fracs[step], layers[step], True, drop_rng)
        return nm.cross_entropy(*batch)

    losses = _run_training(model, step_forward, config)
    model.training = asdict(config)  # saved in the model's own checkpoint sidecar
    return model, losses


def fit_corpus_quantizers(
    corpus: tw.Corpus,
    k_phonetic: int = 64,
    k_codec: int = 32,
    n_layers: int = 8,
    max_iters: int = 30,
    seed: int = 0,
) -> Quantizers:
    """Fit the phonetic codebook and acoustic RVQ on the train split only."""
    phonetic_frames = np.concatenate([u.phonetic_frames for u in corpus.train])
    acoustic_frames = np.concatenate([u.acoustic_frames for u in corpus.train])
    return Quantizers(
        phonetic=qz.kmeans_fit(phonetic_frames, k_phonetic, max_iters=max_iters, seed=seed),
        rvq=qz.rvq_fit(acoustic_frames, layers=n_layers, k=k_codec, max_iters=max_iters, seed=seed + 1),
    )


def default_model_config(world_spec: tw.WorldSpec, quantizers: Quantizers) -> md.ModelConfig:
    return md.ModelConfig(
        phoneme_vocab=world_spec.phoneme_vocab_size,
        phonetic_vocab=quantizers.phonetic.k,
        codec_vocab=quantizers.rvq.vocab,
        n_codec_layers=quantizers.rvq.n_layers,
    )


def _check_vocab(model_config: md.ModelConfig, quantizers: Quantizers):
    if model_config.phonetic_vocab != quantizers.phonetic.k:
        raise ContractError(
            f"model phonetic_vocab {model_config.phonetic_vocab} != codebook K {quantizers.phonetic.k}"
        )
    if model_config.codec_vocab != quantizers.rvq.vocab:
        raise ContractError(
            f"model codec_vocab {model_config.codec_vocab} != RVQ K {quantizers.rvq.vocab}"
        )
    if model_config.n_codec_layers != quantizers.rvq.n_layers:
        raise ContractError("model n_codec_layers != RVQ layer count")


# ---------------------------------------------------------------------------
# synthesis via prompting
# ---------------------------------------------------------------------------


@dataclass
class SynthesisRequest:
    phonemes: list
    prompt: tw.Utterance
    temperature: float = 1.0
    top_k: int = 8
    max_length_factor: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.max_length_factor) and self.max_length_factor > 1):
            raise ContractError(f"max_length_factor must be a finite number > 1, got {self.max_length_factor}")
        if len(self.phonemes) == 0:
            raise ContractError("empty phoneme request")
        if self.prompt is None or len(self.prompt.phonemes) == 0:
            raise ContractError("empty acoustic prompt")


@dataclass
class SynthesisResult:
    codes: np.ndarray              # (frames, n_layers)
    phonetic_tokens: np.ndarray | None
    runaway: bool
    generated_length: int


@dataclass
class SystemBundle:
    world_spec: tw.WorldSpec
    quantizers: Quantizers
    ar: md.DecoderModel
    nar: md.DecoderModel
    kind: str

    def __post_init__(self):
        if self.kind not in SYSTEMS:
            raise ContractError(f"unknown bundle kind {self.kind!r}")
        for model, mode in zip((self.ar, self.nar), _system_modes(self.kind)):
            if (model.kind, model.role) != (mode.kind, mode.role):
                raise ContractError(f"{self.kind} bundle needs a {mode.kind} model with role {mode.role!r}")
        _check_vocab(self.ar.config, self.quantizers)
        _check_vocab(self.nar.config, self.quantizers)
        if self.world_spec.phoneme_vocab_size != self.ar.config.phoneme_vocab:
            raise ContractError("phoneme vocab mismatch between world and model")


def _expected_generation(request: SynthesisRequest, spec: tw.WorldSpec, stream: str) -> int:
    rate = spec.phonetic_rate_per_slot if stream == md.STREAM_PHONETIC else spec.acoustic_rate_per_slot
    return max(1, int(round(len(request.phonemes) * spec.mean_slots_per_phoneme * rate)))


@dataclass
class _GenEntry:
    request: SynthesisRequest
    phonemes: np.ndarray
    prompt: TokenizedUtterance
    cap: int
    rng: np.random.Generator
    generated: list = field(default_factory=list)
    runaway: bool = False


def _prepare_entry(bundle: SystemBundle, request: SynthesisRequest, prompt: TokenizedUtterance, rng) -> _GenEntry:
    """`prompt`: the request's prompt utterance as `tokenize_utterances` encodes it."""
    phonemes = np.concatenate([prompt.phonemes, np.asarray(request.phonemes, dtype=np.int64)])
    if phonemes.max() >= bundle.world_spec.phoneme_vocab_size or phonemes.min() < 0:
        raise ContractError("phoneme id out of range for this world")
    stream = bundle.ar.role
    prompt_stream = prompt.stream(stream)
    cap = int(np.ceil(request.max_length_factor * _expected_generation(request, bundle.world_spec, stream)))
    base_len = len(phonemes) + 1 + len(prompt_stream)
    headroom = bundle.ar.config.max_sequence_len - base_len - 1
    # the NAR input is [phonemes][SEP][prompt frames][generated frames], and a
    # proposed system turns `cap` tokens into ceil(3 cap / 2) frames
    nar_room = bundle.nar.config.max_sequence_len - (len(phonemes) + 1 + prompt.codes.shape[0])
    headroom = min(headroom, 2 * nar_room // 3 if bundle.kind == KIND_PROPOSED else nar_room)
    if headroom < 1:
        raise ContractError("prompt leaves no room for generation under max_sequence_len")
    return _GenEntry(request=request, phonemes=phonemes, prompt=prompt, cap=min(cap, headroom), rng=rng)


def _generate_tokens(model: md.DecoderModel, entries: list) -> None:
    """Batched AR sampling until every entry emits STOP or hits its cap.

    One prefill over each entry's [phonemes][SEP][prompt], then one cached
    step per sampled token; finished entries leave the cache.
    """
    active = list(entries)
    # base length + cap - 1 positions: the last sampled token is never fed back
    prompts = [e.prompt.stream(model.role) for e in active]
    capacity = max(len(e.phonemes) + len(p) + e.cap for e, p in zip(active, prompts))
    cache = md.KVCache(model, len(active), capacity)
    logits, _ = md.ar_batch_logits(model, [(e.phonemes, p, ()) for e, p in zip(active, prompts)], cache=cache)
    while True:
        live = []
        for i, (e, row) in enumerate(zip(active, logits.data)):
            token = md.ar_sample_next(row, e.request.temperature, e.request.top_k, e.rng)
            if token == model.stop_id:
                continue
            e.generated.append(token)
            if len(e.generated) >= e.cap:
                e.runaway = True
            else:
                live.append(i)
        if not live:
            return
        if len(live) < len(active):
            cache.keep(live)
            active = [active[i] for i in live]
        logits = md.ar_step(model, cache, [e.generated[-1] for e in active])


def _predict_codes(bundle: SystemBundle, entries: list) -> list:
    """Greedy argmax NAR decode per layer, batched over the entries that
    generated at least one token, each the target of a triple."""
    nar = bundle.nar
    n_layers = nar.config.n_codec_layers
    proposed = bundle.kind == KIND_PROPOSED
    targets = []
    for e in entries:
        t = np.asarray(e.generated, dtype=np.int64)
        codes = np.zeros((len(qz.upsample_tokens(t)) if proposed else len(t), n_layers), dtype=np.int64)
        if not proposed:
            codes[:, 0] = t  # the baseline's AR stream is codec layer 1
        phonemes = e.phonemes[len(e.prompt.phonemes) :]
        targets.append(TokenizedUtterance(phonemes, t if proposed else t[:0], codes, e.prompt.speaker_id))
    live = [i for i, tg in enumerate(targets) if len(tg.codes)]
    prompted = [(entries[i].phonemes, entries[i].prompt, targets[i]) for i in live]
    bounds = np.cumsum([len(targets[i].codes) for i in live])[:-1]
    for j in range(nar.min_layer, n_layers + 1) if live else ():
        items, _ = nar_items(prompted, [j] * len(live), nar.role)
        ids = md.nar_batch_logits(nar, items).data.argmax(axis=1)
        for i, layer in zip(live, np.split(ids, bounds)):
            targets[i].codes[:, j - 1] = layer
    return [
        SynthesisResult(codes=tg.codes, phonetic_tokens=tg.phonetic if proposed else None, runaway=e.runaway,
                        generated_length=len(e.generated))
        for e, tg in zip(entries, targets)
    ]


def synthesize_many(bundle: SystemBundle, requests, seeds) -> list:
    """Synthesize a list of requests with per-request sampling seeds.

    Requests are processed in fixed chunks of `_SYNTH_CHUNK` (8): one
    `tokenize_utterances` call encodes a chunk's prompts and one batch
    decodes it, so results do not depend on how callers distribute requests
    over workers.
    """
    if len(seeds) != len(requests):
        raise ContractError("one seed per request")
    out = []
    for start in range(0, len(requests), _SYNTH_CHUNK):
        chunk = requests[start : start + _SYNTH_CHUNK]
        prompts = tokenize_utterances([r.prompt for r in chunk], bundle.quantizers)
        entries = [
            _prepare_entry(bundle, r, p, np.random.default_rng(int(s)))
            for r, p, s in zip(chunk, prompts, seeds[start : start + _SYNTH_CHUNK])
        ]
        _generate_tokens(bundle.ar, entries)
        out.extend(_predict_codes(bundle, entries))
    return out


def check_corpus_world(bundle: SystemBundle, corpus: tw.Corpus) -> None:
    """Raise ContractError unless `corpus` comes from the world the bundle was trained in."""
    if corpus.world_spec != bundle.world_spec:
        raise ContractError(
            f"corpus world (seed {corpus.world_spec.seed}) is not the bundle's world (seed {bundle.world_spec.seed})"
        )


# ---------------------------------------------------------------------------
# bundle persistence (run directory layout)
# ---------------------------------------------------------------------------

def _system_modes(kind: str) -> tuple:
    """(AR mode, NAR mode) of a system, in table order."""
    return tuple(m for m in MODES.values() if m.system == kind)


def with_sidecars(names) -> list:
    """Each checkpoint name followed by the name of its .json sidecar."""
    return [n for c in names for n in (c, str(Path(c).with_suffix(".json")))]


def bundle_files(kind: str) -> list:
    """Every file a `kind` bundle is read from: the AR, NAR and quantizer
    checkpoints, each followed by its sidecar, then `{kind}_bundle.json`."""
    return with_sidecars([m.checkpoint for m in _system_modes(kind)] + [QUANTIZERS]) + [f"{kind}_bundle.json"]


def save_stages(out_dir, world_spec: tw.WorldSpec, quantizers: Quantizers, stages: dict) -> list:
    """Write the models of `stages` ({Mode: model}, one system), the
    quantizers and the bundle JSON into `out_dir`; return the names written.
    A stage's checkpoint and sidecar (its training record) are its own, so
    the stages of one bundle can be written apart, in any order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (kind,) = {mode.system for mode in stages}
    for mode, model in stages.items():
        model.save(out / mode.checkpoint)
    qz.save_quantizers(quantizers, out / QUANTIZERS)
    meta_name = bundle_files(kind)[-1]
    meta = {"kind": kind, "world_spec": asdict(world_spec)}
    checkpoint.write_atomic(out / meta_name, json.dumps(meta, indent=2) + "\n")
    return with_sidecars([mode.checkpoint for mode in stages] + [QUANTIZERS]) + [meta_name]


def save_bundle(bundle: SystemBundle, out_dir) -> None:
    stages = dict(zip(_system_modes(bundle.kind), (bundle.ar, bundle.nar)))
    save_stages(out_dir, bundle.world_spec, bundle.quantizers, stages)


def missing_bundle_files(in_dir, kind: str) -> list:
    """The checkpoints in `bundle_files(kind)` that `in_dir` lacks (`load_bundle` names a lacking sidecar)."""
    return [n for n in bundle_files(kind) if n.endswith(".ckpt") and not (Path(in_dir) / n).exists()]


def available_bundle_kinds(in_dir) -> list:
    return [kind for kind in SYSTEMS if not missing_bundle_files(in_dir, kind)]


def load_bundle(in_dir, kind: str) -> SystemBundle:
    """The `kind` system in `in_dir`. A missing checkpoint raises
    ContractError; a malformed file, or a `{kind}_bundle.json` that names
    another kind, raises CheckpointError naming it."""
    src = Path(in_dir)
    missing = missing_bundle_files(in_dir, kind)
    if missing:
        raise ContractError(f"incomplete {kind} bundle in {src}: missing {missing}")
    ar_name, _, nar_name, _, quant_name, _, meta_name = bundle_files(kind)
    with checkpoint.sidecar(src / meta_name) as meta:
        if meta["kind"] != kind:
            raise ValueError(f"says kind {meta['kind']!r}, not {kind!r}")
        world_spec = tw.WorldSpec(**meta["world_spec"])
    return SystemBundle(world_spec=world_spec, quantizers=qz.load_quantizers(src / quant_name),
                        ar=md.load_model(src / ar_name), nar=md.load_model(src / nar_name), kind=kind)
