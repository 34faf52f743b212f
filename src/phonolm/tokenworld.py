"""A fully-known synthetic generative process standing in for real speech.

The world draws utterances as phoneme sequences with per-phoneme durations.
Each duration slot emits 2 "phonetic" frames (content prototype + prosody
noise) and 3 "acoustic" frames (content prototype + speaker vector +
condition noise), so the acoustic stream always runs at exactly 3/2 the
phonetic rate. Content prototypes and speaker vectors are fixed unit-norm
vectors derived deterministically from the world seed, which is what makes
oracle transcription and oracle speaker identification exact enough to
replace an external ASR / listening test.

Phonetic frames deliberately exclude the speaker vector: they are the
speaker-light, content-rich stream, while acoustic frames entangle content,
speaker and recording-condition noise.

Speaker vectors live in a low-dimensional subspace shared by all speakers
(default 3 of the 16 feature dimensions, with a minimum pairwise separation).
That is what makes zero-shot voice copying structurally possible: a codec
fit on training speakers can still represent a held-out speaker because its
voice direction is a combination of directions the codec has seen, the same
way real universal codecs rely on voices sharing low-dimensional structure.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, asdict
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import checkpoint
from . import numerics as nm
from . import quantizer as qz
from .numerics import ContractError, ShapeError

CLEAN = "clean"
OTHER = "other"
SPLITS = ("train", "test_clean", "test_other")
CORPUS_FILES = {"world": "world.json", **{name: f"{name}.jsonl" for name in SPLITS}}  # a corpus dir's files


class CorpusError(ContractError):
    """A corpus directory is missing a file, or a file in it is malformed."""


_PROTO_STREAM = 0x70726F74  # rng stream tags
_SPEAKER_STREAM = 0x73706B72


@dataclass(frozen=True)
class WorldSpec:
    """Parameters of the generative process. Frozen so worlds are hashable."""

    phoneme_vocab_size: int = 32
    num_speakers: int = 8
    feature_dim: int = 16
    phonetic_rate_per_slot: int = 2
    acoustic_rate_per_slot: int = 3
    duration_min: int = 1
    duration_max: int = 3
    utterance_len_min: int = 4
    utterance_len_max: int = 7
    prosody_noise_sigma: float = 0.05
    speaker_embedding_scale: float = 0.6
    speaker_subspace_dim: int = 3
    condition_noise_sigma_clean: float = 0.02
    condition_noise_sigma_other: float = 0.12
    seed: int = 0

    def __post_init__(self):
        sizes = dict.fromkeys(("num_speakers", "feature_dim", "phonetic_rate_per_slot", "acoustic_rate_per_slot",
                               "duration_min", "duration_max", "utterance_len_min", "utterance_len_max",
                               "speaker_subspace_dim"), 1)
        # at least 2 phonemes, to avoid adjacent repeats
        nm.check_counts(self, sizes | {"phoneme_vocab_size": 2, "seed": 0})
        nm.check_reals(self, ("prosody_noise_sigma", "speaker_embedding_scale", "condition_noise_sigma_clean",
                              "condition_noise_sigma_other"))
        if self.acoustic_rate_per_slot * 2 != self.phonetic_rate_per_slot * 3:
            raise ContractError("acoustic/phonetic rate ratio must be exactly 3/2")
        if self.condition_noise_sigma_other <= self.condition_noise_sigma_clean:
            raise ContractError("sigma_other must exceed sigma_clean")
        if self.duration_min > self.duration_max:
            raise ContractError("bad duration range")
        if self.utterance_len_min > self.utterance_len_max:
            raise ContractError("bad utterance length range")
        if self.speaker_subspace_dim > self.feature_dim:
            raise ContractError("speaker subspace must fit inside the feature space")

    def sigma_for(self, condition: str) -> float:
        if condition == CLEAN:
            return self.condition_noise_sigma_clean
        if condition == OTHER:
            return self.condition_noise_sigma_other
        raise ContractError(f"unknown condition {condition!r}")

    @property
    def mean_slots_per_phoneme(self) -> float:
        return (self.duration_min + self.duration_max) / 2.0


@dataclass
class Utterance:
    phonemes: list                 # phoneme ids, no adjacent repeats
    phonetic_frames: np.ndarray    # (2 * slots, d)
    acoustic_frames: np.ndarray    # (3 * slots, d)
    speaker_id: int
    condition: str
    alignment: np.ndarray          # per phonetic frame: index into `phonemes`


@dataclass
class Corpus:
    train: list
    test_clean: list
    test_other: list
    world_spec: WorldSpec

    def split(self, name: str) -> list:
        if name not in SPLITS:
            raise ContractError(f"unknown split {name!r}")
        return getattr(self, name)

    @property
    def train_speakers(self) -> set:
        return set(u.speaker_id for u in self.train)


@lru_cache(maxsize=8)
def _vector_bank(spec: WorldSpec):
    """(content (P, d), speaker (S, d)) unit-norm banks from the world seed.

    Content prototypes are random unit vectors in the full feature space.
    Speaker vectors are unit vectors inside a shared random subspace, kept at
    least one unit apart on the sphere (relaxing deterministically if the
    subspace is too crowded), then scaled by speaker_embedding_scale.
    """
    rng = np.random.default_rng([spec.seed, _PROTO_STREAM])
    m = rng.normal(size=(spec.phoneme_vocab_size, spec.feature_dim))
    content = m / np.linalg.norm(m, axis=1, keepdims=True)

    srng = np.random.default_rng([spec.seed, _SPEAKER_STREAM])
    basis = np.linalg.qr(srng.normal(size=(spec.feature_dim, spec.speaker_subspace_dim)))[0].T
    chosen = []
    min_sep = 1.0
    tries = 0
    while len(chosen) < spec.num_speakers:
        v = srng.normal(size=spec.speaker_subspace_dim)
        v /= np.linalg.norm(v)
        if all(np.linalg.norm(v - c) >= min_sep for c in chosen):
            chosen.append(v)
            tries = 0
        else:
            tries += 1
            if tries > 200:  # crowded sphere: relax separation, stay deterministic
                min_sep *= 0.95
                tries = 0
    speaker = np.array(chosen) @ basis * spec.speaker_embedding_scale
    return content, speaker


def content_prototypes(spec: WorldSpec) -> np.ndarray:
    return _vector_bank(spec)[0]


def speaker_vectors(spec: WorldSpec) -> np.ndarray:
    return _vector_bank(spec)[1]


def sample_phonemes(spec: WorldSpec, rng: np.random.Generator) -> list:
    """Draw a phoneme sequence with no two adjacent ids equal."""
    n = int(rng.integers(spec.utterance_len_min, spec.utterance_len_max + 1))
    p = spec.phoneme_vocab_size
    seq = [int(rng.integers(p))]
    for _ in range(n - 1):
        nxt = int(rng.integers(p - 1))
        if nxt >= seq[-1]:
            nxt += 1
        seq.append(nxt)
    return seq


def sample_utterance(
    spec: WorldSpec,
    speaker: int,
    condition: str,
    rng: np.random.Generator,
    phonemes: list | None = None,
) -> Utterance:
    """Generate one utterance; `phonemes` may be forced for fixtures."""
    if not 0 <= speaker < spec.num_speakers:
        raise ContractError(f"speaker {speaker} out of range")
    sigma = spec.sigma_for(condition)
    if phonemes is None:
        phonemes = sample_phonemes(spec, rng)
    if len(phonemes) == 0:
        raise ContractError("empty phoneme sequence")
    content, spk = _vector_bank(spec)
    d = spec.feature_dim
    durations = rng.integers(spec.duration_min, spec.duration_max + 1, size=len(phonemes))
    slots = int(durations.sum())
    n_ph = slots * spec.phonetic_rate_per_slot
    n_ac = slots * spec.acoustic_rate_per_slot
    align = np.repeat(np.arange(len(phonemes)), durations * spec.phonetic_rate_per_slot)
    base_ph = content[np.asarray(phonemes)[align]]
    align_ac = np.repeat(np.arange(len(phonemes)), durations * spec.acoustic_rate_per_slot)
    base_ac = content[np.asarray(phonemes)[align_ac]] + spk[speaker]
    phonetic = base_ph + rng.normal(0.0, 1.0, size=(n_ph, d)) * spec.prosody_noise_sigma
    acoustic = base_ac + rng.normal(0.0, 1.0, size=(n_ac, d)) * sigma
    return Utterance(
        phonemes=list(phonemes),
        phonetic_frames=phonetic,
        acoustic_frames=acoustic,
        speaker_id=int(speaker),
        condition=condition,
        alignment=align.astype(np.int64),
    )


def held_out_speakers(spec: WorldSpec) -> list:
    """Last ceil(S/4) speaker ids, reserved for the test splits."""
    n_test = -(-spec.num_speakers // 4)
    return list(range(spec.num_speakers - n_test, spec.num_speakers))


def build_corpus(
    spec: WorldSpec, n_train: int, n_test: int, rng: np.random.Generator
) -> Corpus:
    """Sample train/test_clean/test_other with disjoint speaker pools.

    Test utterances round-robin their speakers so every held-out speaker has
    enough material to serve as someone else's prompt.
    """
    if n_train <= 0:
        raise ContractError("n_train must be positive")
    if spec.num_speakers < 4:
        raise ContractError("need at least 4 speakers to hold a test pool out")
    test_spk = held_out_speakers(spec)
    train_spk = [s for s in range(spec.num_speakers) if s not in test_spk]

    def gen(n: int, speakers_of, condition: str) -> list:
        seeds = rng.integers(0, 2**63 - 1, size=n)
        out = []
        for i in range(n):
            child = np.random.default_rng(int(seeds[i]))
            out.append(sample_utterance(spec, speakers_of(i, child), condition, child))
        return out

    train = gen(n_train, lambda i, r: train_spk[int(r.integers(len(train_spk)))], CLEAN)
    test_clean = gen(n_test, lambda i, r: test_spk[i % len(test_spk)], CLEAN)
    test_other = gen(n_test, lambda i, r: test_spk[i % len(test_spk)], OTHER)
    corpus = Corpus(train=train, test_clean=test_clean, test_other=test_other, world_spec=spec)
    overlap = corpus.train_speakers & set(test_spk)
    assert not overlap, f"speaker leak between train and test: {overlap}"
    return corpus


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _pair_bank(spec: WorldSpec) -> np.ndarray:
    content, spk = _vector_bank(spec)
    # (P * S, d); pair index p * S + s
    return (content[:, None, :] + spk[None, :, :]).reshape(-1, spec.feature_dim)


def oracle_labels(frames: np.ndarray, spec: WorldSpec) -> tuple:
    """(content, speaker) labels of the nearest pair per frame.

    The search is the quantizer's `_nearest` over the pair bank, whose ids are
    exactly the first minimum of explicit squared differences."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != spec.feature_dim:
        raise ShapeError(f"frames must be (n, {spec.feature_dim}), got {frames.shape}")
    idx, _ = qz._nearest(frames, _pair_bank(spec))
    return idx // spec.num_speakers, idx % spec.num_speakers


def collapse_runs(labels) -> list:
    out = []
    for x in labels:
        if not out or out[-1] != x:
            out.append(int(x))
    return out


# ---------------------------------------------------------------------------
# serialization: JSON-lines per split + world.json sidecar
# ---------------------------------------------------------------------------


def _encode_matrix(m: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(m, dtype="<f8").tobytes()).decode("ascii")


def _decode_matrix(s: str, rows: int, cols: int) -> np.ndarray:
    raw = base64.b64decode(s, validate=True)  # ValueError on any non-base64 character
    if rows < 0 or cols < 0 or len(raw) != rows * cols * 8:
        raise CorpusError(f"frame payload of {len(raw)} bytes does not hold a ({rows}, {cols}) float64 matrix")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(rows, cols)


def _utterance_to_json(u: Utterance) -> dict:
    return {
        "phonemes": u.phonemes,
        "speaker": u.speaker_id,
        "condition": u.condition,
        "alignment": u.alignment.tolist(),
        "phonetic_shape": list(u.phonetic_frames.shape),
        "phonetic": _encode_matrix(u.phonetic_frames),
        "acoustic_shape": list(u.acoustic_frames.shape),
        "acoustic": _encode_matrix(u.acoustic_frames),
    }


def _utterance_from_json(d: dict) -> Utterance:
    pr, pc = d["phonetic_shape"]
    ar, ac = d["acoustic_shape"]
    return Utterance(
        phonemes=list(d["phonemes"]),
        phonetic_frames=_decode_matrix(d["phonetic"], pr, pc),
        acoustic_frames=_decode_matrix(d["acoustic"], ar, ac),
        speaker_id=int(d["speaker"]),
        condition=d["condition"],
        alignment=np.asarray(d["alignment"], dtype=np.int64),
    )


def _check_in_world(u: Utterance, spec: WorldSpec) -> Utterance:
    """`u`, if `spec`'s world could have drawn it; CorpusError otherwise."""
    bad_ids = [p for p in u.phonemes if isinstance(p, bool) or not isinstance(p, int)
               or not 0 <= p < spec.phoneme_vocab_size]
    if bad_ids:
        raise CorpusError(f"phoneme id {bad_ids[0]!r} outside [0, {spec.phoneme_vocab_size})")
    for name, frames in (("phonetic", u.phonetic_frames), ("acoustic", u.acoustic_frames)):
        if frames.shape[1] != spec.feature_dim:
            raise CorpusError(f"{name} frames {frames.shape[1]} wide in a {spec.feature_dim}-dim world")
    n_ph, n_ac = u.phonetic_frames.shape[0], u.acoustic_frames.shape[0]
    slots, rest = divmod(n_ph, spec.phonetic_rate_per_slot)
    if rest or n_ac != slots * spec.acoustic_rate_per_slot:
        raise CorpusError(f"{n_ac} acoustic frames for {n_ph} phonetic frames, not "
                          f"{spec.acoustic_rate_per_slot} per {spec.phonetic_rate_per_slot} in whole slots")
    if not 0 <= u.speaker_id < spec.num_speakers:
        raise CorpusError(f"speaker {u.speaker_id} outside [0, {spec.num_speakers})")
    if u.condition not in (CLEAN, OTHER):
        raise CorpusError(f"condition {u.condition!r} is neither {CLEAN!r} nor {OTHER!r}")
    a = u.alignment
    if a.shape != (n_ph,) or not ((a >= 0) & (a < len(u.phonemes))).all():
        raise CorpusError(f"alignment {a.shape} does not give one index into the {len(u.phonemes)} "
                          f"phonemes per phonetic frame ({n_ph})")
    return u


def save_corpus(corpus: Corpus, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    checkpoint.write_atomic(out / CORPUS_FILES["world"], json.dumps(asdict(corpus.world_spec), indent=2) + "\n")
    for name in SPLITS:
        lines = ((json.dumps(_utterance_to_json(u)) + "\n").encode("utf-8") for u in corpus.split(name))
        checkpoint.write_atomic(out / CORPUS_FILES[name], lines)


def load_corpus(in_dir) -> Corpus:
    """Read a corpus written by `save_corpus`.

    Raises CorpusError, naming the file (and line), for a missing file, a
    line that is not JSON or lacks a key, a frame payload that is not base64
    or does not match its declared shape, and a world.json that WorldSpec
    rejects; and for an utterance that contradicts world.json: a phoneme id
    outside the vocabulary, frames not `feature_dim` wide, phonetic rows
    that are not whole slots or acoustic rows that are not 3/2 of them, a
    speaker outside the world's, a condition other than clean or other, or
    an alignment that does not give one in-range phoneme index per phonetic
    frame.
    """
    src = Path(in_dir)
    path = src / CORPUS_FILES["world"]
    try:
        spec = WorldSpec(**json.loads(path.read_text()))
    except (OSError, TypeError, ValueError) as exc:
        raise CorpusError(f"{path}: {exc}") from exc
    splits = {}
    for name in SPLITS:
        path = src / CORPUS_FILES[name]
        utts = []
        try:
            with open(path) as f:
                for lineno, line in enumerate(f, 1):
                    try:
                        utts.append(_check_in_world(_utterance_from_json(json.loads(line)), spec))
                    except (KeyError, TypeError, ValueError) as exc:
                        raise CorpusError(f"{path}:{lineno}: {exc!r}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusError(f"{path}: {exc}") from exc
        splits[name] = utts
    return Corpus(world_spec=spec, **splits)
