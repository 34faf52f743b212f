import numpy as np
import pytest

from phonolm import model as md
from phonolm import numerics as nm
from phonolm import pipeline as pl
from phonolm import tokenworld as tw


@pytest.fixture(scope="session")
def linear_head():
    """`head(y, coeff)`: the scalar sum of coeff * y as a (1, 1) tensor, from
    ops src keeps. `coeff` is a number or an array of y's shape, and y's
    gradient is exactly `coeff` at that shape: 1.0 gives a plain sum's, 1/n
    a mean's. A random `coeff` makes the gradient a gradcheck pushes back
    non-uniform, so a VJP that permutes or transposes its entries shows."""

    def head(y, coeff):
        return nm.matmul(nm.reshape(y, (1, -1)), nm.Tensor(np.broadcast_to(coeff, y.shape).reshape(-1, 1)))

    return head


@pytest.fixture(scope="session")
def tiny_world_spec():
    return tw.WorldSpec(
        phoneme_vocab_size=12,
        num_speakers=4,
        feature_dim=8,
        utterance_len_min=4,
        utterance_len_max=6,
        seed=1234,
    )


@pytest.fixture(scope="session")
def tiny_corpus(tiny_world_spec):
    return tw.build_corpus(tiny_world_spec, n_train=24, n_test=6, rng=np.random.default_rng(77))


@pytest.fixture(scope="session")
def tiny_quantizers(tiny_corpus):
    return pl.fit_corpus_quantizers(tiny_corpus, k_phonetic=16, k_codec=8, n_layers=4, seed=5)


@pytest.fixture(scope="session")
def tiny_model_config(tiny_corpus, tiny_quantizers):
    cfg = pl.default_model_config(tiny_corpus.world_spec, tiny_quantizers)
    return md.ModelConfig(
        n_layers=2,
        n_heads=2,
        d_model=32,
        d_ff=64,
        dropout=0.1,
        phoneme_vocab=cfg.phoneme_vocab,
        phonetic_vocab=cfg.phonetic_vocab,
        codec_vocab=cfg.codec_vocab,
        n_codec_layers=cfg.n_codec_layers,
        max_sequence_len=160,
    )
