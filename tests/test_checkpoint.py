import numpy as np
import pytest

from phonolm.checkpoint import MAGIC, CheckpointError, load_tensors, save_tensors, write_atomic


def test_round_trip_preserves_values_and_order(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "emb/phoneme": rng.normal(size=(5, 3)),
        "blocks/0/attn/wq": rng.normal(size=(3, 3)),
        "scalar": np.asarray(2.5),
        "vec": rng.normal(size=7),
    }
    path = tmp_path / "model.ckpt"
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert list(loaded) == list(tensors)
    for name in tensors:
        np.testing.assert_array_equal(loaded[name], np.asarray(tensors[name], dtype=np.float64))


def test_same_content_same_bytes(tmp_path):
    t = {"a": np.arange(6, dtype=np.float64).reshape(2, 3)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_tensors(p1, t)
    save_tensors(p2, t)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "x.ckpt"
    save_tensors(path, {"w": np.zeros((2, 2))})
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert int.from_bytes(blob[4:8], "little") == 1  # version
    assert int.from_bytes(blob[8:12], "little") == 1  # name length
    assert blob[12:13] == b"w"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_tensors(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.ckpt"
    save_tensors(path, {"w": np.zeros(8)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        load_tensors(path)


def test_every_truncation_rejected(tmp_path):
    path = tmp_path / "t.ckpt"
    save_tensors(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2)})
    blob = path.read_bytes()
    # cutting at a record boundary leaves a valid, shorter file
    boundaries = {8, 8 + 4 + 1 + 8 + 16 + 48, len(blob)}
    for cut in range(len(blob) + 1):
        path.write_bytes(blob[:cut])
        if cut in boundaries:
            load_tensors(path)
        else:
            with pytest.raises(CheckpointError):
                load_tensors(path)


def test_non_utf8_name_rejected(tmp_path):
    path = tmp_path / "n.ckpt"
    save_tensors(path, {"w": np.zeros(2)})
    blob = bytearray(path.read_bytes())
    blob[12] = 0xFF  # the one-byte name "w"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_tensors(path)


def test_repeated_name_rejected(tmp_path):
    # two records named "a": the last one used to win silently
    path = tmp_path / "r.ckpt"
    save_tensors(path, {"a": np.array([1.0]), "b": np.array([2.0])})
    blob = path.read_bytes()
    assert blob.count(b"b") == 1  # the name; neither payload holds the byte
    path.write_bytes(blob.replace(b"b", b"a"))
    with pytest.raises(CheckpointError, match="tensor 'a' appears twice"):
        load_tensors(path)


@pytest.mark.parametrize("dims", [[2**40], [2**63, 2**63], [0, 2**63]])
def test_absurd_shapes_rejected(tmp_path, dims):
    path = tmp_path / "r.ckpt"
    blob = MAGIC + (1).to_bytes(4, "little") + (1).to_bytes(4, "little") + b"w"
    blob += len(dims).to_bytes(8, "little") + b"".join(d.to_bytes(8, "little") for d in dims)
    path.write_bytes(blob + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_tensors(path)


def test_absurd_rank_rejected(tmp_path):
    path = tmp_path / "r.ckpt"
    save_tensors(path, {"w": np.zeros(2)})
    blob = bytearray(path.read_bytes())
    blob[13:21] = (2**62).to_bytes(8, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_tensors(path)


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "c.ckpt"
    save_tensors(path, {"w": np.arange(4.0)})
    before = path.read_bytes()
    ragged = [[1.0], [1.0, 2.0]]  # np.asarray raises once "w" is written
    with pytest.raises(ValueError):
        save_tensors(path, {"w": np.zeros(1000), "bad": ragged})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt"]

    # a JSON/CSV sidecar whose producer fails after its first chunk
    sidecar = tmp_path / "c.json"
    write_atomic(sidecar, '{"steps": 1}\n')

    def chunks():
        yield b'{"steps": '
        raise OSError("disk full")

    with pytest.raises(OSError):
        write_atomic(sidecar, chunks())
    assert sidecar.read_text() == '{"steps": 1}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt", "c.json"]


def test_save_replaces_existing_file(tmp_path):
    path = tmp_path / "c.ckpt"
    save_tensors(path, {"w": np.zeros(3)})
    save_tensors(path, {"v": np.ones(2)})
    assert list(load_tensors(path)) == ["v"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt"]
