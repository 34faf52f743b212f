import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


@pytest.fixture
def output_digests(monkeypatch):
    spec = importlib.util.spec_from_file_location("output_digests", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def fake_recipe(src, root):  # each src dir's "run" writes the files listed in it
        for line in (src / "files.txt").read_text().splitlines():
            name, content = line.split("=")
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(content)
        (root / "manifest.json").write_text(str(src))

    monkeypatch.setattr(module, "run_recipe", fake_recipe)
    return module


def _src(tmp_path, name, files):
    src = tmp_path / name
    (src / "phonolm").mkdir(parents=True)
    (src / "phonolm" / "cli.py").write_text("")
    (src / "files.txt").write_text("\n".join(files))
    return src


def test_two_src_dirs_list_the_paths_that_differ(output_digests, tmp_path, capsys):
    a = _src(tmp_path, "a", ["world/train.jsonl=x", "bundle/ar.ckpt=1", "eval/report.json=r"])
    b = _src(tmp_path, "b", ["world/train.jsonl=x", "bundle/ar.ckpt=2", "eval/extra.txt=e"])
    assert output_digests.main([str(a), str(b), str(tmp_path / "work")]) == 1
    assert capsys.readouterr().out.split() == ["bundle/ar.ckpt", "eval/extra.txt", "eval/report.json"]
    assert output_digests.main([str(a), str(a), str(tmp_path / "work")]) == 0
    assert capsys.readouterr().out == ""


def test_one_src_dir_prints_every_digest_but_the_manifests(output_digests, tmp_path, capsys):
    a = _src(tmp_path, "a", ["world/train.jsonl=x", "bundle/ar.ckpt=1"])
    assert output_digests.main([str(a), str(tmp_path / "work")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[1] for line in lines] == ["bundle/ar.ckpt", "world/train.jsonl"]


def test_stage_manifests_are_skipped_like_manifest_json(output_digests, tmp_path, capsys):
    a = _src(tmp_path, "a", ["bundle/ar.ckpt=1", "bundle/manifest_nar.json=a"])
    b = _src(tmp_path, "b", ["bundle/ar.ckpt=1", "bundle/manifest_nar.json=b"])
    assert output_digests.main([str(a), str(b), str(tmp_path / "work")]) == 0
    assert capsys.readouterr().out == ""
    assert output_digests.main([str(a), str(tmp_path / "work")]) == 0
    assert [line.split("  ")[1] for line in capsys.readouterr().out.splitlines()] == ["bundle/ar.ckpt"]
