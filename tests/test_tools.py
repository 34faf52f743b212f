import importlib.util
import json
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


# ---------------------------------------------------------------------------
# tools/ab.py against stub checkouts
# ---------------------------------------------------------------------------

_AB_PATH = _PATH.parent / "ab.py"

# a stand-in for perfbench/run.py: logs the call beside the trees and prints
# the fixed result its tree's values.json holds for the seed
_STUB_RUN = """
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
tree = Path(__file__).resolve().parents[1]
with open(tree.parent / "calls.txt", "a") as log:
    log.write(f"{tree.name} {args['--seed']} {args['--workload']} {args['--seconds']} {args['--trace']}\\n")
print("workload log line")
print(json.dumps(json.loads((tree / "values.json").read_text())[args["--seed"]]))
"""

_STUB_DIGESTS = """
import os, sys
two = os.environ["OPENBLAS_NUM_THREADS"] == "2"
print("bundle/ar.ckpt" if two else "", end="")
print(f"{int(two)} of 29 files differ", file=sys.stderr)
sys.exit(int(two))
"""


@pytest.fixture
def ab():
    spec = importlib.util.spec_from_file_location("ab", _AB_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(tmp_path, name, stage_s, failed=(), incorrect=(), run_seconds=5):
    """A checkout whose run for seed 10 + i reports stage_s[i], 60 MB and 5
    operations, of which 1 failed for the seeds in `failed`; the runs for
    the seeds in `incorrect` report a failed check."""
    tree = tmp_path / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "BENCHMARK.json").write_text(json.dumps({"run_seconds": run_seconds}))
    (tree / "tools").mkdir()
    (tree / "perfbench" / "run.py").write_text(_STUB_RUN)
    (tree / "tools" / "output_digests.py").write_text(_STUB_DIGESTS)
    values = {
        str(10 + i): {
            "correct": 10 + i not in incorrect,
            "attempted": 5,
            "failed": int(10 + i in failed),
            "metrics": {"stage_s": {"value": s, "unit": "s"}, "peak_rss_mb": {"value": 60.0, "unit": "MB"}},
        }
        for i, s in enumerate(stage_s)
    }
    (tree / "values.json").write_text(json.dumps(values))
    return tree


def test_ab_alternates_pairs_and_summarises_each_metric(ab, tmp_path):
    parent = _tree(tmp_path, "parent", [10.0, 11.0, 12.0, 13.0])
    change = _tree(tmp_path, "change", [9.5, 11.5, 11.0, 12.5], failed=(12,))
    out = tmp_path / "BENCH_x.json"
    assert ab.main([str(parent), str(change), "--workload", "train", "--pairs", "4", "--seed0", "10",
                    "--out", str(out)]) == 0
    calls = (tmp_path / "calls.txt").read_text().splitlines()
    assert [c.split()[:2] for c in calls] == [
        ["parent", "10"], ["change", "10"], ["change", "11"], ["parent", "11"],
        ["parent", "12"], ["change", "12"], ["change", "13"], ["parent", "13"],
    ]
    assert {tuple(c.split()[2:]) for c in calls} == {("train", "5", "0")}
    bench = json.loads(out.read_text())
    assert (bench["parent_tree"], bench["change_tree"]) == ("parent", "change")
    entry = bench["workloads"]["train"]
    assert entry["seeds"] == [10, 11, 12, 13]
    assert entry["command"] == "python3 perfbench/run.py --workload train --seed <seed> --seconds 5 --trace 0"
    assert entry["every_run_correct"] is True
    assert entry["attempted_operations"] == {"parent": 20, "change": 20}
    assert entry["failed_operations"] == {"parent": 0, "change": 1}
    stage = entry["metrics"]["stage_s"]
    assert stage["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25, "runs": [10.0, 11.0, 12.0, 13.0]}
    assert stage["change"] == {"median": 11.25, "q1": 10.625, "q3": 11.75, "runs": [9.5, 11.5, 11.0, 12.5]}
    assert (stage["change_lower_in_pairs"], stage["pairs"]) == (3, 4)
    assert stage["median_change_pct"] == -2.17
    assert stage["parent_quartile_spread"] == 1.5
    rss = entry["metrics"]["peak_rss_mb"]
    assert (rss["change_lower_in_pairs"], rss["median_change_pct"], rss["parent_quartile_spread"]) == (0, 0.0, 0.0)
    assert "same_bytes" not in bench


def test_ab_adds_a_workload_to_an_existing_file_and_records_digests(ab, tmp_path):
    parent = _tree(tmp_path, "parent", [2.0, 2.0])
    change = _tree(tmp_path, "change", [1.0, 3.0], incorrect=(11,))
    out = tmp_path / "BENCH_x.json"
    out.write_text(json.dumps({"claim": {"workload": "train"}, "workloads": {"train": {"kept": True}}}))
    assert ab.main([str(parent), str(change), "--workload", "synth", "--pairs", "2", "--seed0", "10",
                    "--digests", "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["claim"] == {"workload": "train"}
    assert bench["workloads"]["train"] == {"kept": True}
    synth = bench["workloads"]["synth"]
    assert synth["every_run_correct"] is False
    assert synth["metrics"]["stage_s"]["change_lower_in_pairs"] == 1
    assert bench["same_bytes"] == {
        "OPENBLAS_NUM_THREADS=1": {"exit": 0, "summary": "0 of 29 files differ", "differ": []},
        "OPENBLAS_NUM_THREADS=2": {"exit": 1, "summary": "1 of 29 files differ", "differ": ["bundle/ar.ckpt"]},
    }


def test_ab_refuses_trees_whose_run_lengths_differ(ab, tmp_path, capsys):
    parent = _tree(tmp_path, "parent", [1.0])
    change = _tree(tmp_path, "change", [1.0], run_seconds=15)
    with pytest.raises(SystemExit):
        ab.main([str(parent), str(change), "--workload", "train", "--pairs", "1", "--seed0", "10",
                 "--out", str(tmp_path / "BENCH_x.json")])
    assert "different run_seconds: [5, 15]" in capsys.readouterr().err
    assert not (tmp_path / "calls.txt").exists()


def test_ab_stops_on_a_run_without_a_result(ab, tmp_path):
    parent = _tree(tmp_path, "parent", [1.0])
    change = _tree(tmp_path, "change", [1.0])
    (change / "perfbench" / "run.py").write_text("import sys; sys.exit('crashed')")
    with pytest.raises(SystemExit, match="printed no result"):
        ab.main([str(parent), str(change), "--workload", "quantize", "--pairs", "1", "--seed0", "10",
                 "--out", str(tmp_path / "BENCH_x.json")])
    assert not (tmp_path / "BENCH_x.json").exists()


def test_ab_writes_a_repeat_batch_beside_the_first_and_refuses_a_third(ab, tmp_path, capsys):
    parent = _tree(tmp_path, "parent", [2.0, 3.0])
    change = _tree(tmp_path, "change", [1.0, 4.0])
    out = tmp_path / "BENCH_x.json"
    argv = [str(parent), str(change), "--workload", "train", "--pairs", "1", "--out", str(out)]
    assert ab.main(argv + ["--seed0", "10"]) == 0
    first = json.loads(out.read_text())["workloads"]["train"]
    assert ab.main(argv + ["--seed0", "11"]) == 0
    bench = json.loads(out.read_text())
    assert bench["workloads"]["train"] == first
    assert bench["repeats"]["train"]["seeds"] == [11]
    assert bench["repeats"]["train"]["metrics"]["stage_s"]["change"]["runs"] == [4.0]
    calls = (tmp_path / "calls.txt").read_text()
    before = out.read_text()
    with pytest.raises(SystemExit) as exited:
        ab.main(argv + ["--seed0", "10"])
    assert exited.value.code == 2
    assert "already holds workloads.train and repeats.train" in capsys.readouterr().err
    other = _tree(tmp_path, "other", [2.0])
    with pytest.raises(SystemExit) as exited:
        ab.main([str(other), str(change), "--workload", "synth", "--pairs", "1", "--seed0", "10", "--out", str(out)])
    assert exited.value.code == 2
    assert "records parent_tree parent, not other" in capsys.readouterr().err
    assert out.read_text() == before
    assert (tmp_path / "calls.txt").read_text() == calls
