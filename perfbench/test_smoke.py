"""Tests of the pipeline benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

The smoke run drives every workload, untraced and traced, on tiny inputs
with the same checks as a full run, so it takes seconds.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402


def _declared(kind):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("seed", [0, 7])
def test_smoke_run_is_correct_and_reports_every_metric(seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    results = ROOT / ".perfbench" / "results"
    for workload in ("train", "predict", "grid"):
        untraced = json.loads((results / f"smoke-{workload}-seed{seed}-trace0.json").read_text())
        traced = json.loads((results / f"smoke-{workload}-seed{seed}-trace1.json").read_text())
        assert set(untraced["metrics"]) == _declared("end_to_end")
        assert all(m["value"] > 0 for m in untraced["metrics"].values())
        assert set(traced["layers"]) == _declared("per_layer")
        assert untraced["error_rate"] == 0 and traced["error_rate"] == 0
        assert untraced["stamp"]["backend"] in ("pure", "compiled")


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _hashtag_outputs(tmp_path):
    """One hashtag file plus consistent _PREDICT_B/_PREDICT_A files."""
    chain = gen.Chain.from_seed(3)
    tags = tmp_path / "tags"
    gen.write_hashtags(chain, random.Random(3), tags, 1, (12, 12))
    ids = checks.read_ids(tags)
    (name, order), = ids.items()
    out = tmp_path / "out"
    out.mkdir()
    (out / f"{name}_PREDICT_B.tsv").write_text("".join(i + "\n" for i in order))
    pairs = [f"{a}\t{b}\t1\n" for i, a in enumerate(order) for b in order[i + 1:]]
    (out / f"{name}_PREDICT_A.tsv").write_text("".join(pairs))
    return out, ids, name


def test_checks_accept_consistent_predictions(tmp_path):
    out, ids, _ = _hashtag_outputs(tmp_path)
    assert checks.check_rankings(out, ids, {}) == []
    assert checks.check_pairs(out, ids, {}) == []


def test_checks_catch_wrong_predictions(tmp_path):
    out, ids, name = _hashtag_outputs(tmp_path)
    path_a = out / f"{name}_PREDICT_A.tsv"
    rows = path_a.read_text().splitlines(keepends=True)
    rows[0], rows[1] = rows[1], rows[0]
    path_a.write_text("".join(rows))
    assert checks.check_pairs(out, ids, {})
    path_b = out / f"{name}_PREDICT_B.tsv"
    path_b.write_text(path_b.read_text().replace(ids[name][0], "999"))
    assert checks.check_rankings(out, ids, {})


def test_report_duality_is_checked(tmp_path):
    report = tmp_path / "report.tsv"
    report.write_text("hashtag\taccuracy\tdistance\nA\t0.25\t0.75\nmacro-average\t0.25\t0.7\n")
    assert checks.check_report(report, ["A"], {})


def test_inputs_depend_only_on_the_seed(tmp_path):
    def make(root, seed):
        chain = gen.Chain.from_seed(seed)
        gen.write_corpus(chain, random.Random(seed), root, 3000)
        return [p.read_bytes() for p in sorted(root.glob("*.tsv"))]

    assert make(tmp_path / "a", 5) == make(tmp_path / "b", 5)
    assert make(tmp_path / "c", 5) != make(tmp_path / "d", 6)
