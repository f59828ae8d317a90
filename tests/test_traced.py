"""The benchmark's tracer still finds what it wraps.

perfbench/traced.py rebinds the package's public functions, kernels and
metric registries by name, so renaming one of them breaks the benchmark.
Each command runs once under it on small inputs; each run must exit 0 and
write a trace holding the spans and counters of the layers it went through.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_tsv

ROOT = Path(__file__).resolve().parents[1]

# Spans and counters each command must record.
EXPECTED = {
    "train": (
        {"cli.train", "counts.count_corpus", "smoothing.estimate_model", "model.write_arpa"},
        {"kernels.accumulate_counts.calls", "kernels.tally_suffixes.calls",
         "kernels.context_stats.calls", "kernels.interpolate_grams.calls",
         "kernels.backoff_weights.calls", "kernels.log10_values.calls"},
    ),
    "rank": (
        {"cli.rank", "model.read_arpa", "ranker.load_hashtag_file", "ranker.score_hashtag",
         "ranker.rank"},
        {"kernels.score_sequence_ids.calls", "model.score_sequence.calls"},
    ),
    "compare": ({"cli.compare", "model.read_arpa", "ranker.score_hashtag", "ranker.rank"}, set()),
    "evaluate": (
        {"cli.evaluate", "metrics.load_gold", "metrics.accuracy_a", "metrics.distance_b"},
        {"metrics.pairs_checked"},
    ),
    "grid": (
        {"cli.grid", "cli.grid_row", "counts.count_corpus", "model.write_arpa",
         "ranker.pairwise", "metrics.accuracy_a", "metrics.distance_b"},
        {"ranker.pairs", "kernels.score_sequence_ids.calls"},
    ),
}


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Run the pipeline's commands in order under the tracer; return each
    command's process and trace path."""
    root = tmp_path_factory.mktemp("traced")
    corpus = root / "corpus"
    corpus.mkdir()
    write_tsv(corpus / "One.tsv", [
        ("101", "the host of singled out"),
        ("102", "the host of the show"),
        ("103", "a donut receipt"),
        ("104", "my cat sat on the mat"),
    ])
    tags = root / "tags"
    tags.mkdir()
    write_tsv(tags / "T.tsv", [
        ("a", "the host of singled out", 2),
        ("b", "a donut receipt", 1),
        ("c", "zzz qqq", 0),
    ])
    model, preds = root / "m.arpa", root / "preds"
    grid = root / "grid.json"
    grid.write_text(json.dumps({
        "corpora": {"c": str(corpus)},
        "hashtags": str(tags),
        "gold": str(tags),
        "fallback_discount": 0.5,
        "rows": [{"dataset": "c", "order": 2}],
    }), encoding="utf-8")
    args = {
        "train": [str(corpus), "-o", str(model), "--order", "3", "--fallback-discount", "0.5"],
        "rank": [str(tags), "-m", str(model), "-d", str(preds)],
        "compare": [str(tags), "-m", str(model), "-d", str(preds)],
        "evaluate": [str(tags), "-p", str(preds)],
        "grid": [str(grid), "-d", str(root / "grid_out")],
    }
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + pythonpath if pythonpath else ""))
    runs = {}
    for command, rest in args.items():
        out = root / f"{command}.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(out), "--", command, *rest],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        runs[command] = (proc, out)
    return runs


@pytest.mark.parametrize("command", list(EXPECTED))
def test_traced_command_records_its_layers(traces, command):
    proc, out = traces[command]
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text(encoding="utf-8"))
    spans, counters = EXPECTED[command]
    assert spans <= {span[1] for span in trace["spans"]}
    assert counters <= set(trace["counters"])
