"""The benchmark's tracer still finds what it wraps.

perfbench/traced.py rebinds the package's public functions, kernels and
metric registries by name, so renaming one of them breaks the benchmark.
Each command runs once under it on small inputs; each run must exit 0 and
write a trace holding the spans and counters of the layers it went through.
`compare` runs twice: into a fresh directory, where it scores, and into
the one rank wrote, where it takes rank's rankings and reads no model.
`evaluate` runs twice: on the pair file compare wrote, which it scores from
its ranking, and on one holding a pair labelled 0, which it scores through
the accuracy registry.
"""

import json
import os
from pathlib import Path

import pytest

from conftest import cli_env, run_python

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
        # A read model scores each hashtag in one batch through its trie,
        # never through score_sequence or the dict kernel.
        {"textprep.tokenize.calls", "ranker.tweets"},
    ),
    # compare into a fresh -d scores; after rank into the same -d, it takes
    # rank's rankings as they are (ABSENT).
    "compare": ({"cli.compare", "model.read_arpa", "ranker.score_hashtag", "ranker.rank"}, set()),
    "compare-reused": ({"cli.compare"}, set()),
    "evaluate": ({"cli.evaluate", "metrics.load_gold", "metrics.distance_b"}, set()),
    "evaluate-labelled": (
        {"cli.evaluate", "metrics.load_gold", "metrics.accuracy_a", "metrics.distance_b"},
        {"metrics.pairs_checked"},
    ),
    # grid scores its rankings from tier counts: it builds no pair list and
    # never calls pairwise or accuracy_a.
    "grid": (
        {"cli.grid", "cli.grid_row", "counts.count_corpus", "model.write_arpa",
         "metrics.distance_b"},
        {"kernels.score_sequence_ids.calls"},
    ),
}

# Spans a command must not record.
ABSENT = {"compare-reused": {"model.read_arpa", "ranker.load_hashtag_file", "ranker.score_hashtag"}}


@pytest.fixture(scope="module")
def traces(tmp_path_factory, workspace):
    """Run the pipeline's commands in order under the tracer on a copy of
    the workspace; return each command's process and trace path."""
    root = tmp_path_factory.mktemp("traced")
    ws, preds = workspace(root / "ws"), root / "preds"
    args = {
        "train": ws.argv("train", root / "trained.arpa"),
        "rank": ws.argv("rank", preds),
        "compare": ws.argv("compare", root / "fresh"),
        "compare-reused": ws.argv("compare", preds),
        "evaluate": ws.argv("evaluate", preds=preds),
        # The workspace's predictions label a pair 0.
        "evaluate-labelled": ws.argv("evaluate"),
        "grid": ws.argv("grid", root / "grid_out"),
    }
    # The commands run in the test run's own dev mode.
    env = cli_env(PYTHONDEVMODE=os.environ.get("PYTHONDEVMODE"))
    runs = {}
    for command, argv in args.items():
        out = root / f"{command}.json"
        proc = run_python([str(ROOT / "perfbench" / "traced.py"), str(out), "--", *argv],
                          env=env, capture_output=True, text=True, cwd=ROOT)
        runs[command] = (proc, out)
    return runs


@pytest.mark.parametrize("command", list(EXPECTED))
def test_traced_command_records_its_layers(traces, command):
    proc, out = traces[command]
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text(encoding="utf-8"))
    spans, counters = EXPECTED[command]
    recorded = {span[1] for span in trace["spans"]}
    assert spans <= recorded
    assert not ABSENT.get(command, set()) & recorded
    assert counters <= set(trace["counters"])
