"""Shared test helpers: deterministic random corpora, tiny TSV builders,
stored-entry lookup, model sidecar parts; the workspace of the tests that
run commands (`Workspace`, built once a session by the `workspace`
fixture, with `write_grid_config` and the in-process runner `run_main`);
and the harness of tests that start processes: `run_python` for a child
interpreter, the `workers` fixture for forks this process makes."""

import json
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

# numpy's OpenBLAS starts a thread per CPU when numpy is imported. Grid tests
# fork worker processes from this process, as the CLI forks them from its
# own after importing numpy under the same default; a fork from a process
# with other threads is what CPython 3.12+ warns about, and what those
# tests check for.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

WORDS = [
    "a", "b", "c", "d", "e", "f", "g", "the", "cat", "sat", "on", "mat",
    "dog", "ran", "to", "park", "ha", "lol",
]


def make_random_corpus(rng: random.Random, min_tokens=3, max_tokens=100):
    """Lines of space-separated words totalling between min and max tokens."""
    vocab_size = rng.randint(2, len(WORDS))
    vocab = WORDS[:vocab_size]
    target = rng.randint(min_tokens, max_tokens)
    lines = []
    total = 0
    while total < target:
        n = min(rng.randint(1, 12), target - total)
        lines.append(" ".join(rng.choice(vocab) for _ in range(n)))
        total += n
    return lines


def make_queries(rng: random.Random, reference, n_random=30):
    """Query mix: every stored gram split into (context, word), plus random
    contexts/events including out-of-vocabulary tokens."""
    queries = []
    for k in range(1, reference.order + 1):
        for g in reference.counts[k]:
            if g[-1] == "<s>":
                continue
            queries.append((list(g[:-1]), g[-1]))
    pool = reference.event_vocab + ["zzz-oov", "qqq-oov"]
    ctx_pool = [w for w in pool if w != "</s>"]
    for _ in range(n_random):
        clen = rng.randint(0, reference.order - 1) if reference.order > 1 else 0
        ctx = [rng.choice(ctx_pool) for _ in range(clen)]
        queries.append((ctx, rng.choice(pool)))
    return queries


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for row in rows:
            f.write("\t".join(str(x) for x in row) + "\n")


def random_sentence(rng: random.Random, vocab, max_len=8):
    return [rng.choice(vocab) for _ in range(rng.randint(0, max_len))]


def stored_entry(model, gram):
    """(log10 prob, back-off or None) stored for a token gram, or None."""
    return next(((p, bo) for g, p, bo in model.stored_ngrams(len(gram)) if g == tuple(gram)), None)


def sidecar_arrays(m):
    """The sidecar body of a read model, decoded: its header as a list of
    lines (the metadata line, one `ngram k=N` line per order, then the
    tokens), and per order a dict of its keys, probs, back-offs (below the
    top order) and file rows as numpy arrays."""
    from humorlm.model import _cache_header

    arrays = iter(m._tables.arrays())
    orders = []
    for k in range(1, m.order + 1):
        names = ["keys", "probs"] + (["backoffs"] if k < m.order else []) + ["rows"]
        orders.append({n: next(arrays).copy() for n in names})
    return _cache_header(m).decode().split("\n"), orders


def sidecar_parts(header, orders):
    """The header and arrays sidecar_arrays decoded, encoded again as
    _write_cache takes them. A header line or an array given as bytes is
    written as it is."""
    lines = [line if isinstance(line, bytes) else line.encode() for line in header]
    arrays = [a if isinstance(a, bytes) else a.tobytes() for o in orders for a in o.values()]
    return b"\n".join(lines), arrays


def file_tree(root):
    """{relative path: bytes} of every file under root."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# The workspace's corpus: one TSV file per hashtag, without gold tiers.
CORPUS = {
    "One_Tag": [("101", "the host of singled out"), ("102", "the host of the show"),
                ("103", "a donut receipt"), ("104", "the host of singled out again #tag")],
    "Two_Tag": [("201", "my cat sat on the mat"), ("202", "the host of singled out was here")],
}

# The tweets of each workspace hashtag file, with gold tiers: hashtag N's
# ids are N followed by these. A directory of such files is also their gold.
TWEETS = [("a", "the host of singled out", 2), ("b", "a donut receipt", 1),
          ("c", "zzz qqq www eee rrr", 0)]


def write_hashtags(directory, names):
    """A new directory of hashtag files, one of TWEETS per name."""
    directory.mkdir()
    for name in names:
        write_tsv(directory / f"{name}.tsv", [(name + i, text, tier) for i, text, tier in TWEETS])
    return directory


def write_predictions(directory, rankings):
    """Valid predictions in `directory` for the hashtag names `rankings`
    maps to ranked tweet ids: each B file lists the ids, and each A file
    holds their pairs as compare writes them."""
    directory.mkdir(exist_ok=True)
    for name, ids in rankings.items():
        (directory / f"{name}_PREDICT_B.tsv").write_text(
            "".join(i + "\n" for i in ids), encoding="utf-8")
        (directory / f"{name}_PREDICT_A.tsv").write_text(
            "".join(f"{a}\t{b}\t1\n" for a, b in combinations(ids, 2)), encoding="utf-8")
    return directory


def ranked(names):
    """write_hashtags' tweets of each hashtag name, ranked by tier."""
    return {name: [name + i for i, _, _ in TWEETS] for name in names}


def write_grid_config(path, corpora, hashtags, gold, rows, fallback=0.5, **keys):
    """Write a grid config to `path` and return `path`. `corpora` maps
    dataset names to a path or a list of paths, as `hashtags` and `gold`
    are (gold None: no gold); `keys` add keys or replace them. A Path is
    written as its str; any other value as it is."""
    config = {"corpora": corpora, "hashtags": hashtags}
    if gold is not None:
        config["gold"] = gold
    config.update({"fallback_discount": fallback, "rows": rows, **keys})
    path.write_text(json.dumps(config, default=str), encoding="utf-8")
    return path


class Workspace:
    """A small, complete set of the pipeline's inputs under `root`: a
    corpus directory, a model trained on it (order 3, fallback discount
    0.5, no sidecar), one hashtag file in `tags` and three in `tags3`, all
    with gold tiers, their predictions in `preds`, and grid configs over
    the corpus and `tags`: `grid` of one row (order 2), `grid3` of three
    (orders 1 to 3). T's A file labels one pair 0, so evaluate scores it
    through the accuracy registry; the others are pair lists of their
    rankings, which evaluate scores from the ranking."""

    def __init__(self, root):
        self.root = Path(root)
        self.corpus = self.root / "corpus"
        self.model = self.root / "m.arpa"
        self.tags, self.tags3 = self.root / "tags", self.root / "tags3"
        self.preds = self.root / "preds"
        self.grid, self.grid3 = self.root / "grid.json", self.root / "grid3.json"

    def argv(self, command, out=None, inputs=None, preds=None):
        """The argv of `command` on `inputs`, one path or a list (by
        default the corpus, `tags`, `grid` or the model), scored with the
        workspace's model and evaluated against `preds` (by default the
        workspace's). `out` is the model train writes, the -d of rank,
        compare and grid, and evaluate's -o (stdout if None). A new
        command joins every test that runs each command here."""
        if inputs is None:
            inputs = {"train": self.corpus, "grid": self.grid,
                      "import-check": self.model}.get(command, self.tags)
        tail = {
            "train": ["-o", out, "--order", "3", "--fallback-discount", "0.5"],
            "rank": ["-m", self.model, "-d", out],
            "compare": ["-m", self.model, "-d", out],
            "evaluate": ["-p", preds or self.preds, *([] if out is None else ["-o", out])],
            "grid": ["-d", out],
            "import-check": [],
        }[command]
        return [command, *map(str, [*(inputs if isinstance(inputs, list) else [inputs]), *tail])]

    @classmethod
    def build(cls, root):
        ws = cls(root)
        ws.corpus.mkdir(parents=True)
        for name, rows in CORPUS.items():
            write_tsv(ws.corpus / f"{name}.tsv", rows)
        write_hashtags(ws.tags, ["T"])
        write_hashtags(ws.tags3, ["T", "U", "V"])
        write_predictions(ws.preds, ranked(["T", "U", "V"]))
        (ws.preds / "T_PREDICT_A.tsv").write_text("Ta\tTb\t1\nTa\tTc\t1\nTc\tTb\t0\n",
                                                  encoding="utf-8")
        from humorlm.cli import main

        assert main(ws.argv("train", ws.model)) == 0
        return ws

    def copy(self, dest, relative=False):
        """A copy of this workspace at `dest`, its grid configs naming the
        copy's inputs, by paths relative to `dest` if `relative`."""
        shutil.copytree(self.root, dest)
        ws = Workspace(dest)
        named = Workspace(Path()) if relative else ws
        for path, orders in ((ws.grid, [2]), (ws.grid3, [1, 2, 3])):
            write_grid_config(path, {"c": named.corpus}, named.tags, named.tags,
                              [{"dataset": "c", "order": n} for n in orders])
        return ws


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """`workspace(dest, relative=False)`: Workspace.copy of the one
    workspace, built once a session. Each test or fixture works in its own
    copy, so what one writes or changes there no other sees."""
    return Workspace.build(tmp_path_factory.mktemp("workspace") / "built").copy


def run_main(capsys, argv):
    """cli.main(argv) in this process: (exit code, stdout, stderr). What
    was printed before it is dropped."""
    from humorlm.cli import main

    capsys.readouterr()
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def run_compare(capsys, argv, out):
    """run_main of `argv` (a compare without -d) into -d `out`, once the
    task A files there are removed: its exit code, stdout with `out`
    written as OUT, stderr, and the A files it wrote."""
    for path in out.glob("*_PREDICT_A.tsv"):
        path.unlink()
    code, stdout, stderr = run_main(capsys, [*argv, "-d", out])
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*_PREDICT_A.tsv"))}
    return code, stdout.replace(str(out), "OUT"), stderr, files


SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env(**changes):
    """This environment with the package first on PYTHONPATH, dev mode off
    and stdout fully buffered, then `changes`: a value of None removes
    the variable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    for var in ("PYTHONDEVMODE", "PYTHONUNBUFFERED"):
        env.pop(var, None)
    for var, value in changes.items():
        if value is None:
            env.pop(var, None)
        else:
            env[var] = value
    return env


def run_python(args, cpus=None, env=None, **kwargs):
    """subprocess.run of this interpreter on `args` under `env` (cli_env()
    if None), with a 120 s timeout, so that a child that hangs fails its
    test. With `cpus`, `args` is ["-c", code, ...], and the code first
    sets how many CPUs the process may use."""
    if cpus is not None:
        flag, code, *rest = args
        assert flag == "-c", args
        args = ["-c", f"import os\nos.sched_getaffinity = lambda pid: set(range({cpus}))\n{code}",
                *rest]
    return subprocess.run([sys.executable, *args], env=cli_env() if env is None else env,
                          timeout=120, **kwargs)


@pytest.fixture()
def workers(monkeypatch):
    """`workers(n)` sets how many CPUs this process may use and returns
    the pids of the forks made so far, each recorded as it is made; at
    teardown, every one of them must have been reaped."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return pids

    yield use
    assert multiprocessing.active_children() == []
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
