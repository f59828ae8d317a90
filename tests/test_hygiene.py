"""Source hygiene checks that need no linter: every name a module of the
package imports is used in that module (`__init__.py` is exempt, since its
imports are the package's public names), every module-level private name
(a `_function`, `_Class` or `_CONSTANT`) is read by some module of the
package, and every public top-level function or class is used by more than
the tests. No module reads the built-in `sum` outside an allow-list of
integer sums: from CPython 3.12 on, `sum()` of floats uses compensated
summation, so a float sum would write different bytes on different
interpreters. No `re.compile` pattern uses `\\d`: in a str pattern it
matches every Unicode digit, and the numbers the package reads are ASCII.
Commands that neither read nor estimate a model (evaluate, and compare
after rank into the same directory) never import numpy; train and grid,
which count and estimate through it, do. No command imports dataclasses,
nor inspect but through numpy, and only grid imports json. Only a command
that forks worker processes imports what it needs for them; those forks
are made while no other thread runs, and a command whose numpy starts
threads (OPENBLAS_NUM_THREADS) runs its work in-process.
Every file a command writes goes through one writer, `model.replaced`:
no other code opens a file to write or renames one, but a worker child,
which writes its result to a pipe. Only a worker child and the console
entry point end a process with os._exit, and no command leaves an atexit
handler, an open file or a child process for the interpreter's teardown,
which os._exit skips.

The checks go by name only. That is why the public-name check covers
top-level functions and classes and not methods: a method name such as
`count` is read wherever any object's attribute of that name is, as
`text.count(" ")` in `perfbench/gen.py` is."""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_tsv

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "humorlm"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import statement, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside quoted annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name the module defines at its top level, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _dead_private_names(trees: dict[str, ast.Module]) -> list[tuple[str, int, str]]:
    """(module, line, name) for each module-level private name that no
    module in `trees` reads."""
    read = set().union(*map(_used, trees.values()))
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    )


def _public_definitions(tree: ast.Module) -> dict[str, int]:
    """Each public function or class the module defines at its top level,
    with its line."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _test_only_public_names(
    package: dict[str, ast.Module], bench: dict[str, ast.Module], readme: str
) -> list[tuple[str, int, str]]:
    """(module, line, name) for each public top-level function or class in
    `package` that no package module but `__init__.py` and no module in
    `bench` reads, as a name or as an attribute, and that `readme` does not
    name. `__init__.py` only re-exports, so its reads do not count."""
    modules = {m: tree for m, tree in package.items() if m != "__init__.py"}
    read = set(re.findall(r"\w+", readme))
    for tree in [*modules.values(), *bench.values()]:
        read |= _used(tree)
        read |= {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    return sorted(
        (module, line, name)
        for module, tree in modules.items()
        for name, line in _public_definitions(tree).items()
        if name not in read
    )


# (module, top-level definition) of each built-in sum() that adds integers.
INTEGER_SUMS: set[tuple[str, str]] = set()


def _sum_reads(trees: dict[str, ast.Module]) -> list[tuple[str, int, str]]:
    """(module, line, top-level definition or "<module>") for each read of
    the name `sum`, called or passed as a value."""
    found = []
    for module, tree in trees.items():
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            found.extend(
                (module, node.lineno, where) for node in ast.walk(top)
                if isinstance(node, ast.Name) and node.id == "sum"
                and isinstance(node.ctx, ast.Load)
            )
    return sorted(found)


# A \\d not escaped by a backslash before it.
_DIGIT_CLASS = re.compile(r"(?<!\\)(?:\\\\)*\\d")


def _unicode_digit_patterns(trees: dict[str, ast.Module]) -> list[tuple[str, int]]:
    """(module, line) of each re.compile call whose pattern is a str
    constant that uses \\d."""
    return sorted(
        (module, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "compile" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "re" and node.args
        and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
        and _DIGIT_CLASS.search(node.args[0].value)
    )


# (module, top-level definition) of each os._exit the package may call: a
# worker child's ends, and the console entry point's. Tests and
# perfbench/traced.py call main() in their own process, which must live on.
HARD_EXITS = {("cli.py", "_task_child"), ("cli.py", "_exit_at_eof"), ("cli.py", "run")}


def _hard_exits(trees: dict[str, ast.Module]) -> list[tuple[str, int, str]]:
    """(module, line, top-level definition or "<module>") for each read of
    an attribute named `_exit` and each import of a name `_exit`."""
    found = []
    for module, tree in trees.items():
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            found.extend(
                (module, node.lineno, where) for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr == "_exit"
                or isinstance(node, ast.ImportFrom) and any(a.name == "_exit" for a in node.names)
            )
    return sorted(found)


# (module, top-level definition) of each call that may write or rename a
# file: the one writer, and a worker child's write of its result to a pipe.
FILE_WRITERS = {("model.py", "replaced"), ("cli.py", "_task_child")}
_WRITE_MODE = re.compile("[wax+]")


def _file_writes(trees: dict[str, ast.Module]) -> list[tuple[str, int, str]]:
    """(module, line, top-level definition or "<module>") for each call of
    os.open, os.replace, os.rename, write_text or write_bytes, and each call
    of open with a mode that holds w, a, x or + or is not a string
    constant. The mode is the keyword `mode`, or else the second argument of
    open() and the first of a method named open, as Path.open takes it."""
    found = []
    for module, tree in trees.items():
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                on_os = isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                    and func.value.id == "os"
                if on_os and name in ("open", "replace", "rename") \
                        or name in ("write_text", "write_bytes"):
                    found.append((module, node.lineno, where))
                elif name == "open":
                    mode = [k.value for k in node.keywords if k.arg == "mode"]
                    mode = mode or (node.args[1:2] if isinstance(func, ast.Name) else node.args[:1])
                    if mode and not (
                        isinstance(mode[0], ast.Constant) and isinstance(mode[0].value, str)
                        and not _WRITE_MODE.search(mode[0].value)
                    ):
                        found.append((module, node.lineno, where))
    return sorted(found)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"model.py", "cli.py", "vocab.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _parse(path)
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )


def test_unused_import_is_caught():
    tree = ast.parse("import os\nfrom itertools import islice, repeat\nrepeat(os.sep)\n")
    assert set(_imported(tree)) - _used(tree) == {"islice"}


def test_quoted_annotation_counts_as_use():
    tree = ast.parse("from typing import Optional\ndef f(x: 'Optional[int]') -> None: ...\n")
    assert set(_imported(tree)) <= _used(tree)


def test_no_float_sums():
    reads = _sum_reads({p.name: _parse(p) for p in PACKAGE.glob("*.py")})
    unlisted = [(m, line, where) for m, line, where in reads if (m, where) not in INTEGER_SUMS]
    assert not unlisted, "built-in sum() outside the integer allow-list: " + ", ".join(
        f"{module}:{line} in {where}" for module, line, where in unlisted
    )


def test_float_sum_is_caught():
    # cli._write_report as it averaged before, and a sum passed to map().
    trees = {
        "cli.py": ast.parse(
            "def _write_report(rows, out):\n"
            "    macro_a = repr(sum(r[1] for r in rows) / len(rows))\n"
            "    macro_d = repr(sum(r[2] for r in rows) / len(rows))\n"
        ),
        "model.py": ast.parse("def _parts(columns):\n    return sum(map(sum, columns))\n"),
    }
    assert _sum_reads(trees) == [
        ("cli.py", 2, "_write_report"), ("cli.py", 3, "_write_report"),
        ("model.py", 2, "_parts"), ("model.py", 2, "_parts"),
    ]


def test_hard_exits_only_where_listed():
    found = _hard_exits({p.name: _parse(p) for p in PACKAGE.glob("*.py")})
    unlisted = [(m, line, where) for m, line, where in found if (m, where) not in HARD_EXITS]
    assert not unlisted, "os._exit outside the allow-list: " + ", ".join(
        f"{module}:{line} in {where}" for module, line, where in unlisted
    )
    assert {(m, where) for m, _, where in found} == HARD_EXITS


def test_hard_exit_is_caught():
    trees = {
        "cli.py": ast.parse(
            "import os\ndef main(argv):\n    os._exit(0)\n"
            "def run():\n    os._exit(main())\n"
        ),
        "model.py": ast.parse("from os import _exit as quit\nquit(1)\n"),
    }
    assert _hard_exits(trees) == [("cli.py", 3, "main"), ("cli.py", 5, "run"), ("model.py", 1, "<module>")]


def test_files_are_written_only_through_the_one_writer():
    found = _file_writes({p.name: _parse(p) for p in PACKAGE.glob("*.py")})
    unlisted = [(m, line, where) for m, line, where in found if (m, where) not in FILE_WRITERS]
    assert not unlisted, "a file written outside model.replaced: " + ", ".join(
        f"{module}:{line} in {where}" for module, line, where in unlisted
    )
    assert {(m, where) for m, _, where in found} == FILE_WRITERS


def test_file_write_outside_the_writer_is_caught():
    trees = {
        "cli.py": ast.parse(
            "import os\n"
            "def _write(path, lines):\n"
            "    with open(path, 'w', encoding='utf-8') as f:\n"
            "        f.writelines(lines)\n"
            "    os.replace(path, path + '.old')\n"
            "def _read(path, mode):\n"
            "    open(path).close()\n"
            "    open(path, 'rb', buffering=0).close()\n"
            "    open(path, mode=mode).close()\n"
            "    path.open().close()\n"
            "    path.open('a').close()\n"
        ),
        "model.py": ast.parse(
            "import os\nfd = os.open('m', os.O_WRONLY)\n"
            "def _save(p):\n    p.write_text('x')\n    p.write_bytes(b'x')\n"
            "    os.rename(p, 'q')\n    open(fd, 'r+').close()\n"
        ),
    }
    assert _file_writes(trees) == [
        ("cli.py", 3, "_write"), ("cli.py", 5, "_write"), ("cli.py", 9, "_read"),
        ("cli.py", 11, "_read"), ("model.py", 2, "<module>"), ("model.py", 4, "_save"),
        ("model.py", 5, "_save"), ("model.py", 6, "_save"), ("model.py", 7, "_save"),
    ]


def test_no_unicode_digit_patterns():
    found = _unicode_digit_patterns({p.name: _parse(p) for p in PACKAGE.glob("*.py")})
    assert not found, "\\d in a str pattern matches any Unicode digit; say [0-9]: " + ", ".join(
        f"{module}:{line}" for module, line in found
    )


def test_unicode_digit_pattern_is_caught():
    trees = {
        "model.py": ast.parse(
            'import re\n'
            '_NGRAM_DECL = re.compile(r"ngram (\\d+)=(\\d+)$")\n'
            '_ASCII = re.compile(r"ngram ([0-9]+)")\n'
            '_ESCAPED = re.compile(r"a\\\\d")\n'
            '_AFTER_ESCAPE = re.compile(r"a\\\\\\d")\n'
            '_BYTES = re.compile(rb"\\d")\n'
        ),
    }
    assert _unicode_digit_patterns(trees) == [("model.py", 2), ("model.py", 5)]


def test_no_dead_private_names():
    dead = _dead_private_names({p.name: _parse(p) for p in PACKAGE.glob("*.py")})
    assert not dead, "private names no module reads: " + ", ".join(
        f"{module}:{line} {name}" for module, line, name in dead
    )


def test_dead_private_name_is_caught():
    trees = {
        "a.py": ast.parse(
            "_USED = 1\n_DEAD = 2\ndef _helper():\n    return _USED\n"
            "class _Gone:\n    pass\n_stored: int = 0\n_stored = 1\n"
        ),
        "b.py": ast.parse("from .a import _helper, _DEAD\n_helper()\n"),
    }
    assert _dead_private_names(trees) == [
        ("a.py", 2, "_DEAD"), ("a.py", 5, "_Gone"), ("a.py", 8, "_stored"),
    ]


def test_no_test_only_public_names():
    unused = _test_only_public_names(
        {p.name: _parse(p) for p in PACKAGE.glob("*.py")},
        {p.name: _parse(p) for p in (ROOT / "perfbench").glob("*.py")},
        (ROOT / "README.md").read_text(encoding="utf-8"),
    )
    assert not unused, "public names only tests use: " + ", ".join(
        f"{module}:{line} {name}" for module, line, name in unused
    )


def test_test_only_public_name_is_caught():
    package = {
        "__init__.py": ast.parse("from .a import Documented, helper, run, shipped\n"),
        "a.py": ast.parse(
            "def shipped():\n    pass\ndef helper():\n    pass\nclass Documented:\n"
            "    def method(self):\n        pass\ndef run():\n    pass\n"
            "def _private():\n    pass\n"
        ),
        "b.py": ast.parse("from .a import shipped\nshipped()\n"),
    }
    bench = {"run.py": ast.parse("from humorlm import a\na.run()\n")}
    readme = "Call `Documented().method()` first."
    assert _test_only_public_names(package, bench, readme) == [("a.py", 3, "helper")]


# Runs one command in-process and reports its exit code and whether numpy
# was imported, before and after it ran.
_NUMPY_PROBE = """
import json, sys
from humorlm import cli
before = "numpy" in sys.modules
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([before, code, "numpy" in sys.modules]))
"""

# Runs one command in-process on one usable CPU and reports which of three
# standard library modules had been imported once the package was, its exit
# code, and which had been once the command ran. json is imported only after
# that, to print the report.
_MODULES_PROBE = """
import os, sys
watched = ("dataclasses", "inspect", "json")
os.sched_getaffinity = lambda pid: {0}
from humorlm import cli
imported = [m for m in watched if m in sys.modules]
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
ran = [m for m in watched if m in sys.modules]
import json
print(json.dumps([imported, code, ran]))
"""

# Runs one command in-process and reports its exit code and which of the
# standard library's process pools it imported.
_POOL_PROBE = """
import json, sys
from humorlm import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules]]))
"""

# Runs one command in-process with two usable CPUs and reports its exit
# code and the number of threads this process ran at each fork it made.
_FORK_PROBE = """
import json, os, sys, threading
from humorlm import cli
fork, threads = os.fork, []
def counting_fork():
    if os.path.isdir("/proc/self/task"):
        threads.append(len(os.listdir("/proc/self/task")))
    else:
        threads.append(threading.active_count())
    return fork()
os.fork = counting_fork
os.sched_getaffinity = lambda pid: {0, 1}
code = cli.main(sys.argv[1:])
print(json.dumps([code, threads]))
"""


# Runs one command in-process and reports its exit code, how many atexit
# handlers it registered, the file descriptors it left open, and whether a
# child process of it is left. cli.run ends a process with os._exit, which
# runs no atexit handler and closes no file object.
_TEARDOWN_PROBE = """
import atexit, json, os, sys
from humorlm import cli
def open_fds():
    fds = []
    for fd in range(256):
        try:
            os.fstat(fd)
        except OSError:
            continue
        fds.append(fd)
    return fds
handlers, fds = atexit._ncallbacks(), open_fds()
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    children = True
except ChildProcessError:
    children = False
print(json.dumps([code, atexit._ncallbacks() - handlers, sorted(set(open_fds()) - set(fds)), children]))
"""


@pytest.fixture(scope="module")
def numpy_probe(tmp_path_factory):
    """Run a command in a fresh interpreter; return its output line."""
    root = tmp_path_factory.mktemp("numpy")
    corpus = root / "corpus.txt"
    corpus.write_text("the host of the show\na donut receipt\nthe cat sat\n", encoding="utf-8")
    tags = root / "tags"
    tags.mkdir()
    write_tsv(tags / "T.tsv", [("a", "the host", 2), ("b", "a donut", 1), ("c", "zzz", 0)])
    # Three hashtag files, which rank and compare split between workers.
    tags3 = root / "tags3"
    tags3.mkdir()
    for name in ("T", "U", "V"):
        write_tsv(tags3 / f"{name}.tsv", [
            (f"{name}a", "the host", 2), (f"{name}b", "a donut", 1), (f"{name}c", "zzz", 0),
        ])
    preds = root / "preds"
    preds.mkdir()
    (preds / "T_PREDICT_B.tsv").write_text("a\nb\nc\n", encoding="utf-8")
    (preds / "T_PREDICT_A.tsv").write_text("a\tb\t1\na\tc\t1\nb\tc\t1\n", encoding="utf-8")
    grid = root / "grid.json"
    grid.write_text(json.dumps({
        "corpora": {"c": str(corpus)}, "hashtags": str(tags), "gold": str(tags),
        "fallback_discount": 0.5, "rows": [{"dataset": "c", "order": 2}],
    }), encoding="utf-8")
    grid3 = root / "grid3.json"
    grid3.write_text(json.dumps({
        "corpora": {"c": str(corpus)}, "hashtags": str(tags), "gold": str(tags),
        "fallback_discount": 0.5, "rows": [{"dataset": "c", "order": n} for n in (1, 2, 3)],
    }), encoding="utf-8")
    model = root / "m.arpa"
    argv = {
        "import": [],
        "train": ["train", str(corpus), "-o", str(model), "--fallback-discount", "0.5"],
        "evaluate": ["evaluate", str(tags), "-p", str(preds)],
        "grid": ["grid", str(grid), "-d", str(root / "grid_out")],
        "grid3": ["grid", str(grid3), "-d", str(root / "grid3_out")],
        "rank": ["rank", str(tags), "-m", str(model), "-d", str(root / "out")],
        "rank3": ["rank", str(tags3), "-m", str(model), "-d", str(root / "out3")],
        "compare3": ["compare", str(tags3), "-m", str(model), "-d", str(root / "out3")],
        "evaluate3": ["evaluate", str(tags3), "-p", str(root / "out3")],
        # compare after rank into the same -d takes rank's rankings.
        "rank-reused": ["rank", str(tags3), "-m", str(model), "-d", str(root / "reused")],
        "compare-reused": ["compare", str(tags3), "-m", str(model), "-d", str(root / "reused")],
    }
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent) + (os.pathsep + pythonpath if pythonpath else ""))
    # The package's own default, not the test suite's (conftest.py).
    env.pop("OPENBLAS_NUM_THREADS", None)

    def run(command, probe=_NUMPY_PROBE, **env_vars):
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv[command]],
            capture_output=True, text=True, env=dict(env, **env_vars), cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    run.root = root
    return run


@pytest.mark.parametrize(
    "command", ["import", "evaluate", "evaluate3", "compare-reused"]
)
def test_commands_that_read_no_model_never_import_numpy(numpy_probe, command):
    if command == "evaluate3":  # its predictions
        assert numpy_probe("train")[1] == 0
        assert numpy_probe("rank3")[1] == numpy_probe("compare3")[1] == 0
    if command == "compare-reused":  # the rankings it takes
        assert numpy_probe("train")[1] == 0
        assert numpy_probe("rank-reused")[1] == 0
    # numpy's import costs 0.05-0.16 s of start-up and 13.7 MB of RSS.
    assert numpy_probe(command) == [False, 0, False]


@pytest.mark.parametrize("threads", [None, "4"], ids=["package-default", "openblas-4"])
@pytest.mark.parametrize("command", ["train", "grid", "grid3"])
def test_commands_that_estimate_import_numpy(numpy_probe, command, threads):
    # Counting and estimation run on numpy arrays, so train and grid import
    # it, on their first count; the start-up itself does not (import).
    env = {} if threads is None else {"OPENBLAS_NUM_THREADS": threads}
    assert numpy_probe(command, **env) == [False, 0, True]


@pytest.mark.parametrize(
    "command", ["import", "train", "evaluate", "evaluate3", "grid", "grid3", "rank", "compare3"]
)
def test_only_grid_imports_json_and_no_command_imports_dataclasses(numpy_probe, command):
    # dataclasses, with the inspect, ast, dis and tokenize it imports, cost
    # about 6 ms of every start-up, and json 1.6 ms: the package's records
    # are named tuples, and grid, the only command that reads JSON, imports
    # json itself. grid3 has three rows, which run in this one process.
    if command in ("rank", "compare3", "evaluate3"):
        assert numpy_probe("train")[1] == 0
    if command == "evaluate3":
        assert numpy_probe("rank3")[1] == numpy_probe("compare3")[1] == 0
    imported, code, ran = numpy_probe(command, _MODULES_PROBE)
    assert (imported, code) == ([], 0)
    if command in ("rank", "compare3", "train", "grid", "grid3"):
        # numpy, which these commands import, may import inspect itself.
        ran = [m for m in ran if m != "inspect"]
    assert ran == (["json"] if command.startswith("grid") else [])


def test_rank_imports_numpy(numpy_probe):
    # The probe can see the import: rank reads a model, so it scores through
    # the trie. The train case trains the model it reads.
    assert numpy_probe("train")[1] == 0
    assert numpy_probe("rank") == [False, 0, True]


@pytest.mark.parametrize("command", ["import", "rank", "evaluate", "grid"])
def test_commands_without_workers_never_import_a_process_pool(numpy_probe, command):
    # A one-row grid runs its row in-process.
    if command == "rank":
        assert numpy_probe("train")[1] == 0
    assert numpy_probe(command, _POOL_PROBE) == [0, []]


@pytest.mark.parametrize(
    "command", ["train", "rank", "rank3", "compare3", "evaluate3", "grid3", "compare-reused"]
)
def test_commands_leave_nothing_to_teardown(numpy_probe, command):
    # After train, rank, rank3 and compare3 read a new model and write its
    # sidecar; rank3, compare3, grid3 and compare-reused fork on more than
    # one CPU.
    if command != "train":
        assert numpy_probe("train")[1] == 0
    if command == "evaluate3":
        assert numpy_probe("rank3")[1] == numpy_probe("compare3")[1] == 0
    if command == "compare-reused":
        assert numpy_probe("rank-reused")[1] == 0
    assert numpy_probe(command, _TEARDOWN_PROBE) == [0, 0, [], False]


def test_grid_forks_while_no_other_thread_runs(numpy_probe):
    # A forked child has only the thread that forked; a lock another thread
    # held stays held in the child for good. grid imports numpy before it
    # forks, which starts no thread under the package's
    # OPENBLAS_NUM_THREADS default.
    # Three rows on two workers: one fork per group of rows.
    assert numpy_probe("grid3", _FORK_PROBE) == [0, [1, 1]]


def test_train_never_forks(numpy_probe):
    for threads in ("1", "4"):
        assert numpy_probe("train", _FORK_PROBE, OPENBLAS_NUM_THREADS=threads) == [0, []]


@pytest.mark.parametrize("command", ["rank3", "compare3", "evaluate3", "compare-reused"])
def test_predict_commands_fork_while_no_other_thread_runs(numpy_probe, command):
    # rank and compare fork after numpy's import, which starts no thread
    # under the package's OPENBLAS_NUM_THREADS default; compare after rank
    # forks with numpy never imported; evaluate runs its files in-process
    # and never forks.
    assert numpy_probe("train")[1] == 0
    if command == "compare-reused":
        assert numpy_probe("rank-reused")[1] == 0
    if command == "evaluate3":
        assert numpy_probe("rank3")[1] == numpy_probe("compare3")[1] == 0
        assert numpy_probe(command, _FORK_PROBE) == [0, []]
    else:
        assert numpy_probe(command, _FORK_PROBE) == [0, [1, 1]]


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _numpy_starts_threads(threads: str) -> bool:
    """Whether numpy's import starts threads under OPENBLAS_NUM_THREADS=threads."""
    started = subprocess.run(
        [sys.executable, "-c", "import os, numpy; print(len(os.listdir('/proc/self/task')))"],
        capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), check=True,
    )
    return int(started.stdout) > 1


def test_grid_runs_in_process_when_numpy_starts_threads(numpy_probe):
    # grid imports numpy before its rows fork. Under a user's
    # OPENBLAS_NUM_THREADS, numpy may start threads there, and grid must
    # then run every row in this process, with the same bytes.
    out = numpy_probe.root / "grid3_out"
    shutil.rmtree(out, ignore_errors=True)
    assert numpy_probe("grid3", _FORK_PROBE) == [0, [1, 1]]
    forked = _tree(out)
    shutil.rmtree(out)
    in_process = [] if _numpy_starts_threads("4") else [1, 1]
    assert numpy_probe("grid3", _FORK_PROBE, OPENBLAS_NUM_THREADS="4") == [0, in_process]
    # Per row: the model, two prediction files and the report; the grid report.
    assert _tree(out) == forked and len(forked) == 13


def test_rank_runs_in_process_when_numpy_starts_threads(numpy_probe):
    # A user's OPENBLAS_NUM_THREADS outranks the package's default; numpy's
    # import then starts threads, where the process may use more than one
    # CPU, and rank must not fork.
    assert numpy_probe("train")[1] == 0
    out = numpy_probe.root / "out3"
    shutil.rmtree(out, ignore_errors=True)
    assert numpy_probe("rank3", _FORK_PROBE) == [0, [1, 1]]
    forked = _tree(out)
    shutil.rmtree(out)
    in_process = [] if _numpy_starts_threads("2") else [1, 1]
    assert numpy_probe("rank3", _FORK_PROBE, OPENBLAS_NUM_THREADS="2") == [0, in_process]
    assert _tree(out) == forked and len(forked) == 4  # three rankings, the manifest
