"""Output checks for the pipeline benchmark.

Each check returns a list of error strings (empty when the output is
right) and leaves digests of what it read in `digests`, so that later
passes of the same run and the pinned default-seed outputs can be
compared byte for byte.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

DUALITY_TOL = 1e-9
_TRAINED = re.compile(r"trained order-\d+ model on (\d+) tokens \((\d+) lines\)")


def read_ids(hashtag_dir: Path) -> dict[str, list[str]]:
    """Tweet ids per hashtag, in file order, from the generated inputs."""
    out = {}
    for fp in sorted(hashtag_dir.glob("*.tsv")):
        with open(fp, encoding="utf-8") as f:
            out[fp.stem] = [line.split("\t", 1)[0] for line in f if line.strip()]
    return out


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def check_arpa(path: Path, digests: dict, key: str = "arpa") -> list[str]:
    """Declared n-gram counts match the sections; digest the body from
    \\data\\ on, so the metadata line may change without tripping it."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    data = path.read_bytes()
    start = data.find(b"\\data\\\n")
    if start < 0:
        return [f"{path.name}: no \\data\\ header"]
    digests[key] = hashlib.sha256(data[start:]).hexdigest()
    declared: dict[int, int] = {}
    found: dict[int, int] = {}
    section = 0
    for line in data[start:].decode("utf-8").splitlines():
        if line.startswith("ngram "):
            k, n = line[6:].split("=")
            declared[int(k)] = int(n)
        elif line.startswith("\\") and line.endswith("-grams:"):
            section = int(line[1:-7])
            found[section] = 0
        elif line == "\\end\\":
            section = -1
        elif line and section > 0:
            found[section] += 1
    if section != -1:
        return [f"{path.name}: missing \\end\\"]
    if not declared or declared != found:
        return [f"{path.name}: declared {declared} but found {found}"]
    return []


def check_train_stdout(stdout: str, tokens: int, lines: int) -> list[str]:
    m = _TRAINED.search(stdout)
    if m is None:
        return ["train: no 'trained ... tokens' line on stdout"]
    got = (int(m.group(1)), int(m.group(2)))
    if got != (tokens, lines):
        return [f"train: counted {got[0]} tokens / {got[1]} lines, inputs hold {tokens} / {lines}"]
    return []


def check_rankings(out: Path, ids: dict[str, list[str]], digests: dict, key: str = "predict_b") -> list[str]:
    """Each <hashtag>_PREDICT_B.tsv is a permutation of its file's ids."""
    errors = []
    paths = []
    for name, want in ids.items():
        p = out / f"{name}_PREDICT_B.tsv"
        if not p.is_file():
            errors.append(f"{p.name}: missing")
            continue
        paths.append(p)
        got = p.read_text(encoding="utf-8").splitlines()
        if sorted(got) != sorted(want):
            errors.append(f"{p.name}: not a permutation of the hashtag's tweet ids")
    digests[key] = _digest(paths)
    return errors


def check_pairs(out: Path, ids: dict[str, list[str]], digests: dict, key: str = "predict_a") -> list[str]:
    """Each <hashtag>_PREDICT_A.tsv holds n(n-1)/2 rows, every one agreeing
    with the order in the matching _PREDICT_B.tsv."""
    errors = []
    paths = []
    for name, want in ids.items():
        p = out / f"{name}_PREDICT_A.tsv"
        pb = out / f"{name}_PREDICT_B.tsv"
        if not p.is_file() or not pb.is_file():
            errors.append(f"{p.name}: missing, or its _PREDICT_B.tsv is")
            continue
        paths.append(p)
        rows = p.read_text(encoding="utf-8").splitlines()
        n = len(want)
        if len(rows) != n * (n - 1) // 2:
            errors.append(f"{p.name}: {len(rows)} rows, want {n * (n - 1) // 2}")
            continue
        order = pb.read_text(encoding="utf-8").splitlines()
        expected = (f"{a}\t{b}\t1" for i, a in enumerate(order) for b in order[i + 1:])
        if any(r != e for r, e in zip(rows, expected)):
            errors.append(f"{p.name}: a pair disagrees with the order in {pb.name}")
    digests[key] = _digest(paths)
    return errors


def _check_duality(path: Path, rows: list[list[str]]) -> list[str]:
    errors = []
    for r in rows:
        try:
            acc, dist = float(r[-2]), float(r[-1])
        except (ValueError, IndexError):
            errors.append(f"{path.name}: unreadable row {r!r}")
            continue
        if abs(acc + dist - 1.0) > DUALITY_TOL:
            errors.append(f"{path.name}: accuracy + distance = {acc + dist!r} in row {r[0]}")
    return errors


def check_report(path: Path, names: list[str], digests: dict, key: str = "report") -> list[str]:
    """One row per hashtag plus macro-average, each with accuracy + distance = 1."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    digests[key] = _digest([path])
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[:1] != ["hashtag\taccuracy\tdistance"]:
        return [f"{path.name}: bad header"]
    rows = [line.split("\t") for line in lines[1:]]
    if [r[0] for r in rows] != sorted(names) + ["macro-average"]:
        return [f"{path.name}: rows are not one per hashtag plus macro-average"]
    return _check_duality(path, rows)


def check_grid(out: Path, n_rows: int, ids: dict[str, list[str]], digests: dict) -> list[str]:
    """grid_report.tsv has one row per config row; each row's directory
    passes the model, ranking, pair and report checks."""
    path = out / "grid_report.tsv"
    if not path.is_file():
        return [f"{path.name}: missing"]
    digests["grid_report"] = _digest([path])
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    errors = []
    if [r[0] for r in rows] != [str(i) for i in range(1, n_rows + 1)]:
        errors.append(f"{path.name}: {len(rows)} rows for {n_rows} config rows")
    errors += _check_duality(path, rows)
    for i in range(1, n_rows + 1):
        row_dir = out / f"row_{i:02d}"
        tag = f"row_{i:02d}."
        errors += check_arpa(row_dir / "model.arpa", digests, tag + "arpa")
        errors += check_rankings(row_dir, ids, digests, tag + "predict_b")
        errors += check_pairs(row_dir, ids, digests, tag + "predict_a")
        errors += check_report(row_dir / "report.tsv", list(ids), digests, tag + "report")
    return errors
