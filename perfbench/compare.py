"""Compare saved benchmark results of two builds.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Both files are records that perfbench/run.py saves under
.perfbench/results/. Prints each metric of both with the ratio NEW/BASE.
Results are comparable only when they ran the same workload at the same
size with the same kernel backend, Python version and nproc; any
difference is printed as NOT COMPARABLE, and the exit code is then 1.
"""

from __future__ import annotations

import json
import sys

SAME = ("workload", "size", "trace")
STAMP = ("backend", "python", "nproc")


def _values(record: dict) -> dict[str, tuple[float, str]]:
    out = {k: (m["value"], m["unit"]) for k, m in record["metrics"].items()}
    out.update({k: (v, "") for k, v in record.get("layers", {}).items()})
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, new = (json.loads(open(p, encoding="utf-8").read()) for p in argv)
    problems = [f"{k}: {base[k]} vs {new[k]}" for k in SAME if base[k] != new[k]]
    problems += [f"{k}: {base['stamp'][k]} vs {new['stamp'][k]}" for k in STAMP
                 if base["stamp"][k] != new["stamp"][k]]
    print(f"base {base['stamp']['commit'][:12]} seed {base['seed']}, "
          f"new {new['stamp']['commit'][:12]} seed {new['seed']}, workload {base['workload']}")
    for p in problems:
        print(f"NOT COMPARABLE: {p}")
    b, n = _values(base), _values(new)
    for k in [k for k in b if k in n]:
        (bv, unit), (nv, _) = b[k], n[k]
        ratio = f"{nv / bv:8.3f}" if bv else "     n/a"
        print(f"  {k:36s} {bv:14.6g} {nv:14.6g} {ratio} {unit}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
