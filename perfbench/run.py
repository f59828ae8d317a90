"""Pipeline benchmark for humorlm: the real CLI on generated, seeded,
tweet-like inputs.

Run from the repository root:

    python3 perfbench/run.py --workload {train,predict,grid} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke         # all workloads, tiny inputs

Each workload is a closed loop with one client: the commands of one pass
run one after another, each as its own process, and the next pass starts
when the last one ends. Passes repeat until --seconds is used up.

- train:   humorlm train over a directory of tweet TSVs (the write path).
- predict: rank, compare and evaluate over hashtag files, against a model
           that set-up trains from the train workload's corpus (the read path).
- grid:    humorlm grid with three rows over one shared dataset, two of them
           with the same prep config, on a two-worker thread pool.

A shared machine's speed drifts by a fifth or more from one minute to the
next. So the runner also times a fixed calibration job (perfbench/
calibrate.py, benchmark code that never imports the program) as its own
process before every command and after every pass. End-to-end times are
reported at the reference speed: each pass, each set-up command and each
start-up probe is multiplied by REF_CALIBRATION_S over the mean of the
calibration times that bracket it, and the medians of those are reported.
Raw wall times are printed and saved beside them.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it also runs traced passes (perfbench/traced.py) and reports
the per-layer metrics. Every output is checked; a wrong output counts as a
failed operation. The last line of stdout is a JSON result, and the full
result, stamped with backend, Python version, nproc and commit, is saved
under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
from layers import layer_metrics  # noqa: E402

STATE = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0
IMPORT_PROBES_PER_PASS = 2
IMPORT_PROBE = [sys.executable, "-c", "import humorlm.cli, humorlm; print(humorlm.backend_name())"]
PREDICT_SETUP_TRAINS = 3
TRAIN_FLAGS = ["--order", "3", "--filter-tags", "--fallback-discount", "0.5"]
GRID_THREADS = "2"
# Median time of the calibration job on the machine the benchmark was tuned
# on (2 shared x86 vCPUs, CPython 3.11), so scaled times read close to the
# wall times seen there.
REF_CALIBRATION_S = 0.28


@dataclass(frozen=True)
class Size:
    train_tokens: int
    grid_tokens: int
    hashtag_files: int
    hashtag_tweets: tuple[int, int]


SIZES = {
    "full": Size(350_000, 75_000, 60, (20, 200)),
    "smoke": Size(20_000, 8_000, 4, (12, 30)),
}


@dataclass
class Op:
    """One program process: a CLI command or an import probe."""

    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    cal_index: int
    errors: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.errors


class Runner:
    """Starts program processes one at a time and records each one's wall
    time, peak RSS and exit code, and times the calibration job before
    each command. Every process is waited for; one that would outlive the
    run's time limit is killed and counts as failed."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.ops: list[Op] = []
        self.calibrations: list[float] = []
        self.calibration_input = work / "calibration.txt"
        calibrate.write_input(self.calibration_input)
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + pythonpath if pythonpath else ""))

    def run(self, name: str, argv: list[str], env: dict | None = None) -> Op:
        with tempfile.TemporaryFile(dir=self.work) as out, tempfile.TemporaryFile(dir=self.work) as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=dict(self.env, **(env or {})), cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            op = Op(name, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode,
                    out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"),
                    len(self.calibrations))
        if op.code != 0:
            op.errors.append(f"{name}: exit {op.code}: {op.stderr.strip()[-300:]}")
        self.ops.append(op)
        return op

    def calibrate(self) -> None:
        argv = [sys.executable, str(BENCH / "calibrate.py"), str(self.calibration_input)]
        t0 = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"calibration failed: {proc.stderr.strip()[-300:]}")
        self.calibrations.append(perf_counter() - t0)

    def scale(self, ops: list[Op]) -> float:
        """Factor from wall time to wall time at the reference speed for the
        span of `ops`: the calibrations from the last one before the first
        op to the first one after the last op."""
        return REF_CALIBRATION_S / statistics.mean(
            self.calibrations[max(0, ops[0].cal_index - 1) : ops[-1].cal_index + 1])

    def cli(self, name: str, args: list[str], trace_to: Path | None = None, env: dict | None = None) -> Op:
        self.calibrate()
        if trace_to is None:
            argv = [sys.executable, "-m", "humorlm.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "traced.py"), str(trace_to), "--", *args]
        return self.run(name, argv, env)


class Workload:
    """Inputs, set-up and one pass of commands, plus the checks of each."""

    name = ""

    def __init__(self, work: Path, seed: int, size: Size) -> None:
        self.work = work
        self.seed = seed
        self.size = size
        self.inputs: dict = {}
        self.tokens_per_pass = 0
        self.tweets_per_pass = 0
        self.setup_ops: list[Op] = []
        self.chain = gen.Chain.from_seed(seed)

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self, runner: Runner, repeats: int) -> None:
        """Program work the passes depend on, made `repeats` times into
        `setup_ops`; the last one's output is what the passes use."""

    def trace_setup(self, runner: Runner) -> list[Path]:
        """Traced copy of set-up whose layers belong to every traced pass."""
        return []

    def run_pass(self, runner: Runner, out: Path, trace_dir: Path | None) -> list[Op]:
        raise NotImplementedError

    def _rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}/{purpose}")

    def _hashtags(self) -> None:
        hashtags = self.work / "hashtags"
        self.inputs["hashtags"] = gen.write_hashtags(
            self.chain, self._rng("hashtags"), hashtags, self.size.hashtag_files, self.size.hashtag_tweets
        )
        self.hashtag_dir = hashtags
        self.ids = checks.read_ids(hashtags)

    def _corpus(self, n_tokens: int) -> None:
        self.corpus_dir = self.work / "corpus"
        self.inputs["corpus"] = gen.write_corpus(self.chain, self._rng("corpus"), self.corpus_dir, n_tokens)

    def _train(self, runner: Runner, arpa: Path, trace_to: Path | None = None) -> Op:
        op = runner.cli("train", ["train", str(self.corpus_dir), "-o", str(arpa), *TRAIN_FLAGS], trace_to)
        if op.code == 0:
            c = self.inputs["corpus"]
            op.errors += checks.check_train_stdout(op.stdout, c["kept_tokens"], c["kept_lines"])
            op.errors += checks.check_arpa(arpa, op.digests)
        return op


def _trace_path(trace_dir: Path | None, name: str) -> Path | None:
    return None if trace_dir is None else trace_dir / f"{name}.json"


class Train(Workload):
    name = "train"

    def generate(self) -> None:
        self._corpus(self.size.train_tokens)
        self.tokens_per_pass = self.inputs["corpus"]["tokens"]
        self.tweets_per_pass = self.inputs["corpus"]["lines"]

    def run_pass(self, runner, out, trace_dir):
        return [self._train(runner, out / "model.arpa", _trace_path(trace_dir, "train"))]


class Predict(Workload):
    name = "predict"

    def generate(self) -> None:
        self._hashtags()
        self._corpus(self.size.train_tokens)
        # rank and compare each tokenize every tweet once.
        self.tokens_per_pass = 2 * self.inputs["hashtags"]["tokens"]
        self.tweets_per_pass = self.inputs["hashtags"]["tweets"]
        self.model = self.work / "model.arpa"

    def setup(self, runner, repeats):
        self.setup_ops = [self._train(runner, self.model) for _ in range(repeats)]
        runner.calibrate()

    def trace_setup(self, runner):
        trace = self.work / "setup_trace.json"
        self._train(runner, self.work / "traced_model.arpa", trace)
        return [trace]

    def run_pass(self, runner, out, trace_dir):
        tags, model = str(self.hashtag_dir), str(self.model)
        rank = runner.cli("rank", ["rank", tags, "-m", model, "-d", str(out)], _trace_path(trace_dir, "rank"))
        compare = runner.cli("compare", ["compare", tags, "-m", model, "-d", str(out)], _trace_path(trace_dir, "compare"))
        report = out / "report.tsv"
        evaluate = runner.cli("evaluate", ["evaluate", tags, "-p", str(out), "-o", str(report)],
                              _trace_path(trace_dir, "evaluate"))
        rank.errors += checks.check_rankings(out, self.ids, rank.digests)
        compare.errors += checks.check_pairs(out, self.ids, compare.digests)
        evaluate.errors += checks.check_report(report, list(self.ids), evaluate.digests)
        return [rank, compare, evaluate]


class Grid(Workload):
    name = "grid"

    def generate(self) -> None:
        self._hashtags()
        self._corpus(self.size.grid_tokens)
        self.config = self.work / "grid.json"
        gen.write_grid_config(self.config, self.corpus_dir, self.hashtag_dir)
        rows = len(gen.GRID_ROWS)
        self.tokens_per_pass = rows * (self.inputs["corpus"]["tokens"] + self.inputs["hashtags"]["tokens"])
        self.tweets_per_pass = rows * self.inputs["hashtags"]["tweets"]

    def run_pass(self, runner, out, trace_dir):
        op = runner.cli("grid", ["grid", str(self.config), "-d", str(out)],
                        _trace_path(trace_dir, "grid"), env={"HUMORLM_THREADS": GRID_THREADS})
        if op.code == 0:
            op.errors += checks.check_grid(out, len(gen.GRID_ROWS), self.ids, op.digests)
        return [op]


WORKLOADS = {w.name: w for w in (Train, Predict, Grid)}


def _prediction_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*_PREDICT_*.tsv"))


@dataclass
class Pass:
    ops: list[Op]
    wall_s: float
    scaled_s: float
    prediction_bytes: int
    imports: list[Op]
    layers: dict = field(default_factory=dict)


class WorkloadRun:
    """One benchmark run of one workload."""

    def __init__(self, wl: Workload, runner: Runner, pinned: dict | None) -> None:
        self.wl = wl
        self.runner = runner
        self.pinned = pinned
        self.reference: dict[str, dict] = {}

    def verify(self, ops: list[Op]) -> None:
        """The first good output of each command is compared with the pinned
        digests (default seed only); every later one with that first output."""
        for op in ops:
            if not op.digests or op.errors:
                continue
            first = self.reference.setdefault(op.name, op.digests)
            if first is not op.digests:
                want, what = first, "first"
            elif self.pinned is not None:
                want, what = self.pinned, "pinned"
            else:
                continue
            for k, v in op.digests.items():
                if want.get(k) != v:
                    op.errors.append(f"{op.name}: {k} differs from the {what} output")

    def passes(self, seconds: float, traced: bool, setup_traces: list[Path]) -> list[Pass]:
        """Closed loop: run passes until the next one would end after `seconds`.
        Untraced passes are each followed by start-up probes, so that the
        start-up median covers the whole run."""
        done: list[Pass] = []
        end = perf_counter() + seconds
        while True:
            k = len(done) + 1
            out = self.wl.work / f"{'traced' if traced else 'pass'}_{k}"
            out.mkdir()
            trace_dir = out / "_traces" if traced else None
            if trace_dir:
                trace_dir.mkdir()
            ops = self.wl.run_pass(self.runner, out, trace_dir)
            self.verify(ops)
            self.runner.calibrate()
            wall = sum(op.wall_s for op in ops)
            imports = [] if traced else [self.runner.run("import", IMPORT_PROBE) for _ in range(IMPORT_PROBES_PER_PASS)]
            p = Pass(ops, wall, wall * self.runner.scale(ops), _prediction_bytes(out), imports)
            if traced and all(op.ok for op in ops):
                p.layers = layer_metrics(setup_traces + sorted(trace_dir.glob("*.json")))
            shutil.rmtree(out)
            done.append(p)
            longest = max(q.wall_s for q in done)
            if perf_counter() + longest > end or perf_counter() + longest > self.runner.deadline:
                return done


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git; the
    benchmark may run in an export that has no .git at all."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, size_name: str) -> tuple[dict, dict]:
    """Generate, set up, measure and check one workload; returns the JSON
    result line and the stamped record saved alongside it."""
    started = perf_counter()
    size = SIZES[size_name]
    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=STATE))
    try:
        runner = Runner(work, started + RUN_LIMIT_S)
        wl = WORKLOADS[name](work, seed, size)
        t0 = perf_counter()
        wl.generate()
        gen_s = perf_counter() - t0
        print(f"inputs: {json.dumps(wl.inputs)} (generated in {gen_s:.1f} s, not measured)")

        # Set-up. The first import compiles bytecode; it is a warm-up. The
        # start-up probes that set-up time counts run between the passes.
        runner.calibrate()
        warm_up = runner.run("import", IMPORT_PROBE)
        backend = warm_up.stdout.strip() or "unknown"
        wl.setup(runner, PREDICT_SETUP_TRAINS if not trace else 1)
        setup_walls = [op.wall_s for op in wl.setup_ops]
        if any(op.code != 0 for op in [warm_up] + wl.setup_ops):
            errors = [e for op in runner.ops for e in op.errors]
            raise RuntimeError("set-up failed: " + "; ".join(errors))

        pinned = None
        if seed == 0:
            all_pinned = json.loads((BENCH / "digests.json").read_text())
            pinned = all_pinned.get(size_name, {}).get(name)
            if pinned is None:
                print(f"note: no pinned digests for {size_name}/{name}; outputs are only checked for invariants")
        session = WorkloadRun(wl, runner, pinned)
        session.verify(runner.ops)

        untraced = session.passes(seconds / 2 if trace else seconds, False, [])
        good = [p for p in untraced if all(op.ok for op in p.ops)]
        if not good:
            raise RuntimeError("no pass succeeded: " + "; ".join(e for p in untraced for op in p.ops for e in op.errors))
        wall_s = _median([p.wall_s for p in good])
        scaled_s = _median([p.scaled_s for p in good])
        imports = [op for p in untraced for op in p.imports if op.ok]
        if not imports:
            raise RuntimeError("no start-up probe succeeded")
        import_s = _median([op.wall_s for op in imports])
        setup_raw_s = import_s + _median(setup_walls)
        setup_s = (_median([op.wall_s * runner.scale([op]) for op in imports])
                   + _median([op.wall_s * runner.scale([op]) for op in wl.setup_ops]))
        metrics = {
            "scaled_wall_s": (scaled_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (max(op.rss_mb for p in untraced for op in p.ops), "MB"),
            "tokens_per_s": (wl.tokens_per_pass / scaled_s, "tokens/s"),
            "tweets_per_s": (wl.tweets_per_pass / scaled_s, "tweets/s"),
        }
        report = {"samples": len(good), "wall_s": wall_s, "setup_raw_s": setup_raw_s,
                  "pass_walls_s": [p.wall_s for p in untraced],
                  "pass_scaled_s": [p.scaled_s for p in untraced], "calibrations_s": list(runner.calibrations),
                  "pass_cpu_s": [sum(op.cpu_s for op in p.ops) for p in untraced], "import_s": import_s,
                  "setup_work_s": setup_walls}

        layers: dict = {}
        if trace:
            setup_traces = wl.trace_setup(runner)
            session.verify(runner.ops[-len(setup_traces):] if setup_traces else [])
            traced = session.passes(seconds / 2, True, setup_traces)
            traced_good = [p for p in traced if p.layers]
            if not traced_good:
                raise RuntimeError("no traced pass succeeded")
            for key in traced_good[0].layers:
                layers[key] = _median([p.layers[key] for p in traced_good])
            per_cmd: dict[str, list[float]] = {}
            for op in [o for p in good for o in p.ops] + wl.setup_ops:
                per_cmd.setdefault(op.name, []).append(op.wall_s)
            for cmd in ("train", "rank", "compare", "evaluate", "grid"):
                layers[f"cli.{cmd}_s"] = _median(per_cmd.get(cmd, []))
            layers["cli.prediction_bytes"] = _median([p.prediction_bytes for p in good])
            layers["tracing_overhead_s"] = _median([p.wall_s for p in traced_good]) - wall_s
            report["traced_samples"] = len(traced_good)

        attempted = len(runner.ops)
        failed = sum(1 for op in runner.ops if not op.ok)
        errors = [e for op in runner.ops for e in op.errors]
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size_name,
            "stamp": {"backend": backend, "python": sys.version.split()[0],
                      "nproc": os.cpu_count(), "commit": _git_commit()},
            "inputs": wl.inputs, "report": report, "errors": errors[:20],
            "error_rate": failed / attempted,
            "digests": {k: v for d in session.reference.values() for k, v in sorted(d.items())},
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "layers": layers,
        }
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_record(record: dict, units: dict[str, str]) -> None:
    s = record["stamp"]
    print(f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"size={record['size']} backend={s['backend']} python={s['python']} "
          f"nproc={s['nproc']} commit={s['commit'][:12]}")
    r = record["report"]
    print(f"  passes (s): {' '.join(f'{w:.3f}' for w in r['pass_walls_s'])}; "
          f"cpu (s): {' '.join(f'{w:.3f}' for w in r['pass_cpu_s'])}; "
          f"set-up (s): import {r['import_s']:.3f}, work {' '.join(f'{w:.3f}' for w in r['setup_work_s']) or '-'}")
    cal = r["calibrations_s"]
    print(f"  scaled passes (s): {' '.join(f'{w:.3f}' for w in r['pass_scaled_s'])}; "
          f"{len(cal)} calibrations, {min(cal):.3f}-{max(cal):.3f} s; "
          f"unscaled: wall_s {r['wall_s']:.6g} s, setup_s {r['setup_raw_s']:.6g} s")
    for k, m in record["metrics"].items():
        note = f" (median of {r['samples']} passes, at reference speed)" if k == "scaled_wall_s" else ""
        print(f"  {k:36s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"  {'error_rate':36s} {record['error_rate']:14.6g} ratio")
    for k, v in record["layers"].items():
        print(f"  {k:36s} {v:14.6g} {units.get(k, '')}")
    for e in record["errors"]:
        print(f"  ERROR {e}")


def _declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload, tiny inputs, both modes")
    args = ap.parse_args(argv)
    # Let a termination request unwind, so the running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "humorlm" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'humorlm'} not found; run inside a humorlm checkout", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    declared = _declared()
    units = {m["name"]: m["unit"] for m in declared.get("per_layer", [])}

    if args.smoke:
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
        size_name, seconds = "smoke", 0.1
    else:
        runs = [(args.workload, bool(args.trace))]
        size_name, seconds = "full", args.seconds

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        try:
            result, record = run_workload(workload, args.seed, seconds, trace, size_name)
        except RuntimeError as e:
            print(f"error: {workload}: {e}", file=sys.stderr)
            return 1
        _print_record(record, units)
        results = STATE / "results"
        results.mkdir(parents=True, exist_ok=True)
        out = results / f"{size_name}-{workload}-seed{args.seed}-trace{int(trace)}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        if trace:
            result["metrics"] = {k: {"value": v, "unit": units.get(k, "")} for k, v in record["layers"].items()}
        else:
            result["metrics"] = record["metrics"]
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        if not args.smoke:
            total["metrics"] = result["metrics"]
            names = {m["name"] for m in declared.get("per_layer" if trace else "end_to_end", [])}
            if declared and set(result["metrics"]) != names:
                print(f"error: metrics {sorted(set(result['metrics']) ^ names)} do not match BENCHMARK.json",
                      file=sys.stderr)
                return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
