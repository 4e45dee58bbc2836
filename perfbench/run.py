"""Benchmark for fracback, measured from outside the package.

    python3 perfbench/run.py --workload table1|table3|cli_cold|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; nothing needs installing,
since ``src/`` is put on the path of every process started.  Workloads
(single process, closed loop, one client; tables with threads=1):

  table1    warm ``run_table1(ExperimentConfig())``
  table3    warm ``run_table3(ExperimentConfig())``
  cli_cold  seeded fresh-process ``python -m fracback.cli backward ...``

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured;
with ``--trace 1`` the per-layer metrics, from spans recorded around calls
into each module (see tracing.py and README.md).  Every table must hash to
its pinned value and every CLI reconstruction must equal, byte for byte,
the one computed here through the library; a mismatch, an exception or a
nonzero exit counts as a failed operation and makes the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

PINNED = {
    "table1": "2def2ba4531a7f6233af46dff0662ee045a971b78b829d53855e3b60c6cee356",
    "table3": "5d198d9d1fb5ba60b4109ac0d1b83fdfeac26b670b19416c756db63391465e4b",
}
WORKLOADS = ("table1", "table3", "cli_cold")

# Fresh processes whose first operation is timed for setup_s.  table3 takes
# two: each is a whole cold table (~12 s on 2 shared cores), and a third
# would not fit the run's time budget.
SETUP_RUNS = {"table1": 3, "table3": 2, "cli_cold": 3}

# The CLI set-up request is fixed, not seeded, so setup_s compares across
# seeds; alpha = 0.2 has the costliest cold Mittag-Leffler fits.
CLI_SETUP_ARGV = ("backward", "--alpha", "0.2", "--t", "1e-05")

# Levels of the table sweeps, as run_table1 / run_table3 build them.
T_LEVELS = tuple(10.0 ** -(i + 1) for i in range(1, 9))
ETA_LEVELS = tuple(10.0 ** -(i + 2) for i in range(1, 8))

CHILD_TIMEOUT_S = 170.0


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


class Child:
    """One finished child process: exit code, timing, peak RSS, JSON records."""

    def __init__(self, rc, spawn, end, maxrss_mb, records, stderr):
        self.rc = rc
        self.spawn = spawn
        self.wall = end - spawn
        self.maxrss_mb = maxrss_mb
        self.records = records
        self.stderr = stderr


class Runner:
    """Starts children in a scratch directory inside the checkout."""

    def __init__(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.work = OUT / f"work-{os.getpid()}"
        self.work.mkdir()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._n = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def path(self, stem: str) -> Path:
        self._n += 1
        return self.work / f"{self._n:04d}-{stem}"

    def spawn(self, argv: list[str]) -> Child:
        """Run argv to completion; wait4 gives this child's own peak RSS."""
        base = self.path("proc")
        with open(f"{base}.out", "w") as out, open(f"{base}.err", "w") as err:
            t0 = now()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = now()
            proc.returncode = os.waitstatus_to_exitcode(status)
        records = [
            json.loads(line)
            for line in Path(f"{base}.out").read_text().splitlines()
            if line.startswith("{")
        ]
        stderr = Path(f"{base}.err").read_text()
        return Child(proc.returncode, t0, t1, usage.ru_maxrss / 1024.0, records, stderr)

    def child(self, *args: str) -> Child:
        return self.spawn([sys.executable, str(HERE / "child.py"), *args])

    def cli(self, request: tuple[str, ...]) -> tuple[Child, Path]:
        out = self.path("cli")
        argv = [sys.executable, "-m", "fracback.cli", *request, "--out", str(out)]
        return self.spawn(argv), out / "backward.csv"


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok

    def crashed(self, child: Child, what: str) -> None:
        if child.rc != 0:
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            self.check(False, f"{what}: exit {child.rc}: {tail[0]}")


def record(child: Child, kind: str) -> dict | None:
    return next((r for r in child.records if r.get("kind") == kind), None)


# ---------------------------------------------------------------------------
# CLI requests and their library reference
# ---------------------------------------------------------------------------


# One block of CLI requests: every alpha in both request forms.
CLI_BLOCK = tuple((alpha, form) for alpha in tracing.ALPHAS for form in ("t", "noise"))


def cli_requests(seed: int):
    """Endless seeded requests, block by block in a shuffled order, with
    levels drawn from the table sweeps.  Whole blocks keep the mix of alphas
    and forms, which sets most of a request's cost, the same for every seed."""
    rng = random.Random(seed)
    while True:
        block = list(CLI_BLOCK)
        rng.shuffle(block)
        for alpha, form in block:
            if form == "t":
                yield ("backward", "--alpha", repr(alpha), "--t", repr(rng.choice(T_LEVELS)))
            else:
                eta = repr(rng.choice(ETA_LEVELS))
                yield ("backward", "--alpha", repr(alpha), "--eps", eta, "--delta", eta)


class Reference:
    """``backward.csv`` bytes computed in this process through the library."""

    def __init__(self, runner: Runner) -> None:
        self.runner = runner
        self._bytes: dict[tuple[str, ...], bytes] = {}
        self._problems: dict[float, object] = {}

    def expected(self, request: tuple[str, ...]) -> bytes:
        if request not in self._bytes:
            self._bytes[request] = self._compute(request)
        return self._bytes[request]

    def _compute(self, request: tuple[str, ...]) -> bytes:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from fracback.experiments import ExperimentConfig, noisy_data, noisy_source, paper_problem
        from fracback.solver import ChoiceRule, RegularizationChoice, choose_t, reconstruct_noisy
        from fracback.spectral import write_csv

        opts = dict(zip(request[1::2], request[2::2]))
        alpha = float(opts["--alpha"])
        cfg = ExperimentConfig(alphas=(alpha,))
        if alpha not in self._problems:
            self._problems[alpha] = paper_problem(cfg)
        pp = self._problems[alpha]
        prob, g = pp.problems[alpha], pp.finals[alpha]
        if "--t" in opts:
            field = reconstruct_noisy(prob, g, prob.source, float(opts["--t"]))
        else:
            eps, delta = float(opts["--eps"]), float(opts["--delta"])
            t = choose_t(
                RegularizationChoice(ChoiceRule.PAPER_TABLE2, eta=max(eps, delta)),
                alpha,
                tau=cfg.tau,
            )
            field = reconstruct_noisy(
                prob, noisy_data(g, delta, pp.quad), noisy_source(prob.source, eps, pp.modeset), t
            )
        path = self.runner.path("expected.csv")
        write_csv(field, path)
        return path.read_bytes()


def gate_cli(tally: Tally, ref: Reference, request, child: Child, csv: Path) -> bool:
    what = " ".join(request)
    if child.rc != 0:
        tally.crashed(child, what)
        return False
    got = csv.read_bytes() if csv.is_file() else b""
    return tally.check(got == ref.expected(request), f"{what}: backward.csv differs")


def gate_table(tally: Tally, workload: str, child: Child) -> list[dict]:
    ops = [r for r in child.records if r.get("kind") == "op"]
    for op in ops:
        tally.check(op["hash"] == PINNED[workload], f"{workload}: hash {op['hash']}")
    tally.crashed(child, workload)
    return ops


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


def measure_table(runner: Runner, workload: str, seconds: float, tally: Tally) -> dict:
    table_id = workload[-1]
    setups, warm, rss = [], [], []
    k = SETUP_RUNS[workload]
    for i in range(k):
        child = runner.child("table", table_id, repr(seconds if i == k - 1 else 0.0))
        ops = gate_table(tally, workload, child)
        if ops:
            setups.append(ops[0]["end"] - child.spawn)
        warm += [op["s"] for op in ops[1:]]
        rss.append(child.maxrss_mb)
    return summarize(setups, warm, sum(warm), rss, "processes")


def measure_cli(runner: Runner, seed: int, seconds: float, tally: Tally, ref: Reference) -> dict:
    setups, walls, rss, done = [], [], [], []
    for _ in range(SETUP_RUNS["cli_cold"]):
        child, csv = runner.cli(CLI_SETUP_ARGV)
        done.append((CLI_SETUP_ARGV, child, csv))
        setups.append(child.wall)
    requests = cli_requests(seed)
    t0 = now()
    # At least two whole blocks: with one, the median of eight requests rests
    # on the two middle (alpha, form) cells and moves with their noise alone.
    while len(walls) < 2 * len(CLI_BLOCK) or now() - t0 < seconds:
        for _ in CLI_BLOCK:
            request = next(requests)
            child, csv = runner.cli(request)
            done.append((request, child, csv))
            walls.append(child.wall)
    elapsed = now() - t0
    for request, child, csv in done:
        gate_cli(tally, ref, request, child, csv)
        rss.append(child.maxrss_mb)
    return summarize(setups, walls, elapsed, rss, "request processes")


def summarize(setups, ops, elapsed, rss, rss_of) -> dict:
    if not setups or not ops:
        return {}
    return {
        "setup_s": (statistics.median(setups), len(setups), ""),
        "op_s.p50": (statistics.median(ops), len(ops), ""),
        "ops_per_s": (len(ops) / elapsed, len(ops), f"over {elapsed:.3f} s"),
        "peak_rss_mb": (max(rss), len(rss), rss_of),
    }


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------


def cold_s(runner: Runner, spans: list[dict], tally: Tally) -> float:
    pairs = sorted({(s["alpha"], s["beta"]) for s in spans if s["name"] == tracing.ML})
    child = runner.child("cold-probe", json.dumps(pairs))
    tally.crashed(child, "cold-probe")
    rec = record(child, "cold")
    return rec["cold_s"] if rec else 0.0


def trace_table(runner: Runner, workload: str, tally: Tally) -> tuple[dict, list, dict]:
    spans_path = runner.path("spans.json")
    child = runner.child("trace-table", workload[-1], str(spans_path))
    ops = gate_table(tally, workload, child)
    start = record(child, "start")
    if len(ops) != 4 or start is None:
        return {}, [], {}
    spans = json.loads(spans_path.read_text())
    traced = ops[2]
    metrics = tracing.layer_metrics(spans, 1, traced["s"])
    metrics["trace.overhead"] = 2.0 * traced["s"] / (ops[1]["s"] + ops[3]["s"]) - 1.0
    metrics["cli.interpreter_s"] = start["start"] - child.spawn
    metrics["cli.import_s"] = start["import_s"]
    metrics["special.cold_s"] = cold_s(runner, spans, tally)
    where = {
        "wall_s": traced["s"],
        "bookkeeping_s": traced["bookkeeping_s"],
        "missing": traced["missing"],
        "outside": f"experiments.run_{workload} driver code outside every wrapped call",
    }
    return metrics, spans, where


def trace_cli(runner: Runner, seed: int, tally: Tally, ref: Reference) -> tuple[dict, list, dict]:
    requests = cli_requests(seed)
    batch = [next(requests) for _ in CLI_BLOCK]
    spans, walls, untraced, interp, imports, book, missing = [], [], [], [], [], 0.0, []
    for op, request in enumerate(batch):
        plain, csv = runner.cli(request)
        spans_path = runner.path("spans.json")
        out = runner.path("cli")
        child = runner.child("trace-cli", str(spans_path), *request, "--out", str(out))
        ok = gate_cli(tally, ref, request, plain, csv)
        if not (gate_cli(tally, ref, request, child, out / "backward.csv") and ok):
            continue
        untraced.append(plain.wall)
        start = record(child, "start")
        offset = len(spans)
        for s in json.loads(spans_path.read_text()):
            s.update(op=op, id=s["id"] + offset, parent=s["parent"] + offset if s["parent"] >= 0 else -1)
            spans.append(s)
        walls.append(child.wall)
        interp.append(start["start"] - child.spawn)
        imports.append(start["import_s"])
        book += start["bookkeeping_s"]
        missing = start["missing"]
    if not walls:
        return {}, [], {}
    n = len(walls)
    metrics = tracing.layer_metrics(spans, n, sum(walls))
    metrics["trace.overhead"] = sum(walls) / sum(untraced) - 1.0
    metrics["cli.interpreter_s"] = sum(interp) / n
    metrics["cli.import_s"] = sum(imports) / n
    metrics["special.cold_s"] = cold_s(runner, spans, tally)
    where = {
        "wall_s": sum(walls),
        "bookkeeping_s": book,
        "missing": missing,
        "outside": "interpreter start {:.3f} s + import {:.3f} s per request, before cli.main".format(
            metrics["cli.interpreter_s"], metrics["cli.import_s"]
        ),
    }
    return metrics, spans, where


def coverage_report(metrics: dict, spans: list, where: dict) -> list[str]:
    lines = ["  coverage of the traced operations' wall time by layer self time:"]
    for layer, share in sorted(tracing.module_shares(spans, where["wall_s"]).items()):
        lines.append(f"    {layer:<12} {share:8.4f}")
    rest = 1.0 - metrics["trace.coverage"]
    lines.append(f"    {'unaccounted':<12} {rest:8.4f}  in {where['outside']}")
    lines.append(f"    tracer bookkeeping {where['bookkeeping_s']:.4f} s, excluded from layer self time")
    for name in where["missing"]:
        lines.append(f"    layer function {name} not found: not measured")
    if metrics["trace.coverage"] < 0.9:
        lines.append(f"    coverage {metrics['trace.coverage']:.4f} is below 0.9")
    return lines


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_workload(runner, workload, args, ref, units) -> tuple[dict, Tally]:
    print(f"workload {workload} seed {args.seed} trace {args.trace}")
    tally = Tally()
    if args.trace:
        if workload == "cli_cold":
            metrics, spans, where = trace_cli(runner, args.seed, tally, ref)
        else:
            metrics, spans, where = trace_table(runner, workload, tally)
        if metrics:
            OUT.joinpath(f"spans-{workload}-seed{args.seed}.json").write_text(json.dumps(spans))
            for name, value in metrics.items():
                print(f"  {name:<48} {value:.6g} {units.get(name, '')}")
            for line in coverage_report(metrics, spans, where):
                print(line)
    else:
        if workload == "cli_cold":
            table = measure_cli(runner, args.seed, args.seconds, tally, ref)
        else:
            table = measure_table(runner, workload, args.seconds, tally)
        for name, (value, n, note) in table.items():
            print(f"  {name:<12} {value:.6g} {units[name]} (n={n}) {note}".rstrip())
        metrics = {name: value for name, (value, _, _) in table.items()}
    for name in units:
        if name not in metrics:
            tally.check(False, f"{workload}: metric {name} not measured")
    print(f"  fail_ratio {tally.failed / max(tally.attempted, 1):.6g} ratio (n={tally.attempted})")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fracback" / "__init__.py").is_file():
        die(f"no fracback package under {SRC}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    print("# env " + json.dumps(environment(args.seed)))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = Runner()
    try:
        ref = Reference(runner)
        # Untimed: compiles the package's bytecode and warms the file cache.
        warmup = runner.spawn([sys.executable, "-c", "import fracback.cli"])
        if warmup.rc != 0:
            die(f"cannot import fracback: {warmup.stderr.strip()}")
        results = {w: run_workload(runner, w, args, ref, units) for w in workloads}
    finally:
        runner.close()

    metrics, attempted, failed = {}, 0, 0
    for workload, (measured, tally) in results.items():
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, value in measured.items():
            if name in units:
                metrics[prefix + name] = {"value": value, "unit": units[name]}
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
