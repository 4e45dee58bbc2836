"""Fresh-interpreter side of the benchmark; started by run.py, never by hand.

Modes (first argument):

  table ID WARM_S              run table ID once (the set-up operation), then
                               again while less than WARM_S seconds of warm
                               operations have run
  trace-table ID SPANS         cold table, then warm tables: untraced, traced
                               and untraced again; spans go to SPANS
  trace-cli SPANS ARGV...      fracback.cli.main(ARGV) under the tracer
  cold-probe PAIRS_JSON        first-call minus second-call cost of ml_array
                               per (alpha, beta) pair

Each mode prints one JSON object per line on stdout.  Times come from
CLOCK_MONOTONIC, which the parent shares, so the parent can measure from
the moment it started this interpreter.
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def emit(**record) -> None:
    print(json.dumps(record), flush=True)


def _runner(table_id: str):
    from fracback.experiments import ExperimentConfig, run_table1, run_table3

    run = {"1": run_table1, "3": run_table3}[table_id]
    return lambda: run(ExperimentConfig(), threads=1)


def table(table_id: str, warm_s: str) -> None:
    run = _runner(table_id)
    warm, warm_total = False, 0.0
    while not warm or warm_total < float(warm_s):
        t0 = now()
        tab = run()
        t1 = now()
        emit(kind="op", warm=warm, s=t1 - t0, end=t1, hash=tab.content_hash)
        warm_total += t1 - t0 if warm else 0.0
        warm = True


def trace_table(table_id: str, spans_path: str) -> None:
    t0 = now()
    import fracback.cli  # noqa: F401  (the whole package, as a CLI user pays it)

    emit(kind="start", start=T_START, import_s=now() - t0)
    import tracing

    run = _runner(table_id)
    for warm in (False, True):
        t0 = now()
        tab = run()
        emit(kind="op", warm=warm, traced=False, s=now() - t0, hash=tab.content_hash)
    tracer = tracing.Tracer()
    missing = tracing.install(tracer)
    t0 = now()
    tab = run()
    emit(kind="op", warm=True, traced=True, s=now() - t0, hash=tab.content_hash,
         bookkeeping_s=tracer.bookkeeping_s, missing=missing)
    Path(spans_path).write_text(json.dumps(tracer.spans))
    # Untraced again after the traced one, so drift cancels in the overhead.
    tracer.enabled = False
    t0 = now()
    tab = run()
    emit(kind="op", warm=True, traced=False, s=now() - t0, hash=tab.content_hash)


def trace_cli(spans_path: str, *argv: str) -> int:
    t0 = now()
    import fracback.cli

    import_s = now() - t0
    import tracing

    tracer = tracing.Tracer()
    missing = tracing.install(tracer)
    try:
        return fracback.cli.main(list(argv))
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans))
        emit(kind="start", start=T_START, import_s=import_s,
             bookkeeping_s=tracer.bookkeeping_s, missing=missing)


def cold_probe(pairs_json: str) -> None:
    import numpy as np

    from fracback.special import ml_array

    # Arguments spread over y = |x|^(1/alpha) in [1e-2, 1e4], which reaches
    # every evaluation path whatever the implementation's thresholds are.
    y = np.geomspace(1e-2, 1e4, 64)
    cold = {}
    for alpha, beta in json.loads(pairs_json):
        x = -(y**alpha)
        times = []
        for _ in range(2):
            t0 = now()
            ml_array(alpha, beta, x)
            times.append(now() - t0)
        cold[f"{alpha!r},{beta!r}"] = times[0] - times[1]
    emit(kind="cold", per_pair=cold, cold_s=sum(cold.values()))


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    handlers = {"table": table, "trace-table": trace_table, "trace-cli": trace_cli,
                "cold-probe": cold_probe}
    sys.exit(handlers[mode](*args) or 0)
