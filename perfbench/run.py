"""qcsp benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload decide-hard --seed 1 --seconds 20 --trace 0

One process and one thread: each operation starts after the previous one
returns.  Times are taken on the process CPU clock.  The run

1. generates the workload's inputs from the seed (not timed);
2. sets up several times -- a fresh import of qcsp from ``src/`` plus a
   warm-up that fills the program's caches -- and keeps the last;
3. checks every expected output against the references in
   ``reference.py`` (not timed);
4. runs whole rounds of the operation list until ``--seconds`` is used up,
   timing each operation, and checks every output after each round.

Between operations it times a fixed pure-Python loop, and the times it
reports are scaled to the speed at which that loop takes REFERENCE_LOOP_S
(see :class:`SpeedMeter`).

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics.  With ``--trace 1`` rounds with spans at qcsp's layer boundaries
alternate with rounds without, and the line holds the per-layer metrics of
the traced rounds; the spans are written under ``.perfbench-runs/``, next to
each run's result file.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-runs"
SETUP_REPS = 5

# The speed of the shared machine this was built on drifts by up to 2x in
# phases of seconds, and the process CPU clock drifts with it.  A fixed loop,
# timed between operations, measures that speed: each operation's CPU time is
# multiplied by REFERENCE_LOOP_S over the loop's median time within
# SPEED_WINDOW_S of the operation on the CPU clock.
REFERENCE_LOOP_S = 0.005
SPEED_SAMPLE_EVERY_S = 0.1
SPEED_WINDOW_S = 1.0


def _reference_loop() -> int:
    s = 0
    d: dict[int, int] = {}
    for i in range(30_000):
        d[i & 1023] = s
        s += i * i % 7
    return s


class SpeedMeter:
    """Timings of the reference loop, placed on the process CPU clock."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        start = time.process_time()
        _reference_loop()
        end = time.process_time()
        self.at.append(end)
        self.took.append(end - start)

    def scale(self, at: float) -> float:
        """REFERENCE_LOOP_S over the median loop time near ``at`` (at least
        five samples)."""
        lo = bisect.bisect_left(self.at, at - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, at + SPEED_WINDOW_S)
        while hi - lo < 5 and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return REFERENCE_LOOP_S / statistics.median(self.took[lo:hi])


def import_fresh():
    """Import qcsp from the checkout's src/, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "qcsp" or n.startswith("qcsp.")]:
        del sys.modules[name]
    q = importlib.import_module("qcsp")
    for sub in ("model", "parser", "evaluator", "classifier", "solvers", "implsearch", "gadgets", "presets", "verify"):
        importlib.import_module(f"qcsp.{sub}")
    return q


def set_up(workload, meter: SpeedMeter, tracer=None):
    """Import and warm up SETUP_REPS times.

    Returns the last import and, per set-up, its scaled CPU time, its CPU
    time and its wall time.  The tracer, if any, is installed before the
    last warm-up so that it sees what the caches already hold.
    """
    q = None
    spans = []
    walls = []
    for rep in range(SETUP_REPS):
        for _ in range(3):
            meter.sample()
        gc.collect()
        start, wall = time.process_time(), time.perf_counter()
        q = import_fresh()
        if tracer is not None and rep == SETUP_REPS - 1:
            tracer.install()
        workload.warm_up(q)
        spans.append((start, time.process_time()))
        walls.append(time.perf_counter() - wall)
    for _ in range(3):
        meter.sample()
    cpu = [end - start for start, end in spans]
    return q, [t * meter.scale(start + t / 2) for t, (start, _) in zip(cpu, spans)], cpu, walls


def run_rounds(workload, seconds: float, first_round: int, meter: SpeedMeter, tracer=None):
    """Whole rounds until ``seconds`` of wall time are used.

    Returns one record per execution -- (operation, CPU start, CPU seconds,
    wall seconds) -- the failures, the problems the checks found and the
    number of rounds.  The outputs of a round are checked after the round,
    outside the timed operations.
    """
    clock = time.process_time
    records = []
    failures: list[str] = []
    problems: list[str] = []
    rounds = 0
    spent = last = 0.0
    while rounds == 0 or spent + last / 2 < seconds:
        ops = workload.round_ops(first_round + rounds)
        gc.collect()
        results = []
        wall = time.perf_counter()
        meter.sample()
        since_sample = 0.0
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            wall_start = time.perf_counter()
            start = clock()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
            end = clock()
            wall_end = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
            records.append((op, start, end - start, wall_end - wall_start))
            results.append(result)
            since_sample += end - start
            if since_sample >= SPEED_SAMPLE_EVERY_S:
                meter.sample()
                since_sample = 0.0
        meter.sample()
        last = time.perf_counter() - wall
        spent += last
        rounds += 1
        if tracer is not None:
            tracer.recording = False
        for op, result in zip(ops, results):
            if isinstance(result, Exception):
                failures.append(f"{op.label}: raised {type(result).__name__}: {result}")
                continue
            problem = op.check(result)
            if problem:
                problems.append(f"{op.label}: {problem}")
        if tracer is not None:
            tracer.recording = True
    if tracer is not None:
        tracer.recording = False
    return records, failures, problems, rounds


def scaled(records, meter: SpeedMeter) -> list[float]:
    return [cpu * meter.scale(start + cpu / 2) for _, start, cpu, _ in records]


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def figures(latencies: list[float], setups: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "setup_s": statistics.median(setups),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qcsp" / "__init__.py").is_file():
        print(f"error: no qcsp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    meter = SpeedMeter()
    tracer = Tracer() if args.trace else None
    q, setup_times, setup_cpu, setup_walls = set_up(workload, meter, tracer)
    if not Path(q.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported qcsp from {q.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    problems = workload.bind(q)
    stem = f"{args.workload}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)

    if tracer is not None:
        # traced and untraced rounds alternate, so that a drift in the speed
        # of the machine does not read as tracing overhead
        tracer.uninstall()
        traced_records, plain_records = [], []
        rounds = 0
        failures = []
        spent = last = 0.0
        while rounds < 2 or spent + last / 2 < args.seconds:
            traced = rounds % 2 == 0
            if traced:
                tracer.install()
                tracer.recording = True
            wall = time.perf_counter()
            records, fails, found, _ = run_rounds(workload, 0, rounds, meter, tracer if traced else None)
            last = time.perf_counter() - wall
            spent += last
            if traced:
                tracer.uninstall()
            (traced_records if traced else plain_records).extend(records)
            failures += fails
            problems += found
            rounds += 1
        attempted = len(traced_records) + len(plain_records)
        traced_rounds = (rounds + 1) // 2
        values = tracer.summary(traced_rounds)
        lat, lat_plain = scaled(traced_records, meter), scaled(plain_records, meter)
        values["trace.overhead_pct"] = (sum(lat) / len(lat) / (sum(lat_plain) / len(lat_plain)) - 1) * 100
        units = {name: _layer_unit(name) for name in values}
        tracer.write(OUT / f"{stem}-spans.jsonl")
        detail = {"traced_rounds": traced_rounds}
    else:
        records, failures, found, rounds = run_rounds(workload, args.seconds, 0, meter)
        problems += found
        attempted = len(records)
        lat = scaled(records, meter)
        values = {
            **figures(lat, setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
        detail = _latency_detail(lat, [r[0].label for r in records])
        detail["unscaled_cpu"] = figures([r[2] for r in records], setup_cpu)
        detail["wall_clock"] = figures([r[3] for r in records], setup_walls)

    for problem in (failures + problems)[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    loops = sorted(meter.took)
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                **result,
                "rounds": rounds,
                "setup_runs_s": setup_times,
                "reference_loop_ms_min_median_max": [loops[0] * 1e3, statistics.median(loops) * 1e3, loops[-1] * 1e3],
                "failures": failures,
                "problems": problems,
                **detail,
            },
            indent=1,
        )
    )
    print(json.dumps(result))
    return 0


def _latency_detail(lat, labels) -> dict:
    """Median latency per kind of operation (the first three fields of its
    label), the operations around p50 and p90, and every latency in order."""
    groups: dict[str, list[float]] = {}
    for value, label in zip(lat, labels):
        groups.setdefault("/".join(label.split("/")[:3]), []).append(value * 1e3)
    order = sorted(range(len(lat)), key=lat.__getitem__)
    around = {
        p: [labels[i] for i in order[max(0, len(order) * p // 100 - 2) : len(order) * p // 100 + 3]]
        for p in (50, 90)
    }
    return {
        "median_ms_by_kind": {k: [len(v), statistics.median(v)] for k, v in sorted(groups.items())},
        "around_p50": around[50],
        "around_p90": around[90],
        "operations_ms": [[labels[i], lat[i] * 1e3] for i in order],
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name == "parser.bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
