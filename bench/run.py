"""Time-to-verdict benchmark for replaycheck.

Run one workload:

    python3 bench/run.py --workload assess-matrix --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` every per-layer metric, from spans recorded by
wrappers around each module (see spans.py and METRICS.md). The last line
of standard output is one JSON object: correct, attempted, failed,
metrics. A wrong verdict or a failed check makes the run exit 1.

Compare two result sets written with ``--out``:

    python3 bench/run.py --compare base.jsonl new.jsonl
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _import_program():
    """Import replaycheck from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "replaycheck" / "__init__.py").is_file():
        raise ImportError(f"no replaycheck package under {src}")
    sys.path.insert(0, str(src))
    import replaycheck  # noqa: F401


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Set the workload up several times, then run op blocks until time is up.

    In a traced run, blocks alternate between traced and untraced so that
    the tracing overhead is measured on the same devices in the same run.
    Returns (result, info, recorder): result is the line the driver reads,
    info the extra figures printed before it, recorder None when untraced.
    """
    import stats
    from spans import Recorder, install, layer_metrics
    from workloads import SETTINGS, WORKLOADS

    recorder = Recorder() if trace else None
    uninstall = install(recorder, SETTINGS.response_window) if trace else None
    setup_s = []
    workload = None
    try:
        for _ in range(WORKLOADS[name].setup_repeats):
            if workload is not None:
                workload.close()
                workload = None
            gc.collect()  # the previous set-up's garbage must not inflate peak RSS
            if recorder:
                recorder.op_id = "setup"
            started = time.perf_counter()
            workload = WORKLOADS[name](seed)
            setup_s.append(time.perf_counter() - started)

        block = workload.block()
        gc.collect()
        durations: dict[bool, list[float]] = {True: [], False: []}
        attempted = failed = verdicts = checked = wrong = 0
        started = time.perf_counter()
        blocks = 0
        while True:
            traced = trace and blocks % 2 == 0
            if trace and traced and uninstall is None:
                uninstall = install(recorder, SETTINGS.response_window)
            elif not traced and uninstall is not None:
                uninstall()
                uninstall = None
            for op in block:
                attempted += 1
                if recorder:
                    recorder.op_id = attempted
                try:
                    if op.prepare:
                        op.prepare()
                    op_started = time.perf_counter()
                    result = op.run()
                    durations[traced].append(time.perf_counter() - op_started)
                    made, op_checked, problems = op.check(result)
                except Exception:
                    failed += 1
                    print(f"op {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
                    continue
                verdicts += made
                checked += op_checked
                if problems:
                    failed += 1
                    wrong += len(problems)
                    for problem in problems:
                        print(f"check failed: {problem}", file=sys.stderr)
            blocks += 1
            if time.perf_counter() - started >= seconds and (not trace or blocks >= 2):
                break
    finally:
        if uninstall is not None:
            uninstall()
        if workload is not None:
            workload.close()

    timed = durations[bool(trace)]
    samples = len(timed)
    if not samples:
        raise RuntimeError("no op completed; see the errors above")
    tail_pct = stats.tail_percentile(samples)
    info = {
        "workload": name,
        "seed": seed,
        "cpus": os.cpu_count(),
        "ops": attempted,
        "samples": samples,
        "tail_percentile": tail_pct,
        "verdicts": verdicts,
        "verdicts_checked": checked,
        "verdict_accuracy": (checked - wrong) / checked if checked else 0.0,
        "error_rate": failed / attempted if attempted else 1.0,
        "setup_runs_s": setup_s,
        **workload.notes,
    }
    if trace:
        metrics = layer_metrics(recorder.spans, samples)
        overhead = (
            (statistics.median(durations[True]) / statistics.median(durations[False]) - 1) * 100
            if durations[True] and durations[False] else 0.0
        )
        metrics["trace.overhead_pct"] = (overhead, "%")
    else:
        metrics = {
            "op_s_p50": (statistics.median(timed), "s"),
            "op_s_tail": (stats.percentile(timed, tail_pct), "s"),
            "verdicts_per_s": (verdicts / sum(timed), "1/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, info, recorder


def compare(base_path: str, new_path: str, out=None) -> int:
    """Print one row per metric x workload; exit 1 when any bounded metric regressed."""
    import stats

    out = out or sys.stdout

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]
    }

    def load(path):
        runs: dict[tuple[str, str], list[float]] = {}
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            for metric, body in record["result"]["metrics"].items():
                runs.setdefault((record["workload"], metric), []).append(body["value"])
        return runs

    base, new = load(base_path), load(new_path)
    header = f"{'workload':<15} {'metric':<46} {'base median (n)':>20} {'new median (n)':>20} " \
        f"{'new/base':>9} {'spread':>7} {'bound':>6}  status"
    print(header, file=out)
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        if metric not in metrics:
            continue
        better, bound = metrics[metric]
        row = stats.compare_metric(base[key], new[key], better, bound)
        regressions += row["status"] == "regression"
        print(
            f"{workload:<15} {metric:<46} "
            f"{row['base_median']:>14.6g} ({row['base_runs']:>3}) "
            f"{row['new_median']:>14.6g} ({row['new_runs']:>3}) "
            f"{row['ratio']:>9.4f} {row['spread']:>7.3f} "
            f"{'-' if bound is None else format(bound, '.2f'):>6}  {row['status']}",
            file=out,
        )
    for key in sorted(set(base) ^ set(new)):
        side = "base" if key in base else "new"
        print(f"{key[0]:<15} {key[1]:<46} only in the {side} set", file=out)
    print("ratios are new median / base median; spread is (Q3-Q1)/median of the wider side",
          file=out)
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's result to a JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import replaycheck: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    result, info, recorder = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if recorder is not None:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        recorder.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    for metric, body in result["metrics"].items():
        print(f"{metric:<48} {body['value']:.6g} {body['unit']}")
    print("info " + json.dumps(info))
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace, "info": info, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
