"""qgas benchmark: end-to-end run times per workload, or per-layer times
from a traced run.  See bench/README.md.

    python3 bench/run.py --workload demo-suite --seed 1 --seconds 26 --trace 0

``--workload all`` measures every workload in turn.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics (named ``<workload>/<metric>`` for
``all``).  The exit code is 0 only when every output passed its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"

WORKLOADS = ("demo-suite", "eigen-d8", "long-script", "cold-demo")
#: fresh workers timed for setup_s per run; the median is reported
SETUP_SAMPLES = 5
#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10
#: every worker of one run has ended by then, or the run fails
RUN_TIMEOUT_S = 170
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"run_ms_p50": "ms", "run_ms_p90": "ms", "runs_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if "_us." in name:
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for key in BLAS_ENV:
        env[key] = "1"
    # fixed string hashing, so dict and set layouts repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV},
        "worker_blas_threads": 1,
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def make_inputs(workload: str, seed: int, work: Path):
    """(inputs for the worker, checker per input).  Generated protocols are
    written to files under ``work`` and run through ``qgas run``."""
    if workload in ("demo-suite", "cold-demo"):
        formats = ("table", "records") if workload == "demo-suite" else ("records",)
        pairs = [(name, fmt) for name in workloads.DEMO_NAMES for fmt in formats]
        inputs = [("demo", name, fmt) for name, fmt in pairs]
        checks = [(lambda text, n=name, f=fmt: oracles.check_demo(n, f, text))
                  for name, fmt in pairs]
        if workload == "demo-suite":
            # a 13th input, so that the median falls inside one input's run
            # times rather than in the gap between two
            inputs.append(("list-demos", "list-demos", "table"))
            checks.append(oracles.check_list_demos)
        return inputs, checks
    inputs, checks = [], []
    for proto in workloads.generate(workload, seed):
        path = work / f"{proto.name}.qgp"
        path.write_text(proto.text, encoding="utf-8")
        inputs.append(("run", str(path), proto.fmt))
        checks.append(lambda text, p=proto: oracles.check_generated(p, text))
    return inputs, checks


def start_worker(job: dict, work: Path, tag: str, env: dict, deadline: float):
    """Run one worker to completion; returns (setup seconds, result)."""
    job_path, result_path = work / f"job-{tag}.json", work / f"result-{tag}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path)],
        env=env, cwd=ROOT, check=True, timeout=deadline - started)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result["ready_at"] - started, result


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of p90, or, with fewer than 100 samples, of the
    highest percentile that leaves TAIL_BEYOND samples beyond it (never
    below the median)."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = max(TAIL_BEYOND, n // 10)
    rank = max(n - beyond, n // 2 + 1)
    return 100 * rank / n, ordered[rank - 1]


def measure(workload: str, args, work: Path, deadline: float):
    env = worker_env()
    inputs, checks = make_inputs(workload, args.seed, work)
    job = {"workload": workload, "seed": args.seed, "inputs": inputs,
           "trace": bool(args.trace), "seconds": 0}
    setups, imports = [], []

    def setup_only(count):
        for _ in range(count):
            setup_s, result = start_worker(job, work, f"setup{len(setups)}",
                                           env, deadline)
            setups.append(setup_s)
            imports.append(result)

    # set-up samples before and after the measured worker, so that their
    # median spans the whole run
    setup_only((SETUP_SAMPLES - 1) // 2)
    main_job = dict(job, seconds=args.seconds, spans=str(
        work.parent / f"spans-{workload}-seed{args.seed}.jsonl.gz"))
    setup_s, result = start_worker(main_job, work, "main", env, deadline)
    setups.append(setup_s)
    imports.append(result)
    setup_only(SETUP_SAMPLES - len(setups))

    # the warm-up output of every input must pass its oracle; each timed run
    # must then reproduce that output byte for byte
    problems, bad_inputs = [], set()
    for i, ((code, out, err), check) in enumerate(zip(result["warm"], checks)):
        found = [f"exit {code}: {err.strip()}"] if code != 0 else check(out)
        if found:
            bad_inputs.add(i)
            problems += found
    for key in ("samples", "traced_samples"):
        result[key] = [(i, ms, ok and i not in bad_inputs)
                       for i, ms, ok in result.get(key, [])]
    samples = result["samples"] + result["traced_samples"]
    failed = sum(1 for *_, ok in samples if not ok)
    result["names"] = [f"{Path(target).stem}/{fmt}" for _, target, fmt in inputs]
    return setups, imports, result, samples, failed, problems


def end_to_end(setups, result) -> tuple[dict, dict]:
    samples = result["samples"]
    times = [ms for _, ms, _ in samples]
    pct, p_tail = tail(times)
    metrics = {
        "run_ms_p50": statistics.median(times),
        "run_ms_p90": p_tail,
        "runs_per_s": sum(1 for *_, ok in samples if ok) / result["wall_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["maxrss_kib"] / 1024,
    }
    per_input = defaultdict(list)
    for i, ms, _ in samples:
        per_input[result["names"][i]].append(ms)
    info = {"samples": len(times), "tail_percentile": pct,
            "input_ms_p50": {name: statistics.median(ms)
                             for name, ms in per_input.items()},
            "wall_s": result["wall_s"], "setup_samples": setups}
    return metrics, info


def per_layer(imports, result) -> tuple[dict, dict]:
    metrics = dict(result["layers"])
    metrics["import.total_ms"] = statistics.median(r["import_ms"] for r in imports)
    metrics["import.numpy_ms"] = statistics.median(r["numpy_ms"] for r in imports)
    base = statistics.median(ms for _, ms, _ in result["samples"])
    traced = statistics.median(ms for _, ms, _ in result["traced_samples"])
    metrics["trace.overhead_frac"] = traced / base - 1
    info = {"untraced_samples": len(result["samples"]),
            "traced_samples": len(result["traced_samples"]),
            "untraced_run_ms_p50": base, "traced_run_ms_p50": traced}
    return metrics, info


def bench(workload: str, args) -> dict:
    """Measure one workload, print its lines, and return its result."""
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    host = machine()
    work = BENCH / "out" / f"work-{workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups, imports, result, samples, failed, problems = measure(
            workload, args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, info = per_layer(imports, result)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, info = end_to_end(setups, result)
        units = END_TO_END_UNITS
    print(json.dumps({"machine": host}))
    print(json.dumps({"workload": workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace, **info,
                      "failed_frac": failed / len(samples)}))
    for problem in problems[:20]:
        print(f"oracle: {problem}")
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    return {
        "correct": not problems and failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qgas" / "__init__.py").is_file():
        print(f"error: no qgas sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, untimed, so no setup sample pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)

    if args.workload != "all":
        result = bench(args.workload, args)
    else:
        results = {w: bench(w, args) for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
