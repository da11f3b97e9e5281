"""Benchmark worker: one fresh process that imports qgas, warms up, and
then drives it in a closed loop (one client, one run at a time).

Run by ``run.py`` as ``python bench/worker.py JOB RESULT``.  It records
when the import and one untimed warm-up pass over the inputs are done, so
the parent can time set-up, and writes that and its samples to RESULT.
"""

import json
import os
import resource
import sys
import time

#: share of a traced run spent on alternating untraced and traced passes;
#: the rest times the eigensolver kernel
TRACE_SHARE = 0.8
KERNEL_DIMS = (2, 4, 8)
#: least time on one CPU before the measured loop moves to the next
SWITCH_S = 0.5


class CpuRotation:
    """Moves this process to the next allowed CPU at most every SWITCH_S.

    The machine often slows one CPU and not the other, so spreading a run
    over the CPUs averages their states and steadies run-to-run figures.
    Children started after a move inherit the new CPU."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0
        self.moved = time.perf_counter()

    def maybe_move(self):
        now = time.perf_counter()
        if len(self.cpus) > 1 and now - self.moved >= SWITCH_S:
            self.turn += 1
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
            self.moved = now


def timed_runs(run, configs, expected, seconds, whole_passes=False,
               rotation=None):
    """Run the inputs round-robin until ``seconds`` have passed.

    Returns (samples, wall_s): one (input index, ms, ok) per run, where ok
    means exit code 0 and the same bytes as the warm-up output.  With
    ``whole_passes`` the loop only stops after a complete pass; with a
    ``rotation`` it may change CPU between passes.
    """
    samples = []
    clock = time.perf_counter_ns
    start = clock()
    deadline = start + int(seconds * 1e9)
    i = 0
    while True:
        if i == 0 and rotation is not None:
            rotation.maybe_move()
        t0 = clock()
        code, out, _ = run(configs[i])
        t1 = clock()
        samples.append((i, (t1 - t0) / 1e6, code == 0 and out == expected[i]))
        i = (i + 1) % len(configs)
        if t1 >= deadline and (i == 0 or not whole_passes):
            return samples, (t1 - start) / 1e9


def cold_runs(names, expected, seconds, rotation):
    """One whole ``python -m qgas demo NAME --format records`` per run."""
    import subprocess

    samples = []
    clock = time.perf_counter_ns
    start = clock()
    deadline = start + int(seconds * 1e9)
    i = 0
    while True:
        if i == 0:
            rotation.maybe_move()
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, "-m", "qgas", "demo", names[i], "--format", "records"],
            capture_output=True, timeout=60)
        t1 = clock()
        ok = proc.returncode == 0 and proc.stdout.decode() == expected[i]
        samples.append((i, (t1 - t0) / 1e6, ok))
        i = (i + 1) % len(names)
        if t1 >= deadline:
            return samples, (t1 - start) / 1e9


def kernel_us(seed, seconds):
    """Median microseconds per ``linalg.hermitian_eig`` call on seeded
    random Hermitian matrices, per dimension."""
    import numpy as np
    from qgas import linalg

    rng = np.random.default_rng(seed)
    out = {}
    for dim in KERNEL_DIMS:
        mats = []
        for _ in range(16):
            c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            mats.append((c + c.conj().T) / 2)
        times = []
        deadline = time.perf_counter() + seconds / len(KERNEL_DIMS)
        while time.perf_counter() < deadline or len(times) < len(mats):
            m = mats[len(times) % len(mats)]
            t0 = time.perf_counter_ns()
            linalg.hermitian_eig(m)
            times.append((time.perf_counter_ns() - t0) / 1e3)
        times.sort()
        out[f"linalg.hermitian_eig_us.d{dim}"] = times[len(times) // 2]
    return out


def _source(config) -> str:
    """The protocol text a run parses (none for list-demos)."""
    from qgas import protocol

    if config.command == "demo":
        return protocol.demo_source(config.target)
    if config.command == "run":
        with open(config.target, encoding="utf-8") as handle:
            return handle.read()
    return ""


def traced(job, configs, expected):
    """Untraced and traced passes, then the kernel bench."""
    import tracing
    from qgas import cli, protocol

    sources = [_source(config) for config in configs]
    lines = [len(source.splitlines()) for source in sources]
    steps = [len(protocol.parse(source).steps) if source else 0
             for source in sources]
    seconds = job["seconds"]
    tracer = tracing.Tracer()
    root = tracer.wrap(tracing.ROOT, cli.run_command)

    def run(config):
        tracer.run += 1
        return root(config)

    # alternate untraced and traced passes, so that both see the same
    # machine conditions and their ratio is the tracing overhead
    base, samples = [], []
    deadline = time.perf_counter() + seconds * TRACE_SHARE
    while time.perf_counter() < deadline or not samples:
        base += timed_runs(cli.run_command, configs, expected, 0, True)[0]
        restore = tracer.install()
        try:
            samples += timed_runs(run, configs, expected, 0, True)[0]
        finally:
            restore()
    # every pass runs each input once, so per-run counts are pass means
    layers = tracing.layer_metrics(tracing.summarize(tracer.spans, len(samples)))
    layers["protocol.steps"] = sum(steps) / len(configs)
    layers["protocol.parse_lines_per_s"] = (
        sum(lines) / len(configs) / layers["protocol.parse_ms"] * 1e3)
    layers["cli.output_bytes"] = (
        sum(len(out.encode()) for out in expected) / len(configs))
    layers.update(kernel_us(job["seed"], seconds * (1 - TRACE_SHARE)))
    if job.get("spans"):
        tracer.dump(job["spans"])
    return {"samples": base, "traced_samples": samples, "layers": layers}


def main(job_path, result_path):
    started = time.perf_counter()
    import numpy  # noqa: F401  (timed on its own: most of a cold start)
    numpy_done = time.perf_counter()
    from qgas import cli
    imported = time.perf_counter()

    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    configs = [cli.CliConfig(command, target, fmt)
               for command, target, fmt in job["inputs"]]
    warm = [cli.run_command(config) for config in configs]
    # perf_counter is CLOCK_MONOTONIC, which the parent process shares
    ready_at = time.perf_counter()

    expected = [out for _, out, _ in warm]
    result = {
        "ready_at": ready_at,
        "import_ms": (imported - started) * 1e3,
        "numpy_ms": (numpy_done - started) * 1e3,
        "warm": warm,
    }
    if job["seconds"] > 0:
        if job["trace"]:
            result.update(traced(job, configs, expected))
        elif job["workload"] == "cold-demo":
            names = [target for _, target, _ in job["inputs"]]
            samples, wall = cold_runs(names, expected, job["seconds"],
                                      CpuRotation())
            result.update(samples=samples, wall_s=wall)
        else:
            samples, wall = timed_runs(cli.run_command, configs, expected,
                                       job["seconds"], rotation=CpuRotation())
            result.update(samples=samples, wall_s=wall)
    # ru_maxrss is in KiB on Linux; a cold run's peak is its child's
    result["maxrss_kib"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
