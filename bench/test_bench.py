"""Tests of the benchmark itself: generators, oracles and tracing.

    python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qgas import cli  # noqa: E402


def _run(path, fmt):
    return cli.run_command(cli.CliConfig("run", str(path), fmt))


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generators_are_seeded(workload):
    first = [p.text for p in workloads.generate(workload, 7)]
    assert first == [p.text for p in workloads.generate(workload, 7)]
    assert first != [p.text for p in workloads.generate(workload, 8)]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generated_protocols_run_and_pass_their_oracle(workload, seed, tmp_path):
    for proto in workloads.generate(workload, seed):
        path = tmp_path / f"{proto.name}.qgp"
        path.write_text(proto.text, encoding="utf-8")
        code, out, err = _run(path, proto.fmt)
        assert code == 0, err
        assert oracles.check_generated(proto, out) == []


@pytest.mark.parametrize("fmt", ["table", "records"])
@pytest.mark.parametrize("name", workloads.DEMO_NAMES)
def test_demo_outputs_match_their_pins(name, fmt):
    code, out, _ = cli.run_command(cli.CliConfig("demo", name, fmt))
    assert code == 0
    assert oracles.check_demo(name, fmt, out) == []


def test_table_normalization_ignores_only_round_off():
    _, out, _ = cli.run_command(cli.CliConfig("demo", "peres-tatiana", "table"))
    noisy = out.replace("1 * (1, 0)", "1 * (1, 7.66e-18)").replace(
        "(0, 1)", "(-0, 1)")
    assert noisy != out
    assert oracles.check_demo("peres-tatiana", "table", noisy) == []
    wrong = out.replace("0.707107, 0.707107)", "0.707107, 0.707108)", 1)
    assert oracles.check_demo("peres-tatiana", "table", wrong) != []


def test_oracles_reject_wrong_outputs(tmp_path):
    _, out, _ = cli.run_command(
        cli.CliConfig("demo", "jaynes-marie", "records"))
    assert oracles.check_demo("jaynes-marie", "records", out + "\n") != []

    proto = workloads.generate("long-script", 1)[0]
    path = tmp_path / "p.qgp"
    path.write_text(proto.text, encoding="utf-8")
    _, out, _ = _run(path, "records")
    unequal = out.replace("w=0 ", "w=1e-3 ", 1)
    assert any("q=" in p for p in oracles.check_generated(proto, unequal))
    violation = out.replace("classification=consistent",
                            "classification=apparent_violation")
    assert any("violation" in p for p in oracles.check_generated(proto, violation))

    proto = workloads.generate("eigen-d8", 1)[0]
    proto.spectrum = [proto.spectrum[0] + 1e-3] + proto.spectrum[1:]
    path.write_text(proto.text, encoding="utf-8")
    _, out, _ = _run(path, "table")
    assert any("spectrum" in p for p in oracles.check_generated(proto, out))


def test_summarize_subtracts_child_spans():
    spans = [("a", 0, 100, -1, 1), ("b", 10, 40, 0, 1), ("c", 15, 25, 1, 1),
             ("b", 50, 60, 0, 1)]
    out = tracing.summarize(spans, runs=1)
    assert out["a.ms"] == 100 / 1e6
    assert out["a.self_ms"] == 60 / 1e6
    assert out["b.self_ms"] == 30 / 1e6
    assert out["b.calls"] == 2


def test_tracer_counts_calls_and_restores_targets():
    from qgas import linalg

    original = linalg.hermitian_eig
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        code, _, _ = cli.run_command(
            cli.CliConfig("demo", "peres-tatiana", "table"))
    finally:
        restore()
    assert code == 0
    assert linalg.hermitian_eig is original
    calls = tracing.summarize(tracer.spans, runs=1)
    assert calls["linalg.hermitian_eig.calls"] == 16
    assert calls["protocol.parse.calls"] == calls["protocol.execute.calls"] == 1
    assert calls["audit.audit.calls"] == 2


def test_tail_leaves_ten_samples_beyond_it():
    assert run.tail(list(range(1, 101))) == (90.0, 90)
    assert run.tail(list(range(1, 1001))) == (90.0, 900)
    pct, value = run.tail(list(range(1, 61)))
    assert value == 50 and 60 - value == run.TAIL_BEYOND
    assert run.tail([3.0, 1.0, 2.0]) == (200 / 3, 2.0)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, section):
    proc = _bench(ROOT, "--workload", "demo-suite", "--seed", "1",
                  "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "demo-suite", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced_counts(workload, tmp_path):
    tracer = tracing.Tracer()
    protos = workloads.generate(workload, 1)
    for proto in protos:
        path = tmp_path / f"{proto.name}.qgp"
        path.write_text(proto.text, encoding="utf-8")
    restore = tracer.install()
    try:
        for proto in protos:
            assert _run(tmp_path / f"{proto.name}.qgp", proto.fmt)[0] == 0
    finally:
        restore()
    summary = tracing.summarize(tracer.spans, runs=len(protos))
    return {k: v for k, v in summary.items() if k.endswith(".calls")}


def test_traced_counts_repeat_and_split_the_eigensolver(tmp_path):
    long_script = _traced_counts("long-script", tmp_path)
    assert long_script == _traced_counts("long-script", tmp_path)
    assert "linalg.hermitian_eig.calls" not in long_script
    assert long_script["quantum.statmat.calls"] > 0
    eigen = _traced_counts("eigen-d8", tmp_path)
    assert eigen == _traced_counts("eigen-d8", tmp_path)
    assert eigen["linalg.hermitian_eig.calls"] > 0
