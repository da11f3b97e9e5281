import importlib
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import LN2, SEPARATION_HEAT
from qgas import cli, protocol
from qgas.cli import (
    CliConfig,
    _cfmt,
    _event_record,
    _render_records,
    main,
    parse_records,
    run_command,
)
from qgas.errors import DomainError
from qgas.thermo import LedgerEvent

EXPECTED_DEMOS = {
    "perfect-separation",
    "partial-separation",
    "peres-tatiana",
    "peres-willard",
    "jaynes-johann",
    "jaynes-marie",
}


def records(name, observer=None, tol=1e-9):
    code, out, err = run_command(
        CliConfig("demo", name, format="records", tol=tol, observer=observer)
    )
    assert code == 0, err
    return out


class TestListDemos:
    def test_exact_registry(self):
        code, out, _ = run_command(CliConfig("list-demos"))
        assert code == 0
        names = {line.split(":")[0] for line in out.strip().splitlines()}
        assert names == EXPECTED_DEMOS

    def test_via_main(self, capsys):
        assert main(["list-demos"]) == 0
        out = capsys.readouterr().out
        assert "peres-tatiana" in out


class TestRecordsFormat:
    def test_quantum_cycle_ends_with_violation_verdict(self):
        lines = records("peres-tatiana").strip().splitlines()
        assert lines[-1].startswith("verdict ")
        assert "classification=apparent_violation" in lines[-1]
        parsed = parse_records("\n".join(lines))
        final = parsed[-1]
        assert final["qOverT"] == pytest.approx(LN2 - SEPARATION_HEAT, abs=1e-9)

    def test_completed_cycle_verdicts(self):
        parsed = parse_records(records("peres-willard"))
        verdicts = [r for r in parsed if r["type"] == "verdict"]
        assert [v["classification"] for v in verdicts] == [
            "open_cycle", "consistent",
        ]
        assert verdicts[1]["qOverT"] == pytest.approx(-SEPARATION_HEAT, abs=1e-9)

    def test_round_trip_is_lossless(self):
        text = records("peres-willard")
        parsed = parse_records(text)
        events = [r for r in parsed if r["type"] == "event"]
        assert events
        for record in events:
            assert record["q"] == record["w"]
            assert isinstance(record["step"], int)
            assert "desc" in record
        # 12 significant digits survive the text round trip
        mix = next(r for r in events if r["kind"] == "mix")
        assert mix["q"] == pytest.approx(LN2, rel=1e-11)

    def test_every_emitted_field_is_typed(self):
        seen = set()
        for name in sorted(EXPECTED_DEMOS):
            text = records(name)
            for line, parsed in zip(text.splitlines(), parse_records(text)):
                keys = [m.group(1) for m in cli._FIELD_RE.finditer(line)]
                assert set(keys) <= set(cli._FIELD_TYPES), line
                for key in keys:
                    assert type(parsed[key]) is cli._FIELD_TYPES[key], (line, key)
                seen.update(keys)
        assert seen == set(cli._FIELD_TYPES)

    def test_byte_identical_across_invocations(self):
        for name in EXPECTED_DEMOS:
            assert records(name) == records(name)

    def test_observer_filter(self):
        text = records("peres-tatiana", observer="tatiana")
        verdicts = [r for r in parse_records(text) if r["type"] == "verdict"]
        assert len(verdicts) == 1
        assert verdicts[0]["observer"] == "tatiana"

    def test_record_format_sig_digits(self):
        event = LedgerEvent(3, "separate", -SEPARATION_HEAT, 'with "quotes"')
        record = _event_record(event)
        assert record.startswith("event step=3 kind=separate q=-0.4164955307 ")
        assert '\\"quotes\\"' in record
        # 12 significant digits round-trip
        q = float(record.split("q=")[1].split()[0])
        assert q == pytest.approx(-SEPARATION_HEAT, rel=1e-11)

    def test_verdict_record_format(self):
        result = protocol.run_demo("jaynes-johann")
        (record,) = [line for line in _render_records(result, None).splitlines()
                     if line.startswith("verdict ")]
        assert record.startswith("verdict observer=johann from=start")
        assert "qOverT=0.69314718056" in record
        assert "cycleClosed=true" in record
        assert record.endswith("classification=apparent_violation")

    @pytest.mark.parametrize("desc", [
        "back\\slash",
        "trailing backslash\\",
        'a \\"quoted\\" backslash',
        'ends in a quote"',
        "q=1 w=2",
        'q=1 w=2 desc="x" \\\\"',
    ])
    def test_description_round_trip(self, desc):
        event = LedgerEvent(7, "join", 0.25, desc)
        (parsed,) = parse_records(_event_record(event))
        assert parsed["desc"] == desc
        assert (parsed["step"], parsed["q"], parsed["w"]) == (7, 0.25, 0.25)

    def test_description_round_trip_fuzzed(self, rng):
        alphabet = list('\\" =qw12a')
        for _ in range(300):
            desc = "".join(rng.choice(alphabet, size=int(rng.integers(0, 12))))
            event = LedgerEvent(1, "mix", -0.5, desc)
            (parsed,) = parse_records(_event_record(event))
            assert (parsed["desc"], parsed["q"]) == (desc, -0.5)

    def test_unknown_record_type_rejected(self):
        with pytest.raises(ValueError, match="unknown record type 'bogus'"):
            parse_records("bogus x=1")


class TestTableFormat:
    def test_contains_ledger_verdicts_views(self):
        code, out, _ = run_command(CliConfig("demo", "peres-tatiana"))
        assert code == 0
        assert "ledger:" in out
        assert "classification=apparent_violation" in out
        assert "final views:" in out
        assert "observer tatiana:" in out

    def test_observer_filter_views_an_empty_chamber(self, tmp_path):
        path = tmp_path / "empty.qgp"
        path.write_text(
            "space lab dim 2\nket z+ = [1, 0]\nket z- = [0, 1]\nket one = [1]\n"
            "gas g from ket z+\n"
            "observer me table { z+ -> z+, z- -> z- } dim 2\n"
            "observer blind table { z+ -> one, z- -> one } dim 1\n"
            "chamber c volume 1.0\nchamber e volume 1.0\n"
            "fill c { g : 1.0 } moles 1.0\n"
        )
        code, out, err = run_command(CliConfig("run", str(path), observer="me"))
        assert (code, err) == (0, "")
        assert out == (
            "ledger:\n"
            "  step  kind                       Q                 W  description\n"
            "final views:\n"
            "  observer me:\n"
            "    c: V=1 n=1  1 * (1, 0)\n"
            "    e: V=1 n=0  (empty)\n"
        )

    def test_unknown_observer_filter(self):
        for fmt in cli.FORMATS:
            assert run_command(
                CliConfig("demo", "peres-tatiana", format=fmt, observer="nobody")
            ) == (1, "", "error: no observer named 'nobody'\n")

    @pytest.mark.parametrize("z, text", [
        (complex(1, 4.92257e-17), "1"),
        (complex(-1e-13, 0.25), "0+0.25i"),
        (complex(-0.0, -0.0), "0"),
        (complex(-3e-17, 0), "0"),
        (complex(0.5, -2e-12), "0.5-2e-12i"),
    ])
    def test_number_format_snaps_round_off(self, z, text):
        assert _cfmt(z) == text


class TestExitCodes:
    def test_unknown_command_exits_1(self):
        assert run_command(CliConfig("frobnicate")) == (
            1, "", "error: unknown command 'frobnicate'\n")

    def test_unknown_demo_exits_1(self):
        code, _, err = run_command(CliConfig("demo", "missing-demo"))
        assert code == 1
        assert "unknown demo" in err

    def test_missing_file_exits_1(self, tmp_path):
        code, _, err = run_command(CliConfig("run", str(tmp_path / "none.qgp")))
        assert code == 1
        assert err

    def test_non_utf8_file_exits_1(self, tmp_path):
        path = tmp_path / "latin1.qgp"
        path.write_bytes(b"space lab dim 2\n# caf\xe9\n")
        code, out, err = run_command(CliConfig("run", str(path)))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ")
        assert "0xe9 in position 21" in err
        assert err.count("\n") == 1

    def test_byte_order_mark_is_accepted(self, tmp_path):
        source = protocol.demo_source("perfect-separation").encode("utf-8")
        plain, marked = tmp_path / "plain.qgp", tmp_path / "marked.qgp"
        plain.write_bytes(source)
        marked.write_bytes(b"\xef\xbb\xbf" + source)
        code, out, err = run_command(CliConfig("run", str(plain)))
        assert (code, err) == (0, "")
        assert run_command(CliConfig("run", str(marked))) == (code, out, err)

    def test_parse_error_exits_1(self, tmp_path):
        path = tmp_path / "bad.qgp"
        path.write_text("space lab dim\n")
        code, _, err = run_command(CliConfig("run", str(path)))
        assert code == 1
        assert "parse error" in err
        assert "line 1" in err

    def test_overflowing_ket_entry_exits_1(self, tmp_path):
        # 1e999 parses to inf; it used to normalize to a nan ket silently
        path = tmp_path / "inf-ket.qgp"
        path.write_text("space lab dim 2\nket z+ = [1e999, 0]\n")
        code, out, err = run_command(CliConfig("run", str(path)))
        assert (code, out) == (1, "")
        assert "line 2" in err and "non-finite" in err

    @pytest.mark.parametrize("declarations, step", [
        # the norm of this ket overflowed with a RuntimeWarning: an internal
        # error under python -W error
        ("space lab dim 2\nket a = [1e308, 1e308]\n", ""),
        # mappings orthonormal within ORTHONORMAL_TOL that used to be refused
        # as not extending to a unitary
        ("space lab dim 3\nket a = [1, 3e-8, 0]\nket e2 = [0, 0, 1]\n",
         "rotate c map { a -> e2 }\n"),
        ("space lab dim 2\nket z+ = [1, 0]\nket a = [9e-11, 1]\n",
         "rotate c map { z+ -> z+, a -> a }\n"),
    ], ids=["huge-ket", "near-axis-map", "near-identity-map"])
    def test_valid_protocol_exits_0_without_a_warning(self, tmp_path,
                                                      declarations, step):
        path = tmp_path / "valid.qgp"
        path.write_text(declarations + "gas g from ket a\nchamber c volume 1.0\n"
                        "fill c { g : 1.0 } moles 1.0\n" + step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_command(CliConfig("run", str(path)))
        assert (code, err) == (0, "")

    def test_overflowing_gas_matrix_fails_at_its_declaration(self, tmp_path):
        # reported where the state is declared, not at its first step
        path = tmp_path / "huge.qgp"
        path.write_text("space lab dim 2\n"
                        "gas g matrix [[1e308, 1e308], [1e308, 1e308]]\n"
                        "chamber c volume 1.0\n"
                        "fill c { g : 1.0 } moles 1.0\n"
                        "separate c by eigenbasis into a b\n")
        code, out, err = run_command(CliConfig("run", str(path)))
        assert (code, out) == (1, "")
        assert err == "runtime error: declaration (line 2): trace must be 1, got nan\n"

    def test_subnormal_temperature_fails_at_its_declaration(self, tmp_path):
        # a subnormal T made a two-mole mix log q = 1.38634820223e-320
        # instead of 2 ln 2 * 1e-320
        path = tmp_path / "cold.qgp"
        path.write_text("space lab dim 2\ntemp 1e-320\n")
        code, out, err = run_command(CliConfig("run", str(path)))
        assert (code, out) == (1, "")
        assert err == ("runtime error: declaration (line 2): temperature must"
                       " be finite and at least 2.2250738585072014e-308,"
                       " got 1e-320\n")

    def test_subnormal_heat_fails_at_its_step(self, tmp_path):
        # a normal T times a tiny amount logged q = 1.38634820223e-320
        # instead of 2e-20 * ln 2 * 1e-300
        path = tmp_path / "tiny.qgp"
        path.write_text(
            "space lab dim 2\ntemp 1e-300\nket a = [1, 0]\nket b = [0, 1]\n"
            "gas ga from ket a\ngas gb from ket b\n"
            "chamber c volume 1.0\nchamber d volume 1.0\n"
            "fill c { ga : 1.0 } moles 1e-20\nfill d { gb : 1.0 } moles 1e-20\n"
            "checkpoint s\nmix c d into e by povm { a, b }\n")
        code, out, err = run_command(CliConfig("run", str(path)))
        assert (code, out) == (1, "")
        assert err == ("runtime error: step 1 (line 12): heat must be 0 or at least"
                       " 2.2250738585072014e-308 in size, got 1.3863e-320\n")

    def test_ragged_gas_matrix_exits_1(self, tmp_path):
        path = tmp_path / "ragged.qgp"
        path.write_text("space lab dim 2\ngas g matrix [[1, 0], [0]]\n")
        code, out, err = run_command(CliConfig("run", str(path)))
        assert (code, out) == (1, "")
        assert err.startswith(
            "runtime error: declaration (line 2): matrix is not a regular array")


    @pytest.mark.parametrize("source, where", [
        ("space lab dim 1e400\n", "parse error: line 1, column 15: non-finite"),
        ("space lab dim 2\ntemp 1e400\n", "parse error: line 2, column 6: non-finite"),
        ("space lab dim 2\nchamber c volume 1e999\n",
         "parse error: line 2, column 18: non-finite"),
        # two finite volumes whose sum overflows
        ("space lab dim 2\nket z+ = [1, 0]\nket z- = [0, 1]\n"
         "gas up from ket z+\ngas down from ket z-\n"
         "chamber a volume 1e308\nchamber b volume 1e308\n"
         "fill a { up : 1.0 } moles 0.5\nfill b { down : 1.0 } moles 0.5\n"
         "mix a b into c by povm { z+, z- }\n",
         "runtime error: step 0 (line 10): volume must be positive and finite"),
        # two finite mole counts whose sum overflows
        ("space lab dim 2\nket z+ = [1, 0]\nket z- = [0, 1]\n"
         "gas up from ket z+\ngas down from ket z-\n"
         "chamber a volume 1.0\nchamber b volume 1.0\n"
         "fill a { up : 1.0 } moles 1.5e308\nfill b { down : 1.0 } moles 1.5e308\n"
         "mix a b into c by povm { z+, z- }\n",
         "runtime error: step 0 (line 10): chamber 'c' holds inf moles"),
    ], ids=["dim", "temp", "volume", "volume-sum", "moles-sum"])
    def test_non_finite_input_exits_1(self, tmp_path, source, where):
        path = tmp_path / "huge.qgp"
        path.write_text(source)
        code, out, err = run_command(CliConfig("run", str(path)))
        assert (code, out) == (1, "")
        assert err.startswith(where)

    def test_unexpected_exception_exits_1(self, monkeypatch):
        def broken(ast, tol):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(protocol, "execute", broken)
        code, out, err = run_command(CliConfig("demo", "perfect-separation"))
        assert (code, out) == (1, "")
        assert err == "internal error: LinAlgError: Eigenvalues did not converge\n"

    def test_runtime_error_exits_1(self, tmp_path):
        path = tmp_path / "bad-mix.qgp"
        path.write_text(
            "space lab dim 2\n"
            "ket z+ = [1, 0]\n"
            "ket z- = [0, 1]\n"
            "ket x+ = [1, 1]\n"
            "gas gz from ket z+\n"
            "gas gx from ket x+\n"
            "chamber a volume 0.5\n"
            "chamber b volume 0.5\n"
            "fill a { gz : 1.0 } moles 0.5\n"
            "fill b { gx : 1.0 } moles 0.5\n"
            "mix a b into c by povm { z+, z- }\n"
        )
        code, _, err = run_command(CliConfig("run", str(path)))
        assert code == 1
        assert "runtime error" in err

    def test_assert_closed_failure_exits_2(self, tmp_path):
        path = tmp_path / "open.qgp"
        path.write_text(
            "space lab dim 2\n"
            "ket z+ = [1, 0]\n"
            "ket z- = [0, 1]\n"
            "gas g from ket z+\n"
            "observer me table { z+ -> z+, z- -> z- } dim 2\n"
            "chamber c volume 1.0\n"
            "fill c { g : 1.0 } moles 1.0\n"
            "checkpoint start\n"
            "rotate c map { z+ -> z-, z- -> z+ }\n"
            "assert-closed me from start\n"
        )
        code, _, err = run_command(CliConfig("run", str(path)))
        assert code == 2
        assert "assert-closed" in err

    def test_run_file_success(self, tmp_path):
        path = tmp_path / "ok.qgp"
        path.write_text(
            "space lab dim 2\n"
            "ket z+ = [1, 0]\n"
            "ket z- = [0, 1]\n"
            "gas g from ket z+\n"
            "chamber c volume 1.0\n"
            "fill c { g : 1.0 } moles 1.0\n"
            "checkpoint start\n"
            "separate c by povm { z+, z- } into keep drop\n"
        )
        code, out, _ = run_command(CliConfig("run", str(path)))
        assert code == 0
        assert "separate" in out

    def test_violation_is_not_a_failure(self):
        code, _, _ = run_command(CliConfig("demo", "jaynes-johann"))
        assert code == 0


class TestMainEntry:
    def test_main_with_flags(self, capsys):
        assert main(["demo", "peres-willard", "--format", "records"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("classification=consistent\n")

    def test_main_no_command(self, capsys):
        assert main([]) == 1

    def test_bad_tolerance(self, capsys):
        assert main(["demo", "peres-tatiana", "--tol", "-1"]) == 1
        assert "tol" in capsys.readouterr().err
        # an infinite tolerance would call willard's open cycle closed
        assert main(["demo", "peres-willard", "--format", "records",
                     "--tol", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol" in captured.err

    def test_empty_run_path_is_a_plain_error(self, capsys):
        # an empty path fell through to the absent demo name, None
        assert main(["run", ""]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_console_script_is_main(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        module, _, name = config["project"]["scripts"]["qgas"].partition(":")
        assert getattr(importlib.import_module(module), name) is main

    def test_module_invocation_deterministic(self):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "qgas", "demo", "peres-tatiana",
                 "--format", "records"],
                capture_output=True, text=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.strip().splitlines()[-1].endswith(
            "classification=apparent_violation"
        )


def test_unknown_format_is_rejected(capsys):
    with pytest.raises(DomainError, match="format must be one of table, records"):
        CliConfig("demo", "perfect-separation", "json")
    with pytest.raises(SystemExit) as exit_info:
        main(["demo", "perfect-separation", "--format", "json"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'json'" in captured.err


@pytest.mark.parametrize("tol", [0.0, float("inf"), 0.5])
def test_run_command_validates_tol(tol):
    # execute checks the range once; the CLI reports it as a plain error
    code, out, err = run_command(CliConfig("demo", "peres-tatiana", tol=tol))
    assert (code, out) == (1, "")
    assert err == (f"error: tol must be positive and finite, got {tol};"
                   " its range is (0, 0.5)\n")


# two samples of one gas, merged by membranes that tell neither apart
SAME_GAS_MIX = """\
space lab dim 2
ket z+ = [1, 0]
ket z- = [0, 1]
ket x+ = [1, 1]
ket x- = [1, -1]
gas g from ket z+
observer me table { z+ -> z+, z- -> z- } dim 2
chamber a volume 0.5
chamber b volume 0.5
fill a { g : 1.0 } moles 0.5
fill b { g : 1.0 } moles 0.5
checkpoint start
mix a b into c by povm { x+, x- }
partition c at 0.5 into a b
audit me from start
"""


def test_tol_at_which_mix_merges_one_gas_exits_1(tmp_path, capsys):
    # at --tol 0.6, x+ passes both z+ samples with p = 1/2: the mix
    # absorbed ln 2 and the fully informed observer reported a violation
    path = tmp_path / "same-gas.qgp"
    path.write_text(SAME_GAS_MIX)
    assert main(["run", str(path), "--format", "records", "--tol", "0.6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tol must be positive and finite, got 0.6")
    code, _, err = run_command(CliConfig("run", str(path), format="records"))
    assert code == 1
    assert "distinguishes neither chamber" in err


def test_tol_is_the_apparent_violation_threshold():
    # tatiana's closed cycle has Q/T = 0.2767: a violation at the default
    # tol, consistent at tol 0.3
    verdicts = {r["observer"]: r for r in parse_records(records("peres-tatiana", tol=0.3))
                if r["type"] == "verdict"}
    assert verdicts["tatiana"]["cycleClosed"] is True
    assert verdicts["tatiana"]["classification"] == "consistent"


_AMOUNT_RE = re.compile(r"\b(volume|moles) (\S+)")


def _verdicts_of(tmp_path, source):
    path = tmp_path / "protocol.qgp"
    path.write_text(source, encoding="utf-8")
    code, out, _ = run_command(CliConfig("run", str(path), format="records"))
    return code, [(r["observer"], r["cycleClosed"], r["classification"])
                  for r in parse_records(out) if r["type"] == "verdict"]


@pytest.mark.parametrize("scale", [1e-12, 1e9])
@pytest.mark.parametrize("name", protocol.DEMO_NAMES)
def test_verdicts_do_not_depend_on_the_amount_of_gas(tmp_path, name, scale):
    # closure and Q/T > tol were absolute: 1e-12 moles turned an apparent
    # violation consistent, and 1e9 opened closed cycles
    source = protocol.demo_source(name)
    scaled = _AMOUNT_RE.sub(lambda m: f"{m[1]} {float(m[2]) * scale!r}", source)
    assert scaled != source
    assert _verdicts_of(tmp_path, scaled) == _verdicts_of(tmp_path, source)
