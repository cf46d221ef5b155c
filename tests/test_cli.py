"""End-to-end command line tests; computations run in subprocesses."""

import json
import os
import subprocess
import sys

import pytest

from xxchain import cli, scan
from xxchain.entanglement import concurrence_closed_form
from xxchain.model import BASIS_LABELS, ChainParams, Temperature, thermal_coefficients
from xxchain.numerics import BracketError
from xxchain.scan import SENTINEL
from xxchain.teleportation import (
    fidelity_critical_temp,
    optimal_fidelity,
    singlet_fraction_closed_form,
)

from test_scan import read_through_fifo
from test_teleportation import ROOTS_PAST_THE_FLOAT_RANGE


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "xxchain", *argv],
        capture_output=True,
        text=True,
    )


class TestCompute:
    def test_default_prints_all_scalars(self):
        proc = run_cli("compute", "--j", "1", "--b", "0", "--b1", "0", "--kbt", "0.5")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert set(payload) == {"concurrence", "fidelity", "singletFraction"}
        # frozen from the closed forms at (J=1, B=0, B1=0, kbT=0.5)
        assert abs(payload["concurrence"] - 0.5516069851487519) < 1e-12
        assert abs(payload["singletFraction"] - 0.7758034925743759) < 1e-12
        assert abs(payload["fidelity"] - 0.8505356617162506) < 1e-12

    def test_default_keys_are_the_thermal_rows_of_the_scan_table(self, capsys):
        assert cli.main(["compute", "--j", "1", "--b", "0.3", "--b1", "-0.7", "--kbt", "0.9"]) == 0
        thermal = {name for name, (required, _, _) in scan._TABLE.items() if "kbT" in required}
        assert set(json.loads(capsys.readouterr().out)) == thermal
        assert thermal == {"concurrence", "fidelity", "singletFraction"}

    @pytest.mark.parametrize(
        "point", [(1.0, 0.0, 0.0, 0.5), (-0.7, 1.3, -2.1, 0.35), (2.5e-3, -4.0, 5.5, 7.0)]
    )
    def test_each_observable_prints_the_scalar_api_bits(self, capsys, point):
        params, temp = ChainParams(*point[:3]), Temperature(point[3])
        fraction = singlet_fraction_closed_form(params, temp)
        expected = {
            "concurrence": ("concurrence", concurrence_closed_form(thermal_coefficients(params, temp))),
            "fidelity": ("fidelity", optimal_fidelity(fraction)),
            "singlet-fraction": ("singletFraction", fraction),
        }
        j, b, b1, kbt = map(repr, point)
        argv = ["compute", "--j", j, "--b", b, "--b1", b1, "--kbt", kbt, "--observable"]
        for option, (name, value) in expected.items():
            assert cli.main(argv + [option]) == 0
            assert {name: repr(value)} == {
                key: repr(number) for key, number in json.loads(capsys.readouterr().out).items()
            }
            assert cli.main(argv + [option, "--format", "csv"]) == 0
            assert capsys.readouterr().out == f"observable,value\n{name},{value!r}\n"

    def test_single_observable_csv(self):
        proc = run_cli(
            "compute", "--j", "1", "--b", "0", "--b1", "0", "--kbt", "0.5",
            "--observable", "concurrence", "--format", "csv",
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "observable,value"
        name, value = lines[1].split(",")
        assert name == "concurrence"
        assert abs(float(value) - 0.5516069851487519) < 1e-12

    def test_state_observable(self):
        proc = run_cli(
            "compute", "--j", "1", "--b", "0", "--b1", "0", "--kbt", "0.5",
            "--observable", "state",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["basis"] == ["00", "01", "10", "11"]
        assert payload["basis"] == list(BASIS_LABELS)
        trace = sum(payload["real"][k][k] for k in range(4))
        assert abs(trace - 1.0) < 1e-12
        assert abs(payload["real"][1][2] + 0.38079707797788244) < 1e-12
        assert all(abs(v) == 0.0 for row in payload["imag"] for v in row)

    def test_state_at_a_subnormal_temperature_has_no_negative_zero(self, capsys):
        # Both doublet factors underflow, so the coherence weight is -0.0;
        # the normalized state holds 0.0 there.
        argv = ["compute", "--observable", "state", "--j", "1", "--b", "3", "--b1", "0"]
        assert cli.main(argv + ["--kbt", "5e-324"]) == 0
        text = capsys.readouterr().out
        assert "-0.0" not in text
        assert json.loads(text)["real"] == [[float(r == c == 0) for c in range(4)] for r in range(4)]

    def test_state_csv_rejected(self):
        proc = run_cli(
            "compute", "--j", "1", "--b", "0", "--b1", "0", "--kbt", "0.5",
            "--observable", "state", "--format", "csv",
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_invalid_temperature(self):
        proc = run_cli("compute", "--j", "1", "--b", "0", "--b1", "0", "--kbt", "-1")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    @pytest.mark.parametrize(
        "extra", [("--kbt", "1"), ("--kbt", "1", "--observable", "concurrence"),
                  ("--kbt", "0", "--observable", "state")],
    )
    def test_overflowing_site_1_field_exits_2(self, capsys, extra):
        argv = ["compute", "--j", "1", "--b", "1.7e308", "--b1", "1.7e308", *extra]
        assert cli.main(argv) == 2
        message = "site-1 field b + b1 overflows (b = 1.7e+308, b1 = 1.7e+308)"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_overflowing_eta_exits_2(self, capsys):
        argv = ["compute", "--j", "1.7e308", "--b", "0", "--b1", "1.7e308", "--kbt", "1"]
        assert cli.main(argv) == 2
        message = "eta = hypot(j, b1/2) overflows (j = 1.7e+308, b1 = 1.7e+308)"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "kbt, extra", [(1.0, ()), (1.0, ("--observable", "state")), (0.0, ("--observable", "state"))],
    )
    def test_overflowing_doublet_shift_prints_the_scaled_point(self, capsys, kbt, extra):
        # The larger shift eta + |b1|/2 overflows here, which exited 2. The
        # output is that of the point scaled by 2^-16, kbT too, bit for bit.
        outputs = []
        for scale in (1.0, 2.0 ** -16):
            j, b1, t = (repr(scale * x) for x in (1.5e308, 1e308, kbt))
            assert cli.main(["compute", "--j", j, "--b", "0", "--b1", b1, "--kbt", t, *extra]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0], parse_constant=pytest.fail)

    def test_zero_temperature_scalars_point_to_the_state_observable(self):
        proc = run_cli("compute", "--j", "1", "--b", "0.3", "--b1", "0.5", "--kbt", "0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--observable state" in proc.stderr

    @pytest.mark.parametrize(
        "observable",
        [[], ["--observable", "concurrence"], ["--observable", "state"]],
        ids=["scalars", "concurrence", "state"],
    )
    def test_uncoupled_chain_exits_2(self, capsys, observable):
        argv = ["compute", "--j", "0", "--b", "0", "--b1", "1", "--kbt", "1", *observable]
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        # Names the Python route as such, and says that a shell has none.
        assert "gibbs_oracle in Python" in captured.err
        assert "command line has no j = 0 route" in captured.err


class TestCritical:
    def test_entanglement_notes_b_independence(self):
        proc = run_cli(
            "critical", "--kind", "entanglement", "--j", "1", "--b1", "2", "--b", "3",
        )
        assert proc.returncode == 0
        assert "does not depend on --b" in proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["exists"] is True
        # frozen from sqrt(2) / log(sqrt(2) + sqrt(3))
        assert abs(payload["value"] - 1.2338108752823214) < 1e-9

    def test_entanglement_without_b_is_quiet(self):
        proc = run_cli("critical", "--kind", "entanglement", "--j", "1", "--b1", "2")
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_entanglement_beyond_float_range_quotient(self, capsys):
        argv = ["critical", "--kind", "entanglement", "--j", "1e-160", "--b1", "1e160"]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        # frozen from eta / log(2 eta / |j|) = 5e159 / (320 log 10)
        assert abs(payload["value"] - 6.78585127973831e156) < 1e-12 * 6.78585127973831e156

    def test_entanglement_where_hypot_overflows(self, capsys):
        # eta + hypot(j, eta) overflows, eta / |j| does not; the suite turns
        # every warning into an error.
        argv = ["critical", "--kind", "entanglement", "--j", "1.2e308", "--b1", "1.79e308"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1.4311261595231457e308
        argv = ["critical", "--kind", "entanglement", "--j", "1.6e308", "--b1", "0"]
        assert cli.main(argv) == 2
        message = "entanglement threshold eta / asinh(eta/|j|) overflows (j = 1.6e+308, b1 = 0.0)"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("kind", ["entanglement", "fidelity"])
    def test_overflowing_site_1_field_exits_2(self, capsys, kind):
        argv = ["critical", "--kind", kind, "--j", "1", "--b", "1e308", "--b1", "1e308"]
        assert cli.main(argv) == 2
        message = "site-1 field b + b1 overflows (b = 1e+308, b1 = 1e+308)"
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_fidelity_value(self):
        proc = run_cli(
            "critical", "--kind", "fidelity", "--j", "1", "--b", "0", "--b1", "2",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        # frozen from the mpmath root of sinh(sqrt(2) beta) = sqrt(2) cosh(beta)
        assert abs(payload["value"] - 0.8640336929571266) < 1e-8
        assert payload["exists"] is True
        assert payload["iterations"] > 0

    @pytest.mark.parametrize("point", ROOTS_PAST_THE_FLOAT_RANGE)
    def test_fidelity_root_past_the_float_range_exits_3(self, capsys, point):
        j, b, b1 = map(repr, point)
        assert cli.main(["critical", "--kind", "fidelity", "--j", j, "--b", b, "--b1", b1]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: beta = 1/kbT passes the float range on [")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        ("j", "message"),
        [
            ("9e5", "no sign change on [1e-06, 1.11111e-06]: fn(lo) = 1.078090e-02, fn(hi) = 6.445292e-02"),
            ("1e-310", "beta = 1/kbT passes the float range on [1e-06, inf] (eta = 1e-310)"),
        ],
    )
    def test_fidelity_solver_failure_lines(self, capsys, j, message):
        # Both kinds of BracketError, line for line.
        assert cli.main(["critical", "--kind", "fidelity", "--j", j, "--b", "0", "--b1", "0"]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_fidelity_root_just_inside_the_float_range_is_strict_json(self, capsys):
        assert cli.main(["critical", "--kind", "fidelity", "--j", "1.1e-308", "--b1", "0"]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["exists"] is True and payload["value"] > 0.0

    def test_fidelity_nonexistent_is_null_not_error(self):
        proc = run_cli(
            "critical", "--kind", "fidelity", "--j", "1", "--b", "5", "--b1", "0",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["value"] is None
        assert payload["exists"] is False
        assert "field dominates" in payload["note"]

    def test_csv_format(self):
        proc = run_cli(
            "critical", "--kind", "fidelity", "--j", "1", "--b", "0", "--b1", "0",
            "--format", "csv",
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "value,exists,residual"
        value = lines[1].split(",")[0]
        assert abs(float(value) - 1.1345926571065110) < 1e-8


class TestScan:
    def test_preset_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        for out in (first, second):
            proc = run_cli("scan", "--preset", "fig2", "--out", str(out))
            assert proc.returncode == 0
            printed = proc.stdout.splitlines()
            assert printed == [str(out), str(out) + ".meta.json"]
        assert first.read_bytes() == second.read_bytes()

    def test_a_fifo_takes_the_table_alone(self, tmp_path):
        # A stream gets no sidecar and no path lines: stdout stays empty.
        fifo = tmp_path / "fig3.fifo"
        os.mkfifo(fifo)
        proc, streamed = read_through_fifo(
            fifo, lambda: run_cli("scan", "--preset", "fig3", "--out", str(fifo))
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert not os.path.lexists(f"{fifo}.meta.json")
        table = tmp_path / "fig3.csv"
        assert run_cli("scan", "--preset", "fig3", "--out", str(table)).returncode == 0
        assert streamed == table.read_bytes()

    def test_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "observable": "concurrence",
                    "fixed": {"J": 1.0, "B": 0.0, "B1": 0.0},
                    "axes": [{"name": "kbT", "lo": 0.1, "hi": 2.0, "points": 3}],
                }
            )
        )
        out = tmp_path / "rows.csv"
        proc = run_cli("scan", "--spec", str(spec_path), "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kbT,concurrence"
        assert len(lines) == 4

    def test_bad_spec_exits_2(self, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"observable": "entropy", "axes": []}))
        proc = run_cli("scan", "--spec", str(spec_path), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("fixed", [[], None, "x"])
    def test_fixed_not_an_object_exits_2(self, tmp_path, capsys, fixed):
        spec_path = tmp_path / "bad.json"
        axes = [{"name": "kbT", "lo": 0.1, "hi": 1, "points": 3}]
        spec_path.write_text(json.dumps({"observable": "concurrence", "fixed": fixed, "axes": axes}))
        assert cli.main(["scan", "--spec", str(spec_path), "--out", str(tmp_path / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed scan spec: fixed must be an object, got {fixed!r}\n"

    def test_unallocatable_axis_exits_2(self, tmp_path, capsys):
        # 1e15 points need 7.11 PiB, an allocation that fails at once.
        spec_path = tmp_path / "huge.json"
        axes = [{"name": "kbT", "lo": 0.1, "hi": 1, "points": 1000000000000000}]
        fixed = {"J": 1.0, "B": 0.0, "B1": 0.0}
        spec_path.write_text(json.dumps({"observable": "concurrence", "fixed": fixed, "axes": axes}))
        out = tmp_path / "x.csv"
        assert cli.main(["scan", "--spec", str(spec_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [spec_path]

    @pytest.mark.parametrize("observable", ["criticalTempEntanglement", "criticalTempFidelity"])
    def test_fixed_zero_coupling_writes_sentinels(self, tmp_path, observable):
        # No threshold exists at J = 0: every cell is the sentinel, as is
        # the J = 0 row of the same scan with J swept through 0.
        b1_axis = {"name": "B1", "lo": -2.0, "hi": 2.0, "points": 5}
        specs = {
            "fixed": {"fixed": {"J": 0, "B": 0.5}, "axes": [b1_axis]},
            "swept": {
                "fixed": {"B": 0.5},
                "axes": [{"name": "J", "lo": -1.0, "hi": 1.0, "points": 3}, b1_axis],
            },
        }
        cells = {}
        for name, spec in specs.items():
            spec_path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            spec_path.write_text(json.dumps({"observable": observable, **spec}))
            assert cli.main(["scan", "--spec", str(spec_path), "--out", str(out)]) == 0
            cells[name] = [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]]
        assert cells["fixed"] == [repr(SENTINEL)] * 5
        assert cells["swept"][5:10] == cells["fixed"]

    def test_missing_spec_file_exits_2(self, tmp_path):
        proc = run_cli(
            "scan", "--spec", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x.csv")
        )
        assert proc.returncode == 2

    def test_preset_and_spec_are_exclusive(self, tmp_path):
        proc = run_cli(
            "scan", "--preset", "fig2", "--spec", "x.json", "--out", str(tmp_path / "x.csv")
        )
        assert proc.returncode == 2


class TestEnvelope:
    def test_agreement_payload(self):
        proc = run_cli("envelope", "--j", "1", "--b1", "2")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["agree"] is True
        assert abs(payload["argmaxB"] + 1.0) < 1e-4
        assert abs(payload["maxT"] - payload["entanglementTc"]) < 1e-6

    def test_no_coupling_exits_2(self):
        proc = run_cli("envelope", "--j", "0", "--b1", "2")
        assert proc.returncode == 2

    def test_overflowing_search_width_exits_2(self, capsys):
        assert cli.main(["envelope", "--j", "4e307", "--b1", "0"]) == 2
        message = (
            "the envelope's search interval [-1.2e+308, 1.2e+308] is wider than the float range"
            " (eta = 4e+307)"
        )
        assert capsys.readouterr().err == f"error: {message}\n"


class TestVerify:
    def test_seeded_runs_are_identical(self):
        outputs = []
        for _ in range(2):
            proc = run_cli("verify", "--seed", "7", "--draws", "25")
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].rstrip().endswith("all checks passed")

    def test_json_format(self):
        proc = run_cli("verify", "--seed", "1", "--draws", "10", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 7


    def test_negative_draws_exit_2(self, capsys):
        assert cli.main(["verify", "--draws", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: draws must be >= 0, got -5\n"

    def test_negative_seed_exit_2(self, capsys):
        assert cli.main(["verify", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_unallocatable_draws_exit_2(self, capsys):
        # 1e15 draws need 28.4 PiB of doubles, an allocation that fails at once.
        assert cli.main(["verify", "--draws", "1000000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate") and captured.err.count("\n") == 1

    def test_zero_draws_pass(self, capsys):
        assert cli.main(["verify", "--draws", "0", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["draws"] == 0 and payload["passed"] is True
        assert [c["exercised"] for c in payload["checks"]] == [0, 0, 0, 0, 0, 4, 4]


class TestExitCodes:
    def test_no_subcommand(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_bracket_failure_maps_to_3(self, monkeypatch, capsys):
        def explode(params):
            raise BracketError("no sign change on [a, b]")

        monkeypatch.setattr(cli, "fidelity_critical_temp", explode)
        code = cli.main(
            ["critical", "--kind", "fidelity", "--j", "1", "--b", "0", "--b1", "0"]
        )
        assert code == 3
        assert "no sign change" in capsys.readouterr().err

    def test_a_reader_that_closes_the_pipe_early_ends_the_command_quietly(self):
        # fig1a's table, 250 kB, outgrows the pipe, so the command is still
        # writing it when the reader closes the pipe after the first line.
        # That exited 2 with "error: [Errno 32] Broken pipe".
        argv = [sys.executable, "-m", "xxchain", "scan", "--preset", "fig1a", "--out", "/dev/stdout"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"kbT,B,concurrence\n"
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait() == cli.EXIT_OK


class TestNegativeFloatValues:
    """A negative float in exponent form, or ``-inf``, reads as a value after a space.

    argparse alone reads such a token as an option name; every spaced
    spelling must print what its ``--opt=value`` spelling prints.
    """

    CASES = [
        ["compute", "--j=-1e0", "--b=-1e-3", "--b1=-2E-1", "--kbt=1"],
        ["compute", "--j=1", "--b=0", "--b1=0", "--kbt=-1e-3"],
        ["compute", "--j=1", "--b=0", "--b1=0", "--kb=-1e-3"],
        ["critical", "--kind", "fidelity", "--j=1e-150", "--b=-1e-150", "--b1=2e-150"],
        ["critical", "--kind", "entanglement", "--j=-1E+2", "--b1=-3e2"],
        ["envelope", "--j=-1e0", "--b1=-2e0"],
    ]

    @staticmethod
    def outcome(capsys, argv):
        code = cli.main(argv)
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("argv", CASES)
    def test_spaced_value_reads_as_with_equals(self, capsys, argv):
        spaced = [part for token in argv for part in token.split("=", 1)]
        assert self.outcome(capsys, spaced) == self.outcome(capsys, argv)

    def test_spaced_values_reach_the_library(self, capsys):
        code, out, _ = self.outcome(
            capsys,
            ["critical", "--kind", "fidelity", "--j", "1e-150", "--b", "-1e-150", "--b1", "2e-150"],
        )
        assert code == 0
        expected = fidelity_critical_temp(ChainParams(1e-150, -1e-150, 2e-150)).value
        assert json.loads(out)["value"] == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--j", "1", "--b", "-inf", "--b1", "0", "--kbt", "1"],
            ["critical", "--kind", "fidelity", "--j", "1", "--b", "-inf", "--b1", "0"],
        ],
    )
    def test_negative_infinity_exits_2(self, capsys, argv):
        assert self.outcome(capsys, argv) == (2, "", "error: parameter b must be finite\n")


class TestParserReuse:
    """``cli.main`` parses with one parser per process; no call may see another's options."""

    @staticmethod
    def json_of(capsys, *argv):
        assert cli.main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    def test_b_default_returns_after_an_explicit_b(self, capsys):
        argv = ["critical", "--kind", "fidelity", "--j", "1", "--b1", "0"]
        shifted = self.json_of(capsys, *argv, "--b", "0.3")
        plain = self.json_of(capsys, *argv)
        assert shifted["value"] == fidelity_critical_temp(ChainParams(1.0, 0.3, 0.0)).value
        assert plain["value"] == fidelity_critical_temp(ChainParams(1.0, 0.0, 0.0)).value

    def test_observable_default_returns_after_a_single_observable(self, capsys):
        argv = ["compute", "--j", "1", "--b", "0", "--b1", "0", "--kbt", "0.5"]
        assert set(self.json_of(capsys, *argv, "--observable", "fidelity")) == {"fidelity"}
        assert set(self.json_of(capsys, *argv)) == {"concurrence", "fidelity", "singletFraction"}

    def test_format_default_returns_after_csv(self, capsys):
        argv = ["critical", "--kind", "fidelity", "--j", "1", "--b", "0", "--b1", "0"]
        assert cli.main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "value,exists,residual"
        assert self.json_of(capsys, *argv)["exists"] is True

    def test_usage_error_between_good_calls(self, capsys):
        argv = ["compute", "--j", "1", "--b", "0", "--b1", "0", "--kbt", "0.5"]
        before = self.json_of(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "--j", "1", "--b", "0", "--kbt", "0.5", "--format", "xml"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert self.json_of(capsys, *argv) == before

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
