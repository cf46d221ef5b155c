"""End-to-end command line tests; computations run in subprocesses."""

import json
import subprocess
import sys

import pytest

from xxchain import cli
from xxchain.model import BASIS_LABELS, ChainParams
from xxchain.numerics import BracketError
from xxchain.teleportation import fidelity_critical_temp


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

    def test_zero_temperature_scalars_point_to_the_state_observable(self):
        proc = run_cli("compute", "--j", "1", "--b", "0.3", "--b1", "0.5", "--kbt", "0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--observable state" in proc.stderr


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
            raise BracketError("no sign change on [a, b]", f_lo=-1.0, f_hi=-2.0)

        monkeypatch.setattr(cli, "fidelity_critical_temp", explode)
        code = cli.main(
            ["critical", "--kind", "fidelity", "--j", "1", "--b", "0", "--b1", "0"]
        )
        assert code == 3
        assert "no sign change" in capsys.readouterr().err


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
