"""Scenario runner: exit codes, report schema, determinism, config handling."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkoszul import cli, exact, koszul
from qkoszul.cli import builtin_config, main, run_scenario
from qkoszul.exact import ConstantOperator, ContractViolationError, MultiPoly, OrderMismatchError
from qkoszul.lie import LieAlgebraData
from reference_poly import JACOBI_BREAKING

CLI = [sys.executable, "-m", "qkoszul.cli"]
SUMS = Path(__file__).parent / "report_sums.sha256"


def run(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, env=full_env)


def off_by_one_weight(monkeypatch):
    """Give the tube homotopy the weight m_a/(|m_v|+k+1): every homotopy and
    division operator, on a polynomial or a series, goes through
    ``MultiPoly.weighted_diff``."""
    weighted_diff = MultiPoly.weighted_diff
    monkeypatch.setattr(MultiPoly, "weighted_diff",
                        lambda p, var, weight_vars, k: weighted_diff(p, var, weight_vars, k + 1))


def fail(name: str, **witness) -> dict:
    """A failing report entry with its witness."""
    return {"name": name, "status": "fail", "witness": witness}


# the first and the fourth sample on T*R² at the builtins' seed 2024, and
# the third at 2026, the knp suite's upstairs seed: the witnesses of the
# checks that a wrong tube weight or a forward straightening fails
SAMPLE_0 = "(-1/4)+(0/1)i*q2*p2 + (-1/12)+(0/1)i*p1"
SAMPLE_3 = "(-3/4)+(0/1)i*q1*q2*p1 + (-1/4)+(0/1)i*q2^2 + (2/1)+(0/1)i*q2*p2"
KNP_SAMPLE_2 = "(2/3)+(0/1)i*q1^2*p1 + (4/3)+(0/1)i*q2*p2 + (5/3)+(0/1)i"
WRONG_WEIGHT_KNP = [
    fail("knp.deformed_restriction_equals_quantum_restriction", f=KNP_SAMPLE_2,
         knp="λ^0: (4/3)+(0/1)i*q2*p2 + (5/3)+(0/1)i\nλ^1: (0/1)-(1/3)i*q1",
         quantum="λ^0: (4/3)+(0/1)i*q2*p2 + (5/3)+(0/1)i\nλ^1: (0/1)-(2/3)i*q1"),
    fail("knp.division_identity", f=KNP_SAMPLE_2)]


class TestBasics:
    def test_list_scenarios(self):
        res = run("--list-scenarios")
        assert res.returncode == 0
        names = res.stdout.decode().split()
        assert "s1-translation" in names and "axioms-std" in names

    def test_missing_arguments(self):
        res = run()
        assert res.returncode == 2
        assert res.stderr.decode().startswith("config error: one of the arguments")

    def test_unknown_scenario(self):
        res = run("--scenario", "no-such-thing")
        assert res.returncode == 2
        assert b"config error" in res.stderr

    @pytest.mark.parametrize("args", (
        ("--scenario", "axioms-weyl", "--config", "ce.json"),
        ("--scenario", "s1p-single", "--seed", "abc"),
        ("--scenario", "s1p-single", "--format", "xml"),
        ("--scenario", "s1p-single", "--bogus"),
        ("--scenario", "s1p-single", "--list-scenarios")))
    def test_a_bad_command_line_is_one_config_error(self, args, tmp_path, capsys):
        # a valid config does not let --scenario through beside it
        config = tmp_path / "ce.json"
        config.write_text(json.dumps({"name": "ce-heisenberg", **cli.SCENARIOS["ce-heisenberg"]}))
        assert main([str(config) if a == "ce.json" else a for a in args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("config error: ")

    def test_help_prints_usage_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0 and capsys.readouterr().out.startswith("usage: qkoszul")


    def test_internal_error_is_not_a_config_error(self, monkeypatch, capsys):
        def broken(cfg):
            raise ContractViolationError("operator did not raise minimal order")

        monkeypatch.setattr(cli, "run_scenario", broken)
        assert main(["--scenario", "s1p-single"]) == 3
        err = capsys.readouterr().err
        assert "internal error: operator did not raise minimal order" in err
        assert "config error" not in err and "Traceback" not in err

    def test_algebra_error_after_validation_is_internal(self, monkeypatch, capsys):
        # a valid config reaches no algebra error but a size limit's, so
        # any other one is a broken contract, not bad input
        def broken(red):
            raise OrderMismatchError("order 4 vs 3")

        monkeypatch.setattr(cli, "knp_reduced_star", broken)
        assert main(["--scenario", "s1p-single"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["internal error: order 4 vs 3"]


class TestReports:
    def test_s1p_single_passes(self):
        res = run("--scenario", "s1p-single")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["scenario"] == "s1p-single"
        assert report["status"] == "pass"
        assert all(c["status"] == "pass" for c in report["checks"])
        names = [c["name"] for c in report["checks"]]
        assert names == sorted(names)

    def test_schema_fields(self):
        res = run("--scenario", "ce-heisenberg")
        report = json.loads(res.stdout)
        for key in ("scenario", "status", "config", "conventions", "checks"):
            assert key in report
        for c in report["checks"]:
            assert set(c) <= {"name", "status", "witness", "info"}

    def test_conventions_echoed(self):
        res = run("--scenario", "ce-heisenberg")
        report = json.loads(res.stdout)
        assert report["conventions"]["weyl_q_star_p_order1"] == "(0/1)+(1/2)i"
        assert report["conventions"]["std_p_star_q_order1"] == "(0/1)-(1/1)i"
        assert report["conventions"]["wick_z_star_zbar_order1"] == "(2/1)+(0/1)i"

    def test_std_hermitian_expected_failure_with_witness(self):
        res = run("--scenario", "axioms-std")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        entry = next(c for c in report["checks"]
                     if c["name"] == "axioms.hermitian_fails_as_expected")
        assert entry["status"] == "pass"
        assert "witness" in entry
        assert "conj_product" in entry["witness"]

    def test_ce_failures_carry_witnesses(self, monkeypatch):
        # a "boundary" that drops the first index without a sign is not
        # nilpotent, so both ce checks fail and each names its grade
        def shift(lie, x):
            return {key[1:]: v for key, v in x.items()}

        monkeypatch.setattr(cli, "ce_boundary", shift)
        report = run_scenario(builtin_config("ce-heisenberg"))
        assert report["status"] == "fail"
        failing = [c for c in report["checks"] if c["status"] == "fail"]
        assert [c["witness"]["grade"] for c in failing[:2]] == [2, 3]
        assert all(c["witness"]["d_squared"] for c in failing[:2])
        # nor does it act by the bracket: ad(e_1) e_1 = 0, not e_1
        assert failing[2]["name"] == "ce.grade1_is_adjoint_action"
        assert failing[2]["witness"] == {
            "alpha": 1, "beta": 1, "boundary": ["(1/1)+(0/1)i", "(0/1)+(0/1)i", "(0/1)+(0/1)i"],
            "bracket": ["(0/1)+(0/1)i"] * 3}

    def test_swapped_action_fails_ce_heisenberg(self, monkeypatch, capsysbinary):
        # d∘d = 0 on the Heisenberg algebra holds for the swapped action too;
        # only the grade-1 check against the structure constants sees it
        bracket_coeffs = LieAlgebraData.bracket_coeffs
        monkeypatch.setattr(LieAlgebraData, "bracket_coeffs",
                            lambda lie, alpha, beta: bracket_coeffs(lie, beta, alpha))
        assert main(["--scenario", "ce-heisenberg"]) == 1
        report = json.loads(capsysbinary.readouterr().out)
        failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        assert failing == ["ce.grade1_is_adjoint_action"]

    def test_a_table_that_breaks_jacobi_fails_ce_heisenberg(self, monkeypatch, capsysbinary):
        # LieAlgebraData checks antisymmetry only; d∘d = 0 on the adjoint
        # representation is the Jacobi identity, which the ce suite checks
        monkeypatch.setattr(LieAlgebraData, "heisenberg",
                            staticmethod(lambda: LieAlgebraData(3, JACOBI_BREAKING)))
        assert main(["--scenario", "ce-heisenberg"]) == 1
        report = json.loads(capsysbinary.readouterr().out)
        failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        assert failing == ["ce.boundary_squared_zero_grade2", "ce.boundary_squared_zero_grade3"]

    def test_doubled_series_correction_fails_s1p_single(self, monkeypatch, capsysbinary):
        # the series' correction Σ_{k≥1} A^k x doubled: the reduced
        # products' inputs carry no p_a, so neither reduced product sees it;
        # the checks that hold the series to T do, in the complex suite,
        # whose quantum restrictions are the series, and in the knp suite,
        # whose closed form is the series
        corrected = koszul._corrected
        monkeypatch.setattr(koszul, "_corrected",
                            lambda x, ctx: x + (corrected(x, ctx) - x).scale(2))
        assert main(["--scenario", "s1p-single"]) == 1
        report = json.loads(capsysbinary.readouterr().out)
        failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        assert failing == ["complex.direct_sum_complement_in_kernel",
                           "complex.quantum_homotopy_identity_grade_0",
                           "complex.quantum_restriction_after_T",
                           "knp.deformed_restriction_equals_quantum_restriction"]

    def test_forward_straightening_fails_s2_magnetic(self, monkeypatch, capsysbinary):
        # translating p_a forward by alpha_a instead of back keeps every
        # check on the straightened samples; only the two checks against the
        # declared shift see it
        # p_a -> p_a + alpha_a is the straightening of the shift by -alpha_a
        build = cli.build_shifted_context

        def forward(base, b, mu):
            return build(base, {a: (c, -v) for a, (c, v) in b.items()},
                         {a: -v for a, v in mu.items()})

        monkeypatch.setattr(cli, "build_shifted_context", forward)
        assert main(["--scenario", "s2-magnetic"]) == 1
        report = json.loads(capsysbinary.readouterr().out)
        failing = [c for c in report["checks"] if c["status"] == "fail"]
        assert failing == [
            fail("momentum.restriction_solves_constraint", f=SAMPLE_0),
            fail("momentum.straighten_sends_J_to_p", a=1,
                 J="(1/2)+(0/1)i*q2 + (1/1)+(0/1)i*p1 + (-3/1)+(0/1)i")]

    def test_wrong_tube_weight_fails_s1p_single(self, monkeypatch, capsysbinary):
        # m_a/(|m_v|+k+1) in place of m_a/(|m_v|+k) breaks h ∂ + ∂ h = id,
        # and it is reported as that failed check, not as an internal error
        off_by_one_weight(monkeypatch)
        assert main(["--scenario", "s1p-single"]) == 1
        report = json.loads(capsysbinary.readouterr().out)
        failing = [c for c in report["checks"] if c["status"] == "fail"]
        assert failing == [
            fail("complex.direct_sum_complement_in_kernel", f=SAMPLE_3),
            fail("complex.homotopy_identity_grade_zero", f=SAMPLE_0),
            fail("complex.homotopy_identity_positive_grades",
                 chain=f"[e_1] λ^0: {SAMPLE_0}", grade=1),
            fail("complex.quantum_homotopy_identity_grade_0",
                 chain=f"[()] λ^0: {SAMPLE_0}", grade=0),
            fail("complex.quantum_homotopy_identity_grade_1",
                 chain=f"[e_1] λ^0: {SAMPLE_0}", grade=1),
            fail("complex.quantum_restriction_after_T", f=SAMPLE_3),
            *WRONG_WEIGHT_KNP]

    def test_wrong_tube_weight_fails_the_knp_suite(self, monkeypatch, tmp_path,
                                                   capsysbinary):
        # without the complex suite, the knp suite reads the tube homotopy on
        # inputs that carry p_a twice: in the division identity, and in the
        # deformed restriction, which the quantum restriction through T,
        # blind to the tube, no longer matches
        off_by_one_weight(monkeypatch)
        path = tmp_path / "knp-only.json"
        path.write_text(json.dumps({"name": "knp-only", "n": 2, "translated": [1],
                                    "checks": ["reduction", "knp"]}))
        assert main(["--config", str(path)]) == 1
        report = json.loads(capsysbinary.readouterr().out)
        failing = [c for c in report["checks"] if c["status"] == "fail"]
        assert failing == WRONG_WEIGHT_KNP

    def test_flipped_sign_of_X_fails_s1p_single(self, monkeypatch, capsysbinary):
        # the quantum restriction goes through T; the series, which the
        # complex suite computes and the knp suite's closed form is, sees a
        # wrong X, the second-order part of Y
        conjugation = koszul._conjugation

        def flipped(*args):
            Y = conjugation(*args)
            return ConstantOperator(Y.vars, [
                (i, j, c) if i is None else (i, j, (-c[0], -c[1], c[2])) for i, j, c in Y.entries])

        monkeypatch.setattr(koszul, "_conjugation", flipped)
        assert main(["--scenario", "s1p-single"]) == 1
        report = json.loads(capsysbinary.readouterr().out)
        failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        assert "complex.quantum_restriction_after_T" in failing
        assert "knp.deformed_restriction_equals_quantum_restriction" in failing

    @staticmethod
    def run_s1p_wick(tmp_path, capsysbinary):
        """The Wick twin of ``s1p-single``, run as a config: its exit code
        and its report."""
        path = tmp_path / "s1p-wick.json"
        path.write_text(json.dumps({"name": "s1p-wick", "n": 2, "translated": [1], "star": "wick",
                                    "checks": ["momentum", "complex", "reduction", "knp"]}))
        code = main(["--config", str(path)])
        return code, json.loads(capsysbinary.readouterr().out)

    def test_s1p_wick_passes(self, tmp_path, capsysbinary):
        code, report = self.run_s1p_wick(tmp_path, capsysbinary)
        assert code == 0 and report["status"] == "pass"

    def test_unhalved_diagonal_of_Y_fails_s1p_wick(self, monkeypatch, tmp_path, capsysbinary):
        # -½ C^{p_a p_a} ∂_{p_a}² taken as -C^{p_a p_a} ∂_{p_a}²: Weyl has no
        # P × P block, so only a product with one, such as Wick, sees it
        conjugation = koszul._conjugation

        def unhalved(*args):
            Y = conjugation(*args)
            return ConstantOperator(Y.vars, [
                (i, j, (r, m, d // 2 if i == j else d)) for i, j, (r, m, d) in Y.entries])

        monkeypatch.setattr(koszul, "_conjugation", unhalved)
        code, report = self.run_s1p_wick(tmp_path, capsysbinary)
        assert code == 1
        failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        assert failing == ["complex.direct_sum_complement_in_kernel",
                           "complex.kernel_contains_ideal_generators",
                           "complex.quantum_homotopy_identity_grade_1",
                           "complex.quantum_restriction_after_T",
                           "complex.quantum_restriction_of_quantum_boundary_zero",
                           "knp.deformed_restriction_equals_quantum_restriction"]

    def test_text_format(self):
        res = run("--scenario", "ce-heisenberg", "--format", "text")
        assert res.returncode == 0
        text = res.stdout.decode()
        assert text.startswith("scenario: ce-heisenberg")
        assert "[pass] ce.boundary_squared_zero_grade2" in text


class TestDeterminism:
    def test_byte_identical_reruns(self):
        a = run("--scenario", "s1p-single")
        b = run("--scenario", "s1p-single")
        assert a.stdout == b.stdout

    def test_seed_changes_report(self):
        a = run("--scenario", "axioms-weyl", "--seed", "1")
        b = run("--scenario", "axioms-weyl", "--seed", "2")
        assert json.loads(a.stdout)["config"]["seed"] == 1
        assert json.loads(b.stdout)["config"]["seed"] == 2

    def test_reports_at_three_more_seeds_match_their_checksums(self):
        # the goldens pin seed 2024; these pin the builtins' reports at
        # seeds 1, 7 and 99, in both formats, by sha256sum lines
        expected = dict(line.split()[::-1] for line in SUMS.read_text().splitlines())
        assert len(expected) == 2 * 3 * len(cli.SCENARIOS)
        for file_name, digest in expected.items():
            stem, ext = file_name.rsplit(".", 1)
            name, seed = stem.rsplit("-seed", 1)
            cfg = builtin_config(name)
            cfg.seed = int(seed)
            report = cli.emit_report(run_scenario(cfg), {"json": "json", "txt": "text"}[ext])
            assert hashlib.sha256(report).hexdigest() == digest, file_name


class TestConfigFile:
    def test_load_and_run(self, tmp_path):
        cfg = {
            "name": "custom",
            "n": 2,
            "translated": [1],
            "star": "weyl",
            "lambda_order": 3,
            "samples": 4,
            "seed": 5,
            "checks": ["momentum", "knp"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = run("--config", str(path))
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["scenario"] == "custom"
        assert report["config"]["lambda_order"] == 3

    def test_upstairs_checks_read_at_most_six_samples(self, monkeypatch):
        # the checks on the whole phase space draw the first
        # MAX_UPSTAIRS_SAMPLES samples; the axioms and the checks on the
        # reduced space draw all of them
        drawn = []
        for name in ("sample_polys", "sample_pairs"):
            def wrapped(*args, name=name, draw=getattr(cli, name)):
                drawn.append((name, sys._getframe(1).f_code.co_name, args[3]))
                return draw(*args)
            monkeypatch.setattr(cli, name, wrapped)
        cfg = cli.parse_config({"name": "upstairs", **cli.SCENARIOS["s1-translation"],
                                "samples": 12, "checks": ["axioms", "momentum", "complex",
                                                          "reduction", "knp", "stages"]})
        assert run_scenario(cfg)["status"] == "pass"
        assert cli.MAX_UPSTAIRS_SAMPLES == 6
        assert sorted(drawn) == [("sample_pairs", "suite_knp", 12),
                                 ("sample_pairs", "suite_stages", 12),
                                 *[("sample_polys", "raw_samples", 6)] * 4,
                                 ("sample_polys", "suite_axioms", 12),
                                 ("sample_polys", "suite_reduction", 12)]

    def test_magnetic_config_roundtrip(self, tmp_path):
        cfg = {
            "name": "mini-magnetic",
            "n": 2,
            "translated": [1],
            "b": {"1": [2, "1/2"]},
            "mu": {"1": "3"},
            "samples": 3,
            "checks": ["knp"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = run("--config", str(path))
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["config"]["b"] == {"1": [2, "1/2"]}

    def test_decimal_strings_are_exact(self, tmp_path):
        cfg = {"name": "decimal-mu", "n": 2, "translated": [1],
               "b": {"1": [2, "0.5"]}, "mu": {"1": "0.1"}, "checks": ["momentum"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = run("--config", str(path))
        assert res.returncode == 0, res.stderr
        config = json.loads(res.stdout)["config"]
        assert (config["b"], config["mu"]) == ({"1": [2, "1/2"]}, {"1": "1/10"})

    def test_values_at_the_digit_cap(self, tmp_path):
        # in lowest terms, each at the cap: the echo reads back
        big = "9" * cli.MAX_NUMBER_DIGITS
        cfg = {"name": "digit-cap", "n": 3, "translated": [1],
               "b": {"1": [2, f"-{big[:50]}.{big[:49]}"]}, "mu": {"1": f"{big}/{big[1:]}7"},
               "checks": ["momentum"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = run("--config", str(path))
        assert res.returncode == 0, res.stderr
        config = json.loads(res.stdout)["config"]
        assert cli.parse_config(config).echo() == config
        assert Fraction(config["b"]["1"][1]) == -Fraction(f"{big[:50]}.{big[:49]}")
        assert config["mu"]["1"] == f"{big}/{big[1:]}7"

    def test_invalid_stage_split(self, tmp_path):
        cfg = {"name": "bad", "n": 3, "translated": [1, 2],
               "stage_first": [7], "checks": ["stages"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = run("--config", str(path))
        assert res.returncode == 2
        assert b"out of range" in res.stderr

    def test_std_reduction_hermitian_expected(self, tmp_path):
        # the reduced standard-ordered product inherits the non-Hermitian
        # matrix, so its Hermitian check fails as expected
        cfg = {"name": "std-red", "n": 2, "translated": [1], "star": "std",
               "checks": ["reduction"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = run("--config", str(path))
        assert res.returncode == 0, res.stdout
        names = [c["name"] for c in json.loads(res.stdout)["checks"]]
        assert "reduction.hermitian_fails_as_expected" in names

    def test_std_hermitian_fails_as_expected_where_no_sample_pair_witnesses(self, tmp_path):
        # at degree 1, no consecutive pair of the samples of seed 11 tells
        # the product from a Hermitian one; a pair of coordinates does
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "x", "n": 2, "star": "std", "degree": 1,
                                    "seed": 11, "checks": ["axioms"]}))
        res = run("--config", str(path))
        assert res.returncode == 0, res.stdout
        entry = next(c for c in json.loads(res.stdout)["checks"]
                     if c["name"] == "axioms.hermitian_fails_as_expected")
        assert (entry["witness"]["f"], entry["witness"]["g"]) == \
            ("(1/1)+(0/1)i*q1", "(1/1)+(0/1)i*p1")

    @pytest.mark.parametrize("n, checks, translated", [
        (2, ["axioms"], ()), (3, ["axioms"], ()), (3, ["reduction"], (1,))])
    def test_std_hermitian_fails_as_expected_at_every_seed(self, n, checks, translated):
        # degree 1 leaves the fewest sample pairs that witness
        for seed in range(60):
            report = run_scenario(cli.ScenarioConfig(
                name="std", n=n, star="std", degree=1, seed=seed, checks=checks,
                translated=translated))
            assert report["status"] == "pass", seed

    @pytest.mark.parametrize("shift", ({"mu": {"2": "1/2"}},
                                       {"b": {"2": [3, "1/2"]}}))
    def test_shifted_second_stage(self, tmp_path, shift):
        cfg = {"name": "stage2-shift", "n": 3, "translated": [1, 2],
               "stage_first": [1], "checks": ["stages"], **shift}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = run("--config", str(path))
        assert res.returncode == 0, res.stderr

    def test_broken_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert run("--config", str(path)).returncode == 2

    def test_deeply_nested_json(self, tmp_path, capsys):
        # deeper than the decoder's recursion allows
        path = tmp_path / "cfg.json"
        path.write_text('{"name":"x","b":' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["--config", str(path)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: cannot read config {str(path)!r}: ")
        assert "recursion" in line

    @pytest.mark.parametrize("fields, message", [
        pytest.param({"n": "3"}, "'n' must be of type int", id="n-string"),
        pytest.param({"lambda_order": 2.5}, "'lambda_order' must be of type int",
                     id="lambda-order-float"),
        pytest.param({"n": True}, "'n' must be of type int", id="n-bool"),
        pytest.param({"checks": "axioms"}, "'checks' must be of type list",
                     id="checks-string"),
        # an empty name would write the hidden report file ".json"
        pytest.param({"name": ""}, "name '' is not a plain file name", id="empty-name"),
        pytest.param({"name": "."}, "name '.' is not a plain file name", id="dot-name"),
        pytest.param({"name": ".x"}, "name '.x' is not a plain file name", id="hidden-name"),
        pytest.param({"mu": {"1": "1/0"}}, "bad 'mu' entry: '1/0' has a zero denominator",
                     id="mu-zero-denominator"),
        pytest.param({"mu": {"1": "-3/000"}}, "bad 'mu' entry: '-3/000' has a zero denominator",
                     id="mu-zero-denominator-zeros"),
        pytest.param({"n": 1, "translated": [1], "checks": ["reduction"]},
                     "reduced space is a point", id="reduce-to-point"),
        pytest.param({"n": 1, "translated": [1], "checks": ["knp"]},
                     "reduced space is a point", id="knp-on-point"),
        pytest.param({"n": 2, "translated": [1, 2], "stage_first": [1],
                      "checks": ["stages"]},
                     "reduced space is a point", id="stages-to-point"),
        pytest.param({"translated": [], "checks": ["complex"]},
                     "need a translated coordinate", id="nothing-translated"),
        # no suite on a context runs here to meet the repeat
        pytest.param({"n": 2, "translated": [1, 1], "checks": ["axioms"]},
                     "a translated coordinate is listed twice", id="repeated-translated"),
        pytest.param({"n": 3, "translated": [1, 2], "stage_first": [1, 2],
                      "checks": ["stages"]},
                     "both stages nonempty", id="empty-second-stage"),
        pytest.param({"samples": 2, "checks": ["axioms"]},
                     "samples must be between 3 and 100", id="two-samples"),
        # a misspelt field would otherwise run at its default
        pytest.param({"n": 2, "lambda_ordr": 7, "checks": ["axioms"]},
                     "unknown config key 'lambda_ordr'", id="unknown-key"),
        pytest.param({"b": {"1": [2, "1/2", "junk"]}, "checks": ["momentum"]},
                     "is not a [label, value] pair", id="b-three-items"),
        pytest.param({"b": {"1": [2]}, "checks": ["momentum"]},
                     "is not a [label, value] pair", id="b-one-item"),
        # labels are read as digit strings, not by int()
        pytest.param({"n": 2, "translated": [1], "mu": {" 1 ": "3"}, "checks": ["momentum"]},
                     "bad 'mu' label ' 1 '", id="mu-label-spaces"),
        pytest.param({"n": 2, "translated": [1], "mu": {"1_0": "3"}, "checks": ["momentum"]},
                     "bad 'mu' label '1_0'", id="mu-label-underscore"),
        pytest.param({"n": 2, "translated": [1], "b": {"+1": [2, "1/2"]},
                      "checks": ["momentum"]},
                     "bad 'b' label '+1'", id="b-label-sign"),
        # int() would read "01" as 1, and next to "1" one value would be lost
        pytest.param({"n": 2, "translated": [1], "mu": {"01": "5"}, "checks": ["momentum"]},
                     "bad 'mu' label '01'", id="mu-label-leading-zero"),
        pytest.param({"n": 2, "translated": [1], "mu": {"1": "3", "01": "5"},
                      "checks": ["momentum"]},
                     "bad 'mu' label '01'", id="mu-label-two-spellings"),
        # json.load alone would run these with the last value of the key
        pytest.param('{"name": "t", "n": 2, "lambda_order": 2, "lambda_order": 7, '
                     '"checks": ["axioms"]}',
                     "config key 'lambda_order' is repeated", id="repeated-key"),
        pytest.param('{"name": "t", "n": 3, "translated": [1], '
                     '"b": {"1": [2, "1/2"], "1": [3, "1/2"]}, "checks": ["momentum"]}',
                     "config key '1' is repeated", id="b-repeated-label"),
        pytest.param('{"name": "t", "n": 2, "translated": [1], "mu": {"1": "3", "1": "5"}, '
                     '"checks": ["momentum"]}',
                     "config key '1' is repeated", id="mu-repeated-label"),
        pytest.param({"n": 2, "translated": [1], "b": {"1": [7, "1/2"]}, "checks": ["momentum"]},
                     "magnetic pair (1, 7): 7 is out of range 1..2", id="b-coupling-past-n"),
        pytest.param({"n": 2, "translated": [1], "b": {"1": [0, "1/2"]}, "checks": ["momentum"]},
                     "magnetic pair (1, 0): 0 is out of range 1..2", id="b-coupling-zero"),
        # a JSON float would be read as its binary value, 0.1 as 3602879701896397/2**55
        pytest.param({"n": 2, "translated": [1], "checks": ["momentum"], "mu": {"1": 0.1}},
                     'bad \'mu\' entry: 0.1 is a JSON float, which is inexact: write an '
                     'integer or a string such as "1/10"', id="mu-float"),
        pytest.param({"n": 2, "translated": [1], "checks": ["momentum"], "b": {"1": [2, 0.5]}},
                     "0.5 is a JSON float", id="b-float"),
        # values are read by one grammar, not by Fraction(): an exponent, an
        # underscore, spaces and non-ASCII digits are off it, and a value has
        # at most MAX_NUMBER_DIGITS digits in its numerator and its
        # denominator, in lowest terms
        *(pytest.param({"n": 2, "translated": [1], "mu": {"1": v}, "checks": ["momentum"]},
                       f"bad 'mu' entry: {v!r} is not written as an optional '-'", id=name)
          for name, v in (("mu-exponent", "1e4301"), ("mu-underscore", "1_0"),
                          ("mu-spaces", " 2 "), ("mu-arabic-indic-digit", "\u0661"),
                          ("mu-huge-exponent", "1e10000000"),
                          ("mu-tiny-exponent", "1e-300000000"), ("mu-plus", "+2"),
                          ("mu-bare-point", ".5"), ("mu-two-slashes", "1/2/3"))),
        pytest.param({"n": 3, "translated": [1], "b": {"1": [2, "1/2 "]}, "checks": ["momentum"]},
                     "bad 'b' entry: '1/2 ' is not written", id="b-trailing-space"),
        pytest.param({"n": 2, "translated": [1], "mu": {"1": "1/" + "7" * 101},
                      "checks": ["momentum"]},
                     "is above the cap of 100 digits", id="mu-long-denominator"),
        # 100 digits on each side of the point make a numerator of 200
        pytest.param({"n": 3, "translated": [1], "b": {"1": [2, "1" * 100 + "." + "1" * 100]},
                      "checks": ["momentum"]},
                     "bad 'b' entry: '1111", id="b-long-decimal"),
        pytest.param({"n": 2, "translated": [1], "mu": {"1": 10 ** 100}, "checks": ["momentum"]},
                     "bad 'mu' entry: an integer is above the cap of 100 digits",
                     id="mu-long-integer"),
        pytest.param({"n": 2, "translated": [1], "mu": {"1": "0" * 200 + "1/1"},
                      "checks": ["momentum"]},
                     "in at most 202 characters", id="mu-too-many-characters"),
        # a message shows each value it names cut to 40 characters, so a
        # long value does not make a long line
        pytest.param({"b": [1] * 100_000, "checks": ["momentum"]},
                     "'b' must be of type dict, got [1, 1, 1,", id="b-long-list"),
        pytest.param({"k" * 100_000: 1, "checks": ["axioms"]},
                     "unknown config key 'kkk", id="long-unknown-key"),
        pytest.param({"name": "/" * 100_000, "checks": ["axioms"]},
                     "name '///", id="long-name"),
        # a name becomes the report's file name, which the file system caps
        pytest.param({"name": "a" * 100_000, "checks": ["ce"]},
                     "name 'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa... is longer than 50 characters",
                     id="long-plain-name"),
        pytest.param({"star": "w" * 100_000, "checks": ["axioms"]},
                     "unknown star kind 'www", id="long-star-kind"),
        pytest.param({"checks": ["c" * 100_000]},
                     "unknown check suite 'ccc", id="long-check-suite"),
        # a label is never read by int(), which refuses more than 4300 digits
        pytest.param({"n": 2, "translated": [1], "mu": {"1" * 100_000: "3"},
                      "checks": ["momentum"]},
                     "bad 'mu' label '111", id="mu-long-label"),
        pytest.param({"n": 2, "translated": [1], "b": {"1": [2] * 100_000},
                      "checks": ["momentum"]},
                     "bad 'b' entry: [2, 2, 2,", id="b-long-pair"),
        pytest.param({"n": 2, "translated": [1], "b": {"1": [10 ** 4000, "1/2"]},
                      "checks": ["momentum"]},
                     "magnetic pair (1, 1000", id="b-long-coupling"),
    ])
    def test_rejected(self, tmp_path, fields, message):
        # a str is the whole config text, which a dict cannot hold when it
        # repeats a key
        path = tmp_path / "cfg.json"
        path.write_text(fields if isinstance(fields, str) else
                        json.dumps({"name": "bad", **fields}))
        res = run("--config", str(path))
        assert res.returncode == 2
        assert message.encode() in res.stderr
        assert b"Traceback" not in res.stderr
        [line] = res.stderr.splitlines()
        assert len(line.decode()) <= 200

    @pytest.mark.parametrize("key, cap", [("n", cli.MAX_N),
                                          ("lambda_order", cli.MAX_LAMBDA_ORDER),
                                          ("degree", cli.MAX_DEGREE),
                                          ("samples", cli.MAX_SAMPLES)])
    def test_cap(self, key, cap, capsys):
        # only validated, never run: main stops at the config check
        low = cli.MIN_SAMPLES if key == "samples" else 1
        message = f"{key} must be between {low} and {cap}"
        cfg = builtin_config("ce-heisenberg")
        for ok in (low, cap):
            setattr(cfg, key, ok)
            cfg.validate()
        for bad in (low - 1, cap + 1):
            setattr(cfg, key, bad)
            with pytest.raises(cli.ConfigError, match=message):
                cfg.validate()
            if key != "n":   # n has no command-line override
                flag = "--" + key.replace("_", "-")
                assert main(["--scenario", "ce-heisenberg", flag, str(bad)]) == 2
                assert message in capsys.readouterr().err

    @pytest.mark.parametrize("samples", (1, 2))
    def test_too_few_samples_rejected(self, samples):
        # with fewer than three samples the pair and triple checks would
        # pass on no input at all
        res = run("--scenario", "s1-translation", "--samples", str(samples))
        assert res.returncode == 2
        assert b"samples must be between 3 and 100" in res.stderr
        assert b"Traceback" not in res.stderr

    def test_name_cannot_leave_report_dir(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "../escaped", "checks": ["ce"]}))
        res = run("--config", str(path), env={"QK_REPORT_DIR": str(tmp_path / "reports")})
        assert res.returncode == 2
        assert b"not a plain file name" in res.stderr
        assert not (tmp_path / "escaped.json").exists()

    def test_name_cannot_hide_the_report(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": ".", "checks": ["ce"]}))
        res = run("--config", str(path), env={"QK_REPORT_DIR": str(tmp_path / "reports")})
        assert res.returncode == 2
        assert b"not a plain file name" in res.stderr
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("fields, message", [
        pytest.param({"checks": ["axioms", "axioms"]}, "a check suite is listed twice",
                     id="repeated-suite"),
        pytest.param({"n": 3, "translated": [1, 2], "stage_first": [1, 1],
                      "checks": ["momentum", "complex", "stages"]},
                     "a stage index is listed twice", id="repeated-stage-index"),
        # a run that checks nothing must not report a pass
        pytest.param({"checks": []}, "no check suite selected", id="no-suite"),
        pytest.param({"name": "n" * (cli.MAX_NAME_CHARS + 1)},
                     f"is longer than {cli.MAX_NAME_CHARS} characters", id="name-past-cap"),
    ])
    def test_repeated_entry_rejected_before_any_suite(self, tmp_path, monkeypatch,
                                                      capsysbinary, fields, message):
        ran = []
        for suite in cli.SUITES:
            monkeypatch.setattr(cli, f"suite_{suite}",
                                lambda *args, suite=suite: ran.append(suite) or [])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "repeated", **fields}))
        assert main(["--config", str(path)]) == 2
        out, err = capsysbinary.readouterr()
        assert out == b""
        assert message.encode() in err
        assert b"Traceback" not in err
        assert ran == []

    @pytest.mark.parametrize("name", sorted(cli.SCENARIOS))
    def test_builtin_is_a_json_config(self, tmp_path, name):
        # a builtin is the JSON value a config file would hold, and is read
        # by the same parser
        raw = cli.SCENARIOS[name]
        assert json.loads(json.dumps(raw)) == raw
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": name, **raw}))
        assert builtin_config(name).echo() == cli.load_config(str(path)).echo()

    def test_readme_configs_echo_and_pass(self):
        # every json block of README.md is a config: its echo repeats each
        # key the block sets, and it runs to a pass
        text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```json\n(.*?)^```$", text, re.M | re.S)
        assert blocks
        for block in blocks:
            raw = json.loads(block)
            cfg = cli.parse_config(raw)
            echo = cfg.echo()
            assert {key: echo[key] for key in raw} == raw
            assert run_scenario(cfg)["status"] == "pass"


def a_twelve_term_limit(monkeypatch):
    monkeypatch.setattr(exact, "MAX_TERMS", 12)


def samples_past_the_slot(monkeypatch):
    """Samples that start with q1^32767 and q1, whose product needs q1^32768."""
    real = cli.sample_polys

    def samples(seed, vars, degree, count):
        top = MultiPoly(vars, {(32767,) + (0,) * (len(vars) - 1): 1})
        return [top, MultiPoly.variable(vars, vars[0])] + real(seed, vars, degree, count)[2:]
    monkeypatch.setattr(cli, "sample_polys", samples)


class TestSizeLimits:
    """A polynomial too large for the exact core stops the run with exit 2
    and one line naming the limit."""

    @pytest.mark.parametrize("limit, message", [
        pytest.param(a_twelve_term_limit, "exceeds the limit of 12 terms", id="term-limit"),
        pytest.param(samples_past_the_slot, "an exponent exceeds 32767, the largest a 16-bit "
                     "monomial slot holds", id="exponent-past-slot"),
    ])
    def test_limit_exits_2(self, monkeypatch, capsysbinary, limit, message):
        limit(monkeypatch)
        assert main(["--scenario", "axioms-weyl"]) == 2
        out, err = capsysbinary.readouterr()
        assert out == b""
        [line] = err.decode().splitlines()
        assert line.startswith("config error: ") and line.endswith(message)


# values of every JSON type, most of them ill-typed for any given field
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
FIELDS = ("name", "n", "translated", "star", "lambda_order", "degree", "samples",
          "seed", "b", "mu", "stage_first")


@settings(max_examples=50, deadline=None)
@given(values=st.dictionaries(st.sampled_from(FIELDS), JSON_VALUES, min_size=1))
def test_ill_typed_fields_exit_cleanly(values):
    cfg = {"name": "fuzz", "checks": ["ce"], **values}
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def run_main(path: str):
    """(exit code, stdout bytes, stderr text) of ``main`` on a config file."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", path])
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


# b and mu values: the grammar (an optional '-', ASCII digits, an optional
# '/digits' or '.digits'), JSON integers, and near misses to the grammar
DIGITS = st.text("0123456789", min_size=1, max_size=6) | st.integers(98, 102).map(
    lambda k: "7" * k)
IN_GRAMMAR = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.builds(lambda sign, a, rest: f"{sign}{a}{rest}", st.sampled_from(("", "-")), DIGITS,
              st.just("") | st.builds(lambda sep, b: sep + b, st.sampled_from("/."), DIGITS)))
NEAR_MISSES = st.one_of(
    st.builds(lambda v, miss: miss.format(v), IN_GRAMMAR.map(str), st.sampled_from(
        ("{}e3", "1e{}", "{}E-2", "{}_0", "1_{}", " {}", "{} ", "{} 1", "+{}", "{}/", "/{}"))),
    st.text(st.characters(whitelist_categories=("Nd",), blacklist_characters="0123456789"),
            min_size=1, max_size=3),
    st.sampled_from(("\u0661", "\u0663/\u0664", "\uff12", "1/0", "0/00", "1.", ".5")))
VALUES = IN_GRAMMAR | NEAR_MISSES


@st.composite
def shifted_configs(draw):
    """A config on n <= 3 at order <= 3 with its translated coordinates,
    stage split and check suites drawn, empty lists included, and b and mu
    values at valid labels drawn from the value grammar and from near misses
    to it."""
    n = draw(st.integers(2, 3))
    translated = draw(st.lists(st.integers(1, n), max_size=n - 1, unique=True))
    free = [c for c in range(1, n + 1) if c not in translated]
    b, mu = {}, {}
    if translated:
        b = draw(st.dictionaries(st.sampled_from(translated).map(str),
                                 st.tuples(st.sampled_from(free), VALUES).map(list),
                                 max_size=2))
        mu = draw(st.dictionaries(st.sampled_from(translated).map(str), VALUES, max_size=2))
    stage_first = draw(st.none() | st.lists(st.integers(1, max(len(translated), 1)),
                                            max_size=len(translated), unique=True))
    checks = draw(st.lists(st.sampled_from(tuple(cli.SUITES)), min_size=1, max_size=2,
                           unique=True))
    return {"name": "grammar", "n": n, "translated": translated,
            "star": draw(st.sampled_from(("weyl", "wick", "std"))),
            "lambda_order": draw(st.integers(1, 3)), "degree": 2, "samples": 3,
            "b": b, "mu": mu, "stage_first": stage_first, "checks": checks}


@settings(max_examples=60, deadline=None)
@given(raw=shifted_configs())
# an empty stage split is accepted where no stages suite runs, and echoes
# back as [], not null
@example(raw={"name": "x", "stage_first": [], "checks": ["ce"]})
# a valid config that runs the stages suite, which the draws above reach
# only by chance: two translated coordinates of three, a one-index split,
# and a coupling and a momentum value
@example(raw={"name": "staged", "n": 3, "translated": [1, 2], "star": "wick",
              "lambda_order": 3, "degree": 2, "samples": 3, "b": {"1": [3, "1/2"]},
              "mu": {"2": "-3/4"}, "stage_first": [1], "checks": ["stages", "ce"]})
def test_config_values_at_valid_labels(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        code, report, err = run_main(path)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert len(err.splitlines()) == 1
            assert err.startswith("config error: ")
            return
        echo = json.loads(report)["config"]
        assert cli.parse_config(echo) == cli.load_config(path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(echo, fh)
        assert run_main(path)[:2] == (code, report)


def test_unexpected_exception_exits_4(monkeypatch, capsysbinary):
    # exit 1 says only that a check failed; any other exception is an
    # internal error, with its traceback
    def broken(cfg, ctx):
        raise RuntimeError("broken suite")

    monkeypatch.setattr(cli, "suite_ce", broken)
    assert main(["--scenario", "ce-heisenberg"]) == 4
    out, err = capsysbinary.readouterr()
    assert out == b""
    lines = err.decode().splitlines()
    assert lines[0] == "internal error: unexpected RuntimeError: broken suite"
    assert lines[1] == "Traceback (most recent call last):"
    assert lines[-1] == "RuntimeError: broken suite"


class TestReportDir:
    def test_report_written(self, tmp_path):
        res = run("--scenario", "ce-heisenberg",
                  env={"QK_REPORT_DIR": str(tmp_path)})
        assert res.returncode == 0
        written = (tmp_path / "ce-heisenberg.json").read_bytes()
        assert written == res.stdout

    def test_unwritable_report_dir_is_a_config_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        res = run("--scenario", "ce-heisenberg",
                  env={"QK_REPORT_DIR": str(blocker / "sub")})
        assert res.returncode == 2
        assert b"config error: cannot write report" in res.stderr
        assert b"Traceback" not in res.stderr
        self.assert_one_write_error(res, blocker / "sub" / "ce-heisenberg.json")

    @staticmethod
    def assert_one_write_error(res, path):
        # the report went out, then one short line names the path once
        assert res.stdout
        *_, line = res.stderr.decode().splitlines()
        assert line.startswith(f"config error: cannot write report {str(path)!r}: ")
        assert line.count(str(path)) == 1
        assert len(line) <= 200

    def test_report_path_taken_by_a_directory(self, tmp_path):
        (tmp_path / "ce-heisenberg.json").mkdir()
        res = run("--scenario", "ce-heisenberg", env={"QK_REPORT_DIR": str(tmp_path)})
        assert res.returncode == 2
        assert b"Traceback" not in res.stderr
        self.assert_one_write_error(res, tmp_path / "ce-heisenberg.json")
        assert res.stderr.decode().endswith(": Is a directory\n")

    def test_name_at_the_cap_is_written(self, tmp_path, monkeypatch, capsysbinary):
        # the widest characters UTF-8 has, as many as the cap allows
        name = "\U0001F600" * cli.MAX_NAME_CHARS
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": name, "checks": ["ce"]}))
        monkeypatch.setenv("QK_REPORT_DIR", str(tmp_path / "reports"))
        assert main(["--config", str(path)]) == 0
        out, _ = capsysbinary.readouterr()
        assert (tmp_path / "reports" / f"{name}.json").read_bytes() == out
