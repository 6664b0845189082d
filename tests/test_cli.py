"""End-to-end command-line checks: reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grafclifford.classify import geometry_of
from grafclifford import cli, exterior, matrixrep
from grafclifford.cli import main
from grafclifford.exterior import Signature
from grafclifford.graf import volume_square_sign

SRC = Path(__file__).resolve().parent.parent / "src"


def run_json(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, json.loads(out)


def test_check_algebra_single_signature(capsys):
    status, report = run_json(
        capsys, ["check-algebra", "--signature", "2,1", "--trials", "10"]
    )
    assert status == 0
    assert report["passed"] is True
    assert report["signatures_checked"] == 1
    assert report["trials_per_signature"] == 10
    assert report["volume_square_table"] == [[2, 1, 1]]
    assert report["provenance"]["tool"] == "grafclifford"
    assert report["provenance"]["signature"] == [2, 1]
    assert "failures" not in report


def test_check_algebra_full_sweep(capsys):
    status, report = run_json(capsys, ["check-algebra", "--trials", "2", "--seed", "5"])
    assert status == 0
    assert report["passed"] is True
    assert report["signatures_checked"] == 55
    table = report["volume_square_table"]
    assert len(table) == 55
    for p, q, sign in table:
        assert sign == volume_square_sign(p, q)
        assert sign == (1 if (p - q) % 8 in (0, 1, 4, 5) else -1)


def test_build_rep_reports_structure_and_pairings(capsys):
    status, report = run_json(capsys, ["build-rep", "--signature", "0,4"])
    assert status == 0
    assert report["passed"] is True
    structure = report["structure"]
    assert structure["case"] == "quaternionic"
    assert structure["has_quaternion_triple"] is True
    assert "d_square_sign" in structure
    (pairing,) = report["pairings"]
    assert (pairing["sigma"], pairing["tau"], pairing["isotropy"]) == (1, 1, 1)
    assert len(pairing["hash"]) == 16
    assert report["provenance"]["pairing_hash"]


def test_verify_fierz_spinor_signature(capsys):
    status, report = run_json(
        capsys, ["verify-fierz", "--signature", "1,2", "--samples", "3", "--seed", "2"]
    )
    assert status == 0
    assert report["case"] == "almost_complex"
    assert report["samples"] == 3
    assert report["oracles"] == {
        "fundamental_identity_failures": 0,
        "reconstruction_failures": 0,
        "fierz_failures": 0,
    }
    assert report["reduced"]["master_failures"] == 0
    assert report["reduced"]["flagged_row_counts"] == {}
    assert report["passed"] is True


def test_verify_fierz_pinor_signature(capsys):
    status, report = run_json(
        capsys, ["verify-fierz", "--signature", "9,0", "--samples", "2", "--seed", "1"]
    )
    assert status == 0
    assert report["case"] == "normal"
    assert report["oracles"]["fierz_failures"] == 0
    reduced = report["reduced"]
    assert reduced["master_failures"] == 0
    flagged = reduced["flagged_row_counts"]
    assert flagged["grade0-row"] == 2
    assert set(flagged) <= {"grade0-row", "grade1-row", "grade4-row"}
    assert reduced["first_flagged_row"]["passed"] is False
    assert report["passed"] is True


def test_verify_fierz_quaternionic_signature(capsys):
    status, report = run_json(
        capsys, ["verify-fierz", "--signature", "0,4", "--samples", "3"]
    )
    assert status == 0
    assert report["case"] == "quaternionic"
    assert "reduced" not in report
    assert report["passed"] is True


def test_verify_fierz_on_signatures_beyond_the_classified_three(capsys):
    # the identities hold on every signature; (3,0) and (1,6) are almost
    # complex, (0,0) is the one-dimensional normal case
    for sig, sign in (("3,0", "+"), ("3,0", "-"), ("1,6", "+"), ("0,0", "+")):
        status, report = run_json(
            capsys, ["verify-fierz", "--signature", sig, "--samples", "2", "--volume-sign", sign]
        )
        assert status == 0, (sig, sign)
        assert report["oracles"] == {
            "fundamental_identity_failures": 0,
            "reconstruction_failures": 0,
            "fierz_failures": 0,
        }
        assert "reduced" not in report
        assert report["passed"] is True


def test_verify_fierz_expands_each_covariant_once(capsys, monkeypatch):
    # per sample: (a1, b1) and (a2, b2) serve the reassembly and the
    # identities, (a1, b2) the identities alone
    calls = []
    real = cli.covariant

    def counted(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(cli, "covariant", counted)
    status, _ = run_json(capsys, ["verify-fierz", "--signature", "9,0", "--samples", "3"])
    assert status == 0
    assert len(calls) == 9
    assert len(set(calls)) == 9


def test_structure_maps_are_solved_once_per_representation(capsys, monkeypatch):
    # every reader takes the maps from Rep.structure, which solves them on first use
    solved = []
    solve = matrixrep.build_structure

    def counted(rep):
        solved.append(rep)
        return solve(rep)

    monkeypatch.setattr(matrixrep, "build_structure", counted)
    for argv in (
        ["census", "--signature", "1,2", "--samples", "5"],
        ["verify-fierz", "--signature", "0,4", "--samples", "2"],
    ):
        solved.clear()
        status, report = run_json(capsys, argv)
        assert status == 0 and report["passed"]
        assert len(solved) == 1


def test_a_census_builds_one_kernel_and_one_square_table(capsys):
    # every sample squares on the one (9,0) kernel and its one pinor pair table
    kernels = exterior._kernel
    tables = exterior._DiagKernel._build_square_table
    kernels.cache_clear()
    tables.cache_clear()
    status, report = run_json(capsys, ["census", "--signature", "9,0", "--samples", "5"])
    assert status == 0 and report["passed"]
    assert kernels.cache_info().misses == 1
    assert tables.cache_info().misses == 1


def test_classify_pinor_basis_spinor(tmp_path, capsys):
    spinor = tmp_path / "spinor.json"
    spinor.write_text(json.dumps([1] + [0] * 15))
    status, report = run_json(
        capsys, ["classify", "--signature", "9,0", str(spinor)]
    )
    assert status == 0
    assert report["mode"] == "spinor"
    inner = report["report"]
    assert inner["class_pattern"].startswith("psi0 != 0")
    assert inner["class_pattern"] == geometry_of(Signature(9, 0)).class_name(inner["class_index"])
    assert inner["verdict"]["master"]["passed"] is True


def test_pinor_signature_under_the_negative_volume_sign(tmp_path, capsys):
    # the master identity uses the projector of the representation's volume sign
    status, report = run_json(
        capsys, ["census", "--signature", "9,0", "--samples", "5", "--volume-sign", "-"]
    )
    assert status == 0 and report["passed"] is True
    assert report["census"]["volume_sign"] == -1
    assert sum(c["count"] for c in report["census"]["sections"][0]["classes"].values()) == 5
    spinor = tmp_path / "spinor.json"
    spinor.write_text(json.dumps([1] + [0] * 15))
    status, report = run_json(
        capsys, ["classify", "--signature", "9,0", "--volume-sign", "-", str(spinor)]
    )
    assert status == 0
    assert report["provenance"]["volume_sign"] == -1
    assert report["report"]["verdict"]["master"]["passed"] is True


def test_classify_spinor_signature(tmp_path, capsys):
    spinor = tmp_path / "spinor.json"
    spinor.write_text(json.dumps([3, -1, 2, 5]))
    status, report = run_json(
        capsys, ["classify", "--signature", "1,2", str(spinor)]
    )
    assert status == 0
    assert report["report"]["class_index"] in {1, 3}


def test_classify_covariant_injection(tmp_path, capsys):
    payload = {
        "covariants": {"psi0": [{"blade": [], "coeff": "1"}]},
        "scalar": "1/16",
    }
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(payload))
    status, report = run_json(capsys, ["classify", "--signature", "9,0", str(path)])
    assert status == 0
    assert report["mode"] == "covariant-injection"
    assert report["class_index"] == 6
    assert report["class_pattern"] == geometry_of(Signature(9, 0)).class_name(6)
    assert report["scalar"] == "1/16"
    assert report["verdict"]["flagged"] == ["grade0-row"]


def test_classify_injection_rejects_master_violation(tmp_path, capsys):
    payload = {"covariants": {"psi0": [{"blade": [], "coeff": "1"}]}}
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(payload))
    status = main(["classify", "--signature", "9,0", str(path)])
    out = capsys.readouterr().out
    assert status == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert "master" in report["error"]


def test_classify_injection_refuses_unknown_covariant_names(tmp_path, capsys):
    """A name off the geometry's component list exits 2, naming the expected ones."""
    for sig, covs, unknown, expected in (
        ("1,2", {"psi0": [{"blade": [], "coeff": "1"}]}, "'psi0'", "phi0, phi2"),
        ("9,0", {"phi2": [{"blade": [1, 2], "coeff": "1"}]}, "'phi2'", "psi0, psi1, psi4"),
        ("9,0", {"psi0": [{"blade": [], "coeff": "1"}], "psi2": []}, "'psi2'", "psi0, psi1, psi4"),
    ):
        path = tmp_path / "cov.json"
        path.write_text(json.dumps({"covariants": covs, "scalar": "1/16"}))
        assert main(["classify", "--signature", sig, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert unknown in captured.err and expected in captured.err


def test_classify_injection_refuses_unknown_top_level_keys(tmp_path, capsys):
    """A misspelled key next to the covariants exits 2 instead of being dropped."""
    path = tmp_path / "cov.json"
    covs = {"psi0": [{"blade": [], "coeff": "1"}]}
    for payload, unknown in (
        ({"covariants": covs, "scalr": "1/16"}, "'scalr'"),
        ({"covariants": covs, "scalar": "1/16", "notes": [], "Scalar": "1"}, "'Scalar', 'notes'"),
    ):
        path.write_text(json.dumps(payload))
        assert main(["classify", "--signature", "9,0", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert unknown in captured.err and "covariants, scalar" in captured.err


def test_classify_invalid_inputs_exit_two(tmp_path, capsys):
    short = tmp_path / "short.json"
    short.write_text(json.dumps([1, 0, 0, 0]))
    assert main(["classify", "--signature", "9,0", str(short)]) == 2
    assert "error" in capsys.readouterr().err

    bad_scalar = tmp_path / "bad_scalar.json"
    bad_scalar.write_text(
        json.dumps(
            {"covariants": {"psi0": [{"blade": [], "coeff": "1"}]}, "scalar": "x/3"}
        )
    )
    assert main(["classify", "--signature", "9,0", str(bad_scalar)]) == 2
    capsys.readouterr()

    assert main(["classify", "--signature", "9,0", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    assert main(["classify", str(short)]) == 2
    assert "signature" in capsys.readouterr().err

    out_of_range = tmp_path / "out_of_range.json"
    out_of_range.write_text(json.dumps({"covariants": {"psi0": [{"blade": [10], "coeff": "1"}]}}))
    assert main(["classify", "--signature", "9,0", str(out_of_range)]) == 2
    err = capsys.readouterr().err
    assert "exceeds dimension 9" in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1

    # JSON booleans and floats are neither coefficients nor blade indices
    for term in (
        {"blade": [], "coeff": True},
        {"blade": [], "coeff": 1.0},
        {"blade": [1.9], "coeff": "1"},
        {"blade": [True], "coeff": "1"},
    ):
        bad_term = tmp_path / "bad_term.json"
        bad_term.write_text(json.dumps({"covariants": {"psi1": [term]}}))
        assert main(["classify", "--signature", "9,0", str(bad_term)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1

    # spinor entries, the scalar and coefficients are read by one rule
    for what, payload in (
        ("spinor entry", [True] + [0] * 15),
        ("scalar", {"covariants": {}, "scalar": 0.5}),
        ("coefficient", {"covariants": {"psi0": [{"blade": [], "coeff": 1.0}]}}),
    ):
        bad = tmp_path / "bad_rational.json"
        bad.write_text(json.dumps(payload))
        assert main(["classify", "--signature", "9,0", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"grafclifford: error: {what} must be an integer or a rational string")


def test_census_output_is_byte_identical(tmp_path):
    args = ["census", "--signature", "1,2", "--samples", "40", "--seed", "7"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    blob1 = out1.read_bytes()
    assert blob1 == out2.read_bytes()
    report = json.loads(blob1)
    assert report["census"]["samples"] == 40
    assert report["census"]["seed"] == 7
    assert len(report["census"]["sections"]) == 2


def test_census_zero_samples_and_bad_signature(capsys):
    status, report = run_json(
        capsys, ["census", "--signature", "9,0", "--samples", "0"]
    )
    assert status == 0
    assert report["census"]["samples"] == 0
    assert main(["census", "--signature", "2,2", "--samples", "1"]) == 2
    assert "error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(["census", "--signature", "9,0", "--samples", "-1"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "non-negative" in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_explicit_zero_counts_are_honoured(capsys):
    status, report = run_json(
        capsys, ["verify-fierz", "--signature", "1,2", "--samples", "0"]
    )
    assert status == 0
    assert report["samples"] == 0
    assert report["passed"] is True
    status, report = run_json(
        capsys, ["check-algebra", "--signature", "1,1", "--trials", "0"]
    )
    assert status == 0
    assert report["trials_per_signature"] == 0
    assert report["passed"] is True
    # the defaults still apply when the flags are absent
    _, report = run_json(capsys, ["check-algebra", "--signature", "1,1"])
    assert report["trials_per_signature"] == 25
    _, report = run_json(capsys, ["verify-fierz", "--signature", "1,2", "--seed", "3"])
    assert report["samples"] == 20


def test_unwritable_out_path_is_an_invalid_invocation(capsys, tmp_path):
    for argv in (
        ["check-algebra", "--signature", "1,1", "--out", str(tmp_path / "missing" / "x.json")],
        ["census", "--signature", "1,2", "--samples", "1", "--out", str(tmp_path)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1, captured.err
        assert captured.err.startswith("grafclifford: error: cannot write ")


def test_appendix_check_cli(capsys):
    status, report = run_json(capsys, ["appendix-check", "--trials", "3", "--seed", "11"])
    assert status == 0
    battery = report["battery"]
    assert battery["passed"] is True
    assert len(battery["rows"]) == 12
    assert report["provenance"]["signature"] == [9, 0]
    # the battery is stated on (9,0) under the + projector: refuse the rest
    for flag in (["--signature", "1,2"], ["--volume-sign", "-"]):
        assert main(["appendix-check", *flag, "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, captured.err
        assert captured.err.startswith("grafclifford: error: ")


def test_text_format_rendering(capsys):
    status = main(["build-rep", "--signature", "1,2", "--format", "text"])
    out = capsys.readouterr().out
    assert status == 0
    assert not out.lstrip().startswith("{")
    assert '"almost_complex"' in out
    assert "structure:" in out


def test_dimension_cap_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("GRAF_MAX_DIM", "2")
    with pytest.raises(SystemExit) as excinfo:
        main(["check-algebra", "--signature", "1,2"])
    assert excinfo.value.code == 2
    assert "invalid" in capsys.readouterr().err
    monkeypatch.setenv("GRAF_MAX_DIM", "abc")
    with pytest.raises(SystemExit) as excinfo:
        main(["build-rep", "--signature", "1,2"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    monkeypatch.setenv("GRAF_MAX_DIM", "4")
    status, report = run_json(capsys, ["check-algebra", "--trials", "1"])
    assert status == 0
    assert report["signatures_checked"] == 15


def test_malformed_signature_argument():
    with pytest.raises(SystemExit) as excinfo:
        main(["census", "--signature", "3"])
    assert excinfo.value.code == 2


# every subcommand reads --signature, --seed, --format and --out, plus these
SUBCOMMAND_FLAGS = {
    "check-algebra": {"--trials"},
    "build-rep": {"--volume-sign"},
    "verify-fierz": {"--samples", "--volume-sign"},
    "classify": {"--volume-sign"},
    "census": {"--samples", "--volume-sign"},
    "appendix-check": {"--trials", "--volume-sign"},
}


def test_each_subcommand_takes_only_the_flags_it_reads(capsys):
    common = {"--signature", "--seed", "--format", "--out"}
    values = {"--samples": "1", "--trials": "1", "--volume-sign": "-"}
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(SUBCOMMAND_FLAGS)
    for name, extra in SUBCOMMAND_FLAGS.items():
        options = {opt for action in subparsers[name]._actions for opt in action.option_strings}
        assert options - {"-h", "--help"} == common | extra, name
        positional = ["spinor.json"] if name == "classify" else []
        for flag in set(values) - extra:
            with pytest.raises(SystemExit) as excinfo:
                main([name, "--signature", "1,2", flag, values[flag], *positional])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and f"unrecognized arguments: {flag}" in err, err


def run_cli_process(args, cap):
    """Run the CLI in a fresh interpreter, so the cap applies from import on."""
    env = dict(os.environ, PYTHONPATH=str(SRC), GRAF_MAX_DIM=cap)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_dimension_cap_refusals_in_a_fresh_process():
    done = run_cli_process(["-c", "import grafclifford"], "5")
    assert done.returncode == 0, done.stderr
    cli = ["-m", "grafclifford.cli"]
    for cap, argv in (
        ("5", ["census", "--signature", "9,0", "--samples", "1"]),
        ("5", ["appendix-check", "--trials", "1"]),
        ("0", ["census", "--signature", "1,2", "--samples", "1"]),
        ("0", ["check-algebra"]),
        ("abc", ["build-rep", "--signature", "1,2"]),
        ("abc", ["check-algebra"]),
    ):
        done = run_cli_process(cli + argv, cap)
        assert done.returncode == 2, (cap, argv, done.stderr)
        assert "Traceback" not in done.stderr
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert "GRAF_MAX_DIM" in done.stderr
        assert done.stdout == ""
