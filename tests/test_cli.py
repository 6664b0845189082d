"""End-to-end command-line checks: reports, exit codes, determinism."""

import contextlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from grafclifford.bilinear import admissible_pairings, b_eval, preferred_pairing
from grafclifford.classify import (
    appendix_check,
    census,
    class_report,
    covariants,
    geometry_of,
    prepare,
    reduced_verdict,
)
import grafclifford.classify as classify_module
from grafclifford import cli, fierz, graf, matrixrep
from grafclifford.cli import main
from grafclifford.exterior import Signature
from grafclifford.matrixrep import build_rep
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
    kernels = graf._kernel
    tables = graf._DiagKernel._build_square_table
    kernels.cache_clear()
    tables.cache_clear()
    status, report = run_json(capsys, ["census", "--signature", "9,0", "--samples", "5"])
    assert status == 0 and report["passed"]
    assert kernels.cache_info().misses == 1
    assert tables.cache_info().misses == 1


def _spy(monkeypatch, fn):
    """Record the calls of a library function, rebound in every module namespace that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "grafclifford" or name.startswith("grafclifford."):
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_a_real_census_squares_once_per_sample(capsys, monkeypatch, tmp_path):
    # phi0 = 0 on every real spinor, so S = phi2 and one square serves the
    # master identity and the rows
    products = _spy(monkeypatch, graf.graf_product)
    status, report = run_json(capsys, ["census", "--signature", "1,2", "--samples", "40"])
    assert status == 0 and report["passed"]
    assert len(products) == 40
    # with phi0 != 0 the master squares S and the rows square phi2; this
    # injection solves both (class 4)
    path = tmp_path / "cov.json"
    payload = {
        "covariants": {
            "phi0": [{"blade": [], "coeff": "1"}],
            "phi2": [{"blade": [1, 2], "coeff": "1"}],
        },
        "scalar": "1",
    }
    path.write_text(json.dumps(payload))
    products.clear()
    status, report = run_json(capsys, ["classify", "--signature", "1,2", str(path)])
    assert status == 0 and report["class_index"] == 4
    assert len(products) == 2
    assert [len(args[0].grades()) for args in products] == [2, 1]


def test_build_rep_and_check_algebra_build_no_lane_or_folded_table(capsys, monkeypatch):
    # the census's per-sample tables are built lazily, by the census paths
    # alone, and its per-sample code runs there alone, so neither can move
    # what these two invocations cost
    lanes = classify_module._covariant_lanes
    tables = graf._DiagKernel._build_square_table
    gathers = fierz._profile_gather
    spies = [
        _spy(monkeypatch, fn)
        for fn in (classify_module._master, classify_module.majorana_project, fierz._bilinear_profile)
    ]
    for cache in (lanes, tables, gathers):
        cache.cache_clear()
    for argv in (["build-rep", "--signature", "4,6"], ["check-algebra", "--signature", "9,0"]):
        status, _ = run_json(capsys, argv)
        assert status == 0
    for cache in (lanes, tables, gathers):
        assert cache.cache_info().misses == 0
    assert [len(calls) for calls in spies] == [0, 0, 0]
    # each spy is live: a real census sample calls all three
    status, _ = run_json(capsys, ["census", "--signature", "1,2", "--samples", "1"])
    assert status == 0
    assert all(spies)
    # and the census paths evict no square table
    for command in ("census", "verify-fierz"):
        tables.cache_clear()
        status, _ = run_json(capsys, [command, "--signature", "9,0", "--samples", "3"])
        assert status == 0
        info = tables.cache_info()
        assert info.misses == info.currsize


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


def test_classify_injection_refuses_unknown_term_keys(tmp_path, capsys):
    """A misspelled key inside a form term exits 2 instead of being dropped."""
    path = tmp_path / "cov.json"
    for term, unknown in (
        ({"blade": [], "coeff": "1", "coef": "5"}, "'coef'"),
        ({"blade": [], "coeff": "1", "Blade": [1], "note": ""}, "'Blade', 'note'"),
        ({"blade": [], "coef": "1"}, "'coef'"),
    ):
        path.write_text(json.dumps({"covariants": {"psi0": [term]}}))
        assert main(["classify", "--signature", "9,0", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert unknown in captured.err and "blade, coeff" in captured.err


def test_classify_injection_checks_blade_indices_before_the_dimension(tmp_path, capsys):
    """Unordered or 0-based blades are bad terms, even past the dimension; then the dimension."""
    path = tmp_path / "cov.json"
    for blade, message in (
        ([3, 1], "bad form term {'blade': [3, 1], 'coeff': '1'}"),
        ([0, 2], "bad form term {'blade': [0, 2], 'coeff': '1'}"),
        ([12, 10], "bad form term {'blade': [12, 10], 'coeff': '1'}"),
        ([2, 10], "blade (2, 10) exceeds dimension 9"),
    ):
        path.write_text(json.dumps({"covariants": {"psi4": [{"blade": blade, "coeff": "1"}]}}))
        assert main(["classify", "--signature", "9,0", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"grafclifford: error: {message}\n"


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


def assert_refused(argv, capsys):
    """The invocation exits 2 with nothing on stdout and one error line on stderr."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1, captured.err
    assert captured.err.startswith("grafclifford: error: spinor file ")
    return captured.err


def test_a_spinor_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe[1]")
    assert "utf-8" in assert_refused(["classify", "--signature", "9,0", str(path)], capsys)


def test_a_json_integer_past_the_digit_limit_exits_two(tmp_path, capsys):
    path = tmp_path / "digits.json"
    path.write_text("[" + "1" * 5000 + "]")
    assert "digits" in assert_refused(["classify", "--signature", "9,0", str(path)], capsys)


def test_arrays_nested_past_the_recursion_limit_exit_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert "recursion" in assert_refused(["classify", "--signature", "9,0", str(path)], capsys)


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


def test_library_reports_are_the_objects_the_cli_prints(tmp_path, capsys):
    spinor = tmp_path / "spinor.json"
    for sig, vec in ((Signature(1, 2), [3, -1, 2, 5]), (Signature(9, 0), [1, -2] + [0, 3] * 7)):
        flag = f"{sig.p},{sig.q}"
        rep = build_rep(sig)
        pairings = admissible_pairings(rep)
        pairing = preferred_pairing(pairings)
        _, report = run_json(capsys, ["census", "--signature", flag, "--samples", "12", "--seed", "4"])
        assert report["census"] == census(rep, pairings, 12, 4)
        spinor.write_text(json.dumps(vec))
        _, report = run_json(capsys, ["classify", "--signature", flag, str(spinor)])
        covs = covariants(rep, pairing, prepare(rep, vec))
        assert report["report"] == class_report(covs, None, rep.volume_sign, pairing.content_hash())
        verdict = reduced_verdict(covs, covs[0].scalar_part(), rep.volume_sign)
        assert report["report"]["verdict"] == verdict
    _, report = run_json(capsys, ["appendix-check", "--trials", "2", "--seed", "9"])
    assert report["battery"] == appendix_check(Signature(9, 0), 2, 9)
    # verify-fierz draws its reduced-row spinors from seed + 1; one sample flags a row
    _, report = run_json(capsys, ["verify-fierz", "--signature", "9,0", "--samples", "1"])
    alpha = prepare(rep, cli._random_vec(random.Random(1), rep.d))
    verdict = reduced_verdict(
        covariants(rep, pairing, alpha), b_eval(pairing, alpha, alpha), rep.volume_sign
    )
    first = next(r for r in verdict["rows"] if r["identity"] == verdict["flagged"][0])
    assert report["reduced"]["first_flagged_row"] == first


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


# -- the exit-code contract, fuzzed ----------------------------------------------------

SPINOR = "<spinor file>"  # stands for the drawn spinor file's path in a drawn argv
SIGNATURES = [f"{p},{n - p}" for n in range(5) for p in range(n, -1, -1)] + ["9,0"]
BAD_SIGNATURES = ["3", "1,2,3", "a,b", "-1,2", "13,0", ""]
COUNTS, BAD_COUNTS = ["0", "1", "2"], ["-1", "x", "1.5", "9" * 5000]
FLAG_VALUES = {  # flag: (valid values, invalid values)
    "--samples": (COUNTS, BAD_COUNTS),
    "--trials": (COUNTS, BAD_COUNTS),
    "--volume-sign": (["+", "-"], ["0", "plus"]),
    "--format": (["json", "text"], ["xml"]),
}
GOOD_RATIONALS = ["1/2", "-3", "6/4", " 5 "]
BAD_RATIONALS = ["1e5", "0.5", "1_0", "+4", "x/3", "1/0", "", "1/-2"]
COVARIANT_NAMES = ["psi0", "psi1", "psi4", "phi0", "phi2", "chi"]
UNKNOWN_KEYS = ["scalr", "coef", "Blade"]  # misspelled top-level and term keys
HUGE = 10**40


@st.composite
def invocations(draw):
    """An argv over the six subcommands: valid and invalid flag values, foreign flags, no --out."""
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    signature = draw(
        st.sampled_from(SIGNATURES)
        | st.sampled_from(["1,2", "9,0"])  # the classified pair, so classify and census run
        | st.sampled_from([None, *BAD_SIGNATURES])
    )
    assume(command != "check-algebra" or signature is not None)  # the full sweep takes seconds
    argv = [command] if signature is None else [command, "--signature", signature]
    flags = sorted(SUBCOMMAND_FLAGS[command] | {"--format"})
    if draw(st.integers(0, 4)) == 0:
        flags.append(draw(st.sampled_from(sorted(set(FLAG_VALUES) - set(flags)))))
    spoiled = draw(st.sampled_from(flags)) if draw(st.integers(0, 2)) == 0 else None
    for flag in flags:
        value = draw(st.sampled_from([None, *FLAG_VALUES[flag][flag == spoiled]]))
        if value is not None:
            argv += [flag, value]
    if command == "classify" and draw(st.integers(0, 9)):
        argv.append(SPINOR)
    return argv


entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([HUGE, -HUGE, True, False, 0.5, 1.0, None]),
    st.sampled_from(GOOD_RATIONALS + BAD_RATIONALS),
    st.lists(st.integers(-2, 2), max_size=2),
)
clean_entries = st.integers(-3, 3) | st.sampled_from([HUGE, -HUGE, *GOOD_RATIONALS])
spinor_arrays = st.sampled_from([3, 4, 16]).flatmap(
    lambda n: st.lists(clean_entries, min_size=n, max_size=n)
    | st.lists(entries, min_size=n, max_size=n)
)
blades = st.lists(st.integers(0, 10) | st.just(10**30), max_size=3)
terms = st.fixed_dictionaries(
    {"blade": blades, "coeff": clean_entries | entries},
    optional={"coef": clean_entries, "Blade": blades},
)
forms = st.lists(terms | entries, max_size=3)
injected = st.fixed_dictionaries(
    {"covariants": st.dictionaries(st.sampled_from(COVARIANT_NAMES), forms, max_size=3)},
    optional={"scalar": clean_entries | entries, "scalr": entries},
)


@st.composite
def spinor_files(draw):
    """Mostly JSON spinor arrays and injected covariants, sometimes a bare value or raw bytes."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.binary(max_size=8))
    payload = draw(spinor_arrays if kind < 6 else injected if kind < 9 else entries)
    return json.dumps(payload).encode()


CLASSIFY_9_0 = ["classify", "--signature", "9,0", SPINOR]


def unit_term(*blade):
    """The form term 1 e_blade."""
    return {"blade": list(blade), "coeff": "1"}


def injected_json(**covariants) -> bytes:
    return json.dumps({"covariants": covariants}).encode()


def _leaves(obj):
    """Every scalar in a JSON value, object keys included."""
    if isinstance(obj, dict):
        yield from obj
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def must_refuse(content: bytes) -> bool:
    """A spinor file holding a bool, a float, a malformed rational or an unknown key is invalid."""
    try:
        payload = json.loads(content)
    except ValueError:
        return True
    return any(
        isinstance(leaf, (bool, float)) or leaf in BAD_RATIONALS + UNKNOWN_KEYS
        for leaf in _leaves(payload)
    )


@settings(
    derandomize=True,
    deadline=None,
    max_examples=100,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=invocations(), content=spinor_files())
@example(argv=CLASSIFY_9_0, content=b"\xff\xfe[1]")
@example(argv=CLASSIFY_9_0, content=b"[" + b"1" * 5000 + b"]")
@example(argv=CLASSIFY_9_0, content=b"[" * 100_000 + b"]" * 100_000)
@example(argv=CLASSIFY_9_0, content=json.dumps(["1e5"] + [0] * 15).encode())
@example(argv=CLASSIFY_9_0, content=injected_json(psi1=[unit_term(10**30)]))
@example(argv=CLASSIFY_9_0, content=injected_json(psi0=[unit_term()]))  # the master fails: exit 1
@example(argv=CLASSIFY_9_0, content=injected_json(psi0=[{**unit_term(), "coef": "5"}]))
def test_every_invocation_keeps_the_exit_code_contract(tmp_path, argv, content):
    """Exit 0, 1 or 2, never a traceback; 2 is one error line; 0 and 1 print one report."""
    path = tmp_path / "spinor.json"
    path.write_bytes(content)
    argv = [str(path) if arg == SPINOR else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    if status == 2:
        assert out == "" and len(err.splitlines()) == 1, (out, err)
        return
    assert err == ""
    if str(path) in argv:
        assert not must_refuse(content), argv
    if "text" not in argv:
        assert out.count("\n") == 1
        assert json.loads(out)["passed"] is (status == 0)


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


FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
import grafclifford.cli as cli
def openssl():
    return sorted({"hashlib", "_hashlib"} & set(sys.modules))
loaded = [openssl()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    loaded.append([argv[0], status, openssl()])
print(json.dumps(loaded))
"""


@pytest.mark.skipif(
    not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
    reason="this interpreter has no built-in SHA-256 module",
)
def test_no_cli_process_loads_hashlib_when_a_builtin_sha256_exists():
    """The pairing hash takes CPython's built-in SHA-256, so OpenSSL stays unloaded."""
    spinor = str(Path(__file__).resolve().parent / "golden" / "spinor_1_2.json")
    runs = [
        ["build-rep", "--signature", "1,2"],
        ["verify-fierz", "--signature", "1,2", "--samples", "1"],
        ["classify", "--signature", "1,2", spinor],
        ["census", "--signature", "1,2", "--samples", "1"],
        ["check-algebra", "--signature", "1,2", "--trials", "1"],
        ["appendix-check", "--trials", "1"],
    ]
    assert {run[0] for run in runs} == set(SUBCOMMAND_FLAGS)
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, json.dumps(runs)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    after_import, *after_runs = json.loads(done.stdout)
    assert after_import == []
    assert after_runs == [[run[0], 0, []] for run in runs]
