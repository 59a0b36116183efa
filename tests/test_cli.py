"""Instance-file ingestion and the command line front end."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from algebroids import cli, instances, zoo
from algebroids.bundles import Section
from algebroids.instances import InstanceError
from algebroids.reporting import Check, CheckConfig, Report

TRIPLE_FILE = """\
# abelian triple: U = the TM* block of TM+TM*, zero Dorfman table
[patch]
coords = x, y

[subbundle.U]
ambient = TM+TM*
0 = 0, 0, 1, 0
1 = 0, 0, 0, 1

[dorfman.D]
algebroid = TM

[triple]
algebroid = TM
u = U
dorfman = D
"""

FAST = ["--trials", "3", "--max-degree", "1"]


def _strip_timing(text):
    doc = json.loads(text)
    for c in doc["checks"]:
        c.pop("time_s", None)
    return json.dumps(doc, sort_keys=True)


# ---- round trips -------------------------------------------------------

@pytest.mark.parametrize("name", sorted(zoo.ZOO_PRESETS))
def test_preset_emit_ingest_round_trip(name):
    preset = zoo.zoo_preset(name)
    back = instances.ingest_text(instances.emit_instance(preset))
    ok, why = instances.same_object_graph(preset, back)
    assert ok, why


def test_round_trip_detects_mutations():
    preset = zoo.zoo_preset("poisson-xy")
    other = zoo.zoo_preset("poisson-xy")
    other["pi"][0][1] = other["patch"].coordinate(1)
    other["pi"][1][0] = -other["pi"][0][1]
    ok, why = instances.same_object_graph(preset, other)
    assert not ok and "pi" in why


def test_zoo_emit_writes_parseable_file(tmp_path):
    path = tmp_path / "foliation.txt"
    assert cli.main(["zoo", "foliation-x", "--emit", str(path)]) == 0
    data = instances.ingest(str(path))
    assert data.kind == "iis" and data.name == "foliation-x"
    assert data.iis.F_M.rank == 1


# ---- ingest diagnostics --------------------------------------------------

def test_rank_mismatch_names_the_declaration():
    text = ("[patch]\ncoords = x, y\n\n[bundle.A]\nrank = 2\n\n"
            "[anchor.A]\n0 = 1, 0, 3\n1 = 0, 1\n")
    with pytest.raises(InstanceError) as ei:
        instances.ingest_text(text)
    assert "anchor.A" in str(ei.value) and "expected 2" in str(ei.value)
    assert ei.value.line == 8


def test_syntax_error_carries_position():
    with pytest.raises(InstanceError) as ei:
        instances.ingest_text("[patch]\ncoords = x, y\n\n[pi]\n0,1 = x^\n")
    assert ei.value.line == 5 and ei.value.column == 9


def test_undeclared_reference_is_reported():
    text = ("[patch]\ncoords = x\n\n[subbundle.F]\nambient = TM\n0 = 1\n\n"
            "[iis]\nalgebroid = TM\nfoliation = F\nideal = F\n"
            "connection = nabla\n")
    with pytest.raises(InstanceError) as ei:
        instances.ingest_text(text)
    assert "undeclared connection 'nabla'" in str(ei.value)


def test_truncated_file_is_rejected(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("[patch]\ncoords = x, y\n\n[pi")
    assert cli.main(["check", "courant", str(path)]) == 2


def test_dependent_frame_rows_are_rejected():
    text = ("[patch]\ncoords = x, y\n\n[subbundle.U]\nambient = TM\n"
            "0 = 1, 0\n1 = 2, 0\n")
    with pytest.raises(InstanceError) as ei:
        instances.ingest_text(text)
    assert "subbundle.U" in str(ei.value)


def test_courant_section_validates_gram():
    text = ("[patch]\ncoords = x\n\n[courant.C]\nrank = 2\n"
            "gram.0 = 0, 1\ngram.1 = 0, 0\n")
    with pytest.raises(InstanceError) as ei:
        instances.ingest_text(text)
    assert "courant.C" in str(ei.value)


# ---- the check verb ------------------------------------------------------

def test_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as ei:
        cli.main(["check", "frobnicate", "poisson-xy"])
    assert ei.value.code == 2


def test_unknown_preset_exits_2(capsys):
    assert cli.main(["check", "courant", "nosuchthing"]) == 2
    assert "no such file or zoo preset" in capsys.readouterr().err


def test_suite_without_inputs_exits_2(capsys):
    assert cli.main(["check", "bialgebra", "poisson-xy"]) == 2
    assert "bialgebra" in capsys.readouterr().err


def test_im2form_failure_names_condition_two(capsys):
    code = cli.main(["check", "im2form", "nonclosed-zdxdy", "--seed", "1"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["all_passed"] is False
    failing = {c["name"]: c for c in doc["checks"]
               if c["status"] == "fail"}
    assert set(failing) == {"im2form.bracket"}
    assert "IM condition (2)" in failing["im2form.bracket"]["note"]
    residuals = [w["residual"]
                 for w in failing["im2form.bracket"]["witnesses"]]
    assert "(0, 0, -1)" in residuals


def test_failure_witness_reproduces_standalone():
    # the frame-pair witness above, recomputed outside the reporting layer
    patch = zoo.zoo_preset("nonclosed-zdxdy")["patch"]
    from algebroids.algebroid import tangent_algebroid
    alg = tangent_algebroid(patch)
    sigma = zoo.sigma_from_2form(
        patch, zoo.zoo_preset("nonclosed-zdxdy")["omega"])
    d1, d2 = zoo.im2form_defects(alg, sigma, alg.bundle.basis_section(0),
                                 alg.bundle.basis_section(1))
    assert d1.is_zero()
    assert not d2.is_zero()
    assert [str(c) for c in d2.components] == ["0", "0", "-1"]


def test_reports_are_deterministic_minus_timing(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        code = cli.main(["check", "im2form", "nonclosed-zdxdy",
                         "--seed", "1", "--out", str(out)])
        assert code == 1
    assert _strip_timing(out1.read_text()) == _strip_timing(out2.read_text())


def test_text_format(capsys):
    code = cli.main(["check", "im2form", "presymplectic-dxdy",
                     "--format", "text"] + FAST)
    assert code == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out and "im2form.antisymmetry" in out


def test_triple_file_suites(tmp_path, capsys):
    path = tmp_path / "triple.txt"
    path.write_text(TRIPLE_FILE)
    assert cli.main(["check", "la-dirac", str(path)] + FAST) == 0
    doc = json.loads(capsys.readouterr().out)
    names = [c["name"] for c in doc["checks"]]
    assert "la_dirac.quotient_flat" in names
    assert cli.main(["lemmas", str(path)] + FAST) == 0
    capsys.readouterr()
    assert cli.main(["check", "all", str(path)] + FAST) == 0
    doc = json.loads(capsys.readouterr().out)
    prefixes = {c["name"].split(".")[0] for c in doc["checks"]}
    # kindless files run every suite their declarations can feed
    assert {"courant", "la_dirac", "manin", "lemmas"} <= prefixes


def test_requested_checks_restrict_all(tmp_path, capsys):
    path = tmp_path / "triple.txt"
    path.write_text(TRIPLE_FILE + "\n[instance]\nchecks = lemmas\n")
    assert cli.main(["check", "all", str(path)] + FAST) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(c["name"].startswith("lemmas.") for c in doc["checks"])


def test_build_manin_then_recheck(tmp_path, capsys):
    src = tmp_path / "triple.txt"
    src.write_text(TRIPLE_FILE)
    built = tmp_path / "manin.txt"
    assert cli.main(["build-manin", str(src), "--out", str(built)]
                    + FAST) == 0
    capsys.readouterr()
    text = built.read_text()
    assert "[courant.C]" in text and "gram.0" in text and "frame.0" in text
    assert cli.main(["check", "courant", str(built)] + FAST) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] is True
    assert {c["name"] for c in doc["checks"]} == {
        "courant.anchor_morphism", "courant.differential_pairing",
        "courant.jacobi", "courant.leibniz",
        "courant.pairing_invariance", "courant.skew_defect"}


def test_run_is_importable_and_accepts_preset_names():
    report = cli.run("presymplectic-dxdy", "im2form", seed=2, trials=2,
                     max_degree=1)
    assert report.all_passed and report.suite == "im2form"
    assert report.to_dict()["seed"] == 2


def test_skip_only_report_passes(monkeypatch, capsys):
    # a skip is not a failure: the JSON field, the text result line and
    # the exit code all follow Report.all_passed
    report = Report("courant", instance="skips", config=CheckConfig())
    report.add(Check("demo.skipped").skipped("nothing to test"))
    assert report.all_passed
    assert report.to_dict()["all_passed"] is True
    assert report.to_text().endswith("result: PASS\n")
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: report)
    assert cli.main(["check", "courant", "poisson-xy", "--format",
                     "text"]) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")
    for status in ("fail", "error"):
        report.results[1:] = [Check("demo.%s" % status).result(status)]
        assert not report.all_passed
        assert cli.main(["check", "courant", "poisson-xy"]) == 1
        assert json.loads(capsys.readouterr().out)["all_passed"] is False


def test_exception_in_a_check_is_an_error_result(monkeypatch, capsys):
    # a residual that raises on one tuple ends its check with an error
    # result; the checks after it still run, and the exit code is 1, not
    # the 2 of ill-formed input
    from algebroids import courant
    real, calls = courant.lie_bracket_vf, []

    def planted(X, Y):
        calls.append(None)
        if len(calls) == 3:
            raise ZeroDivisionError("planted")
        return real(X, Y)

    monkeypatch.setattr(courant, "lie_bracket_vf", planted)
    results = cli.run("poisson-xy", "courant", trials=1).results
    names = [r.name for r in results]
    bad = results[names.index("courant.anchor_morphism")]
    assert (bad.status, bad.note) == ("error", "ZeroDivisionError: planted")
    assert bad.to_dict(timing=False)["note"] == "ZeroDivisionError: planted"
    later = results[names.index("courant.anchor_morphism") + 1:]
    assert [r.name for r in later] == ["courant.leibniz",
                                       "courant.differential_pairing"]
    assert all(r.passed for r in later)
    calls.clear()
    assert cli.main(["check", "courant", "poisson-xy", "--trials", "1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"] is False
    assert [c["status"] for c in out["checks"]].count("error") == 1


def test_exception_in_a_two_check_loop_errors_both(monkeypatch, capsys):
    # the im2form loop feeds two checks from one im2form_defects call: an
    # exception there records an error result on both, and the suite goes
    # on with the Manin pair checks
    def planted(alg, sigma, a1, a2):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(zoo, "im2form_defects", planted)
    results = cli.run("presymplectic-dxdy", "all", trials=1).results
    names = [r.name for r in results]
    for name in ("im2form.antisymmetry", "im2form.bracket"):
        bad = results[names.index(name)]
        assert (bad.status, bad.note, bad.witnesses) == \
            ("error", "ZeroDivisionError: planted", [])
    later = results[names.index("im2form.bracket") + 1:]
    assert later and all(r.name.startswith("manin.") and r.passed
                         for r in later)
    assert cli.main(["check", "all", "presymplectic-dxdy",
                     "--trials", "1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [c["status"] for c in out["checks"]].count("error") == 2


def test_exception_in_the_bialgebroid1_loop_is_an_error(monkeypatch):
    # the bialgebroid1 loop feeds the straight and the flipped sign of
    # R_Delta; the reported straight check errors and bialgebroid2 runs
    from algebroids import bialgebroid

    def planted(D, u, v, tau):
        raise ValueError("planted")

    monkeypatch.setattr(bialgebroid, "dorfman_curvature", planted)
    results = cli.run("poisson-xy", "lemmas", trials=1).results
    names = [r.name for r in results]
    bad = results[names.index("lemmas.bialgebroid1")]
    assert (bad.status, bad.note) == ("error", "ValueError: planted")
    assert results[-1].name == "lemmas.bialgebroid2" and results[-1].passed


def test_explicit_dorfman_entries_parse():
    text = ("[patch]\ncoords = x, y\n\n[dorfman.D]\nalgebroid = TM\n"
            "0,0 = 0, 0, 1, 0\n\n[subbundle.U]\nambient = TM+TM*\n"
            "0 = 0, 0, 1, 0\n1 = 0, 0, 0, 1\n")
    data = instances.ingest_text(text)
    D = data.dorfmans["D"]
    assert D.table[0][0].components[2] == data.patch.one
    assert data.subbundles["U"].ambient.name == "TM+TM*"


@pytest.mark.parametrize("flag", ["--trials", "--max-degree"])
def test_negative_counts_are_rejected(flag, capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["check", "courant", "aff1-bialgebra", flag, "-1"])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert "argument %s" % flag in err and "non-negative" in err


def test_library_calls_reject_bad_counts():
    # the parser is not the only gate: run() and CheckConfig check too
    with pytest.raises(ValueError, match="trials"):
        cli.run("aff1-bialgebra", "courant", trials=-3)
    with pytest.raises(ValueError, match="trials"):
        CheckConfig(trials=-2)
    with pytest.raises(ValueError, match="max_degree"):
        CheckConfig(max_degree=1.5)
    with pytest.raises(ValueError, match="trials"):
        CheckConfig(trials="8")
    assert CheckConfig(trials=0, max_degree=0).trials == 0


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


NO_SCRIPT = pytest.mark.skipif(shutil.which("algebroids") is None,
                               reason="console script not installed")


# the checks that list monomials at trials 0 as well: transpose_intertwine
# draws max(trials, 1) tuples, and the parallel frame ansatz has degree
# --max-degree
LISTS_AT_TRIALS_0 = {"poisson.transpose_intertwine", "iis.def.parallel_frame"}


@pytest.mark.parametrize("preset", sorted(zoo.ZOO_PRESETS))
def test_max_degree_over_the_patch_bound_is_an_error_result(preset, capsys):
    # each check that draws at that degree reports error naming the bound,
    # raised before any monomial is listed; the exit code is 1, not the 2
    # of ill-formed input
    patch = instances.instance_from_preset(zoo.zoo_preset(preset)).patch
    bound = patch._bound
    over = "ArithmeticError: degree %d is over the bound %d of Patch(" \
        % (bound + 1, bound)
    flags = ["--max-degree", str(bound + 1), "--trials"]
    assert cli.main(["zoo", preset] + flags + ["1"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    errors = [c for c in checks if c["status"] == "error"]
    assert errors and all(c["note"].startswith(over) for c in errors)
    # at trials 0 only the checks that list monomials anyway error; every
    # other check keeps its status at degree 2, unless it is skipped or
    # left out after the error
    before = {r.name: r.status
              for r in cli.run(preset, "all", trials=0).results}
    after = cli.run(preset, "all", trials=0, max_degree=bound + 1).results
    for r in after:
        if r.name in LISTS_AT_TRIALS_0:
            assert (r.status, r.note[:len(over)]) == ("error", over)
        elif r.status != "skipped":
            assert r.status == before[r.name], r.name


# the module form needs no install, so the subprocess path and its exit
# codes run everywhere
@pytest.mark.parametrize("command", [
    pytest.param([sys.executable, "-m", "algebroids.cli"], id="module"),
    pytest.param(["algebroids"], id="console-script", marks=NO_SCRIPT),
])
def test_console_script(command, tmp_path):
    src = tmp_path / "triple.txt"
    src.write_text(TRIPLE_FILE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)

    def run(*args):
        return subprocess.run(command + list(args), capture_output=True,
                              text=True, env=env)

    proc = run("check", "la-dirac", str(src), "--trials", "2",
               "--max-degree", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_passed"] is True
    proc = run("check", "im2form", "nonclosed-zdxdy", "--trials", "0")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["all_passed"] is False
    proc = run("check", "courant", "nosuchthing")
    assert proc.returncode == 2 and "no such file" in proc.stderr
    proc = run("check", "courant", "aff1-bialgebra", "--trials", "-3")
    assert proc.returncode == 2 and "--trials" in proc.stderr
