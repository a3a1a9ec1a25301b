"""Tests for the command-line verification runner: argument handling, JSON
determinism, rendering, and exit codes."""

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import numpy as np

import nullcone.cli as cli
import nullcone.pairs as pairs
from nullcone import orbits
from nullcone.cli import SuiteConfig, main, parse_args, render_json, run
from nullcone.pairs import Family, build_pair
from nullcone.report import Report


def test_parse_args_defaults():
    cfg = parse_args(["--suite", "table"])
    assert cfg.suite == "table"
    assert cfg.field is None
    assert cfg.seed == 0
    assert cfg.tol_abs == 1e-9
    assert cfg.trials == 100
    assert cfg.format == "markdown"


def test_parse_args_full():
    cfg = parse_args(["--suite", "stabilizers", "--field", "H", "--p", "2",
                      "--q", "1", "--seed", "7", "--tol", "1e-8",
                      "--trials", "25", "--format", "json"])
    assert cfg == SuiteConfig(suite="stabilizers", field="H", p=2, q=1,
                              seed=7, tol_abs=1e-8, trials=25, format="json")


@pytest.mark.parametrize("argv", [
    ["--suite", "bogus"],
    ["--suite", "table", "--p", "0"],
    ["--suite", "table", "--tol", "-1"],
    ["--suite", "table", "--tol", "nan"],
    ["--suite", "axioms", "--tol", "inf"],
    ["--suite", "table", "--trials", "0"],
    ["--suite", "orbits", "--field", "C", "--p", "1", "--q", "1"],
    ["--suite", "all", "--p", "1", "--q", "1"],
])
def test_bad_arguments_exit_with_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2


IMPORT_PROBE = """
import contextlib, io, sys
sys.modules["scipy"] = None  # any runtime use of scipy now raises ImportError
import nullcone.cli as cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["--suite", "table"], ["--suite", "su21", "--trials", "5"],
                 ["--suite", "orbits", "--field", "C", "--p", "2", "--q", "1",
                  "--trials", "3"]):
        assert cli.main(argv + ["--format", "json"]) == 0, argv
print(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy"))
"""


def python_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def run_python(code):
    return subprocess.run([sys.executable, "-c", code], env=python_env(), capture_output=True,
                          text=True, timeout=120)


def test_import_leaves_scipy_out():
    # the records are NamedTuples and plain classes, so no class generates
    # its methods through dataclasses at import
    done = run_python("import sys, nullcone.cli; "
                      "print('scipy' in sys.modules, 'dataclasses' in sys.modules)")
    assert done.stdout.strip() == "False False", done.stderr


@pytest.mark.parametrize("fmt", ["json", "markdown"])
def test_closed_stdout_is_one_line_on_stderr(fmt):
    # a reader that has gone (`nullcone ... | head -c 300`) gets no traceback
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "nullcone.cli", "--suite", "table",
                               "--format", fmt], stdout=write, stderr=subprocess.PIPE,
                              env=python_env(), text=True, timeout=120)
    finally:
        os.close(write)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == ["nullcone: stdout was closed before the report "
                                        "was written"]


def test_records_are_not_serialized_as_sequences():
    # a NamedTuple record is a tuple; only plain tuples and lists are sequences
    fam = Family("C", 2, 1)
    with pytest.raises(TypeError):
        cli._jval(fam)
    with pytest.raises(TypeError):
        cli._jval([1, (2, fam)])
    assert cli._mval(fam) == str(fam) == "Family(field='C', p=2, q=1)"
    assert cli._jval((1, [2.5, None])) == "[1,[2.5,null]]"
    assert cli._mval((1, [2.5])) == "(1, (2.5))"


def test_suites_run_without_scipy_and_load_no_numpy_module_lazily():
    # every numpy submodule a suite needs comes with the import, so no
    # suite pays for loading one
    done = run_python(IMPORT_PROBE)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_suites_leave_numpy_ma_unloaded():
    # importing numpy.ma costs tens of milliseconds per interpreter; np.median
    # and np.unique load it, so no suite may call them
    done = run_python("""
import contextlib, io, sys
import nullcone.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["su21"], ["orbits", "--field", "C", "--trials", "5"]):
        assert cli.main(["--suite", *argv, "--format", "json"]) == 0, argv
print("numpy.ma" in sys.modules)
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_json_output_is_deterministic():
    cfg = parse_args(["--suite", "axioms", "--field", "C", "--format", "json"])
    a = render_json(run(cfg))
    b = render_json(run(cfg))
    assert a == b


def test_json_schema_and_sorting():
    cfg = parse_args(["--suite", "table", "--format", "json"])
    doc = json.loads(render_json(run(cfg)))
    assert set(doc.keys()) == {"suite", "seed", "checks", "summary"}
    assert doc["suite"] == "table"
    assert set(doc["summary"].keys()) == {"pass", "fail"}
    names = [c["name"] for c in doc["checks"]]
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for c in doc["checks"]:
        assert list(c.keys()) == ["name", "status", "observed", "expected",
                                  "tol", "anchor"]
        assert c["status"] in ("pass", "fail", "info")
    assert doc["summary"]["fail"] == 0


def strict_json(text):
    """json.loads that refuses the NaN and Infinity constants, which are not JSON."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_non_finite_observations_are_json_strings():
    rep = Report("probe", 3)
    rep.residual("a_nan", float("nan"), 1e-9)
    rep.add("b_inf", False, np.float64(np.inf), "< 0", None)
    rep.add("c_neg_inf", True, -np.inf, (1, 2.5, np.nan), 1e-8)
    doc = strict_json(render_json(rep))
    observed = [c["observed"] for c in doc["checks"]]
    assert observed == ["NaN", "Infinity", "-Infinity"]
    assert doc["checks"][2]["expected"] == [1, 2.5, "NaN"]
    # float() reads each string back
    back = [float(v) for v in observed]
    assert np.isnan(back[0]) and back[1:] == [np.inf, -np.inf]
    # finite values keep their digits
    assert cli._jval(0.1) == "0.10000000000000001" and cli._jval(-0.0) == "-0"
    assert cli._jval(np.float32(1e-40)) == "%.17g" % float(np.float32(1e-40))


def test_absorb_prefixes_each_name_and_keeps_the_rest():
    part = Report("part")
    part.residual("r", 1e-12, 1e-9, anchor="a")
    part.info("i", 3)
    whole = Report("whole")
    whole.absorb(part, "p_")
    whole.absorb(part)
    assert [c.name for c in whole.checks] == ["p_r", "p_i", "r", "i"]
    fields = [(c.status, c.observed, c.expected, c.tol, c.anchor) for c in part.checks]
    assert [(c.status, c.observed, c.expected, c.tol, c.anchor)
            for c in whole.checks] == fields * 2
    assert [c.name for c in part.checks] == ["r", "i"]


def test_markdown_rendering(capsys):
    code = main(["--suite", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "| check |" in out
    assert "**pass" in out
    assert "wall" in out


def test_exit_code_reflects_failures(capsys):
    # an absurdly tight tolerance cannot be met; the run must fail cleanly
    code = main(["--suite", "axioms", "--field", "R", "--tol", "1e-300",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"]["fail"] >= 1


def test_single_family_restriction(capsys):
    code = main(["--suite", "stabilizers", "--field", "C", "--trials", "3",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert all(n.startswith("C21_") for n in names)


@pytest.mark.parametrize("suite", ["orbits", "stabilizers"])
def test_unattainable_sampling_tolerance_is_a_failed_check(suite, capsys):
    # a gap threshold of 10 defeats the generic sampler; the suite must be
    # reported as aborted, not end in a traceback
    code = main(["--suite", suite, "--tol", "1e-2", "--trials", "3",
                 "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [(c["name"], c["status"]) for c in doc["checks"]] == \
        [(f"{suite}_aborted", "fail")]
    assert "generic null vector" in doc["checks"][0]["observed"]


def test_all_keeps_the_suites_that_do_not_abort(capsys):
    # at --tol 1e-2 the genericity gap rule asks for gaps above 10, so the
    # orbits and stabilizers suites abort; under "all" that costs their
    # checks only
    code = main(["--suite", "all", "--tol", "1e-2", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = [c for c in doc["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["orbits_aborted", "stabilizers_aborted"]
    assert all("generic null vector" in c["observed"] for c in failed)
    suites = {name.split("_")[0] for name in (c["name"] for c in doc["checks"])}
    # the table, the axioms of each field and both case studies
    assert {"table", "C", "H", "R", "su21", "sp21"} <= suites
    assert doc["summary"]["pass"] > 100


def test_all_reports_every_aborted_suite_by_name(monkeypatch, capsys):
    def raises(cfg):
        raise RuntimeError("sampler gave up")

    monkeypatch.setitem(cli.SUITES, "axioms", raises)
    monkeypatch.setitem(cli.SUITES, "sp21", raises)
    code = main(["--suite", "all", "--trials", "3", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["suite"] == "all"
    assert [c["name"] for c in doc["checks"] if c["status"] == "fail"] == \
        ["axioms_aborted", "sp21_aborted"]
    names = [c["name"] for c in doc["checks"]]
    assert "table_all_rows_match" in names and "su21_einstein" in names


# every suite (all included) with the options that reach the sampling,
# rank and quaternionic normal-form paths, and the usage error of "all"
SWEEP = [[s, "--trials", "3", *extra]
         for extra in ([], ["--tol", "1e-3"], ["--tol", "1e-2"],
                       ["--p", "1", "--q", "2", "--field", "H"])
         for s in cli.SUITE_NAMES]
SWEEP.append(["all", "--p", "1", "--q", "1"])
# orbits at one --tol per decade down to 1e-12 (1e-2 and 1e-3 are above)
SWEEP += [["orbits", "--trials", "3", "--tol", f"1e-{e}"] for e in range(4, 13)]


@pytest.mark.parametrize("argv", SWEEP, ids=" ".join)
def test_argument_sweep_keeps_the_exit_contract(argv, capsys):
    try:
        code = main(["--suite", *argv, "--format", "json"])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    assert code in (0, 1, 2)
    if code != 2:
        doc = json.loads(out)
        assert (doc["summary"]["fail"] > 0) == (code == 1)
    if argv[0] == "orbits" and "--tol" in argv and float(argv[argv.index("--tol") + 1]) <= 1e-3:
        # the spectrum splits at gap / 4 whatever the tolerance, so below
        # the genericity gap rule's limit every orbits check passes
        assert code == 0


def test_linear_algebra_error_is_a_failed_check(monkeypatch, capsys):
    def singular(cfg):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setitem(cli.SUITES, "table", singular)
    code = main(["--suite", "table", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [(c["name"], c["status"]) for c in doc["checks"]] == [("table_aborted", "fail")]


@pytest.mark.parametrize("suite", ["stabilizers", "orbits"])
def test_suite_checks_do_not_depend_on_block_size(suite, monkeypatch):
    # two rays per block against one block for all trials: the random
    # stream differs, the checks and their statuses do not
    cfg = SuiteConfig(suite=suite, field="C", p=2, q=1, trials=7)
    whole = [(c.name, c.status) for c in run(cfg).checks]
    pair = build_pair(Family("C", 2, 1))
    commutant = suite == "stabilizers" and orbits.commutant_is_smaller(pair)
    # three rays' bytes: two rays per block and one kept back
    monkeypatch.setattr(orbits, "BLOCK_BYTES", 3 * orbits._ray_bytes(pair, commutant))
    assert orbits.trial_blocks(pair, 7, commutant) == [2, 2, 2, 1]
    cut = [(c.name, c.status) for c in run(cfg).checks]
    assert cut == whole
    assert all(status != "fail" for _, status in cut)


@pytest.mark.parametrize("suite", ["stabilizers", "orbits"])
def test_census_frees_each_pair_before_the_next_build(suite, monkeypatch):
    # the census holds one pair at a time, so a large build does not stack
    # on the previous family's pair and its cached frames
    real = cli.build_pair
    made, alive_at_build = [], []

    def tracked(fam, **kwargs):
        alive_at_build.append([ref() is not None for ref in made])
        pair = real(fam, **kwargs)
        pair.m.frame  # as the census would, cache a frame on the pair
        made.append(weakref.ref(pair))
        return pair

    monkeypatch.setattr(cli, "build_pair", tracked)
    rep = run(SuiteConfig(suite=suite, p=2, q=1, trials=3))
    assert rep.ok, rep.failures()
    assert alive_at_build == [[], [False], [False, False]]


@pytest.mark.parametrize("argv, builds_g", [
    (["--suite", "table"], False),
    (["--suite", "stabilizers", "--p", "6", "--q", "5", "--trials", "1"], False),
    (["--suite", "axioms"], True),
], ids=["table", "stabilizers_65", "axioms"])
def test_only_the_axioms_suite_builds_the_ambient_algebra(argv, builds_g, monkeypatch):
    # g = h + m is built the first time it is read, and only the random
    # draws of check_symmetric_axioms read it
    made = []

    def tracked(*args, **kwargs):
        pair = build_pair(*args, **kwargs)
        made.append(pair)
        return pair

    # the census builds through cli, the table and axioms suites through pairs
    monkeypatch.setattr(cli, "build_pair", tracked)
    monkeypatch.setattr(pairs, "build_pair", tracked)
    rep = run(parse_args(argv))
    assert rep.ok, rep.failures()
    assert made
    assert all(("g" in vars(pair)) == builds_g for pair in made)
