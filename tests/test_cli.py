"""Command line behavior: outputs, schemas, determinism, exit codes."""

import contextlib
import io
import json
import re
from importlib import resources

import jsonschema
from hypothesis import given, settings, strategies as st

from cycloribbon import cli, lincomb


SCHEMA = json.loads(
    resources.files("cycloribbon").joinpath("schemas/cli.schema.json").read_text())


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, expect_def=None):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMA)
    if expect_def:
        sub = dict(SCHEMA)
        sub["oneOf"] = [{"$ref": f"#/$defs/{expect_def}"}]
        jsonschema.validate(obj, sub)
    return obj


def test_enumerate(capsys):
    obj = run_json(capsys, "enumerate", "--n", "3", "--r", "2",
                   "--shape", "2,1", expect_def="enumerate")
    assert obj["count"] == 5
    assert [rib["colors"] for rib in obj["ribbons"]] == [
        [1, 1, 1], [1, 2, 1], [1, 2, 2], [2, 2, 1], [2, 2, 2]]


def test_enumerate_explicit_empty_shape(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "2", "--r", "1", "--shape", "")
    assert (code, out) == (1, "")
    assert err == "error: shape () is not a composition of 2\n"
    obj = run_json(capsys, "enumerate", "--n", "0", "--r", "1", "--shape", "",
                   expect_def="enumerate")
    assert obj["shape"] == [] and obj["count"] == 1


def test_schema_bases_are_the_lincomb_bases():
    assert SCHEMA["$defs"]["basis"]["enum"] == list(lincomb.BASES)


def test_enumerate_anti(capsys):
    obj = run_json(capsys, "enumerate", "--n", "2", "--r", "3", "--anti")
    assert obj["count"] == 12 and obj["anti"] is True


def test_phi(capsys):
    obj = run_json(capsys, "phi", "--ribbon", "1,1|2,1", expect_def="phi")
    assert obj["output"] == {"shape": [2], "colors": [2, 1]}


def test_product_bases(capsys):
    obj = run_json(capsys, "product", "--basis", "R",
                   "--lhs", "2^1", "--rhs", "1^1", expect_def="lincomb")
    assert obj["basis"] == "MR-R"
    assert len(obj["terms"]) == 2
    obj = run_json(capsys, "product", "--basis", "S",
                   "--lhs", "2^1", "--rhs", "1,3^2".replace(",", "^2.1"),
                   expect_def="lincomb")
    assert obj["basis"] == "MR-S"
    obj = run_json(capsys, "product", "--basis", "F",
                   "--lhs", "1|1", "--rhs", "1|2", expect_def="lincomb")
    assert [t["label"] for t in obj["terms"]] == [
        {"shape": [2], "colors": [1, 2]},
        {"shape": [1, 1], "colors": [2, 1]}]


def test_coproduct(capsys):
    obj = run_json(capsys, "coproduct", "--basis", "S", "--elt", "2^1",
                   expect_def="tensorcomb")
    assert len(obj["terms"]) == 3
    obj = run_json(capsys, "coproduct", "--basis", "F", "--elt", "2|1,2",
                   expect_def="tensorcomb")
    assert len(obj["terms"]) == 3


def test_induce_simples_pinned(capsys):
    obj = run_json(capsys, "induce-simples",
                   "--lhs", "1,1|2,1", "--rhs", "2|1,2", expect_def="lincomb")
    assert len(obj["terms"]) == 6
    assert all(t["coeff"] == "1" for t in obj["terms"])


def test_induce_simples_rejects_noncycloribbon(capsys):
    code, out, err = run(capsys, "induce-simples",
                         "--lhs", "2|2,1", "--rhs", "1|1")
    assert code == 1 and "not a cycloribbon" in err


def test_nonpositive_color_error_names_no_bound(capsys):
    code, out, err = run(capsys, "induce-simples", "--lhs", "1|2", "--rhs", "1|0")
    assert (code, out) == (1, "")
    assert err == "error: non-positive color in (0,)\n"


def test_f_basis_rejects_noncycloribbon(capsys):
    for argv in (("product", "--basis", "F", "--lhs", "2|3,1", "--rhs", "1|1"),
                 ("product", "--basis", "F", "--lhs", "1|1", "--rhs", "2|3,1"),
                 ("coproduct", "--basis", "F", "--elt", "2|3,1")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and "not a cycloribbon" in err and not out


def test_induce_hecke_projective(capsys):
    obj = run_json(capsys, "induce-hecke-projective", "--shape", "2,1",
                   "--r", "2", expect_def="induce_hecke_projective")
    assert sorted(s["dim"] for s in obj["summands"]) == [2, 2, 3, 3, 6]
    assert obj["total_dim"] == 16


def test_cartan_csv_identity(capsys):
    code, out, err = run(capsys, "cartan", "--n", "1", "--r", "3",
                         "--format", "csv")
    assert code == 0
    assert out == (",1|1,1|2,1|3\n"
                   "1^1,1,0,0\n"
                   "1^2,0,1,0\n"
                   "1^3,0,0,1\n")


def test_cartan_json(capsys):
    obj = run_json(capsys, "cartan", "--n", "2", "--r", "2",
                   expect_def="matrix")
    assert obj["matrix"] == "cartan"
    assert len(obj["rows"]) == len(obj["cols"]) == 6


def test_decomp_json(capsys):
    obj = run_json(capsys, "decomp", "--n", "2", "--r", "2",
                   expect_def="matrix")
    assert obj["rows"] == [";1,1", ";2", "1;1", "1,1;", "2;"]


def test_dims(capsys):
    obj = run_json(capsys, "dims", "--n", "3", "--r", "2", expect_def="dims")
    assert obj["sum"] == obj["algebra_dim"] == 48


def test_oracle_verify(capsys):
    obj = run_json(capsys, "oracle", "verify", "--n", "2", "--r", "2",
                   expect_def="oracle_verify")
    assert obj["pass"] is True
    obj = run_json(capsys, "oracle", "verify", "--n", "2", "--r", "2",
                   "--u", "1,3", expect_def="oracle_verify")
    assert obj["u"] == ["1", "3"]


def test_oracle_verify_zero_denominator(capsys):
    code, out, err = run(capsys, "oracle", "verify", "--n", "2", "--r", "2",
                         "--u", "1/0,2")
    assert code == 1 and err.startswith("error:") and not out
    assert "Traceback" not in err


def test_oracle_verify_rejects_malformed_parameters(capsys):
    # an empty --u is an error, not a request for the default parameters
    for value in ("", "1,,2", "x"):
        code, out, err = run(capsys, "oracle", "verify", "--n", "2", "--r", "2",
                             f"--u={value}")
        assert (code, out) == (1, "")
        assert err == (f"error: --u: {value!r} is not a comma separated "
                       "list of rationals\n")


def test_oracle_verify_names_wrong_parameter_lists(capsys):
    # too few, too many or repeated values, as typed (1/2 and 0.5 are equal)
    for r, value in ((2, "1/2"), (2, "1,1"), (1, "1,2"), (2, "1/2,0.5"),
                     (3, "1,2,1")):
        code, out, err = run(capsys, "oracle", "verify", "--n", "2", "--r",
                             str(r), f"--u={value}")
        assert (code, out) == (1, "")
        assert err == (f"error: --u: {value!r} must list {r} pairwise "
                       "distinct rationals, one per color\n")


def test_oracle_verify_respects_cap(capsys, monkeypatch):
    monkeypatch.setenv(cli.MAX_DIM_ENV, "10")
    code, out, err = run(capsys, "oracle", "verify", "--n", "3", "--r", "2")
    assert code == 1 and "exceeds the cap" in err


def test_oracle_cross_check(capsys):
    obj = run_json(capsys, "oracle", "cross-check", "--max-grade", "2",
                   "--r", "2", expect_def="oracle_cross_check")
    assert obj["pass"] is True and obj["cases"] == 4


def test_oracle_failure_exit_code(capsys, monkeypatch):
    fake = {"check": "induction-cross-check", "r": 2, "max_grade": 2,
            "negate_colors": False, "cases": 1,
            "failures": [{"lhs": {}}], "pass": False}
    monkeypatch.setattr(cli.oracle, "cross_check_induction",
                        lambda *a, **k: fake)
    code, out, err = run(capsys, "oracle", "cross-check", "--max-grade", "2",
                         "--r", "2")
    assert code == 2
    assert json.loads(err) == [{"lhs": {}}]


def test_oracle_error_exit_code(capsys, monkeypatch):
    def broken(params, module):
        raise cli.oracle.OracleError("e_K is not idempotent")
    monkeypatch.setattr(cli.oracle, "composition_factors", broken)
    code, out, err = run(capsys, "oracle", "cross-check", "--max-grade", "2",
                         "--r", "2")
    assert code == 2 and not out
    assert err == "error: e_K is not idempotent\n"


def test_malformed_literal_reports_position(capsys):
    code, out, err = run(capsys, "phi", "--ribbon", "2,x|1,1")
    assert code == 1
    assert "position" in err


def test_oversized_part_reports_error(capsys):
    code, out, err = run(capsys, "product", "--basis", "S",
                         "--lhs", "99999999999999999999^1", "--rhs", "1^1")
    assert code == 1 and not out
    assert err.startswith("error: --lhs: part 99999999999999999999 ")
    assert err.count("\n") == 1
    # the budget is on the size of the whole element, and names the flag
    code, out, err = run(capsys, "coproduct", "--basis", "R",
                         "--elt", "6000^1.6000^2")
    assert code == 1 and not out
    assert err.startswith("error: --elt: part 6000 is too large")


def test_unknown_flag_exits_1(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "2")
    assert code == 1


def test_negative_sizes_rejected(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "-1", "--r", "2")
    assert code == 1
    code, out, err = run(capsys, "dims", "--n", "2", "--r", "0")
    assert code == 1
    code, out, err = run(capsys, "oracle", "cross-check", "--max-grade", "-1",
                         "--r", "2")
    assert (code, out) == (1, "")
    assert err == "error: --max-grade must be at least 0\n"
    code, out, err = run(capsys, "oracle", "cross-check", "--max-grade", "3",
                         "--r", "0")
    assert (code, out) == (1, "")
    assert err == "error: --r must be at least 1\n"
    code, out, err = run(capsys, "dims", "--n", "-1", "--r", "2")
    assert (code, out) == (1, "")
    assert err == "error: --n must be at least 0\n"
    # the relation checks need at least one strand
    code, out, err = run(capsys, "oracle", "verify", "--n", "0", "--r", "2")
    assert (code, out) == (1, "")
    assert err == "error: --n must be at least 1\n"


def test_output_deterministic(capsys):
    args = ("induce-simples", "--lhs", "1,1|2,1", "--rhs", "2|1,2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("cartan", "--n", "3", "--r", "2", "--format", "csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# fuzzed argument lists: every command ends with exit 0, 1 or 2 and never
# with a traceback.  Sizes stay small: an unbounded size (``enumerate --n
# 40``) is a known gap of the CLI, not something to fuzz.

SIZES = st.one_of(st.integers(-2, 3).map(str),
                  st.sampled_from(["", "x", "1.5", "2e0", "0x2", " 1"]))
LITERALS = st.one_of(
    st.sampled_from(["1,1|2,1", "2|1,2", "1|1", "2,1", "2^1.1^2", "1^1",
                     "", "|", "^", "1,1|2", "99999999999999999999^1",
                     "99999999999999999999|1", "6000^1.6000^2"]),
    # single-digit parts only, so that no literal names a large module
    st.text(alphabet="0123|,^.-/x ", max_size=6).filter(
        lambda text: not re.search(r"\d\d", text)))
PARAMETERS = st.one_of(
    st.sampled_from(["1,3", "1/2,-3", "1/0,2", "1,1", "", ",", "a,b", "1,2,3"]),
    st.lists(st.integers(-3, 3).map(str), max_size=4).map(",".join))
BASES = st.sampled_from(["F", "R", "S", "T", ""])
SIZE_FLAGS = {"--n": SIZES, "--r": SIZES}
COMMANDS = {
    "enumerate": {**SIZE_FLAGS, "--shape": LITERALS, "--anti": None},
    "phi": {"--ribbon": LITERALS},
    "product": {"--basis": BASES, "--lhs": LITERALS, "--rhs": LITERALS},
    "coproduct": {"--basis": BASES, "--elt": LITERALS},
    "induce-simples": {"--lhs": LITERALS, "--rhs": LITERALS},
    "induce-hecke-projective": {"--shape": LITERALS, "--r": SIZES},
    "cartan": {**SIZE_FLAGS, "--format": st.sampled_from(["csv", "json", "xml"])},
    "decomp": {**SIZE_FLAGS, "--format": st.sampled_from(["csv", "json", ""])},
    "dims": SIZE_FLAGS,
    "oracle verify": {**SIZE_FLAGS, "--u": PARAMETERS},
    "oracle cross-check": {"--max-grade": SIZES, "--r": SIZES},
    "oracle": {},
    "": {},
}


@st.composite
def argument_lists(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = command.split()
    for flag, values in COMMANDS[command].items():
        if draw(st.integers(0, 3)):            # most flags are given
            argv.append(flag)
            if values is not None and draw(st.integers(0, 9)):
                argv.append(draw(values))      # a few lack their value
    if not draw(st.integers(0, 4)):
        stray = draw(st.sampled_from(["--bogus", "-h", "--n", "7", "--", "--r=2"]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(argument_lists())
def test_fuzzed_arguments_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
