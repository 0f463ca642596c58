"""Command line behavior: outputs, schemas, determinism, exit codes."""

import contextlib
import io
import json
import re
import time
from collections import Counter
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from cycloribbon import cli
from cycloribbon.lincomb import LinComb, MR_R, MR_S, QMR_F, TensorComb
from cycloribbon.oracle import AlgebraParams, build_induced_module, composition_factors
from cycloribbon.reptheory import simple_character
from cycloribbon.ribbons import (
    ColoredComposition,
    ColoredRibbon,
    enumerate_cycloribbons,
)
from test_oracle import negated_convention, reference_verify_relations
from test_ribbons import PROPERTY, random_colored_compositions, random_ribbons


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


def test_schema_bases_are_the_cli_bases():
    """The schema lists the bases of the sums that the CLI writes: the ones
    ``_parse_elt`` reads ``S``, ``R`` and ``F`` literals into (the ring
    commands keep the basis of their input)."""
    written = [cli._parse_elt(basis, text, "--elt").basis
               for basis, text in (("S", "1^1"), ("R", "1^1"), ("F", "1|1"))]
    assert SCHEMA["$defs"]["basis"]["enum"] == written == [MR_S, MR_R, QMR_F]


CC1 = ColoredComposition((2, 1), (1, 2))
CC2 = ColoredComposition((3,), (1,))
RIB = ColoredRibbon((1, 1), (2, 1))


def read_label(obj):
    """The reference reader of a label object that ``cli._label`` writes."""
    if "shape" in obj:
        return ColoredRibbon(tuple(obj["shape"]), tuple(obj["colors"]))
    return ColoredComposition(tuple(obj["parts"]), tuple(obj["colors"]))


def read_sum(obj):
    """The reference reader of a sum object that ``cli._sum`` writes."""
    return LinComb(obj["basis"], [(read_label(t["label"]), Fraction(t["coeff"]))
                                  for t in obj["terms"]])


def round_trip(x):
    """``x`` written by ``cli._sum``, through JSON text and read back; the
    text of the read sum must be the same bytes."""
    blob = json.dumps(cli._sum(x))
    back = read_sum(json.loads(blob))
    assert json.dumps(cli._sum(back)) == blob
    return back


def test_coeff_strings():
    obj = cli._sum(LinComb(MR_R, [(CC1, Fraction(3, 1)), (CC2, Fraction(-1, 2))]))
    assert [t["coeff"] for t in obj["terms"]] == ["-1/2", "3"]


def test_json_roundtrip_bit_exact():
    lc = LinComb(MR_R, [(CC1, Fraction(-5, 3)), (CC2, 41)])
    assert round_trip(lc) == lc
    f = LinComb(QMR_F, [(RIB, 1)])
    assert round_trip(f) == f


# the bases whose labels the CLI writes, one label of each
LABELS = {MR_S: CC1, MR_R: CC2, QMR_F: RIB}


@pytest.mark.parametrize("basis", LABELS)
def test_json_roundtrip_every_basis(basis):
    x = LinComb(basis, [(LABELS[basis], Fraction(-3, 4))])
    assert round_trip(x) == x


RANDOM_LABELS = {MR_S: random_colored_compositions(),
                 MR_R: random_colored_compositions(), QMR_F: random_ribbons()}


@pytest.mark.parametrize("basis", RANDOM_LABELS)
@PROPERTY
@given(data=st.data())
def test_json_roundtrip_random_sums(basis, data):
    x = LinComb(basis, data.draw(st.lists(st.tuples(
        RANDOM_LABELS[basis], st.fractions(-20, 20, max_denominator=12)), max_size=6)))
    assert round_trip(x) == x


def test_json_shape():
    assert cli._sum(LinComb.single(MR_R, CC1)) == {
        "basis": "MR-R",
        "terms": [{"coeff": "1", "label": {"parts": [2, 1], "colors": [1, 2]}}]}


def test_tensor_json_shape():
    obj = cli._sum(TensorComb((MR_S, QMR_F), [((CC1, RIB), 6)]))
    assert obj == {"bases": ["MR-S", "QMR-F"],
                   "terms": [{"coeff": "6",
                              "left": {"parts": [2, 1], "colors": [1, 2]},
                              "right": {"shape": [1, 1], "colors": [2, 1]}}]}


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


def test_matrix_exports(capsys):
    code, out, err = run(capsys, "cartan", "--n", "1", "--r", "2",
                         "--format", "csv")
    assert (code, out) == (0, ",1|1,1|2\n1^1,1,0\n1^2,0,1\n")
    obj = run_json(capsys, "cartan", "--n", "1", "--r", "2", expect_def="matrix")
    assert {key: obj[key] for key in ("rows", "cols", "entries")} == \
        {"rows": ["1^1", "1^2"], "cols": ["1|1", "1|2"],
         "entries": [[1, 0], [0, 1]]}
    obj = run_json(capsys, "decomp", "--n", "1", "--r", "2", expect_def="matrix")
    assert obj["rows"] == [";1", "1;"]


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


def test_oracle_cross_check_cap_is_the_character_census(capsys, monkeypatch):
    # the census of r^g 2^(g-1) candidates at the top grade g is the
    # largest object the cross-check builds: 2^6 * 2^5 = 2048 at (6, 2)
    def refuse(*args):
        raise AssertionError("the cross-check ran over the cap")
    monkeypatch.setattr(cli.oracle, "cross_check_induction", refuse)
    assert run(capsys, "oracle", "cross-check", "--max-grade", "6", "--r", "2") == (
        1, "", f"error: character census 2048 exceeds the cap 2000 "
               f"(set {cli.MAX_DIM_ENV} to raise it)\n")
    monkeypatch.setenv(cli.MAX_DIM_ENV, "511")
    code, out, err = run(capsys, "oracle", "cross-check", "--max-grade", "5", "--r", "2")
    assert (code, out) == (1, "") and "census 512 exceeds the cap 511" in err
    monkeypatch.setenv(cli.MAX_DIM_ENV, "512")

    def passing(r, max_grade):
        return {"check": "induction-cross-check", "r": r, "max_grade": max_grade,
                "cases": 568, "failures": [], "pass": True}
    monkeypatch.setattr(cli.oracle, "cross_check_induction", passing)
    obj = run_json(capsys, "oracle", "cross-check", "--max-grade", "5", "--r", "2",
                   expect_def="oracle_cross_check")
    assert obj == {**passing(2, 5), "negate_colors": False}


@pytest.mark.parametrize("argv", [
    ("oracle", "verify", "--n", "1500", "--r", "2"),
    ("oracle", "cross-check", "--max-grade", "20000", "--r", "2"),
    ("oracle", "verify", "--n", "1000000", "--r", "2"),
])
def test_huge_oracle_sizes_hit_the_cap_at_once(capsys, monkeypatch, argv):
    """The size is taken only until it passes the cap (r^n n! at n = 10^6
    took seconds) and never printed past 4 300 digits, where Python's int
    to string conversion raises instead of the cap error."""
    monkeypatch.delenv(cli.MAX_DIM_ENV, raising=False)
    noun = "instance dimension" if argv[1] == "verify" else "character census"
    start = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert result == (1, "", f"error: {noun} exceeds the cap 2000 "
                             f"(set {cli.MAX_DIM_ENV} to raise it)\n")


def test_cap_names_only_a_whole_printable_size(monkeypatch):
    """The size is named when it is the whole product and below 2**64; a
    product cut short at the cap, or one too large, goes unnamed."""
    monkeypatch.delenv(cli.MAX_DIM_ENV, raising=False)
    tail = f" exceeds the cap 2000 (set {cli.MAX_DIM_ENV} to raise it)"
    for factors, noun in (([2, 1024], "size 2048"), ([4096, 1], "size"),
                          ([10 ** 30], "size"), ([10 ** 5000], "size")):
        with pytest.raises(ValueError) as err:
            cli._check_cap(factors, "size")
        assert str(err.value) == noun + tail
    cli._check_cap([2, 1000], "size")


def test_negative_cap_rejected(capsys, monkeypatch):
    monkeypatch.setenv(cli.MAX_DIM_ENV, "-5")
    for argv in (("oracle", "verify", "--n", "2", "--r", "2"),
                 ("oracle", "cross-check", "--max-grade", "0", "--r", "1")):
        assert run(capsys, *argv) == (
            1, "", f"error: {cli.MAX_DIM_ENV} must not be negative, got '-5'\n")


def test_oracle_cross_check(capsys):
    obj = run_json(capsys, "oracle", "cross-check", "--max-grade", "2",
                   "--r", "2", expect_def="oracle_cross_check")
    assert obj["pass"] is True and obj["cases"] == 4


@pytest.mark.parametrize("max_grade", [0, 1])
def test_oracle_cross_check_below_grade_two_is_schema_valid(capsys, max_grade):
    # no pair of simples has total size below 2: 0 cases, and a pass
    obj = run_json(capsys, "oracle", "cross-check", "--max-grade", str(max_grade),
                   "--r", "1", expect_def="oracle_cross_check")
    assert (obj["max_grade"], obj["cases"], obj["failures"], obj["pass"]) == (
        max_grade, 0, [], True)


def write_factors(counts):
    """The reference writer of a multiset of characters."""
    return sorted([list(ch.xi_colors), list(ch.t_values), mult]
                  for ch, mult in counts.items())


def write_relation_report(report):
    """The reference writer of one report of ``verify_relations``: the
    basis key ``(c, w)`` of a counterexample as a colors/perm object."""
    bad = report["counterexample"]
    if bad is not None:
        colors, perm = bad["basis_element"]
        bad = {"basis_element": {"colors": list(colors), "perm": list(perm)},
               "residual_terms": bad["residual_terms"]}
    return {**report, "counterexample": bad}


def test_oracle_failure_exit_code(capsys, monkeypatch):
    """A real failure: under the color-negated product of simples the
    cross-check fails at r = 3.  The failures are recomputed case by case
    from the library and written by the reference writers; stdout holds
    all of them and stderr the first three."""
    induce = negated_convention(3)
    monkeypatch.setattr(cli.oracle, "induce_simples", induce)
    p, failures = AlgebraParams(2, 3), []
    for a in enumerate_cycloribbons(1, 3):
        for b in enumerate_cycloribbons(1, 3):
            expected = Counter()
            for lab, mult in induce(a, b).items():
                expected[simple_character(lab)] += mult
            got = composition_factors(p, build_induced_module(
                p, [simple_character(a), simple_character(b)]))
            if got != expected:
                failures.append({
                    "lhs": {"shape": list(a.shape), "colors": list(a.colors)},
                    "rhs": {"shape": list(b.shape), "colors": list(b.colors)},
                    "combinatorial": write_factors(expected),
                    "oracle": write_factors(got)})
    code, out, err = run(capsys, "oracle", "cross-check", "--max-grade", "2",
                         "--r", "3")
    assert code == 2 and len(failures) > 3
    report = {"check": "induction-cross-check", "r": 3, "max_grade": 2,
              "negate_colors": False, "cases": 9, "failures": failures,
              "pass": False}
    jsonschema.validate(report, SCHEMA)
    assert out == json.dumps(report, indent=2) + "\n"
    assert err == json.dumps(failures[:3]) + "\n"


def test_oracle_verify_failure_exit_code(capsys, monkeypatch):
    """A real failure: ``T_1`` gains a term ``+B[c, w]`` where ``c_1 = 2``.
    The reports of the per-element reference, written by the reference
    writer, are the CLI's stdout, and the failing ones its stderr."""
    rule = cli.oracle._T_rule

    def broken(params, i, key):
        terms = rule(params, i, key)
        return terms + [(key, 1)] if i == 1 and key[0][0] == 2 else terms
    monkeypatch.setattr(cli.oracle, "_T_rule", broken)
    checks = [write_relation_report(report)
              for report in reference_verify_relations(AlgebraParams(3, 2))]
    code, out, err = run(capsys, "oracle", "verify", "--n", "3", "--r", "2")
    failing = [check for check in checks if not check["pass"]]
    assert code == 2 and failing
    report = {"n": 3, "r": 2, "u": ["1", "2"], "checks": checks, "pass": False}
    jsonschema.validate(report, SCHEMA)
    assert out == json.dumps(report, indent=2) + "\n"
    assert err == json.dumps(failing) + "\n"


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
    # superscript digits pass str.isdigit but not int()
    bad_part = "error: position 0: expected a positive integer part, got '²'\n"
    for argv, message in (
            (("phi", "--ribbon", "²|1"), bad_part),
            (("enumerate", "--n", "1", "--r", "1", "--shape", "²"), bad_part),
            (("product", "--basis", "R", "--lhs", "1^²", "--rhs", "1^1"),
             "error: position 0: bad part '1^²'\n")):
        assert run(capsys, *argv) == (1, "", message)


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
    assert err.startswith("error: --elt: size 12000 is too large")
    # many parts, none of them large: the size is what is too large
    code, out, err = run(capsys, "coproduct", "--basis", "S",
                         "--elt", ".".join(["1^1"] * 10_001))
    assert (code, out) == (1, "")
    assert err == ("error: --elt: size 10001 is too large (element sizes "
                   "above 10000 are not supported)\n")


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
