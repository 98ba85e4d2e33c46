"""Command-line interface: behaviors and stable exit codes."""

import json
import subprocess
import sys

import pytest

from qcsp.cli import main
from qcsp.verify import run_suite

DOC = """
constraint MYOIT arity 3 := table 01101000;
expr falsy := A x : EQ2(x, 0);
expr breeze := E x ; A y : OR2(x, y);
expr big := E {vars} : MYOIT(v0, v1, v2);
""".replace(
    "{vars}", " ".join(f"v{i}" for i in range(30))
)


@pytest.fixture
def doc_path(tmp_path):
    p = tmp_path / "doc.qcsp"
    p.write_text(DOC, encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text_and_json(doc_path, capsys):
    code, out, _ = run(capsys, "classify", doc_path)
    assert code == 0
    assert "verdicts.qsat_i=Sigma_i-complete" in out
    code, out, _ = run(capsys, "classify", doc_path, "--format", "json")
    data = json.loads(out)
    assert data["verdicts"]["qsat"] == "PSPACE-complete"


def test_classify_empty_is_usage_error(tmp_path, capsys):
    p = tmp_path / "empty.qcsp"
    p.write_text("expr e := : ;\n", encoding="utf-8")
    code, _, err = run(capsys, "classify", str(p))
    assert code == 2 and "no constraints" in err


def test_classify_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.qcsp"
    p.write_text("constraint X arity 2 := table 01;", encoding="utf-8")
    code, _, err = run(capsys, "classify", str(p))
    assert code == 2 and "error:" in err


def test_solve_paper_example(doc_path, capsys):
    code, out, _ = run(capsys, "solve", doc_path, "falsy")
    assert code == 0
    assert out.splitlines()[0] == "false"


def test_solve_oracle_agrees_with_auto(doc_path, capsys):
    _, auto_out, _ = run(capsys, "solve", doc_path, "breeze")
    _, oracle_out, _ = run(capsys, "solve", doc_path, "breeze", "--oracle")
    assert auto_out.splitlines()[0] == oracle_out.splitlines()[0] == "true"
    assert "method=oracle" in oracle_out


def test_solve_level_polarity(doc_path, capsys):
    code, out, _ = run(capsys, "solve", doc_path, "falsy", "--level", "2")
    assert code == 0
    assert "qsat_2_member=1" in out and "falsity" in out


def test_solve_level_shape_mismatch_prints_nothing(doc_path, capsys):
    # breeze is Sigma-shaped; level 2 needs a Pi-shaped prefix, and the
    # shape error must come before any answer is printed
    code, out, err = run(capsys, "solve", doc_path, "breeze", "--level", "2")
    assert code == 2 and out == ""
    assert "Pi-shaped" in err


def test_solve_budget_exhaustion(doc_path, capsys):
    code, _, err = run(capsys, "solve", doc_path, "big", "--oracle")
    assert code == 3 and "budget" in err
    code, out, _ = run(
        capsys, "solve", doc_path, "big", "--oracle", "--max-vars", "30"
    )
    assert code == 0 and out.splitlines()[0] == "true"


def test_env_budget_override(doc_path, capsys, monkeypatch):
    monkeypatch.setenv("QCSP_MAX_VARS", "30")
    code, out, _ = run(capsys, "solve", doc_path, "big", "--oracle")
    assert code == 0 and out.splitlines()[0] == "true"


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_env_budget_must_be_a_positive_integer(doc_path, capsys, monkeypatch, value):
    monkeypatch.setenv("QCSP_MAX_VARS", value)
    code, out, err = run(capsys, "solve", doc_path, "breeze")
    assert code == 2 and out == ""
    assert err == f"error: QCSP_MAX_VARS must be an integer >= 1, got {value!r}\n"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_vars_must_be_a_positive_integer(doc_path, capsys, value):
    # named as the user wrote it, like QCSP_MAX_VARS, not as EvalBudget's field
    code, out, err = run(capsys, "solve", doc_path, "breeze", "--max-vars", value)
    assert code == 2 and out == ""
    assert err == f"error: --max-vars must be an integer >= 1, got {value}\n"


def test_max_vars_help_names_its_default(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    out = " ".join(capsys.readouterr().out.split())  # argparse wraps the help
    assert "budget (default: QCSP_MAX_VARS, else 24)" in out


def test_solve_unknown_expression(doc_path, capsys):
    # not a parse error, so no line:column position
    code, out, err = run(capsys, "solve", doc_path, "nope")
    assert code == 2 and out == ""
    assert err == "error: no expression named 'nope' in document\n"


def test_missing_input_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.qc")
    code, out, err = run(capsys, "solve", missing, "e")
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"


def test_reduce_complement_twice_is_identity(doc_path, tmp_path, capsys):
    code, once, _ = run(capsys, "reduce", doc_path, "falsy", "--mode", "complement")
    assert code == 0
    p = tmp_path / "once.qcsp"
    p.write_text(once, encoding="utf-8")
    code, twice, _ = run(capsys, "reduce", str(p), "falsy", "--mode", "complement")
    assert code == 0
    p2 = tmp_path / "twice.qcsp"
    p2.write_text(twice, encoding="utf-8")
    code, thrice, _ = run(capsys, "reduce", str(p2), "falsy", "--mode", "complement")
    assert thrice == once  # byte-identical rendering


def test_reduce_complement_keeps_distinct_tables_apart(tmp_path, capsys):
    # A is complementive and keeps its name; A_c's complement would toggle
    # onto the name A, which the other table holds, so it is named A_c_c
    text = (
        "constraint A arity 2 := table 0110;\n"
        "constraint A_c arity 2 := table 0111;\n"
        "expr e := E x y : A(x, y), A_c(x, y);\n"
    )
    outputs, values = [], []
    for step in range(4):
        p = tmp_path / f"step{step}.qcsp"
        p.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "solve", str(p), "e")
        assert code == 0
        values.append(out.split()[0])
        if step < 3:
            code, text, _ = run(capsys, "reduce", str(p), "e", "--mode", "complement")
            assert code == 0
            outputs.append(text)
    assert "constraint A_c_c arity 2 := table 1110;" in outputs[0]
    assert outputs[2] == outputs[0]  # byte-identical rendering
    assert len(set(values)) == 1


def test_reduce_remove_constants_not_applicable(tmp_path, capsys):
    p = tmp_path / "horn.qcsp"
    p.write_text(
        "constraint MYNAND arity 2 := table 1110;\n"
        "expr e := E x : MYNAND(x, 1);\n",
        encoding="utf-8",
    )
    code, _, err = run(
        capsys, "reduce", str(p), "e", "--mode", "remove-constants", "--level", "2"
    )
    assert code == 4 and "NotApplicable" in err


def test_reduce_remove_constants_arity_16_not_applicable(tmp_path, capsys):
    # an arity-16 Horn table is Schaefer, so the reduction does not apply;
    # deciding that once took longer than any test would wait
    p = tmp_path / "horn16.qcsp"
    xs = [f"x{i}" for i in range(15)]
    p.write_text(
        "constraint H16 arity 16 := formula !v1 | !v2 | v3;\n"
        f"expr e := A x0 ; E {' '.join(xs[1:])} : H16({', '.join(xs)}, 1);\n",
        encoding="utf-8",
    )
    code, _, err = run(
        capsys, "reduce", str(p), "e", "--mode", "remove-constants", "--level", "2"
    )
    assert code == 4 and "NotApplicable" in err


def test_reduce_remove_constants_roundtrip(tmp_path, capsys):
    p = tmp_path / "oit.qcsp"
    p.write_text(
        "constraint T arity 3 := table 01101000;\n"
        "expr e := A x ; E y : T(x, y, 0), T(x, y, 1);\n",
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "reduce", str(p), "e", "--mode", "remove-constants", "--level", "2"
    )
    assert code == 0
    from qcsp.parser import parse_document

    doc = parse_document(out)
    assert not doc.expressions["e"].has_constants()


def test_reduce_remove_constants_over_builtins(tmp_path, capsys):
    # with no definitions, the set is the built-ins the expression uses;
    # defining the same table gives the same reduction
    body = "expr e := A y ; E x : OIT(x, y, 1), OIT(x, 0, y);\n"
    outputs = []
    for defs in ("", "constraint OIT arity 3 := table 01101000;\n"):
        p = tmp_path / "b.qcsp"
        p.write_text(defs + body, encoding="utf-8")
        code, out, err = run(
            capsys, "reduce", str(p), "e", "--mode", "remove-constants", "--level", "2"
        )
        assert (code, err) == (0, "")
        outputs.append(out)
    # the three hat pins are one application, applied once
    assert outputs == [
        "constraint OIT arity 3 := table 01101000;\n"
        "expr e := A y ; E x f t : OIT(x, y, t), OIT(x, f, y), OIT(f, f, t);\n"
    ] * 2


def test_reduce_eliminate_unary_trivially_false(tmp_path, capsys):
    p = tmp_path / "u.qcsp"
    p.write_text(
        "expr e := E x : ID1(x), NOT1(x);\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "reduce", str(p), "e", "--mode", "eliminate-unary")
    assert code == 0 and out.strip() == "TRIVIALLY_FALSE"


def test_reduce_substitute(tmp_path, capsys):
    p = tmp_path / "s.qcsp"
    p.write_text(
        "constraint T arity 3 := table 01101000;\n"
        "constraint AND2 arity 2 := formula v1 & v2;\n"
        "expr e := E x y : AND2(x, y);\n",
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "reduce", str(p), "e", "--mode", "substitute",
        "--target", "AND2", "--using", "T",
    )
    assert code == 0 and "AND2" not in out.split("expr", 1)[1]


def test_reduce_substitute_not_found(tmp_path, capsys):
    p = tmp_path / "s.qcsp"
    p.write_text(
        "constraint AND2 arity 2 := formula v1 & v2;\n"
        "expr e := E x y : AND2(x, y);\n",
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "reduce", str(p), "e", "--mode", "substitute",
        "--target", "AND2", "--using", "XOR2", "--max-aux", "2", "--max-apps", "3",
    )
    assert code == 3 and out.strip() == "NOT_FOUND"


def test_implement_listing(tmp_path, capsys):
    p = tmp_path / "d.qcsp"
    p.write_text(
        "constraint T arity 3 := table 01101000;\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "implement", str(p), "--targets", "XOR2,NAND2")
    assert code == 0
    assert out.count("apps [") == 2


def test_implement_negative_bounds_are_usage_errors(tmp_path, capsys):
    p = tmp_path / "d.qcsp"
    p.write_text(
        "constraint T arity 3 := table 01101000;\n", encoding="utf-8"
    )
    code, out, err = run(capsys, "implement", str(p), "--targets", "XOR2",
                         "--max-apps", "-3")
    assert code == 2 and out == ""
    assert err == "error: max_apps must be non-negative, got -3\n"
    code, out, err = run(capsys, "implement", str(p), "--targets", "XOR2",
                         "--max-aux", "-1")
    assert code == 2 and out == ""
    assert err == "error: max_aux must be non-negative, got -1\n"


def test_reduce_negative_bounds_are_usage_errors(tmp_path, capsys):
    # the hat case searches for no implementation, and still checks its bounds
    p = tmp_path / "e.qcsp"
    p.write_text("expr e := A y ; E x : OIT(x, y, 1), OIT(x, 0, y);\n",
                 encoding="utf-8")
    for flag, name in (("--max-aux", "max_aux"), ("--max-apps", "max_apps")):
        code, out, err = run(capsys, "reduce", str(p), "e", "--mode",
                             "remove-constants", "--level", "2", flag, "-1")
        assert code == 2 and out == ""
        assert err == f"error: {name} must be non-negative, got -1\n"


def test_implement_table_over_budget_exits_3(tmp_path, capsys):
    # 22 pool variables: 22**3 argument tuples of 2**22-bit masks
    p = tmp_path / "d.qcsp"
    p.write_text(
        "constraint T arity 3 := table 01101000;\n", encoding="utf-8"
    )
    code, out, err = run(capsys, "implement", str(p), "--targets", "XOR2",
                         "--max-aux", "20")
    assert code == 3 and out == ""
    assert err == (
        "error: candidate table of 44660948992 bits exceeds the limit of "
        "33554432 (target arity 2, max_aux=20)\n"
    )


def test_implement_table_build_over_budget_exits_3(tmp_path, capsys):
    # an arity-6 not-all-equal table: 7**6 argument tuples, 6 + 2**6 steps each
    p = tmp_path / "d.qcsp"
    p.write_text(
        "constraint NAE6 arity 6 := table " + "0" + "1" * 62 + "0" + ";\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "implement", str(p), "--targets", "XOR2",
                         "--max-aux", "5")
    assert code == 3 and out == ""
    assert err == (
        "error: candidate table of 8235430 build steps exceeds the limit of "
        "1048576 (target arity 2, max_aux=5)\n"
    )


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "wat"])
    assert info.value.code == 2


@pytest.mark.parametrize("suite, instances", [("classifier", "0"), ("parser", "-5")])
def test_verify_instances_below_one_is_usage_error(capsys, suite, instances):
    code, out, err = run(capsys, "verify", "--suite", suite, "--instances", instances)
    assert code == 2 and out == ""
    assert err == f"error: instances must be at least 1, got {instances}\n"
    with pytest.raises(ValueError, match="at least 1"):
        run_suite(suite, instances=int(instances))


def test_verify_small_run(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "classifier", "--seed", "1"
    )
    assert code == 0
    assert "PASS classifier-vs-synthesis" in out
    assert "PASS classifier-sampled" in out
    assert "3/3 checks passed" in out


def test_verify_oracle_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "oracle", "--seed", "1", "--instances", "8"
    )
    assert code == 0
    assert "PASS oracle-vs-definitional" in out
    assert "1/1 checks passed" in out


def test_verify_parser_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "parser", "--seed", "1")
    assert code == 0
    assert "PASS parser-form: 200 parsed documents" in out
    assert "PASS parser-formulas: 200 formulas of arity 1-8" in out
    assert "PASS parser-readers: 2200 documents" in out
    assert "3/3 checks passed" in out


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "qcsp.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and "classify" in proc.stdout
