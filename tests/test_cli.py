import json
import os
import time

import pytest

from pradical import cli
from pradical.certificates import comparable
from pradical.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
PAPER_G = os.path.join(FIXTURES, "paper-G.alg")
ALPHA4 = os.path.join(FIXTURES, "alpha4.hopf")


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_and_radical_on_file(capsys):
    code, out, err = run(["validate", PAPER_G], capsys)
    assert code == 0 and "verdict: pass" in out
    code, out, err = run(["radical", PAPER_G], capsys)
    assert code == 0 and "verdict: exact" in out and "radical dim 0" in out


def test_gallery_targets_and_listing(capsys):
    code, out, err = run(["gallery"], capsys)
    assert code == 0 and "paper-G@p=2" in out
    code, out, err = run(["gallery", "paper-G@p=2"], capsys)
    assert code == 0 and "verdict: pass" in out
    code, out, err = run(["radical", "gallery:paper-G@p=2"], capsys)
    assert code == 0 and "s4" in out and "verdict: exact" in out


def test_false_and_undecided_verdicts_exit_zero(capsys):
    code, out, err = run(["unipotent", "gallery:mu@2"], capsys)
    assert code == 0 and "verdict: false" in out
    code, out, err = run(["mult-type", "gallery:alpha@2"], capsys)
    assert code == 0 and "verdict: false" in out


def test_operational_failures_exit_nonzero(capsys, tmp_path):
    code, out, err = run(["radical", "no-such-target"], capsys)
    assert code == 1 and "error:" in err
    bad = tmp_path / "bad.alg"
    bad.write_text("FIELD GF(6)\nBASIS X\n")
    code, out, err = run(["radical", str(bad)], capsys)
    assert code == 1 and "error:" in err
    # Hopf cap exceeded is operational
    code, out, err = run(["validate", "env(paper-G@p=2)", "--hopf-cap", "4"],
                         capsys)
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("name", ["alpha0", "alpha1", "torus@2^0"])
def test_bad_gallery_orders_are_operational_failures(capsys, name):
    code, out, err = run(["validate", name], capsys)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_certificates_are_deterministic(capsys, tmp_path):
    certs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, out, err = run(["radical", PAPER_G, "--json", str(path)],
                             capsys)
        assert code == 0
        certs.append(json.loads(path.read_text()))
    assert comparable(certs[0]) == comparable(certs[1])
    cert = certs[0]
    assert list(cert) == ["tool", "version", "operation", "input_digest",
                          "options", "verdict", "payload", "timing_ms"]
    assert cert["payload"]["strategy"] == "s4"


# calls whose flags must not reach the next call in the same process
UNION = ["hopf-union", ALPHA4, "--ideal", "x_2,x_3", "--ideal", "x,x_2,x_3"]
REENTRANT_SEQUENCE = [
    UNION,
    UNION + ["--force-nondirected"],
    UNION,
    ["radical", "gallery:torus@2^2"],
    ["p-reductive", PAPER_G],
]


def _run_certificate(argv, path, capsys):
    code, out, err = run(argv + ["--json", str(path)], capsys)
    assert code == 0, err
    return out, comparable(json.loads(path.read_text()))


def test_main_is_reentrant(capsys, tmp_path):
    """The parser is built once per process; each call still parses into a
    fresh namespace, so it prints and certifies what a fresh parser gives."""
    assert cli._build_parser() is cli._build_parser()
    shared = [_run_certificate(argv, tmp_path / "shared.json", capsys)
              for argv in REENTRANT_SEQUENCE]
    for argv, seen in zip(REENTRANT_SEQUENCE, shared):
        cli._build_parser.cache_clear()
        assert _run_certificate(argv, tmp_path / "fresh.json", capsys) == seen
    certs = [cert for _, cert in shared]
    assert certs[0] == certs[2]
    assert certs[0]["options"]["ideal"] == ["x_2,x_3", "x,x_2,x_3"]
    assert certs[0]["options"]["force_nondirected"] is False
    assert certs[1]["options"]["force_nondirected"] is True
    assert certs[3]["payload"]["strategy"] == "s1"
    assert "strategy" not in certs[3]["options"]
    assert certs[4]["verdict"] == "true"
    assert "max_inseparable_exponent" not in certs[4]["options"]
    assert not any("seed" in cert["options"] for cert in certs)


def test_series_verify_and_p_reductive(capsys):
    code, out, err = run(["series-verify", PAPER_G, "--chain", "X | X,Y"],
                         capsys)
    assert code == 0 and "mu-form, alpha-type, mu-form" in out
    code, out, err = run(["p-reductive", PAPER_G], capsys)
    assert code == 0 and "verdict: true" in out


def test_report_on_paper_g(capsys):
    code, out, err = run(["report", "paper-G@p=2"], capsys)
    assert code == 0
    assert "center: ['X']" in out
    assert "derived_series_dims: [3, 1, 0]" in out
    assert "solvable: True" in out and "nilpotent: False" in out


def test_lie_commands_refuse_a_hopf_target(capsys):
    code, out, err = run(["radical", "alpha4"], capsys)
    assert code == 1 and "radical needs a Lie algebra target" in err


def test_p_reductive_undecided_and_unclassified_series(capsys):
    code, out, err = run(["p-reductive",
                          "product(paper-G@p=2,paper-G@p=2)"], capsys)
    assert code == 0 and "verdict: undecided" in out
    code, out, err = run(["series-verify", "paper-G@p=2", "--chain", "X"],
                         capsys)
    assert code == 0 and "quotient kinds: mu-form, unclassified" in out


def test_hopf_commands(capsys, tmp_path):
    code, out, err = run(["hopf-frobenius", ALPHA4, "r=1"], capsys)
    assert code == 0 and "kernel order 2" in out and "x_2" in out
    code, out, err = run(["hopf-dual", ALPHA4], capsys)
    assert code == 0 and "COMULT" in out
    # round-trip the emitted dual document
    dual_path = tmp_path / "dual.hopf"
    lines = [l for l in out.splitlines() if l and not l.startswith("verdict")]
    dual_path.write_text("\n".join(lines) + "\n")
    code, out, err = run(["validate", str(dual_path)], capsys)
    assert code == 0 and "verdict: pass" in out
    # directed union
    code, out, err = run(["hopf-union", ALPHA4, "--ideal", "x_2,x_3",
                          "--ideal", "x,x_2,x_3"], capsys)
    assert code == 0 and "verdict: true" in out
    # non-directed without force is an operational failure
    prod = tmp_path / "prod.hopf"
    from pradical.gallery import alpha_hopf, mu_hopf
    from pradical.hopf import tensor_product_hopf
    from pradical.textio import print_hopf
    prod.write_text(print_hopf(tensor_product_hopf(alpha_hopf(2, 1),
                                                   mu_hopf(2))))
    args = ["hopf-union", str(prod), "--ideal", "x_1,x_x",
            "--ideal", "b1_1 + b1_x,x_1 + x_x"]
    code, out, err = run(args, capsys)
    assert code == 1
    code, out, err = run(args + ["--force-nondirected"], capsys)
    assert code == 0 and "verdict: false" in out


def test_hopf_union_of_non_subgroup_intersection_is_operational(capsys):
    # directed family whose intersection span{x_x} is not even an ideal
    code, out, err = run(["hopf-union", "product(alpha2,mu2)",
                          "--ideal", "x_1,x_x", "--ideal", "x_x"], capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert "not a subgroup ideal" in err and "witness" in err
    assert "'condition': 'ideal'" in err
    assert "Traceback" not in err
    # the witness names its element by label, as the forced verdict does
    assert "'element': x_x, 'factor': 1}" in err
    code, out, err = run(["hopf-union", ALPHA4, "--ideal", "x_2,x_3",
                          "--ideal", "x_3"], capsys)
    assert code == 1 and out == ""
    assert "'condition': 'comultiplication', 'element': x_3," in err
    assert "(0, 0, 0, 1)" not in err


def test_hopf_union_witness_renders_tensors_and_names(capsys, tmp_path):
    """A comultiplication witness's escape, a vector of A⊗A, is a sum of
    label pairs in the error text and in the certificate, and the condition
    name is a plain string in the certificate."""
    args = ["hopf-union", ALPHA4, "--ideal", "x_2,x_3", "--ideal", "x_3"]
    code, out, err = run(args, capsys)
    assert code == 1 and out == ""
    assert err == ("error: the intersection of the directed family is not a "
                   "subgroup ideal; witness {'condition': 'comultiplication', "
                   "'element': x_3, 'escape': x # x_2 + x_2 # x}\n")
    cert = tmp_path / "union.json"
    code, out, err = run(args + ["--force-nondirected", "--json", str(cert)],
                         capsys)
    assert code == 0 and "verdict: false" in out
    assert json.loads(cert.read_text())["payload"]["witness"] == {
        "condition": "comultiplication", "element": "x_3",
        "escape": "x # x_2 + x_2 # x"}
    code, out, err = run(["hopf-union", "product(alpha2,mu2)", "--ideal",
                          "x_1,x_x", "--ideal", "x_x", "--force-nondirected",
                          "--json", str(cert)], capsys)
    assert code == 0 and "verdict: false" in out
    assert json.loads(cert.read_text())["payload"]["witness"] == {
        "condition": "ideal", "element": "x_x", "factor": "1"}


def test_oracle_compare_refuses_a_field_too_large_to_enumerate(capsys):
    started = time.perf_counter()
    code, out, err = run(["oracle-compare", "--field",
                          "GF(100000000000000000039)", "--dim", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: oracle-compare enumerates all of "
                          "GF(100000000000000000039)^1")
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("dim,count", [(8, 417199), (12, 488176700923)])
def test_oracle_compare_refuses_too_many_subspaces(capsys, dim, count):
    """GF(2)^12 has only 4096 vectors, but the brute-force oracle scans all
    of its subspaces: one instance ran past 15 s before this gate."""
    started = time.perf_counter()
    code, out, err = run(["oracle-compare", "--dim", str(dim), "--cap", "1"],
                         capsys)
    assert code == 1 and out == ""
    assert err == ("error: oracle-compare scans all %d subspaces of GF(2)^%d, "
                   "more than 65536\n" % (count, dim))
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("exponent", ["-1", "-7", "4"])
def test_p_reductive_rejects_the_inseparable_exponent_flag(
        capsys, tmp_path, exponent):
    """`is_p_reductive` takes no bound on inseparable base change, so the
    parser refuses the flag, whatever its value, and writes no
    certificate."""
    cert = tmp_path / "p-reductive.json"
    assert main(["p-reductive", "paper-G@p=2", "--json", str(cert),
                 "--max-inseparable-exponent", exponent]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert ("unrecognized arguments: --max-inseparable-exponent %s"
            % exponent) in err
    assert not cert.exists()
    code, out, err = run(["p-reductive", "paper-G@p=2"], capsys)
    assert code == 0 and out == "verdict: true\n"


def test_refused_command_lines_return_argparse_codes(capsys, tmp_path):
    """`main` returns argparse's exit code instead of raising SystemExit:
    2 for a flag it refuses, such as the removed --seed and --strategy,
    with no certificate written, and 0 for --help."""
    cert = tmp_path / "radical.json"
    for flag, value in (("--seed", "1"), ("--strategy", "s3")):
        assert main(["radical", PAPER_G, "--json", str(cert), flag,
                     value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: %s %s" % (flag, value) in err
        assert not cert.exists()
    assert main(["radical", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: pradical radical") and err == ""


@pytest.mark.parametrize("args,message", [
    (["--dim", "2", "--cap", "0"], "needs --cap >= 1, got 0"),
    (["--dim", "2", "--cap", "-5"], "needs --cap >= 1, got -5"),
    (["--dim", "-1"], "needs --dim >= 0, got -1"),
])
def test_oracle_compare_refuses_an_empty_cap_and_a_negative_dim(
        capsys, tmp_path, args, message):
    """A cap below one certified "instances": 1 under "cap": 0, and a
    negative dimension ended in an itertools message."""
    cert = tmp_path / "oracle.json"
    code, out, err = run(["oracle-compare", "--json", str(cert)] + args,
                         capsys)
    assert code == 1 and out == ""
    assert err == "error: oracle-compare %s\n" % message
    assert not cert.exists()


def test_subgroup_commands_refuse_an_invalid_hopf_table(capsys, tmp_path):
    """The subgroup-ideal tests presume the Hopf axioms: the algebra of
    alpha2 x alpha2 with the coalgebra of mu2 x mu2 fails validate, and on
    it the generator tests would call span{1*x + x*1, x*x} a subgroup
    ideal, which the counit condition refutes."""
    from pradical.gallery import alpha_hopf, mu_hopf
    from pradical.hopf import HopfAlgebra, tensor_product_hopf
    from pradical.textio import print_hopf
    X = tensor_product_hopf(alpha_hopf(2, 1), alpha_hopf(2, 1))
    Y = tensor_product_hopf(mu_hopf(2), mu_hopf(2))
    mixed = HopfAlgebra(X.field, X.dim, X.mult, X.unit, Y.comult, Y.counit,
                        Y.antipode, X.labels)
    path = tmp_path / "mixed.hopf"
    path.write_text(print_hopf(mixed))
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 0 and "verdict: fail" in out
    for args in (["hopf-union", str(path), "--ideal", "b1_x + x_1, x_x"],
                 ["hopf-frobenius", str(path), "1"]):
        code, out, err = run(args, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: %s needs a valid Hopf algebra"
                              % args[0])


def test_oracle_compare_dim2(capsys):
    code, out, err = run(["oracle-compare", "--dim", "2"], capsys)
    assert code == 0 and "verdict: agree" in out


def test_oracle_compare_dim2_over_gf4(capsys, tmp_path):
    cert = str(tmp_path / "oracle.json")
    code, out, err = run(["oracle-compare", "--field", "GF(4)", "--dim", "2",
                          "--json", cert], capsys)
    assert code == 0 and "271 instances, 0 mismatches" in out
    assert "verdict: agree" in out
    with open(cert, encoding="utf-8") as fh:
        gf4 = json.load(fh)
    assert gf4["options"]["field"] == "GF(4)"
    # the input digest binds field, dim and cap
    digests = {gf4["input_digest"]}
    for extra in (["--field", "GF(2)"], ["--field", "GF(4)", "--cap", "300"]):
        code, out, err = run(["oracle-compare", "--dim", "2", "--json", cert]
                             + extra, capsys)
        assert code == 0
        with open(cert, encoding="utf-8") as fh:
            digests.add(json.load(fh)["input_digest"])
    assert len(digests) == 3
    code, out, err = run(["oracle-compare", "--field", "GF(2)(t)"], capsys)
    assert code == 1 and "needs a finite field" in err


def test_hopf_frobenius_negative_exponent_is_an_operational_failure(capsys):
    code, out, err = run(["hopf-frobenius", "alpha4", "r=-1"], capsys)
    assert code == 1
    assert err.startswith("error: ") and "negative" in err
    assert "Traceback" not in err and out == ""


def test_hopf_frobenius_large_exponent_answers(capsys):
    code, out, err = run(["hopf-frobenius", "alpha4", "r=40"], capsys)
    assert code == 0
    assert "Frobenius kernel ideal dim 0, kernel order 4" in out
