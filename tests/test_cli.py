"""CLI surface: canonical output, exit codes, JSON schema, determinism."""

import argparse
import hashlib
import json
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from intshuffle.cli import build_parser, main
from intshuffle.conditions import IdealCertificate, ideal_certificate, verify_ideal_certificate
from intshuffle.poly import LaurentPoly, render
from intshuffle.shuffle import shuffle_word

GOLDEN_00 = (
    "-q1^2 q2^2 z1 z2 - q1^2 q2 z1 z2 - q1 q2^2 z1 z2 + 2 q1 q2 z1^2"
    " + 2 q1 q2 z1 z2 + 2 q1 q2 z2^2 - q1 z1 z2 - q2 z1 z2 - z1 z2"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_golden(capsys):
    code, out, _ = run(capsys, "expand", "sh[0,0]")
    assert code == 0
    assert out == GOLDEN_00 + "\n"


def test_expand_single_letter(capsys):
    code, out, _ = run(capsys, "expand", "sh[1]")
    assert (code, out) == (0, "z1\n")
    code, out, _ = run(capsys, "expand", "sh[0]")
    assert (code, out) == (0, "1\n")


def test_expand_scalar(capsys):
    code, out, _ = run(capsys, "expand", "q + 1")
    assert code == 0
    assert out == "q1 q2 + 1\n"


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "--json", "sh[0,0]")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "schema": 1,
        "kind": "element",
        "arity": 2,
        "poly": GOLDEN_00,
    }


def test_expand_arity_five(capsys):
    code, out, _ = run(capsys, "expand", "sh[0,0,0,0,0]")
    assert code == 0
    assert 1 + out.count(" + ") + out.count(" - ") == 213471
    assert hashlib.md5(out.encode()).hexdigest() == "c41d455c7ae25b60752bbadfe10d8d4a"


def test_expand_largest_bench_word(capsys):
    code, out, _ = run(capsys, "expand", "sh[-3,3,-3,3]")
    assert code == 0
    assert 1 + out.count(" + ") + out.count(" - ") == 81407
    assert hashlib.md5(out.encode()).hexdigest() == "dfacc3525f386473744140674e7b11ef"


def test_expand_laurent_arity_five(capsys):
    code, out, _ = run(capsys, "expand", "sh[0,0,0,0,-1]")
    assert code == 0
    assert 1 + out.count(" + ") + out.count(" - ") == 321500
    assert hashlib.md5(out.encode()).hexdigest() == "2be57b99156bf556991aad2cb033b20a"


def test_expand_never_expands_to_monomials(monkeypatch, capsys):
    # an element's text comes from its orbit representatives, so the
    # monomial view (`ShuffleElement.poly`) is never built
    def refuse(coeffs, n):
        raise AssertionError("expanded to monomials")

    monkeypatch.setattr(sys.modules["intshuffle.shuffle"], "from_alternant", refuse)
    code, out, _ = run(capsys, "expand", "sh[1,0,0,2]")
    code_json, out_json, _ = run(capsys, "expand", "--json", "sh[0,0,0]")
    monkeypatch.undo()
    assert (code, out) == (0, render(shuffle_word([1, 0, 0, 2]).poly) + "\n")
    assert code_json == 0
    assert json.loads(out_json)["poly"] == render(shuffle_word([0, 0, 0]).poly)


def test_determinism(capsys):
    first = run(capsys, "expand", "sh[1,0,2]")
    second = run(capsys, "expand", "sh[1,0,2]")
    assert first == second


def test_wheel_exit_codes(capsys):
    code, out, _ = run(capsys, "wheel", "sh[0,0,0]")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "wheel", "(z1 z2 z3) sh[0,0,0] + sh[1,1,1]")
    assert code == 0  # equal expressions: still a shuffle element
    code, out, _ = run(capsys, "wheel", "z1 + z2 + z3")
    assert (code, out) == (1, "false\n")


def test_corollary(capsys):
    code, out, _ = run(capsys, "corollary", "sh[0,0]")
    assert code == 0
    assert out.strip() != ""
    code, out, _ = run(capsys, "corollary", "z1 z2")
    assert (code, out) == (1, "not divisible\n")


def test_lemma(capsys):
    code, out, _ = run(capsys, "lemma", "a", "[0,0]", "1")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "lemma", "b", "[1,0,2]", "-1")
    assert code == 0
    code, out, _ = run(capsys, "lemma", "b", "[0,0,0,0,0]", "1")
    assert (code, out) == (0, "true\n")


def test_reduce2(capsys):
    code, out, _ = run(capsys, "reduce2", "[0,1]", "--verify")
    assert code == 0
    assert "target: sh[0,1]" in out
    assert "verified: true" in out


def test_word_argument_forms(capsys):
    for word in ("[1,0]", "sh[1,0]", "1,0", " [ 1 , 0 ] "):
        code, out, _ = run(capsys, "reduce2", word)
        assert code == 0 and out.startswith("target: sh[1,0]\n"), word
    code, _, err = run(capsys, "ideal-cert", "[]")
    assert code == 2 and "arity" in err
    # letters are ASCII integers: int() would read these as 3 and 10
    for word in ("[\u0663,0]", "[1_0,0]", "[1.5,0]", "[1,0", "sh[1,0]+sh[0,0]"):
        code, out, err = run(capsys, "reduce2", word)
        assert (code, out) == (2, ""), word
        assert err.startswith("error: not a word"), word


def test_reduce3_json(capsys):
    code, out, _ = run(capsys, "reduce3", "[0,0,1]", "--json", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["target"] == [0, 0, 1]
    assert payload["verified"] is True


def test_ideal_cert(capsys):
    code, out, _ = run(capsys, "ideal-cert", "[1,0]", "--verify")
    assert code == 0
    assert "A: 1/2 z1 + 1/2 z2" in out
    assert "B: 1/2 z1 z2" in out


def test_assoc(capsys):
    code, out, _ = run(capsys, "assoc", "1", "0", "-1")
    assert (code, out) == (0, "true\n")


def test_verify_cert_files(tmp_path, capsys):
    code, out, _ = run(capsys, "reduce3", "[2,0,1]", "--json")
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out, _ = run(capsys, "verify-cert", str(cert_file))
    assert (code, out) == (0, "true\n")

    payload = json.loads(cert_file.read_text())
    payload["combination"][0][0] = payload["combination"][0][0] + " + 1"
    tampered = tmp_path / "bad.json"
    tampered.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "verify-cert", str(tampered))
    assert (code, out) == (1, "false\n")

    # well-formed certificates whose claim is false: exit 1
    for cofactor, word in (("1", [0, 0]), ("z1", [0, 0, 0])):
        wrong = dict(payload, combination=[[cofactor, word]])
        tampered.write_text(json.dumps(wrong))
        code, out, _ = run(capsys, "verify-cert", str(tampered))
        assert (code, out) == (1, "false\n"), (cofactor, word)

    # malformed files: exit 2 with a message, never a traceback
    malformed = tmp_path / "broken.json"
    good = json.loads(cert_file.read_text())
    bad_letters = [dict(good, target=[1.5, 0, 1]), dict(good, target=[True, 0, 1]),
                   dict(good, combination=[["1", [2, 0, True]]]),
                   dict(good, combination=[["1", [2, 0, 1.5]]]), dict(good, schema=True)]
    texts = ["{not json", "[]", '"x"'] + [json.dumps(p) for p in bad_letters]
    for text in texts:
        malformed.write_text(text)
        code, _, err = run(capsys, "verify-cert", str(malformed))
        assert code == 2 and err.startswith("error:"), text

    # a missing key or a field of the wrong type is named in the message
    pair = good["combination"][0]
    named = [
        ({"schema": 1, "target": [0, 0, 0]}, "no 'combination' field"),
        ({"schema": 1, "combination": []}, "no 'target' field"),
        (dict(good, target=5), "target must be a list"),
        (dict(good, combination={"1": [2, 0, 1]}), "combination must be a list, not dict"),
        (dict(good, combination=[pair, ["1"]]), "combination[1] must be a [cofactor, word] pair"),
        (dict(good, combination=[pair, 7]), "combination[1] must be a [cofactor, word] pair"),
        (dict(good, combination=[[5, [2, 0, 1]]]), "combination[0][0] must be a string, not int"),
        (dict(good, combination=[["1", [2, 0, 1.5]]]), "combination[0][1] must be a list"),
        (dict(good, combination=[["z4", [2, 0, 1]]]), "z-index above arity 3"),
    ]
    for payload, message in named:
        malformed.write_text(json.dumps(payload))
        code, _, err = run(capsys, "verify-cert", str(malformed))
        assert code == 2 and err.startswith("error:") and message in err, (message, err)


def test_a_q_factor_past_the_packed_box_is_an_error(tmp_path, capsys):
    # a product packs its q-rows over their whole exponent box, up to
    # 256 x 256 points: past that it is refused with exit 2, not computed
    assert run(capsys, "expand", "(1 + q1^200 q2^200) sh[0]") == (0, "q1^200 q2^200 + 1\n", "")
    code, out, err = run(capsys, "expand", "(1 + q1^4000 q2^4000) sh[0]")
    assert (code, out) == (2, "") and err.startswith("error: q-exponents span 4001 x 4001")
    code, out, _ = run(capsys, "reduce3", "[2,0,1]", "--json")
    cert = dict(json.loads(out), combination=[["1 + q1^4000 q2^4000", [2, 0, 1]]])
    cert_file = tmp_path / "wide.json"
    cert_file.write_text(json.dumps(cert))
    code, out, err = run(capsys, "verify-cert", str(cert_file))
    assert (code, out) == (2, "") and err.startswith("error: q-exponents span"), err


def test_verify_ideal_cert_file(tmp_path, capsys):
    # [2,-2,4] prints a cofactor A of about 990 terms, read back as one sum
    for word in ("[0,1,0]", "[2,-2,4]"):
        code, out, _ = run(capsys, "ideal-cert", word, "--json")
        assert code == 0
        cert_file = tmp_path / "ideal.json"
        cert_file.write_text(out)
        code, out, _ = run(capsys, "verify-ideal-cert", str(cert_file))
        assert (code, out) == (0, "true\n"), word

    good = json.loads(cert_file.read_text())
    texts = ["[]", '"x"', json.dumps(dict(good, target=[2, -2, 4.5])),
             json.dumps(dict(good, target=[True, -2, 4])), json.dumps(dict(good, schema=2))]
    for text in texts:
        cert_file.write_text(text)
        code, _, err = run(capsys, "verify-ideal-cert", str(cert_file))
        assert code == 2 and err.startswith("error:"), text

    named = [({key: value for key, value in good.items() if key != missing}, f"no {missing!r} field")
             for missing in ("target", "A", "B")]
    named += [
        (dict(good, A=5), "A must be a string, not int"),
        (dict(good, B=["z1"]), "B must be a string, not list"),
        (dict(good, target=5), "target must be a list"),
    ]
    for payload, message in named:
        cert_file.write_text(json.dumps(payload))
        code, _, err = run(capsys, "verify-ideal-cert", str(cert_file))
        assert code == 2 and err.startswith("error:") and message in err, (message, err)


@pytest.mark.parametrize("shift", [Fraction(1, 2), Fraction(1, 3), 1])
def test_verify_ideal_cert_rejects_a_shifted_coefficient(shift, tmp_path, capsys):
    cert = ideal_certificate([1, 0, 1])
    assert verify_ideal_certificate(cert)
    terms = dict(cert.A.terms)
    mono = sorted(terms)[len(terms) // 2]
    terms[mono] += shift
    wrong = IdealCertificate(cert.target, LaurentPoly(terms), cert.B)
    assert not verify_ideal_certificate(wrong)
    cert_file = tmp_path / "ideal.json"
    cert_file.write_text(wrong.to_json())
    code, out, _ = run(capsys, "verify-ideal-cert", str(cert_file))
    assert (code, out) == (1, "false\n")


def test_one_parser_keeps_no_state_between_calls(tmp_path, capsys):
    for flags in (["--json", "expand", "1"], ["expand", "1", "--json"]):
        code, out, _ = run(capsys, *flags)
        assert code == 0 and json.loads(out)["poly"] == "1", flags
        assert run(capsys, "expand", "1") == (0, "1\n", ""), flags
    code, out, _ = run(capsys, "props", "--seed", "7", "--trials", "1", "--json")
    assert code == 0 and json.loads(out)["holds"]
    assert run(capsys, "props", "--trials", "1")[1] == run(capsys, "props", "--seed", "0", "--trials", "1")[1]
    # --seed belongs to props alone, and no seed draws as seed 0
    assert run(capsys, "props", "--seed", "7", "--trials", "1") == (0, (
        "ok   assoc z^0 z^-1 z^1\n"
        "ok   lemma a [-1, -1] n=0\n"
        "ok   wheel [2, 0, 0]\n"), "")
    assert run(capsys, "props", "--trials", "1") == (0, (
        "ok   assoc z^1 z^1 z^-2\n"
        "ok   lemma b [2, 2, 1] n=1\n"
        "ok   wheel [2, 0, 2]\n"), "")
    code, out, err = run(capsys, "expand", "--seed", "5", "sh[0]")
    assert (code, out) == (2, "") and err.startswith("usage:")
    assert run(capsys, "expand")[0] == 2
    assert run(capsys, "expand", "1") == (0, "1\n", "")
    # --json before or after every command gives the same JSON, and leaves
    # the plain text of the next call alone
    module_cert, ideal_cert = tmp_path / "module.json", tmp_path / "ideal.json"
    module_cert.write_text(run(capsys, "reduce3", "[0,0,1]", "--json")[1])
    ideal_cert.write_text(run(capsys, "ideal-cert", "[1,0]", "--json")[1])
    commands = [["expand", "1"], ["wheel", "sh[0,0,0]"], ["corollary", "sh[0,0]"],
                ["lemma", "a", "[0,0]", "1"], ["reduce2", "[0,1]"], ["reduce3", "[0,0,1]"],
                ["ideal-cert", "[1,0]"], ["assoc", "1", "0", "-1"],
                ["verify-cert", str(module_cert)], ["verify-ideal-cert", str(ideal_cert)],
                ["props", "--trials", "1"]]
    assert [argv[0] for argv in commands] == [name for name, _, _ in SUBCOMMANDS]
    for argv in commands:
        plain = run(capsys, *argv)
        assert plain[0] == 0 and not plain[1].startswith("{"), argv
        before, after = run(capsys, "--json", *argv), run(capsys, *argv, "--json")
        assert before == after and before[0] == 0, argv
        assert json.loads(before[1])["schema"] == 1, argv
        assert run(capsys, *argv) == plain, argv


_HELP = ("help", ("-h", "--help"), "_HelpAction", None, None, argparse.SUPPRESS,
         "show this help message and exit")
_JSON = ("json", ("--json",), "_StoreTrueAction", None, None, argparse.SUPPRESS,
         "emit JSON output")


def _positional(dest, type=None, choices=None):
    return (dest, (), "_StoreAction", type, choices, None, None)


_EXPR = [_positional("expr")]
_CERTIFICATE = [_positional("word"),
                ("verify", ("--verify",), "_StoreTrueAction", None, None, False, None)]
# each command's name, help and arguments after -h and --json, in the order of `--help`
SUBCOMMANDS = [
    ("expand", "evaluate an expression and print it canonically", _EXPR),
    ("wheel", "test the wheel conditions for an expression", _EXPR),
    ("corollary", "test divisibility of the z2:=-z1 image", _EXPR),
    ("lemma", "verify a module-action relation by expansion",
     [_positional("relation", choices=("a", "b")), _positional("word"), _positional("n", int)]),
    ("reduce2", "certificate over the arity-2 basis", _CERTIFICATE),
    ("reduce3", "certificate over the arity-3 basis", _CERTIFICATE),
    ("ideal-cert", "cofactors over the two-generator ideal", _CERTIFICATE),
    ("assoc", "check (z^a * z^b) * z^c == z^a * (z^b * z^c)",
     [_positional("a", int), _positional("b", int), _positional("c", int)]),
    ("verify-cert", "check a module certificate JSON file", [_positional("file")]),
    ("verify-ideal-cert", "check an ideal certificate JSON file", [_positional("file")]),
    ("props", "run randomized property checks",
     [("seed", ("--seed",), "_StoreAction", int, None, 0, "seed of the random choices"),
      ("trials", ("--trials",), "_StoreAction", int, None, 5, None)]),
]


def _declared(parser) -> list:
    return [(a.dest, tuple(a.option_strings), type(a).__name__, a.type, a.choices, a.default,
             a.help) for a in parser._actions]


def test_parser_declarations_pinned():
    # declarations, not formatted help, which argparse lays out differently
    # across Python versions
    parser = build_parser()
    assert (parser.prog, parser.description) == (
        "intshuffle", "Exact computations in the integral shuffle algebra.")
    sub = parser._actions[-1]
    assert _declared(parser)[:-1] == [
        _HELP, ("json", ("--json",), "_StoreTrueAction", None, None, False, argparse.SUPPRESS)]
    assert (type(sub).__name__, sub.dest, sub.required) == ("_SubParsersAction", "command", True)
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        (name, help_text) for name, help_text, _ in SUBCOMMANDS]
    assert list(sub.choices) == [name for name, _, _ in SUBCOMMANDS]
    for name, _, arguments in SUBCOMMANDS:
        assert _declared(sub.choices[name]) == [_HELP, _JSON] + arguments, name


def test_readme_cli_examples_run(tmp_path, capsys):
    # every line of the README's CLI block exits 0; a file it names lives in tmp_path
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0].splitlines()
    verdicts = []
    for line in lines:
        for command in line.split("&&"):
            words = shlex.split(command, comments=True)
            assert words[0] == "intshuffle", line
            argv = [str(tmp_path / w) if w.endswith(".json") else w for w in words[1:]]
            target = None
            if ">" in argv:
                argv, target = argv[:argv.index(">")], argv[-1]
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), line
            if target is not None:
                Path(target).write_text(out)
            if argv[0] == "verify-cert":
                verdicts.append(out)
    assert len(lines) == 11 and verdicts == ["true\n"]


def test_an_expression_led_by_a_minus_follows_a_double_dash(capsys):
    # argparse reads a space-free token led by "-" as an option unless it is
    # a plain negative number, so canonical text such as -z1 is read back
    # after "--"
    assert run(capsys, "expand", "-z1")[0] == 2
    code, out, err = run(capsys, "expand", "--json", "--", "-1/2")
    assert (code, json.loads(out), err) == (0, {"schema": 1, "kind": "scalar", "poly": "-1/2"}, "")
    assert run(capsys, "wheel", "--", "-z1") == (0, "true\n", "")
    for text in ("-z1", "-q1", "-1/2"):
        assert run(capsys, "expand", "--", text) == (0, text + "\n", ""), text


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "expand", "sh[0,0] +")
    assert code == 2
    assert "position 9" in err
    code, _, err = run(capsys, "expand", "(" * 400 + "z1" + ")" * 400)
    assert code == 2
    assert err.startswith("error:")


def test_reduction_refuses_words_past_the_spread_bound(capsys):
    # the reduction's work grows about as the fourth power of the letter
    # spread, so a wider word is refused before any rewrite
    for command, word, spread, bound in (
        ("reduce2", "[0,2001]", 2001, 2000),
        ("reduce2", "[0,5000]", 5000, 2000),
        ("reduce3", "[0,0,101]", 101, 100),
        ("reduce3", "[700,0,0]", 700, 100),
    ):
        code, out, err = run(capsys, command, word)
        assert (code, out) == (2, ""), word
        assert err == (f"error: the letters of sh{word} spread over {spread}; "
                       f"{command} accepts at most {bound}\n"), word
    # deeper than the interpreter's recursion limit, well inside the bound
    code, out, err = run(capsys, "reduce2", "[499,0]", "--verify")
    assert (code, err) == (0, "") and out.endswith("\nverified: true\n")


def test_z_index_with_a_leading_zero_is_no_name(capsys):
    # z01 would be a second spelling of z1, which the canonical text never writes
    code, out, err = run(capsys, "expand", "z01 + z1")
    assert (code, out, err) == (2, "", "error: at position 0: unknown name 'z01'\n")


def test_huge_z_index_is_a_syntax_error(capsys):
    # z-indices stop at poly.MAX_Z_INDEX = 1024 rather than allocate a slot per index
    for command in ("expand", "wheel", "corollary"):
        for name in ("z1025", "z99999999999999"):
            code, out, err = run(capsys, command, name)
            assert (code, out) == (2, ""), (command, name)
            assert err == f"error: at position 0: unknown name {name!r}\n", (command, name)


def test_arity_error_exit_code(capsys):
    code, _, err = run(capsys, "expand", "sh[0,0] + sh[0]")
    assert code == 2
    code, _, err = run(capsys, "corollary", "sh[3]")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert run(capsys, "lemma", "q", "[0,0]", "1")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2


def test_props_seeded(capsys):
    code, out, _ = run(capsys, "props", "--seed", "7", "--trials", "2")
    assert code == 0
    assert "FAIL" not in out
    again = run(capsys, "props", "--seed", "7", "--trials", "2")
    assert again == (code, out, "")
