"""Command-line front end.

Exit codes: 0 for success / a check that holds, 1 for a check that fails,
2 for usage, parse, or input errors.  `--json` switches the output to a
versioned JSON schema; `--seed` feeds the randomized `props` command.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .conditions import (
    IdealCertificate,
    corollary_check,
    ideal_certificate,
    verify_ideal_certificate,
    wheel_check,
)
from .errors import ArityMismatch, ExprSyntaxError
from .expr import WordLit, as_element, eval_text, parse
from .generators import (
    ModuleCertificate,
    reduce2,
    reduce3,
    verify_certificate,
    verify_lemma,
)
from .poly import render
from .shuffle import ShuffleElement, one_variable, shuffle, shuffle_word


def _parse_word_arg(text: str) -> tuple[int, ...]:
    """`[1,0,2]`, `sh[1,0,2]` or `1,0,2`, read as the `sh[...]` literal of
    the expression grammar (ASCII digits only)."""
    body = text.strip()
    if not body.startswith("sh"):
        body = "sh" + (body if body.startswith("[") else f"[{body}]")
    try:
        node = parse(body)
    except (ExprSyntaxError, ArityMismatch):
        node = None
    if not isinstance(node, WordLit):
        raise ValueError(f"not a word: {text!r} (expected e.g. '[1,0,2]')")
    return node.exponents


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _cmd_expand(args) -> int:
    value = eval_text(args.expr)
    if isinstance(value, ShuffleElement):
        text = str(value)
        payload = {"schema": 1, "kind": "element", "arity": value.arity, "poly": text}
    else:
        text = render(value)
        payload = {"schema": 1, "kind": "scalar", "poly": text}
    _emit(args, payload, text)
    return 0


def _verdict(args, holds: bool) -> int:
    _emit(args, {"schema": 1, "holds": holds}, "true" if holds else "false")
    return 0 if holds else 1


def _cmd_wheel(args) -> int:
    return _verdict(args, wheel_check(as_element(eval_text(args.expr))))


def _cmd_corollary(args) -> int:
    element = as_element(eval_text(args.expr))
    holds, cofactor = corollary_check(element)
    text = render(cofactor) if holds else None
    _emit(args, {"schema": 1, "holds": holds, "cofactor": text}, text or "not divisible")
    return 0 if holds else 1


def _cmd_lemma(args) -> int:
    return _verdict(args, verify_lemma(_parse_word_arg(args.word), args.n, args.relation))


def _cmd_certificate(args, build, verify) -> int:
    """reduce2, reduce3 and ideal-cert: print a certificate, checked on --verify."""
    cert = build(_parse_word_arg(args.word))
    verified = verify(cert) if args.verify else None
    if args.json:
        payload = cert.payload()
        if verified is not None:
            payload["verified"] = verified
        print(json.dumps(payload, indent=2))
    else:
        print(cert)
        if verified is not None:
            print(f"verified: {'true' if verified else 'false'}")
    return 1 if verified is False else 0


def _cmd_assoc(args) -> int:
    za, zb, zc = (one_variable(d) for d in (args.a, args.b, args.c))
    return _verdict(args, shuffle(shuffle(za, zb), zc) == shuffle(za, shuffle(zb, zc)))


def _cmd_verify_file(args, certificate_class, verify) -> int:
    """verify-cert and verify-ideal-cert: the verdict on a certificate file."""
    with open(args.file, "r", encoding="utf-8") as handle:
        text = handle.read()
    return _verdict(args, verify(certificate_class.from_json(text)))


def _cmd_props(args) -> int:
    rng = random.Random(args.seed)
    checks: list[tuple[str, bool]] = []
    for _ in range(args.trials):
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        za, zb, zc = one_variable(a), one_variable(b), one_variable(c)
        ok = shuffle(shuffle(za, zb), zc) == shuffle(za, shuffle(zb, zc))
        checks.append((f"assoc z^{a} z^{b} z^{c}", ok))

        word = tuple(rng.randint(-1, 2) for _ in range(rng.randint(2, 3)))
        n = rng.randint(-2, 2)
        which = rng.choice("ab")
        checks.append(
            (f"lemma {which} {list(word)} n={n}", verify_lemma(word, n, which))
        )

        word3 = tuple(rng.randint(0, 2) for _ in range(3))
        checks.append((f"wheel {list(word3)}", wheel_check(shuffle_word(word3))))
    all_ok = all(ok for _, ok in checks)
    if args.json:
        payload = {
            "schema": 1,
            "holds": all_ok,
            "checks": [{"check": name, "holds": ok} for name, ok in checks],
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, ok in checks:
            print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    # --json is accepted both before and after the subcommand; the SUPPRESS
    # default keeps the subparser from clobbering a root-level value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON output")

    parser = argparse.ArgumentParser(
        prog="intshuffle",
        description="Exact computations in the integral shuffle algebra.",
    )
    parser.add_argument("--json", action="store_true", default=False,
                        help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common],
                       help="evaluate an expression and print it canonically")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("wheel", parents=[common],
                       help="test the wheel conditions for an expression")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_wheel)

    p = sub.add_parser("corollary", parents=[common],
                       help="test divisibility of the z2:=-z1 image")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_corollary)

    p = sub.add_parser("lemma", parents=[common],
                       help="verify a module-action relation by expansion")
    p.add_argument("relation", choices=("a", "b"))
    p.add_argument("word")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_lemma)

    for name, help_text, build, verify in (
        ("reduce2", "certificate over the arity-2 basis", reduce2, verify_certificate),
        ("reduce3", "certificate over the arity-3 basis", reduce3, verify_certificate),
        ("ideal-cert", "cofactors over the two-generator ideal", ideal_certificate,
         verify_ideal_certificate),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("word")
        p.add_argument("--verify", action="store_true")
        p.set_defaults(func=functools.partial(_cmd_certificate, build=build, verify=verify))

    p = sub.add_parser("assoc", parents=[common],
                       help="check (z^a * z^b) * z^c == z^a * (z^b * z^c)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(func=_cmd_assoc)

    for name, help_text, certificate_class, verify in (
        ("verify-cert", "check a module certificate JSON file", ModuleCertificate,
         verify_certificate),
        ("verify-ideal-cert", "check an ideal certificate JSON file", IdealCertificate,
         verify_ideal_certificate),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("file")
        p.set_defaults(func=functools.partial(_cmd_verify_file, certificate_class=certificate_class,
                                              verify=verify))

    p = sub.add_parser("props", parents=[common],
                       help="run randomized property checks")
    p.add_argument("--seed", type=int, default=0, help="seed of the random choices")
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=_cmd_props)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first `main` call; parsing
    reads it and never changes it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        # ValueError covers ExprSyntaxError, ArityMismatch, ArityTooSmall and
        # json.JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # deeply nested input: parentheses nested past the interpreter's limit
        print("error: the computation recursed too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
