"""Command-line front end.

Exit codes: 0 for success (including numeric passes within tolerance), 1 for
a verification failure, 2 for usage or domain errors.  Every subcommand takes
--json for machine-readable output on stdout; diagnostics go to stderr.

Each subcommand is described once, in the table ``commands()`` returns: its
help line, its arguments and what it runs.  The eleven local-value commands
(norm, frac, char, hilbert, lambda, gauss, kernel, gamma, beta, zeta, wavefn)
evaluate one library function each and share one handler: the kind of an
argument decides how it is parsed and shown, the type of the value how the
result is shown.  Every command builds one payload and prints it, or its text
line, through ``_emit``.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Sequence

from . import dynamics as dyn
from . import gauss, special
from .local import Place, RootOfUnity, additive_character, frac_part, local_abs, parse_place
from .rational import DomainError, digit_expansion, parse_rational
from .symbols import EighthRoot, ExactFactor, hilbert_symbol, legendre_symbol, weil_index
from .verifier import EXACT_PASS, NUMERIC_PASS, REGISTRY, _check_tolerance, _dumps, format_complex, parse_complex


def _emit(ns: argparse.Namespace, payload: dict, text: str) -> None:
    print(_dumps(payload) if ns.json else text)


class Kind(namedtuple("Kind", "parse payload shows_token options", defaults=(str, False, {}))):
    """How a local-value argument is parsed, put in the JSON payload and labelled in text.

    The text label is str() of the parsed value, or with shows_token the
    token as typed.  options are argparse keywords for the argument (the
    default is shared and never mutated), a dict.
    """

    __slots__ = ()


def _adelic_or_place(token: str | None) -> str | Place:
    # zeta's place may be omitted or be "adelic" ("a"): the completed zeta
    if token is None or token.strip().lower() in ("adelic", "a"):
        return "adelic"
    return parse_place(token)


def _finite_prime(token: str, message: str) -> int:
    """The prime of a finite place; the archimedean place raises DomainError(message)."""
    place = parse_place(token)
    if place.is_infinite:
        raise DomainError(message)
    return place.prime


RATIONAL = Kind(parse_rational)
PLACE = Kind(parse_place)
FRAC_PRIME = Kind(lambda t: _finite_prime(t, "fractional parts are defined at finite places only"), int)
COMPLEX = Kind(parse_complex, lambda z: [z.real, z.imag], shows_token=True)
ADELIC_OR_PLACE = Kind(_adelic_or_place, options={"nargs": "?", "default": None})


def _zeta(a: complex, where: str | Place) -> complex:
    return special.zeta_adelic(a) if where == "adelic" else special.zeta_local(a, where)


def _approx(value, text: str, **fields) -> tuple[dict, str]:
    z = value.to_complex()
    return {**fields, "approx": [z.real, z.imag]}, f"{text}  ~ {z.real:.6f}{z.imag:+.6f}i"


# type of a local value -> its JSON fields and its text
_RENDER: dict[type, Callable[[object], tuple[dict, str]]] = {
    Fraction: lambda v: ({"value": str(v)}, str(v)),
    int: lambda v: ({"value": v}, f"{v:+d}"),  # a sign
    RootOfUnity: lambda v: _approx(v, str(v), phase=str(v.phase)),
    EighthRoot: lambda v: _approx(v, str(v), eighth_root_exponent=v.k),
    # only gauss and kernel give an ExactFactor: shown as root * (|2a| or |4T|)^(-1/2) * phase
    ExactFactor: lambda v: _approx(
        v, f"{v.root} * ({1 / v.mag2})^(-1/2) * {v.phase}",
        eighth_root_exponent=v.root.k, magnitude_base=str(1 / v.mag2), phase=str(v.phase.phase),
    ),
    complex: lambda v: ({"value": [v.real, v.imag]}, format_complex(v)),
    gauss.WaveFunctionValue: lambda v: (
        {"real_factor": v.real_factor, "gate": v.padic_gate, "value": v.value},
        f"{v.value:.12g} (gate {v.padic_gate})",
    ),
}


def _cmd_local(ns: argparse.Namespace) -> int:
    """Parse every argument by its kind, evaluate, render by the value's type."""
    cmd = ns.cmd
    tokens = [getattr(ns, name) for name, _ in cmd.args]
    values = [kind.parse(token) for (_, kind), token in zip(cmd.args, tokens)]
    value = cmd.evaluate(*values)
    fields, shown = _RENDER[type(value)](value)
    payload = {"op": cmd.name, **fields}
    labels = {}
    for (name, kind), token, parsed in zip(cmd.args, tokens, values):
        payload[name] = kind.payload(parsed)
        labels[name] = token if kind.shows_token else str(parsed)
    _emit(ns, payload, f"{cmd.head.format(**labels)} = {shown}")
    return 0


class Command(
    namedtuple("Command", "name help args handler evaluate head", defaults=(_cmd_local, None, ""))
):
    """One subcommand: its help line, its arguments in order, and what it runs.

    A local-value command gives the library function it evaluates and the head
    of its text line (a format of the argument labels; the value follows),
    and each of its arguments is a Kind.  Any other command gives its
    own handler, and argparse keywords (a dict) for each argument.
    """

    __slots__ = ()


def _cmd_digits(ns: argparse.Namespace) -> int:
    x = parse_rational(ns.x)
    p = _finite_prime(ns.prime, "digit expansions are defined at finite places only")
    exp = digit_expansion(x, p, ns.count)
    payload = {"op": "digits", "x": str(x), "prime": p, "valuation": exp.valuation, "digits": list(exp.digits)}
    terms = " + ".join(f"{d}*{p}^{k}" for k, d in enumerate(exp.digits))
    _emit(ns, payload, f"{x} = {p}^{exp.valuation} * ({terms} + ...)")
    return 0


def _cmd_legendre(ns: argparse.Namespace) -> int:
    p = _finite_prime(ns.prime, "the Legendre symbol needs an odd prime")
    value = legendre_symbol(ns.a, p)
    _emit(ns, {"op": "legendre", "a": ns.a, "p": p, "value": value},
          f"({ns.a}/{p}) = {value:+d}" if value else f"({ns.a}/{p}) = 0")
    return 0


def _cmd_mellin(ns: argparse.Namespace) -> int:
    _check_tolerance(ns.tol)
    comparison = special.mellin_vacuum(ns.a)
    payload = {
        "op": "mellin",
        "a": ns.a,
        "numeric": comparison.numeric,
        "closed": comparison.closed,
        "residual": comparison.residual,
    }
    _emit(ns, payload,
          f"mellin({ns.a}): numeric {comparison.numeric:.12g}, closed {comparison.closed:.12g}, "
          f"residual {comparison.residual:.3e}")
    return 0 if comparison.residual <= ns.tol else 1


def _cmd_dynamics(ns: argparse.Namespace) -> int:
    entries = [parse_rational(t) for t in (ns.a, ns.b, ns.c, ns.d)]
    f = dyn.MoebiusMap(*entries)
    if ns.action == "classify":
        report = dyn.classify(f)
        discriminant = report.irrational_discriminant
        payload = {
            "op": "dynamics",
            "fixed_points": [
                {
                    "point": str(r.point),
                    "multiplier": str(r.multiplier),
                    "classification": {str(v): label for v, label in r.per_place},
                    "exceptional": [str(v) for v in r.exceptional],
                }
                for r in report.reports
            ],
            "irrational_discriminant": None if discriminant is None else str(discriminant),
        }
        lines = []
        for r in payload["fixed_points"]:
            table = ", ".join(f"{v}: {label}" for v, label in r["classification"].items())
            lines.append(
                f"fixed point {r['point']}: multiplier {r['multiplier']}; {table}; "
                f"all other places indifferent; exceptional set {{{','.join(r['exceptional'])}}}"
            )
        if discriminant is not None:
            lines.append(f"conjugate irrational pair, discriminant {discriminant}")
        _emit(ns, payload, "\n".join(lines))
        return 0
    # orbit
    place = parse_place(ns.place)
    probe = dyn.orbit_probe(
        f,
        parse_rational(ns.x0),
        place,
        ns.steps,
        parse_rational(ns.fixed_point),
    )
    payload = {
        "op": "orbit",
        "map": [str(e) for e in entries],
        "place": str(place),
        "entries": [str(e) for e in probe.entries],
        "pole_escape": probe.pole_escape,
    }
    text = f"orbit distances at {place}: " + ", ".join(str(e) for e in probe.entries)
    if probe.pole_escape:
        text += " (orbit hit the pole)"
    _emit(ns, payload, text)
    return 0


def _failure(record: dict) -> str:
    """Why a verification failed, from its JSON record: its diagnostic, else its residual."""
    return record["diagnostic"] or f"residual {record['residual']}"


def _cmd_verify(ns: argparse.Namespace) -> int:
    fam = REGISTRY.family(ns.family)
    if ns.places and not fam.exact:
        raise DomainError("--places tabulates the factors of an exact family only")
    args = fam.parse(ns.args)
    report = REGISTRY.verify(ns.family, args, tol=ns.tol)
    payload = report.to_dict()
    factors = payload["factors"]
    if ns.places:
        # show factors at extra requested places; off-support they are 1
        for place in map(parse_place, ns.places.split(",")):
            if str(place) not in {f["place"] for f in factors}:
                factors.append({"place": str(place), "value": str(fam.factor(place, args))})
    if report.verdict == EXACT_PASS:
        text = f"1 = {' × '.join(f['value'] for f in factors)} ✓ exact"
    elif report.verdict == NUMERIC_PASS:
        text = f"residual {report.residual:.3e} within tolerance {ns.tol:g} ✓ numeric"
    else:
        text = f"FAIL: {_failure(payload)}"
    _emit(ns, payload, text)
    return 0 if report.verdict in (EXACT_PASS, NUMERIC_PASS) else 1


def _cmd_suite(ns: argparse.Namespace) -> int:
    report = REGISTRY.random_suite(
        ns.family, trials=ns.trials, height_bound=ns.height, seed=ns.seed, tol=ns.tol
    )
    counts = ", ".join(f"{k}: {v}" for k, v in report.verdicts)
    lines = [f"{ns.family}: {report.trials} trials, {counts}"] + [
        f"  FAIL #{failure['index']} args {failure['args']}: {_failure(failure)}"
        for failure in report.failures[:10]
    ]
    _emit(ns, report.to_dict(), "\n".join(lines))
    return 0 if report.all_passed else 1


def commands() -> tuple[Command, ...]:
    """Every subcommand, in the order of the help text.

    Built anew for each parser, so that it holds the library functions bound
    at that time, a wrapper installed after import included.
    """
    tol = ("--tol", {"type": float, "default": 1e-8})
    x, place = ("x", RATIONAL), ("place", PLACE)
    return (
        Command("norm", "local absolute value |x|_v", (x, place), evaluate=local_abs, head="|{x}|_{place}"),
        Command("digits", "canonical base-p digits",
                (("x", {}), ("prime", {}), ("count", {"type": int})), _cmd_digits),
        Command("frac", "p-adic fractional part", (x, ("prime", FRAC_PRIME)),
                evaluate=frac_part, head="{{{x}}}_{prime}"),
        Command("char", "additive character value", (x, place),
                evaluate=additive_character, head="character({x})_{place}"),
        Command("legendre", "Legendre symbol (a/p)", (("a", {"type": int}), ("prime", {})), _cmd_legendre),
        Command("hilbert", "Hilbert symbol (x,y)_v", (x, ("y", RATIONAL), place),
                evaluate=hilbert_symbol, head="({x},{y})_{place}"),
        Command("lambda", "Weil index at a place", (x, place),
                evaluate=weil_index, head="lambda({x})_{place}"),
        Command("gauss", "closed-form local Gauss integral", (("a", RATIONAL), ("b", RATIONAL), place),
                evaluate=gauss.gauss_factor, head="gauss({a},{b})_{place}"),
        Command("kernel", "local propagator kernel value",
                (("x2", RATIONAL), ("x1", RATIONAL), ("accel", RATIONAL), ("T", RATIONAL), place),
                evaluate=gauss.kernel, head="kernel({x2},{x1};accel={accel},T={T})_{place}"),
        Command("gamma", "local gamma factor", (("a", COMPLEX), place),
                evaluate=special.gamma_local, head="gamma({a})_{place}"),
        Command("beta", "local beta value", (("a", COMPLEX), ("b", COMPLEX), place),
                evaluate=special.beta_local, head="beta({a},{b})_{place}"),
        Command("zeta", "local or completed zeta value", (("a", COMPLEX), ("place", ADELIC_OR_PLACE)),
                evaluate=_zeta, head="zeta({a})_{place}"),
        Command("mellin", "vacuum Mellin transform, numeric vs closed form",
                (("a", {"type": float}), tol), _cmd_mellin),
        Command("wavefn", "adelic vacuum value at a rational point", (x,),
                evaluate=gauss.ground_state, head="vacuum({x})"),
        Command("dynamics", "fixed points and local classification", (
            ("action", {"choices": ["classify", "orbit"]}),
            ("a", {}), ("b", {}), ("c", {}), ("d", {}),
            ("--x0", {"default": "1"}),
            ("--fixed-point", {"default": "0"}),
            ("--place", {"default": "2"}),
            ("--steps", {"type": int, "default": 6}),
        ), _cmd_dynamics),
        Command("verify", "verify one adelic product identity", (
            ("family", {"help": "e.g. norm-product, lambda-product, functional-equation"}),
            ("args", {"nargs": "*"}),
            tol,
            ("--places", {"default": "", "help": "comma-separated extra places to tabulate"}),
        ), _cmd_verify),
        Command("suite", "seeded random verification suite for a family", (
            ("family", {}),
            ("--trials", {"type": int, "default": 100}),
            ("--seed", {"type": int, "default": 42}),
            ("--height", {"type": int, "default": 1000}),
            tol,
        ), _cmd_suite),
    )


# let tokens like -22/7, -1.5-2i and -1e-05+2i through as positional values
_VALUE_TOKEN = r"^-\d[\d./+ie-]*$"


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser of every subcommand, with the arguments of the one argv runs.

    argparse dispatches to the first positional token of argv.  The
    top-level parser has no option that takes a value, so that token is the
    first one that names a command, and only that subcommand gets its
    arguments and its -h.  The others are registered by name and help line
    alone, which is all the top-level help and the invalid-choice error show
    of them.
    """
    table = commands()
    # argparse's own usage at 80 columns before 3.13, whose argparse wraps it
    # differently; prog= below keeps each subcommand's prog from copying it
    choices = "{" + ",".join(cmd.name for cmd in table) + "}"
    parser = argparse.ArgumentParser(
        prog="adelic",
        usage=f"%(prog)s [-h]\n{' ' * 14}{choices}\n{' ' * 14}...",
        description="Exact local-field arithmetic and adelic product verification.",
    )
    value_token = re.compile(_VALUE_TOKEN)
    parser._negative_number_matcher = value_token
    sub = parser.add_subparsers(dest="command", required=True, prog="adelic")
    names = {cmd.name for cmd in table}
    built = {next((token for token in argv if token in names), None)}
    for cmd in table:
        p = sub.add_parser(cmd.name, help=cmd.help, add_help=cmd.name in built)
        if cmd.name not in built:
            continue
        p._negative_number_matcher = value_token
        p.set_defaults(cmd=cmd)
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        for name, spec in cmd.args:
            p.add_argument(name, **(spec.options if isinstance(spec, Kind) else spec))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        ns = parser.parse_args(argv)
        # argparse can leave a one-token positional an empty list around "--";
        # only verify's args take a list
        if any(value == [] for name, value in vars(ns).items() if name != "args"):
            parser.error("an argument next to '--' got no value")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.cmd.handler(ns)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
