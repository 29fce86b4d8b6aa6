"""Command-line front end.

Exit codes: 0 for success (including numeric passes within tolerance), 1 for
a verification failure, 2 for usage or domain errors.  Every subcommand takes
--json for machine-readable output on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

from . import dynamics as dyn
from . import gauss, special
from .local import (
    additive_character,
    frac_part,
    local_abs,
    parse_place,
)
from .rational import DomainError, digit_expansion, parse_rational
from .symbols import hilbert_symbol, legendre_symbol, weil_index
from .verifier import REGISTRY, parse_complex


def _emit(ns: argparse.Namespace, payload: dict, text: str) -> None:
    if ns.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cmd_norm(ns: argparse.Namespace) -> int:
    x = parse_rational(ns.x)
    place = parse_place(ns.place)
    value = local_abs(x, place)
    _emit(ns, {"op": "norm", "x": str(x), "place": str(place), "value": str(value)},
          f"|{x}|_{place} = {value}")
    return 0


def _cmd_digits(ns: argparse.Namespace) -> int:
    x = parse_rational(ns.x)
    place = parse_place(ns.prime)
    if place.is_infinite:
        raise DomainError("digit expansions are defined at finite places only")
    exp = digit_expansion(x, place.prime, ns.count)
    payload = {
        "op": "digits",
        "x": str(x),
        "prime": place.prime,
        "valuation": exp.valuation,
        "digits": list(exp.digits),
    }
    _emit(ns, payload,
          f"{x} = {place.prime}^{exp.valuation} * ({' + '.join(f'{d}*{place.prime}^{k}' for k, d in enumerate(exp.digits))} + ...)")
    return 0


def _cmd_frac(ns: argparse.Namespace) -> int:
    x = parse_rational(ns.x)
    place = parse_place(ns.prime)
    if place.is_infinite:
        raise DomainError("fractional parts are defined at finite places only")
    value = frac_part(x, place.prime)
    _emit(ns, {"op": "frac", "x": str(x), "prime": place.prime, "value": str(value)},
          f"{{{x}}}_{place.prime} = {value}")
    return 0


def _cmd_char(ns: argparse.Namespace) -> int:
    x = parse_rational(ns.x)
    place = parse_place(ns.place)
    chi = additive_character(x, place)
    z = chi.to_complex()
    payload = {
        "op": "char",
        "x": str(x),
        "place": str(place),
        "phase": str(chi.phase),
        "approx": [z.real, z.imag],
    }
    _emit(ns, payload, f"character({x})_{place} = {chi}  ~ {z.real:.6f}{z.imag:+.6f}i")
    return 0


def _cmd_legendre(ns: argparse.Namespace) -> int:
    place = parse_place(ns.prime)
    if place.is_infinite:
        raise DomainError("the Legendre symbol needs an odd prime")
    value = legendre_symbol(ns.a, place.prime)
    _emit(ns, {"op": "legendre", "a": ns.a, "p": place.prime, "value": value},
          f"({ns.a}/{place.prime}) = {value:+d}" if value else f"({ns.a}/{place.prime}) = 0")
    return 0


def _cmd_hilbert(ns: argparse.Namespace) -> int:
    x = parse_rational(ns.x)
    y = parse_rational(ns.y)
    place = parse_place(ns.place)
    value = hilbert_symbol(x, y, place)
    _emit(ns, {"op": "hilbert", "x": str(x), "y": str(y), "place": str(place), "value": value},
          f"({x},{y})_{place} = {value:+d}")
    return 0


def _cmd_lambda(ns: argparse.Namespace) -> int:
    x = parse_rational(ns.x)
    place = parse_place(ns.place)
    w = weil_index(x, place)
    z = w.to_complex()
    payload = {
        "op": "lambda",
        "x": str(x),
        "place": str(place),
        "eighth_root_exponent": w.k,
        "approx": [z.real, z.imag],
    }
    _emit(ns, payload, f"lambda({x})_{place} = {w}  ~ {z.real:.6f}{z.imag:+.6f}i")
    return 0


def _cmd_gauss(ns: argparse.Namespace) -> int:
    a = parse_rational(ns.a)
    b = parse_rational(ns.b)
    place = parse_place(ns.place)
    f = gauss.gauss_factor(a, b, place)
    z = f.to_complex()
    payload = {
        "op": "gauss",
        "a": str(a),
        "b": str(b),
        "place": str(place),
        "eighth_root_exponent": f.root.k,
        "magnitude_base": str(f.mag_base),
        "phase": str(f.phase.phase),
        "approx": [z.real, z.imag],
    }
    _emit(ns, payload, f"gauss({a},{b})_{place} = {f}  ~ {z.real:.6f}{z.imag:+.6f}i")
    return 0


def _cmd_kernel(ns: argparse.Namespace) -> int:
    x2 = parse_rational(ns.x2)
    x1 = parse_rational(ns.x1)
    accel = parse_rational(ns.accel)
    T = parse_rational(ns.T)
    place = parse_place(ns.place)
    k = gauss.kernel(x2, x1, accel, T, place)
    z = k.to_complex()
    payload = {
        "op": "kernel",
        "x2": str(x2),
        "x1": str(x1),
        "accel": str(accel),
        "T": str(T),
        "place": str(place),
        "eighth_root_exponent": k.root.k,
        "magnitude_base": str(k.mag_base),
        "phase": str(k.phase.phase),
        "approx": [z.real, z.imag],
    }
    _emit(ns, payload, f"kernel({x2},{x1};accel={accel},T={T})_{place} = {k}  ~ {z.real:.6f}{z.imag:+.6f}i")
    return 0


def _cmd_gamma(ns: argparse.Namespace) -> int:
    a = parse_complex(ns.a)
    place = parse_place(ns.place)
    value = special.gamma_local(a, place)
    payload = {
        "op": "gamma",
        "a": [a.real, a.imag],
        "place": str(place),
        "value": [value.real, value.imag],
    }
    _emit(ns, payload, f"gamma({ns.a})_{place} = {value.real:.12g}{value.imag:+.12g}i")
    return 0


def _cmd_beta(ns: argparse.Namespace) -> int:
    a = parse_complex(ns.a)
    b = parse_complex(ns.b)
    place = parse_place(ns.place)
    value = special.beta_local(a, b, place)
    payload = {
        "op": "beta",
        "a": [a.real, a.imag],
        "b": [b.real, b.imag],
        "place": str(place),
        "value": [value.real, value.imag],
    }
    _emit(ns, payload, f"beta({ns.a},{ns.b})_{place} = {value.real:.12g}{value.imag:+.12g}i")
    return 0


def _cmd_zeta(ns: argparse.Namespace) -> int:
    a = parse_complex(ns.a)
    if ns.place is None or ns.place.strip().lower() in ("adelic", "a"):
        value = special.zeta_adelic(a)
        where = "adelic"
    else:
        place = parse_place(ns.place)
        value = special.zeta_local(a, place)
        where = str(place)
    payload = {
        "op": "zeta",
        "a": [a.real, a.imag],
        "place": where,
        "value": [value.real, value.imag],
    }
    _emit(ns, payload, f"zeta({ns.a})_{where} = {value.real:.12g}{value.imag:+.12g}i")
    return 0


def _cmd_mellin(ns: argparse.Namespace) -> int:
    a = float(ns.a)
    comparison = special.mellin_vacuum(a)
    payload = {
        "op": "mellin",
        "a": a,
        "numeric": comparison.numeric,
        "closed": comparison.closed,
        "residual": comparison.residual,
    }
    _emit(ns, payload,
          f"mellin({a}): numeric {comparison.numeric:.12g}, closed {comparison.closed:.12g}, "
          f"residual {comparison.residual:.3e}")
    return 0 if comparison.residual <= ns.tol else 1


def _cmd_wavefn(ns: argparse.Namespace) -> int:
    x = parse_rational(ns.x)
    psi = gauss.ground_state(x)
    payload = {
        "op": "wavefn",
        "x": str(x),
        "real_factor": psi.real_factor,
        "gate": psi.padic_gate,
        "value": psi.value,
    }
    _emit(ns, payload, f"vacuum({x}) = {psi.value:.12g} (gate {psi.padic_gate})")
    return 0


def _dynamics_payload(report: dyn.DynamicsReport) -> dict:
    return {
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
        "irrational_discriminant": (
            None if report.irrational_discriminant is None else str(report.irrational_discriminant)
        ),
    }


def _cmd_dynamics(ns: argparse.Namespace) -> int:
    entries = [parse_rational(t) for t in (ns.a, ns.b, ns.c, ns.d)]
    f = dyn.MoebiusMap(*entries)
    if ns.action == "classify":
        report = dyn.classify(f)
        lines = []
        for r in report.reports:
            table = ", ".join(f"{v}: {label}" for v, label in r.per_place)
            exceptional = "{" + ",".join(str(v) for v in r.exceptional) + "}"
            lines.append(
                f"fixed point {r.point}: multiplier {r.multiplier}; {table}; "
                f"all other places indifferent; exceptional set {exceptional}"
            )
        if report.irrational_discriminant is not None:
            lines.append(f"conjugate irrational pair, discriminant {report.irrational_discriminant}")
        if not lines:
            lines.append("no fixed point data")
        _emit(ns, _dynamics_payload(report), "\n".join(lines))
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


def _cmd_verify(ns: argparse.Namespace) -> int:
    fam = REGISTRY.family(ns.family)
    args = fam.parse(ns.args)
    report = REGISTRY.verify(ns.family, args, tol=ns.tol)
    if ns.places and fam.exact:
        # show factors at extra requested places; off-support they are 1
        shown = {place for place, _ in report.factors}
        extra = []
        for token in ns.places.split(","):
            place = parse_place(token)
            if str(place) not in shown:
                extra.append((str(place), str(fam.factor(place, args))))
        report = dataclasses.replace(report, factors=report.factors + tuple(extra))
    if ns.json:
        print(report.to_json())
    else:
        if report.verdict == "ExactPass":
            factors = " × ".join(v for _, v in report.factors)
            print(f"1 = {factors} ✓ exact")
        elif report.verdict == "NumericPass":
            print(f"residual {report.residual:.3e} within tolerance {ns.tol:g} ✓ numeric")
        else:
            detail = report.diagnostic or f"residual {report.residual}"
            print(f"FAIL: {detail}")
    return 0 if report.verdict in ("ExactPass", "NumericPass") else 1


def _cmd_suite(ns: argparse.Namespace) -> int:
    report = REGISTRY.random_suite(
        ns.family, trials=ns.trials, height_bound=ns.height, seed=ns.seed, tol=ns.tol
    )
    if ns.json:
        print(report.to_json())
    else:
        counts = ", ".join(f"{k}: {v}" for k, v in report.verdicts)
        print(f"{ns.family}: {report.trials} trials, {counts}")
        for failure in report.failures[:10]:
            print(f"  FAIL #{failure['index']} args {failure['args']}: {failure['diagnostic']}")
    return 0 if report.all_passed else 1


# let tokens like -22/7 and -1.5-2i through as positional values
_VALUE_TOKEN = re.compile(r"^-\d[\d./+i-]*$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adelic",
        description="Exact local-field arithmetic and adelic product verification.",
    )
    parser._negative_number_matcher = _VALUE_TOKEN
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _VALUE_TOKEN
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        return p

    p = add("norm", _cmd_norm, "local absolute value |x|_v")
    p.add_argument("x")
    p.add_argument("place")

    p = add("digits", _cmd_digits, "canonical base-p digits")
    p.add_argument("x")
    p.add_argument("prime")
    p.add_argument("count", type=int)

    p = add("frac", _cmd_frac, "p-adic fractional part")
    p.add_argument("x")
    p.add_argument("prime")

    p = add("char", _cmd_char, "additive character value")
    p.add_argument("x")
    p.add_argument("place")

    p = add("legendre", _cmd_legendre, "Legendre symbol (a/p)")
    p.add_argument("a", type=int)
    p.add_argument("prime")

    p = add("hilbert", _cmd_hilbert, "Hilbert symbol (x,y)_v")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("place")

    p = add("lambda", _cmd_lambda, "Weil index at a place")
    p.add_argument("x")
    p.add_argument("place")

    p = add("gauss", _cmd_gauss, "closed-form local Gauss integral")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("place")

    p = add("kernel", _cmd_kernel, "local propagator kernel value")
    p.add_argument("x2")
    p.add_argument("x1")
    p.add_argument("accel")
    p.add_argument("T")
    p.add_argument("place")

    p = add("gamma", _cmd_gamma, "local gamma factor")
    p.add_argument("a")
    p.add_argument("place")

    p = add("beta", _cmd_beta, "local beta value")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("place")

    p = add("zeta", _cmd_zeta, "local or completed zeta value")
    p.add_argument("a")
    p.add_argument("place", nargs="?", default=None)

    p = add("mellin", _cmd_mellin, "vacuum Mellin transform, numeric vs closed form")
    p.add_argument("a", type=float)
    p.add_argument("--tol", type=float, default=1e-8)

    p = add("wavefn", _cmd_wavefn, "adelic vacuum value at a rational point")
    p.add_argument("x")

    p = add("dynamics", _cmd_dynamics, "fixed points and local classification")
    p.add_argument("action", choices=["classify", "orbit"])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("d")
    p.add_argument("--x0", default="1")
    p.add_argument("--fixed-point", dest="fixed_point", default="0")
    p.add_argument("--place", default="2")
    p.add_argument("--steps", type=int, default=6)

    p = add("verify", _cmd_verify, "verify one adelic product identity")
    p.add_argument("family", help="e.g. norm-product, lambda-product, functional-equation")
    p.add_argument("args", nargs="*")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--places", default="", help="comma-separated extra places to tabulate")

    p = add("suite", _cmd_suite, "seeded random verification suite for a family")
    p.add_argument("family")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--height", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-8)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.handler(ns)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZeroDivisionError:
        print("error: division by zero in exact arithmetic", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
