"""Command-line front end: experiment sweeps, verification suites, CSV/JSON
emission.

Output is byte-deterministic for a fixed configuration and seed: floats are
printed with 17 significant digits, JSON keys are sorted, CSV uses plain
newlines and UTF-8.  A plain-text config file of ``key = value`` lines (with
``#`` comments) supplies defaults; explicit flags override it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .errors import QuadpairError
from .exactreal import DEFAULT_BITS, eval_with_retry, parse_alpha
from . import latcount, modcount, paircorr
from .constructor import construct_alpha, interval, verify_avoidance


def fmt_float(v) -> str:
    return f"{float(v):.17g}"


def load_config(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _write_text(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(args, columns: tuple, rows: list[tuple]) -> None:
    if args.format == "json":
        _emit_json(args, [dict(zip(columns, row)) for row in rows])
    else:
        _write_text(args.out, "".join(",".join(map(str, row)) + "\n" for row in [columns, *rows]))


def _emit_json(args, payload) -> None:
    _write_text(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _fractions(text: str) -> list[Fraction]:
    return [Fraction(part) for part in text.split(",") if part != ""]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_paircorr(args) -> list[tuple]:
    spec = parse_alpha(args.alpha)
    n = int(args.N)
    xs = _fractions(args.X)

    def rows_at(alpha) -> list[tuple]:
        # the whole alpha is redone at more bits on a PrecisionError
        seq = paircorr.quadratic_sequence(alpha, n)
        rows = []
        for x in xs:
            res = paircorr.pair_correlation(seq, x)
            r0 = fmt_float(paircorr.weighted_pair_correlation(seq, x).r0) if x > 0 else ""
            rows.append((args.alpha, n, fmt_float(x), fmt_float(res.r), r0, res.method))
        return rows

    return eval_with_retry(spec, rows_at, int(args.bits))


def _cmd_r0(args) -> list[tuple]:
    spec = parse_alpha(args.alpha)
    n = int(args.N)
    xs = _fractions(args.X)

    def rows_at(alpha) -> list[tuple]:
        # the whole alpha is redone at more bits on a PrecisionError
        seq = paircorr.quadratic_sequence(alpha, n)
        rows = []
        for x in xs:
            rep = paircorr.verify_integral_identities(seq, x)
            rows.append(
                (
                    args.alpha, n, fmt_float(x),
                    fmt_float(rep.r0), fmt_float(rep.int_l), fmt_float(rep.int_l2),
                    rep.int_l_ok, rep.square_ok, rep.square_applicable, rep.additive_ok,
                )
            )
        return rows

    return eval_with_retry(spec, rows_at, int(args.bits))


def _cmd_badset(args) -> list[tuple]:
    eta = Fraction(args.eta)
    rows = []
    for q in range(int(args.qlo), int(args.qhi) + 1):
        members = modcount.bad_set(q, eta)
        rows.append((q, str(eta), len(members), ";".join(map(str, members))))
    return rows


def _cmd_dispersion(args) -> list[tuple]:
    eta = Fraction(args.eta)
    if args.q:
        moduli = [int(t) for t in args.q.split(",")]
    elif args.qlo and args.qhi:
        moduli = list(range(int(args.qlo), int(args.qhi) + 1))
    else:
        raise ValueError("dispersion needs --q or both --qlo and --qhi")
    n = int(args.N) if args.N else None
    rows = []
    for q in moduli:
        rep = modcount.dispersion_report(q, n=n, eta=eta)
        rows.append(
            (
                q, rep.q1, str(eta),
                fmt_float(rep.sum_delta_sq), fmt_float(rep.bound_value), fmt_float(rep.ratio),
                rep.card_bad_set if rep.card_bad_set is not None else "",
            )
        )
    return rows


def _cmd_construct(args) -> int:
    lo_text, _, hi_text = args.interval.partition(":")
    base = interval(Fraction(lo_text), Fraction(hi_text))
    res = construct_alpha(
        base,
        int(args.qstart),
        int(args.qmax),
        Fraction(args.eta),
        strict_budget=not args.no_strict_budget,
    )
    _emit_json(args, res.certificate)
    return 0


def _cmd_verify_avoidance(args) -> int:
    def hits_at(value) -> list:
        return verify_avoidance(value, int(args.qstart), int(args.qmax), Fraction(args.eta))

    if (args.alpha is None) == (args.x is None):
        raise ValueError("verify-avoidance needs exactly one of --alpha and --x")
    if args.alpha is not None:
        hits = eval_with_retry(parse_alpha(args.alpha), hits_at, int(args.bits))
        label = args.alpha
    else:
        hits = hits_at(Fraction(args.x))
        label = args.x
    payload = {
        "x": label,
        "q_start": int(args.qstart),
        "q_max": int(args.qmax),
        "eta": str(Fraction(args.eta)),
        "violations": [{"q": b.q, "a": b.a, "class": b.cls} for b in hits],
    }
    _emit_json(args, payload)
    return 0


def _cmd_expsum(args) -> int:
    from .expsum import quad_sum

    b = tuple(int(t) for t in args.b.split(","))
    if len(b) != 4:
        raise ValueError("--b needs four comma-separated integers")
    val = quad_sum(b, int(args.q))
    _emit_json(args, {"re": val.re, "im": val.im, "err": val.err, "method": val.method})
    return 0


def _cmd_lattice(args) -> list[tuple]:
    beta_spec = parse_alpha(args.beta)
    delta = Fraction(args.delta)
    bounds = [int(m_text) for m_text in args.M.split(",")]

    def rows_at(beta) -> list[tuple]:
        # every bound is redone at more bits on a PrecisionError
        rows = []
        for m in bounds:
            count = latcount.near_multiple_count(m, beta, delta)
            basis = latcount.pair_lattice(m, beta, delta)
            res = latcount.lattice_square_count(basis)
            rows.append(
                (
                    m, args.beta, fmt_float(delta), count, fmt_float(basis.lambda1),
                    res.count, fmt_float(res.main), fmt_float(res.error_term),
                )
            )
        return rows

    return eval_with_retry(beta_spec, rows_at, int(args.bits))


def _cmd_vcounts(args) -> int:
    alpha_spec = parse_alpha(args.alpha)
    p0 = int(args.P0) if args.P0 else None
    p1 = int(args.P1) if args.P1 else None

    def payload_at(alpha) -> dict:
        # all counts are redone at more bits on a PrecisionError
        spec = latcount.VCountSpec(int(args.A), int(args.B), Fraction(args.delta), alpha, p0, p1)
        payload = {
            "A": spec.a_bound,
            "B": spec.b_bound,
            "delta": str(Fraction(args.delta)),
            "alpha": args.alpha,
            "V": latcount.v_count(spec),
            "V_star": latcount.v_star_count(spec),
        }
        if p0 is not None:
            bins = latcount.v2_count(spec)
            payload["V1"] = latcount.v1_count(spec)
            payload["V2"] = {str(k): v for k, v in sorted(bins.items())}
            payload["partition_ok"] = payload["V"] == payload["V1"] + sum(bins.values())
        return payload

    _emit_json(args, eval_with_retry(alpha_spec, payload_at, int(args.bits)))
    return 0


def _cmd_conjecture2(args) -> list[tuple]:
    n = int(args.N)
    q = int(args.q)
    if q < 2:
        raise ValueError("--q must be >= 2")
    rng = random.Random(int(args.seed))
    rows = []
    for _ in range(int(args.samples)):
        c = rng.randrange(1, q)
        while math.gcd(c, q) != 1:
            c = rng.randrange(1, q)
        res = modcount.hyperbola_ap_count(n, q, c)
        rows.append((n, q, c, res.count, fmt_float(res.expected), fmt_float(res.ratio)))
    return rows


def _cmd_divisor_ap(args) -> int:
    total = modcount.divisor_sum_ap(int(args.M), int(args.q), int(args.s))
    _emit_json(args, {"M": int(args.M), "q": int(args.q), "s": int(args.s), "sum": total})
    return 0


def _cmd_suite(args) -> int:
    from .acceptance import run_suite

    t0 = time.time()
    names = [name for name in args.only.split(",") if name] if args.only else None
    results = run_suite(level=args.level, names=names)
    all_ok = all(r.passed for r in results)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  [{r.elapsed:7.2f}s]  {r.details}")
    total = time.time() - t0
    lines.append(f"suite: {'PASS' if all_ok else 'FAIL'} ({total:.2f}s total)")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        _emit_json(
            args,
            {
                "config": {"level": args.level},
                "criteria": [
                    {"name": r.name, "passed": r.passed, "details": r.details, "seconds": r.elapsed}
                    for r in results
                ],
                "suite_passed": all_ok,
                "wall_clock": total,
            },
        )
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# subcommand declarations

REQUIRED = object()


class Flag(NamedTuple):
    """A flag a subcommand reads.  ``default`` is the value it takes when
    neither the command line nor the config file gives it: ``REQUIRED``
    when one of them must, ``False`` for a switch."""

    default: object = None
    choices: Optional[tuple] = None
    help: Optional[str] = None


class Subcommand(NamedTuple):
    """A subcommand's help line, its handler and the flags it reads, in
    ``--help`` order.  A subcommand with ``columns`` has a handler that
    returns rows of those columns, which main emits as CSV or JSON."""

    help: str
    handler: Callable
    flags: dict
    columns: tuple = ()


_IO = {
    "config": Flag(help="key = value defaults file"),
    "out": Flag(help="output path (default stdout)"),
}
_FORMAT = {"format": Flag("csv", ("csv", "json"))}
_BITS = {"bits": Flag(str(DEFAULT_BITS))}
_ETA = {"eta": Flag("1/200")}

SUBCOMMANDS = {
    "paircorr": Subcommand(
        "pair correlation of a quadratic sequence",
        _cmd_paircorr,
        {
            "alpha": Flag(REQUIRED),
            "N": Flag(REQUIRED),
            "X": Flag(REQUIRED, help="comma-separated window values"),
            **_IO, **_FORMAT, **_BITS,
        },
        ("alpha", "N", "X", "R", "R0", "method"),
    ),
    "r0": Subcommand(
        "weighted correlation and integral identities",
        _cmd_r0,
        {
            "alpha": Flag(REQUIRED),
            "N": Flag(REQUIRED),
            "X": Flag(REQUIRED),
            **_IO, **_FORMAT, **_BITS,
        },
        (
            "alpha", "N", "X", "R0", "intL", "intL2",
            "coverage_ok", "square_ok", "square_applicable", "additive_ok",
        ),
    ),
    "badset": Subcommand(
        "bad residue sets per modulus",
        _cmd_badset,
        {"qlo": Flag(REQUIRED), "qhi": Flag(REQUIRED), **_IO, **_FORMAT, **_ETA},
        ("q", "eta", "card", "members"),
    ),
    "dispersion": Subcommand(
        "dispersion sums vs the benchmark",
        _cmd_dispersion,
        {
            "q": Flag(help="comma-separated moduli"),
            "qlo": Flag(),
            "qhi": Flag(),
            "N": Flag(help="box mode bound (default: running-max mode)"),
            **_IO, **_FORMAT, **_ETA,
        },
        ("q", "q1", "eta", "sum_delta_star_sq", "bound", "ratio", "card_bad_set"),
    ),
    "construct": Subcommand(
        "interval refinement construction",
        _cmd_construct,
        {
            "interval": Flag(REQUIRED, help="lo:hi with rational endpoints"),
            "qstart": Flag(REQUIRED),
            "qmax": Flag(REQUIRED),
            "no_strict_budget": Flag(
                False, help="proceed past the measure precondition, verifying survival per step"
            ),
            **_IO, **_ETA,
        },
    ),
    "verify-avoidance": Subcommand(
        "check a value against the exclusion families",
        _cmd_verify_avoidance,
        {
            "alpha": Flag(help="alpha spec string"),
            "x": Flag(help="rational value, e.g. 7/20"),
            "qstart": Flag(REQUIRED),
            "qmax": Flag(REQUIRED),
            **_IO, **_BITS, **_ETA,
        },
    ),
    "expsum": Subcommand(
        "quadric exponential sum",
        _cmd_expsum,
        {"b": Flag(REQUIRED, help="four comma-separated integers"), "q": Flag(REQUIRED), **_IO},
    ),
    "lattice": Subcommand(
        "near-multiple counts and square sections",
        _cmd_lattice,
        {
            "M": Flag(REQUIRED, help="comma-separated bounds"),
            "beta": Flag(REQUIRED, help="alpha spec string"),
            "delta": Flag(REQUIRED),
            **_IO, **_FORMAT, **_BITS,
        },
        ("M", "beta", "delta", "R", "lambda1", "count", "main", "error_term"),
    ),
    "vcounts": Subcommand(
        "coprime triple box counts",
        _cmd_vcounts,
        {
            "A": Flag(REQUIRED),
            "B": Flag(REQUIRED),
            "delta": Flag(REQUIRED),
            "alpha": Flag(REQUIRED),
            "P0": Flag(),
            "P1": Flag(),
            **_IO, **_BITS,
        },
    ),
    "conjecture2": Subcommand(
        "hyperbola box counts at unit residues",
        _cmd_conjecture2,
        {
            "N": Flag(REQUIRED),
            "q": Flag(REQUIRED),
            "samples": Flag("50"),
            **_IO, **_FORMAT,
            "seed": Flag("0"),
        },
        ("N", "q", "c", "count", "expected", "ratio"),
    ),
    "divisor-ap": Subcommand(
        "divisor sum in a progression",
        _cmd_divisor_ap,
        {"M": Flag(REQUIRED), "q": Flag(REQUIRED), "s": Flag(REQUIRED), **_IO},
    ),
    "suite": Subcommand(
        "run the acceptance criteria",
        _cmd_suite,
        {
            "level": Flag("desk", ("desk", "quick")),
            "only": Flag(help="comma-separated criterion names, e.g. A1,A3"),
            **_IO,
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per entry of SUBCOMMANDS, accepting exactly the flags
    it declares.  Every flag not given on the command line is left unset
    for _apply_config to fill."""
    parser = argparse.ArgumentParser(prog="quadpair")
    sub = parser.add_subparsers(
        dest="subcommand",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, argument_default=argparse.SUPPRESS),
    )
    for name, cmd in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for key, flag in cmd.flags.items():
            if flag.default is False:
                p.add_argument("--" + key.replace("_", "-"), action="store_true", help=flag.help)
            else:
                p.add_argument("--" + key, choices=flag.choices, help=flag.help)
    return parser


def _apply_config(args, flags: dict) -> None:
    """Fill every flag in ``flags`` the command line left unset: from the
    config file when it has the key, else from the flag's default.
    Explicit flags always win.  The file's value for each of these flags is
    checked as the command line checks the flag: against its choices, and
    ``true`` or ``false`` for a switch.  Keys for other flags are ignored."""
    config = load_config(args.config) if hasattr(args, "config") else {}
    for key, flag in flags.items():
        value = config.get(key, flag.default)
        if key in config:
            allowed = ("true", "false") if flag.default is False else flag.choices
            if allowed and value not in allowed:
                raise ValueError(f"config key {key} must be {' or '.join(allowed)}, got {value!r}")
            if flag.default is False:
                value = value == "true"
        if not hasattr(args, key):
            setattr(args, key, value)
    missing = [f"--{key}" for key in flags if getattr(args, key) is REQUIRED]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    cmd = SUBCOMMANDS[args.subcommand]
    try:
        _apply_config(args, cmd.flags)
        if not cmd.columns:
            return cmd.handler(args)
        _emit_rows(args, cmd.columns, cmd.handler(args))
        return 0
    except (QuadpairError, ValueError, ArithmeticError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
