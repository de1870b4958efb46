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
from typing import Optional

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


def _emit_rows(args, header: list[str], rows: list[dict]) -> None:
    if args.format == "json":
        text = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(str(row[h]) for h in header))
        text = "\n".join(lines) + "\n"
    _write_text(args.out, text)


def _emit_json(args, payload) -> None:
    _write_text(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _fractions(text: str) -> list[Fraction]:
    return [Fraction(part) for part in text.split(",") if part != ""]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_paircorr(args) -> int:
    spec = parse_alpha(args.alpha)
    n = int(args.N)
    xs = _fractions(args.X)

    def rows_at(alpha) -> list[dict]:
        # the whole alpha is redone at more bits on a PrecisionError
        seq = paircorr.quadratic_sequence(alpha, n)
        rows = []
        for x in xs:
            res = paircorr.pair_correlation(seq, x)
            r0 = paircorr.weighted_pair_correlation(seq, x).r0 if x > 0 else ""
            rows.append(
                {
                    "alpha": args.alpha,
                    "N": n,
                    "X": fmt_float(x),
                    "R": fmt_float(res.r),
                    "R0": fmt_float(r0) if r0 != "" else "",
                    "method": res.method,
                }
            )
        return rows

    rows = eval_with_retry(spec, rows_at, int(args.bits))
    _emit_rows(args, ["alpha", "N", "X", "R", "R0", "method"], rows)
    return 0


def _cmd_r0(args) -> int:
    spec = parse_alpha(args.alpha)
    n = int(args.N)
    xs = _fractions(args.X)

    def rows_at(alpha) -> list[dict]:
        # the whole alpha is redone at more bits on a PrecisionError
        seq = paircorr.quadratic_sequence(alpha, n)
        rows = []
        for x in xs:
            rep = paircorr.verify_integral_identities(seq, x)
            rows.append(
                {
                    "alpha": args.alpha,
                    "N": n,
                    "X": fmt_float(x),
                    "R0": fmt_float(rep.r0),
                    "intL": fmt_float(rep.int_l),
                    "intL2": fmt_float(rep.int_l2),
                    "coverage_ok": rep.int_l_ok,
                    "square_ok": rep.square_ok,
                    "square_applicable": rep.square_applicable,
                    "additive_ok": rep.additive_ok,
                }
            )
        return rows

    rows = eval_with_retry(spec, rows_at, int(args.bits))
    _emit_rows(
        args,
        ["alpha", "N", "X", "R0", "intL", "intL2", "coverage_ok", "square_ok", "square_applicable", "additive_ok"],
        rows,
    )
    return 0


def _cmd_badset(args) -> int:
    eta = Fraction(args.eta)
    rows = []
    for q in range(int(args.qlo), int(args.qhi) + 1):
        members = modcount.bad_set(q, eta)
        rows.append(
            {
                "q": q,
                "eta": str(eta),
                "card": len(members),
                "members": ";".join(map(str, members)),
            }
        )
    _emit_rows(args, ["q", "eta", "card", "members"], rows)
    return 0


def _cmd_dispersion(args) -> int:
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
            {
                "q": q,
                "q1": rep.q1,
                "eta": str(eta),
                "sum_delta_star_sq": fmt_float(rep.sum_delta_sq),
                "bound": fmt_float(rep.bound_value),
                "ratio": fmt_float(rep.ratio),
                "card_bad_set": rep.card_bad_set if rep.card_bad_set is not None else "",
            }
        )
    _emit_rows(
        args, ["q", "q1", "eta", "sum_delta_star_sq", "bound", "ratio", "card_bad_set"], rows
    )
    return 0


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


def _cmd_lattice(args) -> int:
    beta_spec = parse_alpha(args.beta)
    delta = Fraction(args.delta)
    bounds = [int(m_text) for m_text in args.M.split(",")]

    def rows_at(beta) -> list[dict]:
        # every bound is redone at more bits on a PrecisionError
        rows = []
        for m in bounds:
            count = latcount.near_multiple_count(m, beta, delta)
            basis = latcount.pair_lattice(m, beta, delta)
            res = latcount.lattice_square_count(basis)
            rows.append(
                {
                    "M": m,
                    "beta": args.beta,
                    "delta": fmt_float(delta),
                    "R": count,
                    "lambda1": fmt_float(basis.lambda1),
                    "count": res.count,
                    "main": fmt_float(res.main),
                    "error_term": fmt_float(res.error_term),
                }
            )
        return rows

    rows = eval_with_retry(beta_spec, rows_at, int(args.bits))
    _emit_rows(
        args, ["M", "beta", "delta", "R", "lambda1", "count", "main", "error_term"], rows
    )
    return 0


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


def _cmd_conjecture2(args) -> int:
    n = int(args.N)
    q = int(args.q)
    rng = random.Random(int(args.seed))
    rows = []
    for _ in range(int(args.samples)):
        c = rng.randrange(1, q)
        while math.gcd(c, q) != 1:
            c = rng.randrange(1, q)
        res = modcount.hyperbola_ap_count(n, q, c)
        rows.append(
            {
                "N": n,
                "q": q,
                "c": c,
                "count": res.count,
                "expected": fmt_float(res.expected),
                "ratio": fmt_float(res.ratio),
            }
        )
    _emit_rows(args, ["N", "q", "c", "count", "expected", "ratio"], rows)
    return 0


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
    lines.append(f"suite: {'PASS' if all_ok else 'FAIL'} ({time.time() - t0:.2f}s total)")
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
                "wall_clock": time.time() - t0,
            },
        )
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value defaults file")
    p.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    """Subcommand parsers leave every flag not given on the command line
    unset; _apply_config fills those from the config file or _DEFAULTS.
    Each subcommand accepts only the flags its handler reads, and names in
    ``required`` the ones that the command line or the config file must
    supply."""
    parser = argparse.ArgumentParser(prog="quadpair")
    sub = parser.add_subparsers(
        dest="subcommand",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, argument_default=argparse.SUPPRESS),
    )

    p = sub.add_parser("paircorr", help="pair correlation of a quadratic sequence")
    p.add_argument("--alpha")
    p.add_argument("--N")
    p.add_argument("--X", help="comma-separated window values")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--bits")
    p.set_defaults(handler=_cmd_paircorr, required=("alpha", "N", "X"))

    p = sub.add_parser("r0", help="weighted correlation and integral identities")
    p.add_argument("--alpha")
    p.add_argument("--N")
    p.add_argument("--X")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--bits")
    p.set_defaults(handler=_cmd_r0, required=("alpha", "N", "X"))

    p = sub.add_parser("badset", help="bad residue sets per modulus")
    p.add_argument("--qlo")
    p.add_argument("--qhi")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--eta")
    p.set_defaults(handler=_cmd_badset, required=("qlo", "qhi"))

    p = sub.add_parser("dispersion", help="dispersion sums vs the benchmark")
    p.add_argument("--q", help="comma-separated moduli")
    p.add_argument("--qlo")
    p.add_argument("--qhi")
    p.add_argument("--N", help="box mode bound (default: running-max mode)")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--eta")
    p.set_defaults(handler=_cmd_dispersion, required=())

    p = sub.add_parser("construct", help="interval refinement construction")
    p.add_argument("--interval", help="lo:hi with rational endpoints")
    p.add_argument("--qstart")
    p.add_argument("--qmax")
    p.add_argument(
        "--no-strict-budget",
        action="store_true",
        help="proceed past the measure precondition, verifying survival per step",
    )
    _add_common(p)
    p.add_argument("--eta")
    p.set_defaults(handler=_cmd_construct, required=("interval", "qstart", "qmax"))

    p = sub.add_parser("verify-avoidance", help="check a value against the exclusion families")
    p.add_argument("--alpha", help="alpha spec string")
    p.add_argument("--x", help="rational value, e.g. 7/20")
    p.add_argument("--qstart")
    p.add_argument("--qmax")
    _add_common(p)
    p.add_argument("--bits")
    p.add_argument("--eta")
    p.set_defaults(handler=_cmd_verify_avoidance, required=("qstart", "qmax"))

    p = sub.add_parser("expsum", help="quadric exponential sum")
    p.add_argument("--b", help="four comma-separated integers")
    p.add_argument("--q")
    _add_common(p)
    p.set_defaults(handler=_cmd_expsum, required=("b", "q"))

    p = sub.add_parser("lattice", help="near-multiple counts and square sections")
    p.add_argument("--M", help="comma-separated bounds")
    p.add_argument("--beta", help="alpha spec string")
    p.add_argument("--delta")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--bits")
    p.set_defaults(handler=_cmd_lattice, required=("M", "beta", "delta"))

    p = sub.add_parser("vcounts", help="coprime triple box counts")
    p.add_argument("--A")
    p.add_argument("--B")
    p.add_argument("--delta")
    p.add_argument("--alpha")
    p.add_argument("--P0")
    p.add_argument("--P1")
    _add_common(p)
    p.add_argument("--bits")
    p.set_defaults(handler=_cmd_vcounts, required=("A", "B", "delta", "alpha"))

    p = sub.add_parser("conjecture2", help="hyperbola box counts at unit residues")
    p.add_argument("--N")
    p.add_argument("--q")
    p.add_argument("--samples")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--seed")
    p.set_defaults(handler=_cmd_conjecture2, required=("N", "q"))

    p = sub.add_parser("divisor-ap", help="divisor sum in a progression")
    p.add_argument("--M")
    p.add_argument("--q")
    p.add_argument("--s")
    _add_common(p)
    p.set_defaults(handler=_cmd_divisor_ap, required=("M", "q", "s"))

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--level", choices=("desk", "quick"))
    p.add_argument("--only", help="comma-separated criterion names, e.g. A1,A3")
    _add_common(p)
    p.set_defaults(handler=_cmd_suite, required=())

    return parser


_DEFAULTS = {
    "config": None,
    "out": None,
    "format": "csv",
    "seed": "0",
    "bits": str(DEFAULT_BITS),
    "eta": "1/200",
    "alpha": None,
    "x": None,
    "q": None,
    "qlo": None,
    "qhi": None,
    "N": None,
    "P0": None,
    "P1": None,
    "no_strict_budget": False,
    "samples": "50",
    "level": "desk",
    "only": None,
}


def _apply_config(args) -> None:
    """Fill every flag the command line left unset: from the config file
    when it has the key, else from _DEFAULTS.  Explicit flags always win.
    A boolean key in the file reads ``true`` or ``false``."""
    config = load_config(args.config) if hasattr(args, "config") else {}
    for key, value in config.items():
        if isinstance(_DEFAULTS.get(key), bool):
            if value not in ("true", "false"):
                raise ValueError(f"config key {key} must be true or false, got {value!r}")
            config[key] = value == "true"
    for key, value in [*config.items(), *_DEFAULTS.items()]:
        if not hasattr(args, key):
            setattr(args, key, value)
    missing = [f"--{key}" for key in args.required if getattr(args, key, None) is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _apply_config(args)
        return args.handler(args)
    except (QuadpairError, ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
