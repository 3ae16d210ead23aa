"""Command-line interface emitting deterministic JSON verification reports.

Subcommands: verify, solve, derive, padic, entropy, cocycle, tables, list.
Reports carry ``schema: 1``, echo the effective configuration, and list one
record per (check, prime) pair in a fixed order, so a fixed configuration
and seed always produce byte-identical output.  The process exits 0 exactly
when every record that carries an expectation passes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import BadParams, FinpolylogError
from . import catalog as _catalog
from . import cocycle as _cocycle
from . import padic as _padic
from . import solver as _solver
from .derivation import parse_derivation, derive, standard_derivation, verify_derived
from .fields import is_prime
from .finlog import kummer_congruence, special_values, special_values_csv

BUDGET_ENV = "FINPOLYLOG_BUDGET"


def _int(text: str, what: str) -> int:
    """``int(text)``, raising BadParams on malformed input."""
    try:
        return int(text)
    except ValueError:
        raise BadParams(f"{what}: expected an integer, got {text!r}") from None


def parse_primes(text: str) -> list:
    """Parse a prime list: comma-separated values and ``a..b`` ranges.

    Ranges expand to the primes they contain; explicit values must be odd
    primes.
    """
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ".." in piece:
            lo, hi = piece.split("..", 1)
            lo, hi = _int(lo, "prime range"), _int(hi, "prime range")
            out.extend(n for n in range(max(lo, 3), hi + 1) if is_prime(n))
        else:
            n = _int(piece, "prime")
            if not is_prime(n) or n == 2:
                raise BadParams(f"{n} is not an odd prime")
            out.append(n)
    if not out:
        raise BadParams(f"no primes in {text!r}")
    return out


def load_config(path: str) -> dict:
    """Read a key=value config file; blank lines and # comments ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise BadParams(f"cannot read config {path}: {exc.strerror}") from None
    conf = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise BadParams(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        conf[key.strip()] = value.strip()
    return conf


def _default_budget() -> int:
    env = os.environ.get(BUDGET_ENV)
    if env is not None:
        budget = _int(env, BUDGET_ENV)
        if budget <= 0:
            raise BadParams(f"{BUDGET_ENV} must be positive")
        return budget
    return _catalog.DEFAULT_WEAK_BUDGET


class Report:
    """Accumulates check records and serializes them deterministically."""

    def __init__(self, command: str, config: dict, timings: bool = False):
        self.command = command
        self.config = config
        self.timings = timings
        self.records = []

    def add(self, record: dict, expected: bool | None = True, repro: str | None = None):
        if expected is not None:
            record["expected"] = expected
            if repro and record.get("holds", True) != expected:
                record["reproduce"] = repro
        self.records.append(record)

    def timed(self, fn):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        return result, (round(elapsed, 3) if self.timings else None)

    @property
    def ok(self) -> bool:
        return all(
            r.get("holds", True) == r["expected"]
            for r in self.records
            if "expected" in r
        )

    def as_dict(self) -> dict:
        tagged = [r for r in self.records if "expected" in r]
        passed = sum(1 for r in tagged if r.get("holds", True) == r["expected"])
        return {
            "schema": 1,
            "tool": "finpolylog",
            "version": __version__,
            "command": self.command,
            "config": self.config,
            "records": self.records,
            "summary": {
                "records": len(self.records),
                "checked": len(tagged),
                "passed": passed,
                "failed": len(tagged) - passed,
            },
        }

    def emit(self, stream) -> None:
        json.dump(self.as_dict(), stream, indent=2)
        stream.write("\n")


def _parse_params(text: str) -> dict:
    params = {}
    if not text:
        return params
    for piece in text.split(","):
        if "=" not in piece:
            raise BadParams(f"--params: expected key=value, got {piece!r}")
        key, value = piece.split("=", 1)
        key = key.strip()
        value = value.strip()
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    return params


def _finite_suite(p: int):
    """The full finite-equation suite at p: the fixed list, less the
    entries whose weight p does not allow, plus the distribution
    relations for m = 2 and every divisor m of p-1."""
    suite = [job for job in _catalog.STRONG_SUITE if _catalog.weight_fits(job[0], p)]
    ms = sorted({2} | {m for m in range(2, p) if (p - 1) % m == 0})
    for m in ms:
        for n in (1, 2):
            suite.append(("distribution", {"n": n, "m": m}))
    return suite


def _record_stub(eq_id: str, params: dict, p: int, mode: str) -> dict:
    rec = {"id": eq_id, "p": p, "mode": mode}
    if params:
        rec["params"] = dict(sorted(params.items()))
    return rec


def cmd_verify(args, report: Report) -> None:
    primes = parse_primes(args.p)
    params = _parse_params(args.params)
    modes = ("strong", "weak") if args.mode == "both" else (args.mode,)
    for p in primes:
        if args.eq == "all-finite":
            jobs = _finite_suite(p)
        else:
            jobs = [(eq_id, params) for eq_id in args.eq.split(",")]
        for eq_id, eq_params in jobs:
            s = _catalog.build(eq_id, p, **eq_params)
            for mode in modes:
                rec = _record_stub(eq_id, eq_params, p, mode)
                if mode == "strong":
                    verdict, secs = report.timed(lambda: _catalog.verify_strong(s))
                else:
                    verdict, secs = report.timed(
                        lambda: _catalog.verify_weak(
                            s, p, budget=args.budget, seed=args.seed
                        )
                    )
                rec.update(verdict.as_dict())
                if secs is not None:
                    rec["seconds"] = secs
                repro = f"finpolylog verify --eq {eq_id} --p {p} --mode {mode}"
                report.add(rec, expected=not args.expect_fail, repro=repro)


def cmd_solve(args, report: Report) -> None:
    primes = parse_primes(args.p)
    # presets of this call share their constraints' reductions
    reductions = {}
    for preset in args.preset.split(","):
        preset = preset.strip()
        if preset not in _solver.PRESETS:
            raise BadParams(f"unknown preset {preset!r}")
        expected_dim = _solver.PRESETS[preset]["expected_dim"]
        for p in primes:
            result, secs = report.timed(
                lambda: _solver.characterize(preset, p, reductions)
            )
            rec = result.as_dict()
            if expected_dim is not None:
                rec["expected_dimension"] = expected_dim
                rec["holds"] = (
                    result.dimension == expected_dim and result.contains_target
                )
            else:
                floor_dim = (p - 1) // 3 + 1
                rec["expected_dimension_at_least"] = floor_dim
                rec["holds"] = result.dimension >= floor_dim and result.contains_target
            if secs is not None:
                rec["seconds"] = secs
            repro = f"finpolylog solve --preset {preset} --p {p}"
            report.add(rec, expected=True, repro=repro)


def cmd_derive(args, report: Report) -> None:
    if not _catalog.entry_info(args.eq)["classical"]:
        raise BadParams(f"derive needs a classical catalog id, got {args.eq!r}")
    p = args.verify if args.verify else (parse_primes(args.p)[0] if args.p else 11)
    s = _catalog.build(args.eq, p)
    if args.derivation:
        d = parse_derivation(args.derivation, s.variables, p)
    else:
        d = standard_derivation(s.variables, p)
    derived, notices = derive(s, d)
    rec = {
        "id": args.eq,
        "p": p,
        "derived_weight": derived.weight,
        "derived": derived.serialize(),
        "dropped_constant_terms": notices,
    }
    if args.verify:
        verdicts = verify_derived(derived, p, budget=args.budget, seed=args.seed)
        rec["weak"] = verdicts["weak"].as_dict()
        rec["strong"] = verdicts["strong"].as_dict()
        rec["holds"] = verdicts["weak"].holds
        repro = (
            f"finpolylog derive --eq {args.eq} "
            f"--derivation \"{args.derivation}\" --verify {p}"
        )
        report.add(rec, expected=not args.expect_fail, repro=repro)
    else:
        report.add(rec, expected=None)


def _parse_int_range(text: str) -> list:
    """Parse levels: an ``a..b`` range or a comma list; never empty."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        levels = list(range(_int(lo, "level range"), _int(hi, "level range") + 1))
        if not levels:
            raise BadParams(f"no levels in {text!r}")
        return levels
    return [_int(x, "level") for x in text.split(",")]


def cmd_padic(args, report: Report) -> None:
    did_something = False
    if args.clean:
        did_something = True
        for n in _parse_int_range(args.clean):
            coeffs = _padic.besser_coefficients(n)
            rec = {
                "check": "clean",
                "n": n,
                "coefficients": [str(c) for c in coeffs],
                "holds": _padic.clean_check(coeffs, n),
            }
            report.add(rec, expected=True, repro=f"finpolylog padic --clean {n}")
    if args.recursion:
        did_something = True
        for n in _parse_int_range(args.recursion):
            rec = {"check": "recursion", "n": n, "holds": _padic.verify_recursion(n)}
            report.add(rec, expected=True, repro=f"finpolylog padic --recursion {n}")
    if args.family:
        did_something = True
        choices = {}
        for piece in args.family.split(","):
            key, _, value = piece.partition("=")
            key = key.strip()
            if not key.startswith("lambda"):
                raise BadParams(f"family keys look like lambda3=...; got {key!r}")
            try:
                choices[_int(key[len("lambda"):], "family key")] = Fraction(
                    value.strip()
                )
            except (ValueError, ZeroDivisionError):
                raise BadParams(f"family value: not a rational, got {value!r}") from None
        n_max = max(choices) if choices else 2
        fam = _padic.construct_family(n_max, choices)
        rec = {"check": "family", "n_max": n_max}
        rec.update(fam.as_dict())
        report.add(rec, expected=None)
    if not did_something:
        raise BadParams("padic needs at least one of --clean/--recursion/--family")


def cmd_entropy(args, report: Report) -> None:
    primes = parse_primes(args.p)
    probs = [piece.strip() for piece in args.probs.split(",")]
    for p in primes:
        value = _cocycle.entropy_mod_p(probs, p)
        orders = _cocycle.all_ordering_values(probs, p) if len(probs) <= 6 else None
        rec = {"p": p, "probs": probs, "entropy": value}
        if orders is not None:
            rec["order_independent"] = orders == {value} or not orders
            rec["holds"] = rec["order_independent"]
            report.add(
                rec,
                expected=True,
                repro=f"finpolylog entropy --p {p} --probs {args.probs}",
            )
        else:
            report.add(rec, expected=None)


_COCYCLE_CHECKS = ("cocycle", "coboundary", "group", "homogeneity", "eqB", "eqC")


def cmd_cocycle(args, report: Report) -> None:
    primes = parse_primes(args.p)
    checks = _COCYCLE_CHECKS if args.check == "all" else tuple(args.check.split(","))
    for name in checks:
        if name not in _COCYCLE_CHECKS:
            raise BadParams(f"unknown cocycle check {name!r}")
    for p in primes:
        for name in checks:
            rec = {"check": name, "p": p}
            repro = f"finpolylog cocycle --p {p} --check {name}"
            if name == "cocycle":
                rec.update(_cocycle.check_cocycle(p).as_dict())
            elif name == "homogeneity":
                rec.update(_cocycle.check_homogeneity(p).as_dict())
            elif name == "eqB":
                rec.update(_cocycle.check_equation_B(p).as_dict())
            elif name == "eqC":
                rec.update(_cocycle.check_equation_C(p).as_dict())
            elif name == "group":
                rec.update(_cocycle.group_check(p).as_dict())
            elif name == "coboundary":
                result = _cocycle.coboundary_solve(p)
                rec["consistent"] = result["consistent"]
                if result["consistent"]:
                    rec["psi"] = result["psi"]
                    rec["holds"] = False  # the class is expected nonzero
                else:
                    cert = result["certificate"]
                    rec["certificate"] = {
                        "rows": [list(pair) for pair in cert["rows"]],
                        "multipliers": cert["multipliers"],
                        "rhs_value": cert["rhs_value"],
                    }
                    rec["holds"] = _cocycle.verify_certificate(p, cert)
            report.add(rec, expected=True, repro=repro)


def cmd_tables(args, report: Report, out) -> bool:
    primes = parse_primes(args.p)
    if args.format == "csv":
        ok = True
        for i, p in enumerate(primes):
            rows = special_values(p)
            lines = special_values_csv(rows).splitlines(keepends=True)
            out.writelines(lines if i == 0 else lines[1:])
            ok = ok and all(r["status"] in ("ok", "logged") for r in rows)
        if args.kummer:
            for p in primes:
                for m in range(2, args.kummer + 1, 2):
                    good = kummer_congruence(p, m)
                    out.write(f"{p},kummer_congruence,{m},-1,,,"
                              f"{'ok' if good else 'mismatch'}\n")
                    ok = ok and good
        return ok
    for p in primes:
        rows = special_values(p)
        rec = {
            "p": p,
            "rows": rows,
            "holds": all(r["status"] in ("ok", "logged") for r in rows),
        }
        report.add(rec, expected=True, repro=f"finpolylog tables --p {p}")
        if args.kummer:
            for m in range(2, args.kummer + 1, 2):
                report.add(
                    {
                        "p": p,
                        "check": "kummer_congruence",
                        "m": m,
                        "holds": kummer_congruence(p, m),
                    },
                    expected=True,
                    repro=f"finpolylog tables --p {p} --kummer {m}",
                )
    return report.ok


def cmd_list(args, report: Report) -> None:
    aliases = {}
    for key, eq_id in _catalog.DISPLAY_MAP.items():
        aliases.setdefault(eq_id, []).append(key)
    for eq_id in _catalog.catalog_ids():
        info = _catalog.entry_info(eq_id)
        s = _catalog.build(eq_id, 7)
        rec = {
            "id": eq_id,
            "weight": info["weight"],
            "variables": list(info["variables"]),
            "classical": info["classical"],
            "params": info["params"],
            "terms": len(s.terms),
            "aliases": sorted(aliases.get(eq_id, [])),
        }
        report.add(rec, expected=None)


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finpolylog",
        description="Exact verification of finite polylogarithm identities.",
    )
    parser.add_argument("--config", help="key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", help="write the JSON report to this path")
        sp.add_argument("--budget", type=int, default=None,
                        help="point budget for sampled weak checks")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks")
        sp.add_argument("--timings", action="store_true",
                        help="include wall-clock timings (breaks byte determinism)")

    sp = sub.add_parser("verify", help="strong/weak verification of catalog entries")
    sp.add_argument("--eq", required=True,
                    help="catalog id(s), comma separated, or all-finite")
    sp.add_argument("--p", required=True, help="primes: comma list and a..b ranges")
    sp.add_argument("--mode", choices=("strong", "weak", "both"), default="strong")
    sp.add_argument("--params", default="", help="entry parameters, e.g. n=2,m=2")
    sp.add_argument("--expect-fail", action="store_true",
                    help="treat failing verdicts as the expected outcome")
    common(sp)

    sp = sub.add_parser("solve", help="characterize polynomial solution spaces")
    sp.add_argument("--preset", required=True, help="preset name(s), comma separated")
    sp.add_argument("--p", required=True)
    common(sp)

    sp = sub.add_parser("derive", help="differentiate a classical equation")
    sp.add_argument("--eq", required=True, help="classical catalog id")
    sp.add_argument("--derivation", default="",
                    help='coefficients as "var:expr;var:expr"; default t(1-t) d/dt')
    sp.add_argument("--verify", type=int, default=0,
                    help="verify the derived sum over GF(p) for this prime")
    sp.add_argument("--p", default="", help="prime for building when not verifying")
    sp.add_argument("--expect-fail", action="store_true")
    common(sp)

    sp = sub.add_parser("padic", help="symbolic clean polylogarithm checks")
    sp.add_argument("--clean", default="", help="levels, e.g. 2..12")
    sp.add_argument("--recursion", default="", help="levels, e.g. 3..10")
    sp.add_argument("--family", default="",
                    help="lambda choices, e.g. lambda3=1/2,lambda4=2/3")
    common(sp)

    sp = sub.add_parser("entropy", help="entropy of a rational distribution mod p")
    sp.add_argument("--p", required=True)
    sp.add_argument("--probs", required=True, help="e.g. 1/4,1/4,1/2")
    common(sp)

    sp = sub.add_parser("cocycle", help="2-cocycle, coboundary, and group checks")
    sp.add_argument("--p", required=True)
    sp.add_argument("--check", default="all",
                    help="all or a comma list of: " + ",".join(_COCYCLE_CHECKS))
    common(sp)

    sp = sub.add_parser("tables", help="special-value tables")
    sp.add_argument("--p", required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--kummer", type=int, default=0,
                    help="also check the Genocchi congruence for even m up to this")
    common(sp)

    sp = sub.add_parser("list", help="list the equation catalog")
    common(sp)
    return parser


def _apply_config(parser, argv):
    """Parse argv, letting a config file provide defaults that flags override."""
    args = parser.parse_args(argv)
    if args.config:
        conf = load_config(args.config)
        seen = {a.lstrip("-").split("=")[0].replace("-", "_") for a in argv if a.startswith("--")}
        for key, value in conf.items():
            attr = key.replace("-", "_")
            if attr in ("config", "command") or attr in seen:
                continue
            if hasattr(args, attr):
                current = getattr(args, attr)
                if isinstance(current, bool):
                    setattr(args, attr, value.lower() in ("1", "true", "yes"))
                elif isinstance(current, int) or attr == "budget":
                    # --budget defaults to None and is resolved after parsing
                    setattr(args, attr, _int(value, f"config {key}"))
                else:
                    setattr(args, attr, value)
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, sys.argv[1:] if argv is None else list(argv))
        if getattr(args, "budget", None) is None:
            args.budget = _default_budget()
        elif args.budget <= 0:
            raise BadParams("--budget must be positive")
        return _run(args)
    except FinpolylogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    echo = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("config", "output") and not (v is None or v == "" or v is False)
    }
    report = Report(args.command, echo, timings=getattr(args, "timings", False))

    out = sys.stdout
    close = False
    if getattr(args, "output", None):
        try:
            out = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            raise BadParams(f"cannot write {args.output}: {exc.strerror}") from None
        close = True
    try:
        if args.command == "verify":
            cmd_verify(args, report)
        elif args.command == "solve":
            cmd_solve(args, report)
        elif args.command == "derive":
            cmd_derive(args, report)
        elif args.command == "padic":
            cmd_padic(args, report)
        elif args.command == "entropy":
            cmd_entropy(args, report)
        elif args.command == "cocycle":
            cmd_cocycle(args, report)
        elif args.command == "tables":
            ok = cmd_tables(args, report, out)
            if args.format == "csv":
                return 0 if ok else 1
        elif args.command == "list":
            cmd_list(args, report)
        report.emit(out)
        return 0 if report.ok else 1
    finally:
        if close:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
