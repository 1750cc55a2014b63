"""Command-line front end.

Subcommands: ``entropy`` (measure a distribution file), ``stability`` (run a
Lesche sweep), ``limits`` (order -> 1_D convergence table), ``verify`` (run
the cross-module invariant suite).

Exit codes: 0 ok, 1 I/O failure, 2 validation failure, 3 non-convergence,
4 invariant failure.  Numbers are serialized with 17 significant digits so
emitted CSV round-trips exactly.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import math
import sys
import types
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence, Union

from . import distributions as dist
from . import measures
from .errors import HypentropyError, NonConvergent, ParseError
from .hyperbolic import HyperbolicNumber, embed_real
from .stability import StabilityRecord, SweepConfig, stability_sweep


def _load_on_first_use(package: str, name: str) -> types.ModuleType:
    """The submodule ``package.name``, imported as usual but executed only
    when one of its attributes is first read."""
    full = f"{package}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[package], name, module)
    return sys.modules[full]


# Only the verify command runs the invariant suite, so no other command
# compiles it: a fresh interpreter compiles every module it executes when no
# bytecode is written.
verify = _load_on_first_use(__package__, "verify")

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENT = 3
EXIT_INVARIANT = 4

STABILITY_CSV_HEADER = [
    "family", "measure", "order_e1", "order_e2", "N", "delta",
    "norm_e1", "norm_e2", "ratio_e1", "ratio_e2", "error",
]

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _json_scalar(v) -> str:
    """A float, str, None, bool or int as ``json.dumps`` writes it."""
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"a JSON table cell cannot be a {type(v).__name__}")


def _json_table(rows: Sequence[dict]) -> str:
    """``json.dumps(rows, indent=2) + "\\n"``, byte for byte, for rows of
    scalars and lists of scalars.

    json's C encoder serves only ``indent=None``; with an indent, json runs
    its pure-Python encoder, which is slower than the CSV writer."""
    items = []
    for row in rows:
        fields = []
        for key, v in row.items():
            if isinstance(v, (list, tuple)):
                v = ("[\n      " + ",\n      ".join(map(_json_scalar, v))
                     + "\n    ]") if v else "[]"
            else:
                v = _json_scalar(v)
            fields.append(f"{encode_basestring_ascii(key)}: {v}")
        items.append("  {\n    " + ",\n    ".join(fields) + "\n  }"
                     if fields else "  {}")
    return "[\n" + ",\n".join(items) + "\n]\n" if items else "[]\n"


def _parse_order(text: str) -> HyperbolicNumber:
    """Parse "a1,a2" as idempotent coordinates, or a single real as a*1_D."""
    try:
        if "," in text:
            a1, a2 = (float(part) for part in text.split(",", 1))
            return HyperbolicNumber(a1, a2)
        return embed_real(float(text))
    except ValueError:
        raise ParseError(
            f'order must be a real or "a1,a2", got {text!r}') from None


def _load_distribution(path: str
                       ) -> Union[dist.RealDistribution, dist.HyperbolicDistribution]:
    # Malformed text (undecodable bytes, no known format, bad or too deeply
    # nested JSON, a missing key, a non-numeric cell, an integer too large for
    # a float) raises plain Python errors; they become one typed ParseError.
    # OSError passes through as an I/O failure.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return dist.from_text(fh.read())
    except (ValueError, KeyError, TypeError, IndexError, OverflowError,
            RecursionError) as exc:
        raise ParseError(f"malformed distribution in {path!r}: "
                         f"{type(exc).__name__}: {exc}") from None


def _write_output(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _value_columns(value: HyperbolicNumber, basis: str) -> tuple[float, float]:
    if basis == "unit-k":
        return value.to_unit_k()
    return value.x1, value.x2


def _selection(args: argparse.Namespace
               ) -> list[tuple[str, Optional[HyperbolicNumber]]]:
    """(measure, order) per ``--measure``: ``--order`` is parsed once, and
    only a measure that takes an order gets it."""
    order = _parse_order(args.order) if args.order is not None else None
    return [(name, order if measures.MEASURES[name].check else None)
            for name in args.measure]


def cmd_entropy(args: argparse.Namespace) -> int:
    D = _load_distribution(args.input)
    rows = []
    for name, order in _selection(args):
        v1, v2 = _value_columns(measures.evaluate(name, D, order), args.basis)
        o1, o2 = ("", "")
        if order is not None:
            o1, o2 = _fmt(order.x1), _fmt(order.x2)
        rows.append({"measure": name, "order_e1": o1, "order_e2": o2,
                     "value_e1": _fmt(v1), "value_e2": _fmt(v2)})
    if args.format == "json":
        text = _json_table(rows)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, ["measure", "order_e1", "order_e2", "value_e1", "value_e2"],
            lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    _write_output(text, args.output)
    return EXIT_OK


def records_to_csv(records: Sequence[StabilityRecord], basis: str = "idempotent"
                   ) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(STABILITY_CSV_HEADER)
    for rec in records:
        o1, o2 = ("", "")
        if rec.order is not None:
            o1, o2 = _fmt(rec.order.x1), _fmt(rec.order.x2)
        n1, n2 = _value_columns(rec.norm, basis)
        r1, r2 = _value_columns(rec.ratio, basis)
        writer.writerow([
            rec.family, rec.measure, o1, o2, rec.n, _fmt(rec.delta),
            _fmt(n1), _fmt(n2), _fmt(r1), _fmt(r2), rec.error or "",
        ])
    return buf.getvalue()


def records_from_csv(text: str) -> list[StabilityRecord]:
    """Inverse of records_to_csv for idempotent-basis output."""
    reader = csv.DictReader(io.StringIO(text))
    records = []
    for row in reader:
        order = None
        if row["order_e1"]:
            order = HyperbolicNumber(float(row["order_e1"]),
                                     float(row["order_e2"]))
        records.append(StabilityRecord(
            family=row["family"],
            n=int(row["N"]),
            delta=float(row["delta"]),
            measure=row["measure"],
            order=order,
            norm=HyperbolicNumber(float(row["norm_e1"]), float(row["norm_e2"])),
            ratio=HyperbolicNumber(float(row["ratio_e1"]), float(row["ratio_e2"])),
            error=row["error"] or None,
        ))
    return records


def _records_to_json(records: Sequence[StabilityRecord], basis: str) -> str:
    payload = []
    for rec in records:
        payload.append({
            "family": rec.family,
            "measure": rec.measure,
            "order": None if rec.order is None else [rec.order.x1, rec.order.x2],
            "N": rec.n,
            "delta": rec.delta,
            "norm": list(_value_columns(rec.norm, basis)),
            "ratio": list(_value_columns(rec.ratio, basis)),
            "error": rec.error,
        })
    return _json_table(payload)


def _integral(token: str) -> int:
    """An integer token, or a finite float one of integral value such as
    ``1e5``, read exactly: ``1e23`` is 10**23, not the float nearest it."""
    try:
        return int(token)
    except ValueError:
        if not math.isfinite(float(token)):
            raise
        from decimal import Decimal
        value = Decimal(token)
        if value != value.to_integral_value():
            raise
        return int(value)


def _parse_grid(text: str, kind, what: str) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ParseError(
            f"grid must be comma-separated {what} values, "
            f"got {text!r}") from None


def cmd_stability(args: argparse.Namespace) -> int:
    selection = _selection(args)
    config = SweepConfig(
        families=args.family,
        n_grid=_parse_grid(args.n_grid, _integral, "integer"),
        delta_grid=_parse_grid(args.delta_grid, float, "float"),
        measures=selection,
        seed=args.seed,
    )
    records = stability_sweep(config)
    if args.format == "json":
        text = _records_to_json(records, args.basis)
    else:
        text = records_to_csv(records, args.basis)
    _write_output(text, args.output)
    return EXIT_OK


def cmd_limits(args: argparse.Namespace) -> int:
    # A NaN tolerance would pass every check and a negative one fail every
    # check; 0 is the strictest.
    if not 0.0 <= args.tol < float("inf"):
        raise ParseError(
            f"--tol must be finite and non-negative, got {args.tol!r}")
    D = _load_distribution(args.input)
    B = dist.embed(D) if isinstance(D, dist.RealDistribution) else D

    orders = [embed_real(1.0 + sign * 10.0 ** (-k))
              for k in range(1, 7) for sign in (+1.0, -1.0)]
    result = measures.renyi_hyp_limit_table(B, orders)
    lines = [f"{'order_e1':>12} {'order_e2':>12} {'value_e1':>22} {'value_e2':>22}"]
    for a, val in zip(orders, result.table):
        lines.append(f"{a.x1:>12.7f} {a.x2:>12.7f} "
                     f"{val.x1:>22.17g} {val.x2:>22.17g}")

    limit, entropy = result.limit, result.entropy
    diff = (abs(limit.x1 - entropy.x1), abs(limit.x2 - entropy.x2))
    lines.append(f"limit (direct + L'Hopital): {_fmt(limit.x1)} {_fmt(limit.x2)}")
    lines.append(f"strong hyperbolic entropy:  {_fmt(entropy.x1)} {_fmt(entropy.x2)}")
    lines.append(f"componentwise differences:  {_fmt(diff[0])} {_fmt(diff[1])}")
    _write_output("\n".join(lines) + "\n", args.output)
    if max(diff) >= args.tol:
        return EXIT_NONCONVERGENT
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    extra = []
    if args.input is not None:
        # Read before the invariants run, so an OSError exits as an I/O
        # failure; a malformed or invalid file is a failed check.
        try:
            _load_distribution(args.input)
            detail = None
        except HypentropyError as exc:
            detail = f"{type(exc).__name__}: {exc}"
        extra.append(("input-validates", lambda seed: detail))
    results = verify.run_invariants(args.seed, extra=extra)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        suffix = f": {res.detail}" if res.detail and not res.passed else ""
        lines.append(f"{status} {res.name}{suffix}")
    ok = all(res.passed for res in results)
    lines.append(f"{'OK' if ok else 'FAILED'} "
                 f"({sum(r.passed for r in results)}/{len(results)} invariants)")
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK if ok else EXIT_INVARIANT


def _add_output(p: argparse.ArgumentParser, table: bool = False) -> None:
    p.add_argument("--output", default=None,
                   help="output path (default: standard output)")
    if table:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--basis", choices=("idempotent", "unit-k"),
                       default="idempotent",
                       help="display basis for hyperbolic values")


def _entropy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--measure", action="append", required=True,
                   choices=sorted(measures.MEASURES))
    p.add_argument("--order", default=None,
                   help='order as "a1,a2" or a single real meaning a*1_D')
    _add_output(p, table=True)
    p.set_defaults(func=cmd_entropy)


def _stability_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", action="append", required=True,
                   choices=dist.FAMILIES)
    p.add_argument("--N-grid", dest="n_grid", required=True,
                   help="comma-separated state counts")
    p.add_argument("--delta-grid", dest="delta_grid", required=True,
                   help="comma-separated perturbation sizes")
    p.add_argument("--measure", action="append", required=True,
                   choices=[name for name, m in measures.MEASURES.items()
                            if m.kernel])
    p.add_argument("--order", default=None)
    _add_output(p, table=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_stability)


def _limits_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    _add_output(p)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_limits)


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", default=None,
                   help="optional distribution fixture to validate")
    _add_output(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)


# name -> (help, flags) of each subcommand, in the order help lists them.
_COMMANDS = {
    "entropy": ("compute measures of a distribution", _entropy_flags),
    "stability": ("run a Lesche-stability sweep", _stability_flags),
    "limits": ("order -> 1_D convergence and L'Hopital check", _limits_flags),
    "verify": ("run the invariant suite", _verify_flags),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser: with ``command`` one of the subcommands, the
    top-level parser and that subcommand's parser alone; else all four."""
    parser = argparse.ArgumentParser(
        prog="hypentropy",
        description="Hyperbolic entropy measures and Lesche-stability experiments.",
    )
    if command in _COMMANDS:
        # The usage line still lists all four names.  Only the full parser
        # names the command argument in an error ("invalid choice",
        # "required"), and a metavar would rename it there, so it has none.
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
        names = [command]
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        names = _COMMANDS
    for name in names:
        help_text, add_flags = _COMMANDS[name]
        add_flags(sub.add_parser(name, help=help_text))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except NonConvergent as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENT
    except HypentropyError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
