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
import io
import json
import sys
from typing import Optional, Sequence, Union

from . import distributions as dist
from . import measures
from .errors import HypentropyError, NonConvergent, ParseError
from .hyperbolic import HyperbolicNumber, embed_real
from .stability import StabilityRecord, SweepConfig, stability_sweep
from .verify import InvariantResult, run_invariants

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
    # Malformed text (undecodable bytes, bad or too deeply nested JSON, a
    # missing key, a non-numeric cell, an integer too large for a float)
    # raises plain Python errors; they become one typed ParseError.  OSError
    # passes through as an I/O failure.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return dist.hyp_from_json(text)
        if stripped.startswith("["):
            return dist.real_from_json(text)
        # Only the header line is split off, not the whole text.
        end = stripped.find("\n")
        first_line = stripped[:end] if end >= 0 else stripped
        first_line = first_line.splitlines()[0].strip() if first_line else ""
        if first_line.replace(" ", "") == "p1,p2":
            return dist.hyp_from_csv(text)
        if first_line == "p":
            return dist.real_from_csv(text)
    except (ValueError, KeyError, TypeError, IndexError, OverflowError,
            RecursionError) as exc:
        raise ParseError(f"malformed distribution in {path!r}: "
                         f"{type(exc).__name__}: {exc}") from None
    raise ParseError(f"unrecognized distribution format in {path!r}")


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


def cmd_entropy(args: argparse.Namespace) -> int:
    D = _load_distribution(args.input)
    rows = []
    for name in args.measure:
        order = None
        if measures.MEASURES[name].check and args.order is not None:
            order = _parse_order(args.order)
        v1, v2 = _value_columns(measures.evaluate(name, D, order), args.basis)
        o1, o2 = ("", "")
        if order is not None:
            o1, o2 = _fmt(order.x1), _fmt(order.x2)
        rows.append({"measure": name, "order_e1": o1, "order_e2": o2,
                     "value_e1": _fmt(v1), "value_e2": _fmt(v2)})
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
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
    return json.dumps(payload, indent=2) + "\n"


def _integral(token: str) -> int:
    """An integer token, or a float one of integral value such as ``1e5``."""
    try:
        return int(token)
    except ValueError:
        value = float(token)
        if not value.is_integer():
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
    order = _parse_order(args.order) if args.order is not None else None
    measure_selection = [
        (name, order if measures.MEASURES[name].check else None)
        for name in args.measure
    ]
    config = SweepConfig(
        families=args.family,
        n_grid=_parse_grid(args.n_grid, _integral, "integer"),
        delta_grid=_parse_grid(args.delta_grid, float, "float"),
        measures=measure_selection,
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
        path = args.input

        def _fixture_check(seed: int) -> InvariantResult:
            try:
                _load_distribution(path)
            except HypentropyError as exc:
                return InvariantResult("input-validates", False,
                                       f"{type(exc).__name__}: {exc}")
            return InvariantResult("input-validates", True)

        extra.append(("input-validates", _fixture_check))
    results = run_invariants(args.seed, extra=extra)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypentropy",
        description="Hyperbolic entropy measures and Lesche-stability experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser, table: bool = False) -> None:
        p.add_argument("--output", default=None,
                       help="output path (default: standard output)")
        if table:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.add_argument("--basis", choices=("idempotent", "unit-k"),
                           default="idempotent",
                           help="display basis for hyperbolic values")

    p_entropy = sub.add_parser("entropy", help="compute measures of a distribution")
    p_entropy.add_argument("--input", required=True)
    p_entropy.add_argument("--measure", action="append", required=True,
                           choices=sorted(measures.MEASURES))
    p_entropy.add_argument("--order", default=None,
                           help='order as "a1,a2" or a single real meaning a*1_D')
    add_output(p_entropy, table=True)
    p_entropy.set_defaults(func=cmd_entropy)

    p_stab = sub.add_parser("stability", help="run a Lesche-stability sweep")
    p_stab.add_argument("--family", action="append", required=True,
                        choices=dist.FAMILIES)
    p_stab.add_argument("--N-grid", dest="n_grid", required=True,
                        help="comma-separated state counts")
    p_stab.add_argument("--delta-grid", dest="delta_grid", required=True,
                        help="comma-separated perturbation sizes")
    p_stab.add_argument("--measure", action="append", required=True,
                        choices=[name for name, m in measures.MEASURES.items()
                                 if m.kernel])
    p_stab.add_argument("--order", default=None)
    add_output(p_stab, table=True)
    p_stab.add_argument("--seed", type=int, default=0)
    p_stab.set_defaults(func=cmd_stability)

    p_lim = sub.add_parser("limits",
                           help="order -> 1_D convergence and L'Hopital check")
    p_lim.add_argument("--input", required=True)
    add_output(p_lim)
    p_lim.add_argument("--tol", type=float, default=1e-6)
    p_lim.set_defaults(func=cmd_limits)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--input", default=None,
                       help="optional distribution fixture to validate")
    add_output(p_ver)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
