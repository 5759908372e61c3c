"""Command-line harness: evaluation, tables, property scans, figure data.

Single binary with four subcommands; all state comes in through flags.

Exit codes: 0 on success (and scan pass), 1 when a property scan fails,
2 on usage or domain errors.  Output is csv by default (LF endings,
header row) or json with --format json, and is byte-identical for
identical flags.  Each preset kind is one table: ``_PRESETS`` for the
comparison tables, ``_SCANS`` for the scans (flags, defaults and the
call), ``analysis.figure_data``'s for the figures.  Each format has one
writer, ``_csv`` and ``_json``; scans print a ``key: value`` report in
place of csv.  ``eval`` reports ``eval_all`` at one point, the same
evaluation loop ``bounds.evaluate`` runs for a single id.  ``table``,
``scan`` and ``figdata`` import ``analysis`` when they run, and ``_json``
imports ``json``, so importing this module and running ``eval`` load
neither (compiling them was a quarter of the import without a bytecode
cache).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

from .bounds import BoundId, Regime, eps_pct, eval_all, regime_of
from .errors import DomainError, RegimeError, SingularityError, UnknownFigureError, _exact
from .oracle import QArgs, q1_reference

if TYPE_CHECKING:
    from .analysis import ErrorRow, ScanReport

_PRESETS = {
    "V": (0.1, 0.1, 1.0, 0.1, (BoundId.UB1JP, BoundId.UB1A)),
    "VI": (0.1, 0.1, 1.0, 0.1, (BoundId.LB1JP, BoundId.LB1A)),
    "VII": (2.0, 1.0, 2.0, 0.1, (BoundId.UB2JP, BoundId.UB2A)),
    "VIII": (20.0, 19.1, 20.0, 0.1, (BoundId.LB2JP, BoundId.LB2A)),
}

# the scan grid flags, in the order the parser adds them
_SCAN_FLAGS = ("lo", "hi", "n", "m", "a", "b")

# scan property -> ({grid flag it reads: default}, run(analysis, **flags)); --n
# is the grid's point count, or b values per a.  Each run looks its scan up on
# the ``analysis`` module cmd_scan passes it, at call time, so rebinding one
# there reaches it.
_RATIO_GRID = {"lo": 1e-3, "hi": 700.0, "n": 10000}
_SCANS = {
    "g_negative": (_RATIO_GRID, lambda an, lo, hi, n: an.scan_g_negative(lo, hi, n)),
    "f_dec_eq2": (_RATIO_GRID, lambda an, lo, hi, n: an.scan_f_ratio_monotone("f_dec_eq2", lo, hi, n)),
    "f_inc_sinh": (_RATIO_GRID, lambda an, lo, hi, n: an.scan_f_ratio_monotone("f_inc_sinh", lo, hi, n)),
    "chain_eq6": (
        {"b": 1.0, "m": 3.0, "lo": None, "hi": None, "n": 100},
        lambda an, b, m, lo, hi, n: an.scan_shifted_exp_chain(
            b, m, an.log_grid(b + 0.5 if lo is None else lo, b + 50.0 if hi is None else hi, n)
        ),
    ),
    # the window defaults to the scan's own
    "envelope": (
        {"a": 10.0, "b": 8.0, "lo": None, "hi": None, "n": 500},
        lambda an, a, b, lo, hi, n: an.scan_envelope_ordering(a, b, n, x_lo=lo, x_hi=hi),
    ),
    "sandwich": ({"n": 50}, lambda an, n: an.scan_sandwich(b_per_a=n)),
    "jp_dominance": ({"n": 50}, lambda an, n: an.scan_jp_dominance(b_per_a=n)),
}
SCAN_PROPERTIES = tuple(_SCANS)

# a custom table's flags; a preset fixes all of them
_TABLE_FLAGS = ("a", "b_start", "b_end", "b_step", "ids")


def _fmt(v: float) -> str:
    return repr(float(v))


def _csv(rows: Iterable[Iterable]) -> str:
    """``rows`` as csv with LF endings, written as the iterable yields them."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _json(obj: object) -> str:
    """``obj`` as RFC 8259 json: a non-finite float, such as an infinite
    eps % or a bound singular at b = a, is written as null."""
    import json

    return json.dumps(_finite(obj), indent=2, allow_nan=False) + "\n"


def _finite(obj: object) -> object:
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(out)
    else:
        sys.stdout.write(text)


def _b_grid(start: float, end: float, step: float) -> list[float]:
    from .analysis import MAX_GRID_POINTS

    if not 0.0 < step < math.inf:
        raise DomainError(f"--b-step must be positive and finite, got {step!r}")
    for flag, v in (("--b-start", start), ("--b-end", end)):
        if not math.isfinite(v):
            raise DomainError(f"{flag} must be finite, got {v!r}")
    if end < start:
        raise DomainError(f"--b-end {end!r} below --b-start {start!r}")
    span = (end - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise DomainError(f"b grid needs at most {MAX_GRID_POINTS} points, got {span:.3g}")
    count = int(math.floor(span)) + 1
    # snap accumulated floating drift (0.1 + 2*0.1 -> 0.30000000000000004)
    # to four decimals below the step's leading digit, never fewer than 10
    decimals = max(10, 4 - math.floor(math.log10(step)))
    bs = [round(start + i * step, decimals) for i in range(count)]
    if any(u >= v for u, v in zip(bs, bs[1:])):
        raise DomainError(f"--b-step {step!r} is below the resolution of a double near b = {end!r}")
    return bs


def _reject_flags(ns: argparse.Namespace, names: Iterable[str], why: str) -> None:
    """DomainError naming each of ``names`` given on the command line."""
    given = [f"--{f.replace('_', '-')}" for f in names if getattr(ns, f) is not None]
    if given:
        raise DomainError(f"{why}; drop {', '.join(given)}")


def _parse_ids(spec: str) -> list[BoundId]:
    ids = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            ids.append(BoundId(tok.upper()))
        except ValueError:
            valid = ",".join(i.value for i in BoundId)
            raise DomainError(f"unknown bound id {tok!r}; valid ids: {valid}") from None
    if not ids:
        raise DomainError("--ids must name at least one bound")
    return ids


def _table_records(rows: list[ErrorRow], ids: Sequence[BoundId], echo_rounded: bool) -> Iterator[list[str]]:
    """The csv records of an error table: a header, then one per row."""
    header = ["b", "exact"]
    for bid in ids:
        header += [f"{bid.value}_raw", f"{bid.value}_clamped", f"{bid.value}_eps_pct"]
    if echo_rounded:
        header += ["exact_5dp"]
        for bid in ids:
            header += [f"{bid.value}_5dp", f"{bid.value}_eps_pct_4dp"]
    header.append("notes")
    yield header
    for row in rows:
        eps = {bid: eps_pct(cell.raw, row.exact) for bid, cell in row.cells.items()}
        rec = [_fmt(row.b), _fmt(row.exact)]
        for bid in ids:
            cell = row.cells.get(bid)
            if cell is None:
                rec += ["", "", ""]
            else:
                rec += [_fmt(cell.raw), _fmt(cell.clamped), _fmt(eps[bid])]
        if echo_rounded:
            rec.append(f"{row.exact:.5f}")
            for bid in ids:
                cell = row.cells.get(bid)
                rec += ["", ""] if cell is None else [f"{cell.raw:.5f}", f"{eps[bid]:.4f}"]
        rec.append("; ".join(f"{k.value}: {v}" for k, v in row.skipped.items()))
        yield rec


def _row_json(row: ErrorRow, ids: Sequence[BoundId]) -> dict:
    obj: dict = {"b": row.b, "exact": row.exact}
    for bid in ids:
        cell = row.cells.get(bid)
        obj[bid.value] = (
            None if cell is None else {"raw": cell.raw, "clamped": cell.clamped, "eps_pct": eps_pct(cell.raw, row.exact)}
        )
    if row.skipped:
        obj["skipped"] = {k.value: v for k, v in row.skipped.items()}
    return obj


def cmd_eval(ns: argparse.Namespace) -> int:
    args = QArgs(ns.a, ns.b)
    res = q1_reference(args)
    evals, skipped = eval_all(args)
    regime = regime_of(args).value
    if ns.format == "json":
        text = _json({
            "a": args.a,
            "b": args.b,
            "regime": regime,
            "exact": res.value,
            "agreement_gap": res.agreement_gap,
            "bounds": [
                {
                    "id": ev.id.value,
                    "side": ev.side,
                    "raw": ev.raw,
                    "clamped": ev.clamped,
                    "eps_pct": eps_pct(ev.raw, res.value),
                }
                for ev in evals
            ],
            "skipped": {k.value: v for k, v in skipped.items()},
        })
    else:
        text = _csv([
            ["a", "b", "regime", "exact", "agreement_gap"],
            [_fmt(args.a), _fmt(args.b), regime, _fmt(res.value), _fmt(res.agreement_gap)],
            [],
            ["id", "side", "raw", "clamped", "eps_pct"],
            *([ev.id.value, ev.side, _fmt(ev.raw), _fmt(ev.clamped), _fmt(eps_pct(ev.raw, res.value))] for ev in evals),
            *([bid.value, "skipped", "", "", reason] for bid, reason in skipped.items()),
        ])
    _emit(text, None)
    return 0


def cmd_table(ns: argparse.Namespace) -> int:
    from .analysis import error_table

    if ns.preset:
        _reject_flags(ns, _TABLE_FLAGS, f"--preset {ns.preset} fixes a, the b grid and the ids")
        a, start, end, step, ids = _PRESETS[ns.preset]
    else:
        missing = [f for f in _TABLE_FLAGS if getattr(ns, f) is None]
        if missing:
            raise DomainError(
                "custom table needs --a, --b-start, --b-end, --b-step and --ids "
                f"(missing: {', '.join(m.replace('_', '-') for m in missing)})"
            )
        a, start, end, step = ns.a, ns.b_start, ns.b_end, ns.b_step
        ids = _parse_ids(ns.ids)
    bs = _b_grid(start, end, step)
    QArgs(a, 0.0)  # a's own DomainError, before the regime check below compares with it
    # the grid ascends, so its last point is its largest and its first its smallest
    for bid in ids:
        ge = bid.regime is Regime.BGeqA
        if not (bs[-1] >= a if ge else bs[0] <= a):
            raise DomainError(
                f"{bid.value} applies to the {'b >= a' if ge else 'b <= a'} regime; "
                f"no grid point qualifies for a={_exact(a)}"
            )
    rows = error_table(a, bs, ids)
    if ns.format == "json":
        _emit(_json([_row_json(row, ids) for row in rows]), ns.out)
    else:
        # a preset adds its columns rounded as the paper prints them
        _emit(_csv(_table_records(rows, ids, echo_rounded=bool(ns.preset))), ns.out)
    return 0


def _report_text(rep: ScanReport) -> str:
    lines = [
        f"property: {rep.property_id}",
        f"grid: {rep.grid}",
        f"worst_violation: {_fmt(rep.worst_violation)}",
        f"witness: {rep.witness!r}",
        f"passed: {rep.passed}",
    ]
    for k, v in rep.details.items():
        if isinstance(v, (int, float, str)):
            lines.append(f"{k}: {v}")
    return "\n".join(lines) + "\n"


def _report_json(rep: ScanReport) -> str:
    return _json({
        "property": rep.property_id,
        "grid": rep.grid,
        "worst_violation": rep.worst_violation,
        "witness": list(rep.witness),
        "passed": rep.passed,
        "details": {k: v for k, v in rep.details.items() if isinstance(v, (int, float, str))},
    })


def cmd_scan(ns: argparse.Namespace) -> int:
    from . import analysis

    defaults, run = _SCANS[ns.property]
    unread = [f for f in _SCAN_FLAGS if f not in defaults]
    _reject_flags(ns, unread, f"--property {ns.property} reads only {', '.join('--' + f for f in defaults)}")
    rep = run(analysis, **{f: d if getattr(ns, f) is None else getattr(ns, f) for f, d in defaults.items()})
    _emit(_report_json(rep) if ns.format == "json" else _report_text(rep), None)
    return 0 if rep.passed else 1


def cmd_figdata(ns: argparse.Namespace) -> int:
    from .analysis import figure_data

    table = figure_data(ns.figure)
    if ns.format == "json":
        _emit(_json([dict(zip(table.columns, row)) for row in table.rows]), ns.out)
    else:
        _emit(_csv(itertools.chain([table.columns], ([_fmt(v) for v in row] for row in table.rows))), ns.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="marcumq",
        description="First-order Marcum Q reference values, bound catalog, and certification scans.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="oracle value plus every applicable bound at one (a, b)")
    pe.add_argument("--a", type=float, required=True)
    pe.add_argument("--b", type=float, required=True)
    pe.add_argument("--format", choices=("csv", "json"), default="csv")
    pe.set_defaults(func=cmd_eval)

    pt = sub.add_parser("table", help="bound comparison table over a b grid")
    pt.add_argument("--preset", choices=tuple(_PRESETS))
    pt.add_argument("--a", type=float)
    pt.add_argument("--b-start", dest="b_start", type=float)
    pt.add_argument("--b-end", dest="b_end", type=float)
    pt.add_argument("--b-step", dest="b_step", type=float)
    pt.add_argument("--ids", help="comma-separated bound ids, e.g. UB1JP,UB1A")
    pt.add_argument("--format", choices=("csv", "json"), default="csv")
    pt.add_argument("--out", help="write to this path instead of stdout")
    pt.set_defaults(func=cmd_table)

    ps = sub.add_parser("scan", help="run one numeric certification scan")
    ps.add_argument("--property", choices=SCAN_PROPERTIES, required=True)
    for f in _SCAN_FLAGS:
        ps.add_argument(f"--{f}", type=int if f == "n" else float)
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.set_defaults(func=cmd_scan)

    pf = sub.add_parser("figdata", help="emit curve data for a figure preset (1..10)")
    pf.add_argument("--figure", type=int, required=True)
    pf.add_argument("--format", choices=("csv", "json"), default="csv")
    pf.add_argument("--out", help="write to this path instead of stdout")
    pf.set_defaults(func=cmd_figdata)
    return p


# main's parser, built on the first call (not at import) and reused: parsing
# keeps no state in it, and building the tree costs about a millisecond
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (DomainError, RegimeError, SingularityError, UnknownFigureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
