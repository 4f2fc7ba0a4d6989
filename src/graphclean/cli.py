"""Command-line front end.

Subcommands: gen, solve, config, verify, reduce, report.  Output is
line-oriented key=value for machine consumption, with aligned tables
where a suite emits many rows.  Exit codes: 0 success or feasible,
1 infeasible or mismatched, 2 bad input, 3 instance over a size cap,
4 incomplete search, 5 internal verification failure.
"""

from __future__ import annotations

import argparse
import sys
from bisect import bisect
from functools import cache, partial
from pathlib import Path
from typing import Callable, TypeVar

from . import constructions as cons
from .cleaning import (
    BrushConfig,
    CleaningSequence,
    can_clean,
    check_cleaning,
    fire,
    minimal_config_for_sequence,
    parse_brush_config,
    parse_sequence,
    serialize_brush_config,
    serialize_sequence,
)
from .errors import (
    GraphCleanError,
    InfeasibleStepError,
    InvalidInputError,
    InvalidParameterError,
    ParseError,
    TooLargeError,
)
from .graphs import Graph, ProductLabeling, cartesian_product, parse_edge_list, serialize_edge_list
from .solver import DEFAULT_BNB_TIMEOUT, DEFAULT_DP_CAP, check_box_conjecture, dp_reach, solve

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INCOMPLETE = 4
EXIT_VERIFY_FAILED = 5  # other exit codes come from GraphCleanError.exit_code

T = TypeVar("T")


# ------------------------------------------------------------- utilities

def _load(parse: Callable[[str], T], path: str) -> T:
    """Read and parse one input file, naming it in any parse or size-cap error."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InvalidInputError(f"cannot read {path}: {reason}") from exc
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(exc.line_no, exc.message, source=path) from None
    except TooLargeError as exc:
        raise TooLargeError(f"{path}: {exc}") from None


def _save(path: str | Path, text: str) -> None:
    """Write one output file, naming it if it cannot be written."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _fmt_config(w0: BrushConfig) -> str:
    return " ".join(f"{v}:{c}" for v, c in enumerate(w0.counts) if c) or "-"


def _fmt_seq(seq: CleaningSequence) -> str:
    return " ".join(str(v) for v in seq.order)


def _family(family: str, params: list[str]) -> tuple[cons.Family, list[int], Graph]:
    """Look up a family, check its parameters and build its graph."""
    entry = cons.FAMILIES[family]
    if len(params) != entry.arity:
        raise InvalidParameterError(
            f"{family} takes {entry.arity} parameter{'s' if entry.arity != 1 else ''}, "
            f"got {len(params)}"
        )
    try:
        ints = [int(p) for p in params]
    except ValueError:
        raise InvalidParameterError(f"{family} parameters must be integers: {params}") from None
    return entry, ints, entry.build(*ints)


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(".." if ".." in text else ":")
    try:
        # a lone number is a one-value range; three or more fields fail to unpack
        lo, hi = map(int, parts * 2 if len(parts) == 1 else parts)
    except ValueError:
        raise InvalidParameterError(f"bad range {text!r}, expected A..B") from None
    if lo > hi:
        raise InvalidParameterError(f"empty range {text!r}")
    return lo, hi


def _parse_instances(text: str) -> list[tuple[int, int]]:
    out = []
    for item in text.split(","):
        parts = item.lower().strip().split("x")
        if len(parts) != 2:
            raise InvalidParameterError(f"bad instance {item!r}, expected MxN")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InvalidParameterError(f"bad instance {item!r}, expected MxN") from None
    return out


def _parse_factor(spec: str) -> tuple[str, Graph]:
    """A box right factor such as P3: a one-parameter family and its order."""
    label = spec[:1].upper() + "{}"
    entry = next((f for f in cons.FAMILIES.values() if f.label == label), None)
    try:
        k = int(spec[1:])
    except ValueError:
        entry = None
    if entry is None:
        raise InvalidParameterError(f"bad factor {spec!r}, expected P<k>, C<k> or K<k>")
    return label.format(k), entry.build(k)


def _check_minimum(option: str, value: int | None, low: int) -> None:
    if value is not None and value < low:
        raise InvalidParameterError(f"{option} must be at least {low}, got {value}")


def _limits(args: argparse.Namespace) -> tuple[int, float]:
    """Check --timeout and --max-dp-vertices; return them, defaults filled in."""
    if args.timeout is not None and not args.timeout >= 0:  # NaN too: no deadline check would pass it
        raise InvalidParameterError(f"--timeout must be a non-negative number of seconds, got {args.timeout}")
    _check_minimum("--max-dp-vertices", args.max_dp_vertices, 0)
    cap = DEFAULT_DP_CAP if args.max_dp_vertices is None else args.max_dp_vertices
    return cap, DEFAULT_BNB_TIMEOUT if args.timeout is None else args.timeout


def _refuse_unread(reason: str, *options: tuple[str, object]) -> None:
    """Refuse a given option that the command would ignore."""
    for option, value in options:
        if value is not None:
            raise InvalidParameterError(f"{option} {reason}")


def _write_cleaning(prefix: str, g: Graph, w0: BrushConfig, seq: CleaningSequence) -> None:
    """Write a cleaning as prefix.graph, prefix.config and prefix.sequence,
    or, if one of them cannot be written, remove those already written."""
    written: list[Path] = []
    try:
        for suffix, text in (
            (".graph", serialize_edge_list(g)),
            (".config", serialize_brush_config(w0)),
            (".sequence", serialize_sequence(seq, g.vertex_count)),
        ):
            path = Path(prefix + suffix)
            _save(path, text)
            written.append(path)
    except InvalidInputError:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    for path in written:
        print(f"wrote={path}")


# ------------------------------------------------------------------ gen

def cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "product":
        if len(args.params) != 2:
            raise InvalidParameterError("product takes two edge-list files")
        left, right = (_load(parse_edge_list, path) for path in args.params)
        g, _ = cartesian_product(left, right)
    else:
        _, _, g = _family(args.family, args.params)
    text = serialize_edge_list(g)
    if args.output:
        _save(args.output, text)
        print(f"wrote={args.output}")
        print(f"vertices={g.vertex_count}")
        print(f"edges={g.edge_count}")
    else:
        sys.stdout.write(text)
        print(f"vertices={g.vertex_count} edges={g.edge_count}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- solve

def cmd_solve(args: argparse.Namespace) -> int:
    if args.method != "bnb":
        _refuse_unread(
            "applies only to --method bnb", ("--upper-hint", args.upper_hint), ("--timeout", args.timeout)
        )
    if args.method != "dp":
        _refuse_unread("applies only to --method dp", ("--max-dp-vertices", args.max_dp_vertices))
    cap, timeout = _limits(args)
    g = _load(parse_edge_list, args.graph)
    result = solve(g, args.method, max_vertices=cap, timeout=timeout, upper_hint=args.upper_hint)
    w0 = minimal_config_for_sequence(g, result.witness)
    print(f"method={result.method}")
    print(f"value={result.value}")
    print(f"complete={'true' if result.complete else 'false'}")
    print(f"lower_bound={result.value if result.complete else result.lower_bound}")
    print(f"states={result.states}")
    print(f"seconds={result.seconds:.3f}")
    print(f"sequence={_fmt_seq(result.witness)}")
    print(f"config={_fmt_config(w0)}")
    print(f"total={w0.total}")
    return EXIT_OK if result.complete else EXIT_INCOMPLETE


# --------------------------------------------------------------- config

def cmd_config(args: argparse.Namespace) -> int:
    entry, ints, g = _family(args.family, args.params)
    cfg, seq, formula = entry.config(*ints), entry.sequence(*ints), entry.formula(*ints)
    try:
        check_cleaning(g, cfg, seq)
        verified = True
    except InfeasibleStepError:
        verified = False
    print(f"family={args.family}")
    print(f"params={' '.join(args.params)}")
    print(f"vertices={g.vertex_count}")
    print(f"total={cfg.total}")
    print(f"formula={formula}")
    print(f"config={_fmt_config(cfg)}")
    print(f"sequence={_fmt_seq(seq)}")
    print(f"verified={'true' if verified else 'false'}")
    if not verified:
        return EXIT_VERIFY_FAILED
    if args.out_prefix:
        _write_cleaning(args.out_prefix, g, cfg, seq)
    return EXIT_OK


# --------------------------------------------------------------- verify

def cmd_verify(args: argparse.Namespace) -> int:
    g = _load(parse_edge_list, args.graph)
    cfg = _load(parse_brush_config, args.config)
    if args.sequence:
        seq = _load(parse_sequence, args.sequence)
        names = list(map(str, range(g.vertex_count)))
        lines = []
        try:
            for k, (v, before, dirty) in enumerate(fire(g, list(cfg.counts), seq), start=1):
                # v's edges to the dirty neighbours below it, then above it
                name, sent, split = names[v], [names[u] for u in dirty], bisect(dirty, v)
                below = f"-{name},".join(sent[:split]) + f"-{name}" if split else ""
                above = f"{name}-" + f",{name}-".join(sent[split:]) if split < len(sent) else ""
                edges = f"{below},{above}" if below and above else below or above or "-"
                lines.append(f"step={k} vertex={name} before={before} cleaned={edges} sent={','.join(sent) or '-'}")
        except InfeasibleStepError as exc:
            print("feasible=false")
            print(f"failed_vertex={exc.vertex} have={exc.have} need={exc.need}")
            return EXIT_INFEASIBLE
        lines += ["feasible=true", f"total={cfg.total}"]
        print("\n".join(lines))
        return EXIT_OK
    ok, outcome = can_clean(g, cfg)
    if ok:
        print("cleanable=true")
        print(f"sequence={_fmt_seq(outcome)}")
        return EXIT_OK
    print("cleanable=false")
    print(f"blocked={' '.join(str(v) for v in sorted(outcome))}")
    return EXIT_INFEASIBLE


# --------------------------------------------------------------- reduce

def cmd_reduce(args: argparse.Namespace) -> int:
    if args.kind != "torus-rows":
        _refuse_unread("applies only to torus-rows", ("--row", args.row))
    lab = ProductLabeling(args.m, args.n)
    w0 = _load(parse_brush_config, args.config)
    seq = _load(parse_sequence, args.sequence)
    if args.kind == "torus-rows":
        g2, w2, s2 = _reduce_torus(lab, w0, seq, args.row)
    else:
        g2, w2, s2 = _reduce_clique_layer(lab, w0, seq)
    print(f"verified={'true' if s2 is not None else 'false'}")
    if s2 is None:
        return EXIT_VERIFY_FAILED
    if args.out_prefix:
        _write_cleaning(args.out_prefix, g2, w2, s2)
    return EXIT_OK


def _reduce_torus(
    lab: ProductLabeling, w0: BrushConfig, seq: CleaningSequence, row: int | None
) -> tuple[Graph, BrushConfig, CleaningSequence]:
    # both paths check the output cleaning before returning it, and
    # nothing prints until one has returned
    if row is not None:
        g2, lab2, w2, s2 = cons.combine_torus_rows(lab, w0, seq, row)
        found = f"row={row}"
    else:
        red = cons.reduce_torus(lab, w0, seq)
        g2, lab2, w2, s2 = red.graph, red.labeling, red.config, red.sequence
        found = (
            f"axis={red.axis}\npair={red.pair[0]},{red.pair[1]}\n"
            f"target={red.target}\nremoved_at={red.removed_at}"
        )
    print(f"kind=torus-rows m={lab.m} n={lab.n}")
    print(f"total_before={w0.total}")
    print(found)
    print(f"reduced={cons.FAMILIES['torus'].label.format(lab2.m, lab2.n)}")
    print(f"total_after={w2.total}")
    print(f"savings={w0.total - w2.total}")
    return g2, w2, s2


def _reduce_clique_layer(
    lab: ProductLabeling, w0: BrushConfig, seq: CleaningSequence
) -> tuple[Graph, BrushConfig, CleaningSequence | None]:
    # the sequence is None when no order cleans the output
    red = cons.delete_clique_layer(lab, w0, seq)
    print(f"kind=clique-layer m={lab.m} n={lab.n}")
    print("classes=" + " ".join(f"{k}:{getattr(red.classes, k)}" for k in "abcdefgh"))
    for note in red.classes.diagnostics:
        print(f"diagnostic={note}")
    print(f"reduced={cons.FAMILIES['km-pn'].label.format(red.labeling.m, red.labeling.n)}")
    print(f"total_before={w0.total}")
    print(f"total_after={red.config.total}")
    print(f"savings={w0.total - red.config.total}")
    return red.graph, red.config, red.sequence


# --------------------------------------------------------------- report

# Each row function returns one table row; its key order is the suite's
# column order.

def _family_row(kind: str, m: int, n: int, cap: int, timeout: float) -> dict[str, str]:
    """A torus or km-pn row: the closed form against the DP, or BnB over the cap."""
    entry = cons.FAMILIES[kind]
    res = solve(entry.build(m, n), max_vertices=cap, timeout=timeout)
    formula = entry.formula(m, n)
    if not res.complete:
        match = "incomplete"
    else:
        match = "yes" if res.value == formula else "no"
    return {
        "instance": entry.label.format(m, n),
        "formula": str(formula),
        "solver": str(res.value),
        "match": match,
        "method": res.method,
        "states": str(res.states),
        "seconds": f"{res.seconds:.3f}",
    }


def _km_cn_row(m: int, n: int, cap: int) -> dict[str, str]:
    """A km-cn row: the DP value against two candidate formulas; skipped, unbuilt, past the DP's reach."""
    cons._check_km_cn_dims(m, n)
    entry = cons.FAMILIES["km-cn"]
    fixed = m * m // 4 + 2
    scaled = n * (m * m // 4) + 2
    row = {
        "instance": entry.label.format(m, n),
        "solver": "-",
        "fixed": str(fixed),
        "scaled": str(scaled),
        "verdict": "skipped",
        "seconds": "-",
    }
    if m * n <= dp_reach(cap):
        res = solve(entry.build(m, n), "dp", max_vertices=cap)
        # fixed < scaled for every m >= 2 and n >= 3, so at most one matches
        verdict = {fixed: "fixed", scaled: "scaled"}.get(res.value, "neither")
        row.update(solver=str(res.value), verdict=verdict, seconds=f"{res.seconds:.3f}")
    return row


def _box_row(order: int, factor: str, cap: int) -> dict[str, str]:
    """The box row: every connected left factor of the order against the sandwich."""
    label, h = _parse_factor(factor)
    report = check_box_conjecture(h, order, max_vertices=cap)
    return {
        "order": str(order),
        "factor": label,
        "path": str(report.path_value),
        "clique": str(report.clique_value),
        "min": str(report.min_value),
        "max": str(report.max_value),
        "graphs": str(report.graphs_checked),
        "connected": str(report.connected_checked),
        "violations": str(len(report.violations)),
        "match": "yes" if report.holds else "no",
    }


def _render_table(rows: list[dict[str, str]]) -> str:
    columns = list(rows[0])  # never empty: ranges and instance lists are checked non-empty
    widths = [max(len(col), *(len(r[col]) for r in rows)) for col in columns]
    lines = ["  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(r[col].ljust(w) for col, w in zip(columns, widths)).rstrip())
    return "\n".join(lines)


def cmd_report(args: argparse.Namespace) -> int:
    suite = args.suite
    if suite in ("km-cn", "box"):
        # only torus and km-pn rows fall back to branch-and-bound
        _refuse_unread("applies only to the torus and km-pn suites", ("--timeout", args.timeout))
    cap, timeout = _limits(args)
    _check_minimum("--jobs", args.jobs, 1)
    ranges = ("--m-range", args.m_range), ("--n-range", args.n_range)
    if suite == "box":
        _refuse_unread("does not apply to the box suite", ("--instances", args.instances), *ranges)
        if not args.factor:
            raise InvalidParameterError("box suite needs --factor (e.g. P2, C3)")
        order = 3 if args.order is None else args.order
        tasks = [partial(_box_row, order, args.factor, cap)]
    else:
        _refuse_unread("applies only to the box suite", ("--order", args.order), ("--factor", args.factor))
        if args.instances is not None:
            _refuse_unread("cannot be combined with --instances", *ranges)
            instances = _parse_instances(args.instances)
        elif suite == "km-cn" and not (args.m_range or args.n_range):
            instances = [(3, 3), (3, 4), (4, 3)]
        else:
            defaults = {
                "torus": ("3..4", "3..5"),
                "km-pn": ("2..4", "2..4"),
                "km-cn": ("3..4", "3..4"),
            }[suite]
            m_lo, m_hi = _parse_range(args.m_range or defaults[0])
            n_lo, n_hi = _parse_range(args.n_range or defaults[1])
            instances = [
                (m, n)
                for m in range(m_lo, m_hi + 1)
                for n in range(n_lo, n_hi + 1)
            ]
        if suite == "km-cn":
            tasks = [partial(_km_cn_row, m, n, cap) for m, n in instances]
        else:
            tasks = [partial(_family_row, suite, m, n, cap, timeout) for m, n in instances]

    if args.jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = [future.result() for future in [pool.submit(t) for t in tasks]]
    else:
        rows = [t() for t in tasks]

    print(f"suite={suite}")
    print(_render_table(rows))
    print()
    for r in rows:
        print(" ".join(f"{col}={value}" for col, value in r.items()))
    mismatches = sum(1 for r in rows if r.get("match") == "no")
    skipped = sum(1 for r in rows if r.get("verdict") == "skipped")
    incomplete = sum(1 for r in rows if r.get("match") == "incomplete")
    summary = f"summary suite={suite} rows={len(rows)} mismatches={mismatches} skipped={skipped} incomplete={incomplete}"
    if suite == "km-cn":
        verdicts = {r["verdict"] for r in rows} - {"skipped"}
        conclusion = verdicts.pop() if len(verdicts) == 1 else "mixed" if verdicts else "none"
        summary += f" conclusion={conclusion}"
    print(summary)
    return EXIT_INFEASIBLE if mismatches else EXIT_OK


# ----------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphclean",
        description="Brush-number toolkit: generators, exact solvers, "
        "closed-form configurations and structural reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a family graph as an edge list")
    p.add_argument("family", choices=[*cons.FAMILIES, "product"])
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output")

    p = sub.add_parser("solve", help="exact brush number of an edge-list file")
    p.add_argument("graph")
    p.add_argument("--method", choices=["dp", "bnb", "brute"], default="dp")
    # default None, so that an option the method would ignore can be refused
    p.add_argument("--max-dp-vertices", type=int)
    p.add_argument("--timeout", type=float)
    p.add_argument("--upper-hint", type=int)

    p = sub.add_parser("config", help="closed-form configuration for a family")
    p.add_argument("family", choices=[k for k, f in cons.FAMILIES.items() if f.config])
    p.add_argument("params", nargs="*")
    p.add_argument("--out-prefix")

    p = sub.add_parser("verify", help="check a configuration, with or without a sequence")
    p.add_argument("graph")
    p.add_argument("config")
    p.add_argument("--sequence")

    p = sub.add_parser("reduce", help="merge torus rows or delete a clique layer")
    p.add_argument("kind", choices=["torus-rows", "clique-layer"])
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--config", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--row", type=int, default=None)
    p.add_argument("--out-prefix")

    p = sub.add_parser("report", help="closed forms against exact values, per suite")
    products = [k for k, f in cons.FAMILIES.items() if f.arity == 2]
    p.add_argument("suite", choices=[*products, "box"])
    p.add_argument("--m-range")
    p.add_argument("--n-range")
    p.add_argument("--instances", help="explicit MxN list, e.g. 3x3,4x5")
    p.add_argument("--order", type=int, help="left-factor order for the box suite (default 3)")
    p.add_argument("--factor", help="right factor for the box suite, e.g. P2")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-dp-vertices", type=int)
    p.add_argument("--timeout", type=float)

    return parser


_parser = cache(build_parser)  # built once per process; main may run many times


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0); argparse has printed why
        return exc.code
    # looked up at call time, so a handler replaced on this module is the one that runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except GraphCleanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:  # an instance too large for this machine, not a crash
        print("error: out of memory", file=sys.stderr)
        return TooLargeError.exit_code
    except Exception as exc:  # a crash is not "infeasible" (Python's default exit 1)
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
