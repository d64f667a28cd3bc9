"""Command line front end.

Subcommands: analyze (enumerate minimal siphons/traps of a model file),
gen (write benchmark nets), sweep (random 3-SAT reduction hardness sweep),
stats (summary over a directory of models). Exit codes: 0 on success
(timeouts are reported in-band), 1 on usage errors, 2 on file format errors.
"""

import argparse
import contextlib
import csv
import functools
import math
import statistics
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .analysis import (ENGINES, enumerate_minimal_siphons, enumerate_minimal_traps,
                       filter_containing, siphon_trap_report)
from .generators import gen_3sat_reduction, gen_chain, gen_random_3sat, gen_random_net
from .encoding import encode_siphon
from .net import PetriNet, format_names
from .pnml import export_pnml, parse_pnml
from .reactions import ParseError, export_reactions, parse_reactions
from .search import Budget

DEFAULT_TIMEOUT_MS = 2000.0
SWEEP_ALPHAS = "0,1,2,3,4,4.2,4.4,4.6,5,6,8,10"
MAX_SWEEP_CLAUSES = 100_000  # bound on alpha * --vars, the 3-SAT clause count
FORMATS = {".rxn": "rxn", ".pnml": "pnml", ".xml": "pnml"}  # model file suffix -> format
ANALYZE_COLUMNS = ("model", "target", "engine", "places", "transitions", "count",
                   "size_min", "size_max", "size_avg", "elapsed_ms", "timed_out")


def _budget(args) -> Budget | None:
    if not math.isfinite(args.timeout) or args.timeout < 0:
        raise ValueError(f"bad timeout {args.timeout!r}")
    max_ms = args.timeout or None
    max_conflicts = getattr(args, "max_conflicts", None)
    if max_ms is None and max_conflicts is None:
        return None
    return Budget(max_conflicts=max_conflicts, max_ms=max_ms)


def _load_model(path: Path, fmt: str | None) -> tuple[PetriNet, tuple[int, ...], str]:
    fmt = fmt or FORMATS.get(path.suffix)
    if fmt is None:
        raise ValueError(f"cannot infer format of {path.name!r}; pass --format")
    data = path.read_bytes()  # PNML is parsed as bytes: its XML declaration names the encoding
    if fmt == "rxn":
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: byte {data[exc.start]:#04x}",
                             line=data.count(b"\n", 0, exc.start) + 1) from None
    # named here, not in a table bound at import, so a wrapper on this module sees the call
    parse = parse_reactions if fmt == "rxn" else parse_pnml
    net, marking = parse(data)
    return net, marking, fmt


_STR = frozenset({str})  # the one element type of a list `_json` joins in C


def _json(value, newline: str = "\n") -> str:
    """The text `json.dumps(value, indent=2)` gives, for dicts with str keys,
    lists, tuples, str, int, float, bool and None. `newline` is the line
    break and indent that the value's own lines start with; a list of str
    alone is joined in one call, as the names of a set are."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _STR.issuperset(map(type, value)):
            items = map(encode_basestring_ascii, value)
        else:
            items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def _spread(name: str, values: list[int]) -> dict:
    """`<name>_min`, `<name>_max` and `<name>_avg` (to 3 places) of values,
    each None when there are none."""
    keys = (f"{name}_min", f"{name}_max", f"{name}_avg")
    if not values:
        return dict.fromkeys(keys)
    return dict(zip(keys, (min(values), max(values), round(sum(values) / len(values), 3))))


def _result_dict(names: list[tuple[str, ...]], stats) -> dict:
    # `canonical_order` of the sets named: a set and its names have the same size
    names = sorted(names, key=lambda n: (len(n), n))
    return {
        "count": len(names),
        "sets": [list(n) for n in names],
        **_spread("size", [len(n) for n in names]),
        "elapsed_ms": round(stats.elapsed_ms, 3),
        "timed_out": stats.timed_out,
        "solve_calls": stats.solve_calls,
        "conflicts": stats.conflicts,
        "decisions": stats.decisions,
    }


def cmd_analyze(args) -> int:
    path = Path(args.model)
    net, marking, fmt = _load_model(path, args.format)
    budget = _budget(args)
    required = None
    if args.contains:
        required = frozenset(net.place_index(name.strip())
                             for name in args.contains.split(",") if name.strip())
    if args.trace and args.engine != "bb":
        raise ValueError("--trace needs --engine bb")
    if args.marking_report and args.output == "csv":
        raise ValueError("--marking-report has no csv columns; use --output json or text")

    targets = ("siphons", "traps") if args.target == "both" else (args.target,)
    payload = {
        "model": str(path),
        "format": fmt,
        "places": len(net.places),
        "transitions": len(net.transitions),
        "engine": args.engine,
    }
    if required is not None:
        payload["contains"] = sorted(net.places[p] for p in required)
    # all minimal siphons, before --contains, for the report, and their names
    siphons = siphon_names = None
    with open(args.trace, "w") if args.trace else contextlib.nullcontext() as trace_file:
        trace = functools.partial(print, file=trace_file) if trace_file else None
        for target in targets:
            run = enumerate_minimal_siphons if target == "siphons" else enumerate_minimal_traps
            result = run(net, engine=args.engine, budget=budget, trace=trace)
            sets = result.sets if required is None else filter_containing(result.sets, required)
            names = list(map(net.set_names, sets))  # each set is named once
            if target == "siphons":
                siphons, siphon_names = result, names if required is None else None
            payload[target] = _result_dict(names, result.stats)
    if args.marking_report:
        report = siphon_trap_report(net, marking, engine=args.engine, budget=budget,
                                    siphons=siphons, names=siphon_names)
        payload["marking_report"] = report.to_dict()

    if args.output == "json":
        print(_json(payload))
    elif args.output == "csv":
        writer = csv.DictWriter(sys.stdout, ANALYZE_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for target in targets:
            writer.writerow({**payload, "model": path.name, "target": target, **payload[target]})
    else:
        print(f"model {path.name}: {len(net.places)} places, {len(net.transitions)} transitions")
        if required is not None:
            print("filter: sets containing " + format_names(payload["contains"]))
        for target in targets:
            block = payload[target]
            flag = " (timed out, partial)" if block["timed_out"] else ""
            print(f"{target} ({args.engine}): {block['count']} minimal set(s) "
                  f"in {block['elapsed_ms']} ms{flag}")
            for names in block["sets"]:
                print("  " + format_names(names))
        if args.marking_report:
            print(report.to_text())
    return 0


def cmd_gen(args) -> int:
    out = Path(args.out)
    fmt = FORMATS.get(out.suffix)
    if fmt is None:
        raise ValueError(f"cannot infer format of {out.name!r}; its suffix must be one of "
                         f"{', '.join(FORMATS)}")
    instance = None
    if args.family == "chain":
        net = gen_chain(args.n)
    elif args.family == "sat-reduction":
        instance = gen_random_3sat(args.vars, args.clauses, args.seed)
        net = gen_3sat_reduction(instance)
    else:
        if args.degree > args.places:
            raise ValueError("--degree must be an int between 1 and --places")
        net = gen_random_net(args.places, args.transitions, args.degree, args.seed)
    out.write_text(export_reactions(net) if fmt == "rxn" else export_pnml(net))
    if instance is not None:
        cnf = out.with_suffix(".cnf")
        cnf.write_text(instance.to_dimacs())
        print(f"wrote {cnf} (3-SAT instance, {len(instance.clauses)} clauses)")
    print(f"wrote {out} ({len(net.places)} places, {len(net.transitions)} transitions)")
    return 0


def cmd_sweep(args) -> int:
    try:
        alphas = [float(a) for a in args.alpha.split(",") if a.strip()]
        # nan, a negative ratio and one whose clause count is past the bound
        if not all(0 <= a * args.vars <= MAX_SWEEP_CLAUSES for a in alphas):
            raise ValueError
    except ValueError:
        raise ValueError(f"bad alpha list {args.alpha!r}") from None
    if not alphas:
        raise ValueError("need at least one alpha")
    n = args.vars
    budget = _budget(args)
    rows = []
    for index, alpha in enumerate(alphas):
        m = round(alpha * n)
        times, counts, timeouts = [], [], 0
        f_vars = f_clauses = places = transitions = 0
        for trial in range(args.trials):
            instance = gen_random_3sat(n, m, seed=args.seed + 1000 * index + trial)
            net = gen_3sat_reduction(instance)
            if trial == 0:
                formula, _ = encode_siphon(net)
                f_vars, f_clauses = formula.num_vars, len(formula.clauses)
                places, transitions = len(net.places), len(net.transitions)
            result = enumerate_minimal_siphons(net, engine=args.engine, budget=budget)
            times.append(result.stats.elapsed_ms)
            counts.append(len(result.sets))
            timeouts += result.stats.timed_out
        rows.append({
            "alpha": alpha,
            "places": places,
            "transitions": transitions,
            "density": round(m / n, 4),
            "vars": f_vars,
            "clauses": f_clauses,
            "time_ms": round(statistics.median(times), 3),
            "timed_out": round(timeouts / args.trials, 3),
            "siphon_count": statistics.median_low(counts),
        })
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return 0


def cmd_stats(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ValueError(f"{directory} is not a directory")
    files = sorted(p for p in directory.iterdir() if p.suffix in FORMATS and p.is_file())
    if not files:
        raise ValueError(f"no model files in {directory}")
    budget = _budget(args)
    entries = []
    failures = []
    for path in files:
        try:
            net, _, _ = _load_model(path, None)
        except ValueError as exc:  # a ParseError is one
            failures.append((path.name, str(exc)))
            continue
        try:
            result = enumerate_minimal_siphons(net, engine=args.engine, budget=budget)
        except ValueError as exc:  # the oracle's place cap
            raise ValueError(f"{path.name}: {exc}") from None
        entries.append({
            "model": path.name,
            "places": len(net.places),
            "transitions": len(net.transitions),
            "count": len(result.sets),
            "sizes": sorted(len(s) for s in result.sets),
            "elapsed_ms": result.stats.elapsed_ms,
            "timed_out": result.stats.timed_out,
        })
    summary = {
        "models": len(entries),
        **_spread("count", [e["count"] for e in entries]),
        **_spread("size", [s for e in entries for s in e["sizes"]]),
        "total_ms": round(sum(e["elapsed_ms"] for e in entries), 3),
        "timeouts": sum(e["timed_out"] for e in entries),
        "unparseable": [name for name, _ in failures],
    }
    if args.output == "json":
        print(_json({"models": entries, "summary": summary}))
    elif args.output == "csv":
        writer = csv.writer(sys.stdout)
        header = [k for k in summary if k != "unparseable"]
        writer.writerow(header)
        writer.writerow([summary[k] for k in header])
    else:
        for e in entries:
            flag = " (timed out)" if e["timed_out"] else ""
            print(f"{e['model']}: {e['count']} siphons, sizes "
                  f"{e['sizes'][0] if e['sizes'] else '-'}–{e['sizes'][-1] if e['sizes'] else '-'}, "
                  f"{e['elapsed_ms']:.1f} ms{flag}")
        for name, reason in failures:
            print(f"{name}: unparseable ({reason})")
        partial = " (partial: timeouts)" if summary["timeouts"] else ""
        figures = {k: "-" if v is None else v for k, v in summary.items()}  # as per model
        print(f"corpus: {summary['models']} models, counts {figures['count_min']}–"
              f"{figures['count_max']} (avg {figures['count_avg']}), sizes "
              f"{figures['size_min']}–{figures['size_max']} (avg {figures['size_avg']}), "
              f"total {summary['total_ms']} ms{partial}")
    return 0


def _int_at_least(low: int):
    """An argparse `type` for a count flag: an int >= low. Its errors name
    the flag, as argparse prefixes them with it."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an int >= {low}")
        return value
    parse.__name__ = "int"  # so text int() refuses is an "invalid int value"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; `parse_args` does not change it."""
    parser = argparse.ArgumentParser(prog="siphons",
                                     description="Minimal siphon and trap enumeration")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="enumerate minimal siphons/traps of a model")
    analyze.add_argument("model", help=f"model file ({', '.join(FORMATS)})")
    analyze.add_argument("--format", choices=list(dict.fromkeys(FORMATS.values())))
    analyze.add_argument("--target", choices=["siphons", "traps", "both"], default="siphons")
    analyze.add_argument("--engine", choices=ENGINES, default="sat")
    analyze.add_argument("--contains", metavar="PLACES",
                         help="comma-separated places every reported set must contain")
    analyze.add_argument("--marking-report", action="store_true",
                         help="report the maximal marked trap inside each siphon")
    analyze.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_MS,
                         metavar="MS", help="budget in milliseconds, 0 for none")
    analyze.add_argument("--max-conflicts", type=_int_at_least(0), default=None, metavar="N",
                         help="conflict budget for the whole run of each target, all solves "
                              "together; the sat and bb engines both stop at it")
    analyze.add_argument("--trace", metavar="FILE", help="bb only: write a search trace")
    analyze.add_argument("--output", choices=["text", "json", "csv"], default="text")
    analyze.set_defaults(func=cmd_analyze)

    gen = sub.add_parser("gen", help="generate benchmark nets")
    gensub = gen.add_subparsers(dest="family", required=True)
    chain = gensub.add_parser("chain")
    chain.add_argument("--n", type=_int_at_least(1), required=True)
    chain.add_argument("out")
    reduction = gensub.add_parser("sat-reduction")
    reduction.add_argument("--vars", type=_int_at_least(3), required=True)
    reduction.add_argument("--clauses", type=_int_at_least(0), required=True)
    reduction.add_argument("--seed", type=int, default=0)
    reduction.add_argument("out")
    rand = gensub.add_parser("random-net")
    rand.add_argument("--places", type=_int_at_least(1), required=True)
    rand.add_argument("--transitions", type=_int_at_least(0), required=True)
    rand.add_argument("--degree", type=_int_at_least(1), default=4)
    rand.add_argument("--seed", type=int, default=0)
    rand.add_argument("out")
    gen.set_defaults(func=cmd_gen)

    sweep = sub.add_parser("sweep", help="hardness sweep over random 3-SAT reductions")
    sweep.add_argument("--vars", type=_int_at_least(3), default=50)
    sweep.add_argument("--alpha", default=SWEEP_ALPHAS,
                       help="comma-separated clause/variable ratios, each with "
                            f"alpha * --vars at most {MAX_SWEEP_CLAUSES}")
    sweep.add_argument("--trials", type=_int_at_least(1), default=5)
    sweep.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_MS, metavar="MS")
    sweep.add_argument("--engine", choices=["sat", "bb"], default="sat")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", help="CSV output file (default: stdout)")
    sweep.set_defaults(func=cmd_sweep)

    stats = sub.add_parser("stats", help="summary over a directory of models")
    stats.add_argument("directory")
    stats.add_argument("--engine", choices=ENGINES, default="sat")
    stats.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_MS, metavar="MS")
    stats.add_argument("--output", choices=["text", "json", "csv"], default="text")
    stats.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
