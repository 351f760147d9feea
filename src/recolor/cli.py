"""Command line interface.

Subcommands: gen, peo, recolor, analyze, oracle, pipeline, bench.
Exit codes: 0 success, 1 a check reported a violation, 2 bad input,
3 an oracle query too large (OracleInfeasible, a passed state cap included).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import io as rio
from .analysis import analyze_sequence
from .engine import apply_sequence, best_choice_sequence
from .errors import InvalidParams, NotChordal, OracleInfeasible, RecolorError
from .experiment import ExperimentConfig, rows_to_csv, rows_to_json, run_experiment
from .generators import FAMILIES, gen_instance
from .graphs import degeneracy, mcs_peo
from .oracle import (
    DEFAULT_STATE_CAP,
    enumerate_colorings,
    rt_connected,
    rt_diameter,
    rt_path,
)
from .treewidth import run_pipeline

OK, VIOLATION, INPUT_ERROR, CAP_EXCEEDED = 0, 1, 2, 3


def _emit(obj, out: str | None) -> None:
    text = obj if isinstance(obj, str) else json.dumps(obj, indent=1) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    rio._vertex_count(args.n)  # never write a graph the readers refuse
    g, ordering, td, d = gen_instance(args.family, args.n, args.k, args.seed)
    bundle = {"schema_version": 1, "family": args.family, "seed": args.seed, "k": args.k}
    if args.family == "partial-ktree":
        bundle["degeneracy"] = d
    bundle["graph"] = rio.graph_to_json(g)
    if td is not None:
        bundle["decomposition"] = rio.decomposition_to_json(td)
    bundle["ordering"] = rio.ordering_to_json(ordering)
    if args.format == "text":
        _emit(rio.graph_to_text(g), args.out)
    else:
        _emit(bundle, args.out)
    return OK


def _cmd_peo(args) -> int:
    g = rio.read_graph(args.graph)
    ordering = mcs_peo(g)
    _emit(
        {
            "order": list(ordering.order),
            "back_neighborhoods": [list(b) for b in ordering.back_nbrs],
            "max_back_degree": ordering.max_back_degree,
            "perfect": True,  # mcs_peo certified it, or raised NotChordal
        },
        args.out,
    )
    return OK


def _ordering_for(g, path):
    if path:
        return rio.read_ordering(path, g)
    try:
        return mcs_peo(g)
    except NotChordal:
        return degeneracy(g)[1]


def _coloring_arg(value: str, palette: int):
    """Accept a coloring either inline ("[1,2,1]") or as a file path."""
    if value.lstrip().startswith("["):
        return rio.coloring_from_json(json.loads(value), palette)
    return rio.read_coloring(value, palette)


def _cmd_recolor(args) -> int:
    g = rio.read_graph(args.graph)
    alpha = _coloring_arg(args.alpha, args.t)
    beta = _coloring_arg(args.beta, args.t)
    ordering = _ordering_for(g, args.ord)
    stats: dict = {}
    s = best_choice_sequence(g, ordering, alpha, beta, stats)
    obj = rio.sequence_to_json(s)
    obj["length"] = len(s.steps)
    obj["rule1_blocked"] = stats.get("rule1_blocked", 0)
    _emit(obj, args.out)
    return OK


def _cmd_analyze(args) -> int:
    g = rio.read_graph(args.graph)
    s = rio.read_sequence(args.seq)
    ordering = _ordering_for(g, args.ord)
    try:
        apply_sequence(g, s)
    except RecolorError as e:
        _emit(
            {
                "passed": False,
                "violations": [{"check": "validity", "note": str(e)}],
            },
            args.out,
        )
        return VIOLATION
    report = analyze_sequence(g, ordering, s)
    if args.format == "csv":
        lines = ["vertex,count"]
        lines += [f"{v},{c}" for v, c in sorted(report.per_vertex.items())]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(report.to_json_dict(), args.out)
    return OK if report.passed else VIOLATION


def _cmd_oracle(args) -> int:
    g = rio.read_graph(args.graph)
    t = args.t
    cap = args.state_cap
    if args.query == "distance":
        if not args.src or not args.dst:
            raise InvalidParams("distance needs --from and --to")
        a = _coloring_arg(args.src, t)
        b = _coloring_arg(args.dst, t)
        path = rt_path(g, t, a, b, cap)
        if path is None:
            _emit({"distance": None, "reachable": False}, args.out)
        else:
            _emit(
                {
                    "distance": len(path.steps),
                    "reachable": True,
                    "path": [[st.vertex, st.new_color] for st in path.steps],
                },
                args.out,
            )
        return OK
    if args.query == "connected":
        count = enumerate_colorings(g, t, cap)
        _emit(
            {"connected": rt_connected(g, t, cap), "num_colorings": count}, args.out
        )
        return OK
    diam = rt_diameter(g, t, cap)
    _emit({"diameter": "infinite" if math.isinf(diam) else diam}, args.out)
    return OK


def _cmd_pipeline(args) -> int:
    g = rio.read_graph(args.graph)
    td = rio.read_decomposition(args.td)
    alpha = _coloring_arg(args.alpha, args.t)
    beta = _coloring_arg(args.beta, args.t)
    result = run_pipeline(
        g, td, alpha, beta, args.t, bridge=args.bridge, state_cap=args.state_cap
    )
    _emit(result.to_json_dict(), args.out)
    return OK


def _cmd_bench(args) -> int:
    n_values = [int(x) for x in args.n_list.split(",") if x.strip()]
    cfg = ExperimentConfig(
        family=args.family,
        n_values=n_values,
        k=args.k,
        t_rule=args.t_rule,
        trials=args.trials,
        seed=args.seed,
        naughty=args.naughty,
        oracle_cross_check=args.oracle_cross_check,
        state_cap=args.state_cap,
    )
    rows, summary = run_experiment(cfg)
    to_text = rows_to_csv if args.format == "csv" else rows_to_json
    _emit(to_text(rows, timings=args.timings), args.out)
    if args.summary_out:
        _emit(summary, args.summary_out)
    else:
        sys.stderr.write(json.dumps(summary, indent=1) + "\n")
    return OK if summary["violations"] == 0 else VIOLATION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="recolor",
        description="Recoloring walks between proper colorings of sparse graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, graph=True, t=False, cap=False, formats=(), colorings=False):
        if graph:
            sp.add_argument("--graph", required=True, help="graph file (text or JSON)")
        if t:
            sp.add_argument("--t", type=int, required=True, help="palette size")
        if colorings:
            sp.add_argument("--alpha", required=True, help="start coloring (JSON array or file)")
            sp.add_argument("--beta", required=True, help="target coloring (JSON array or file)")
        sp.add_argument("--out", help="output file (default stdout)")
        if formats:
            sp.add_argument("--format", choices=formats, default=formats[0])
        if cap:
            sp.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)

    sp = sub.add_parser("gen", help="generate a random instance")
    sp.add_argument("--family", choices=FAMILIES, default="ktree")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, graph=False, formats=("json", "text"))
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("peo", help="perfect elimination ordering of a chordal graph")
    common(sp)
    sp.set_defaults(func=_cmd_peo)

    sp = sub.add_parser("recolor", help="build a recoloring sequence alpha -> beta")
    common(sp, t=True, colorings=True)
    sp.add_argument("--ord", help="ordering JSON; default: elimination ordering")
    sp.set_defaults(func=_cmd_recolor)

    sp = sub.add_parser("analyze", help="validate and analyze a stored sequence")
    common(sp, formats=("json", "csv"))
    sp.add_argument("--seq", required=True, help="sequence JSON")
    sp.add_argument("--ord", help="ordering JSON; default: elimination ordering")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("oracle", help="exhaustive queries over all colorings")
    sp.add_argument("query", choices=["distance", "connected", "diameter"])
    common(sp, t=True, cap=True)
    sp.add_argument("--from", dest="src", help="source coloring, array or file (for distance)")
    sp.add_argument("--to", dest="dst", help="target coloring, array or file (for distance)")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("pipeline", help="alpha -> beta plan through merge quotients")
    common(sp, t=True, cap=True, colorings=True)
    sp.add_argument("--td", required=True, help="tree decomposition JSON")
    sp.add_argument("--bridge", choices=["oracle", "none"], default="oracle")
    sp.set_defaults(func=_cmd_pipeline)

    sp = sub.add_parser("bench", help="run a batch experiment")
    sp.add_argument("--family", choices=FAMILIES, default="ktree")
    sp.add_argument("--n-list", default="20", help="comma-separated n grid")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--t-rule", default="2d+1")
    sp.add_argument("--trials", type=int, default=10, help="total, round-robin over --n-list")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--naughty", action="store_true")
    sp.add_argument("--oracle-cross-check", action="store_true")
    sp.add_argument("--timings", action="store_true", help="include wall times")
    sp.add_argument("--summary-out", help="summary JSON file (default stderr)")
    common(sp, graph=False, cap=True, formats=("csv", "json"))
    sp.set_defaults(func=_cmd_bench)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleInfeasible as e:
        sys.stderr.write(f"error: {e}\n")
        return CAP_EXCEEDED
    except (RecolorError, ValueError, OSError, json.JSONDecodeError, KeyError) as e:
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
