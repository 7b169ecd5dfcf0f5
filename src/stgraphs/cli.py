"""Command-line interface.

Subcommands: ``check`` (all predicates for one graph; --k adds the main
theorem's exception), ``verify`` (the four theorem scans), ``find-path``
(rule engine, exact search on a stall), ``min-size`` (exact extremal
search) and ``gen`` (graph6 stream).  Exit code 0 means no
counterexamples resp. path found; nonzero otherwise.
"""

from __future__ import annotations

import argparse
import sys

from . import graphcore, predicates, verify


def _load_graph(text: str) -> graphcore.Graph:
    try:
        return graphcore.from_graph6(text)
    except graphcore.Graph6Error as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_check(args) -> int:
    # every argument is checked before the first line of the report
    if args.k is not None and args.k < 1:
        raise ValueError("k must be at least 1")
    if args.s is not None and args.s < 1:
        raise ValueError("s must be at least 1")
    if args.t is not None and args.t < 0:
        raise ValueError("t must be nonnegative")
    if args.t is not None and args.s is None:
        raise ValueError("--t needs --s")
    g = _load_graph(args.graph6)
    print(f"graph6: {graphcore.to_graph6(g)}")
    print(f"order: {g.n}")
    print(f"size: {g.edge_count}")
    print(f"degrees: {sorted(g.degree(v) for v in range(g.n))}")
    comps = graphcore.connected_components(g)
    print(f"components: {len(comps)}")
    print(f"canonical: {graphcore.canonical_graph6(g)}")
    if g.n >= 1:
        print(f"independence_number: {predicates.independence_number(g)}")
        print(f"vertex_connectivity: {predicates.vertex_connectivity(g)}")
    if g.n >= 3:
        print(f"hamiltonian: {predicates.is_hamiltonian(g)}")
    print(f"hamiltonian_connected: {predicates.is_hamiltonian_connected(g)}")
    print(f"petersen: {predicates.is_petersen(g)}")
    if args.s is not None:
        m = predicates.min_induced_edges(g, args.s)
        print(f"min_induced_edges(s={args.s}): {m}")
        if args.t is not None:
            print(f"is_[{args.s},{args.t}]_graph: {predicates.is_st_graph(g, args.s, args.t)}")
    if args.k is not None:
        print(f"is_{args.k}_connected: {predicates.is_k_connected(g, args.k)}")
        exception = verify.THEOREMS["main"].exception(g, args.k)
        if exception is None:
            print(f"exception_witness(k={args.k}): none")
        else:
            w = exception[1]
            print(
                f"exception_witness(k={args.k}): independent={list(w.independent_part)}"
                f" rest={list(w.rest)}"
            )
    return 0


DEFAULT_NMAX = 8


def _cmd_verify(args) -> int:
    spec = verify.THEOREMS[args.theorem]
    if spec.k_min is None and args.k is not None:
        raise SystemExit(f"error: verify {args.theorem} takes no --k")
    graphs = None
    if args.input is not None:
        if args.input == "-":
            graphs = verify.read_graph6_lines(sys.stdin)
        else:
            # graph6 is ASCII; any other character, or an undecodable
            # byte read as U+FFFD, is rejected with its line number
            try:
                with open(args.input, "r", encoding="utf-8", errors="replace") as fh:
                    graphs = verify.read_graph6_lines(fh)
            except OSError as exc:
                raise SystemExit(f"error: {exc}")
    run = getattr(verify, spec.entry)
    if spec.k_min is None:
        report = run(args.nmax, graphs=graphs, jobs=args.jobs)
    elif args.k is None:
        raise SystemExit(f"error: verify {args.theorem} requires --k")
    else:
        report = run(args.nmax, args.k, graphs=graphs, jobs=args.jobs)
    print(report.summary())
    for line in report.machine_lines():
        print(line)
    return 0 if report.verified else 1


def _cmd_find_path(args) -> int:
    from . import pathengine  # only find-path runs the rule engine

    g = _load_graph(args.graph6)
    try:
        result = pathengine.improve(g, args.u, args.v, k=args.k)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.trace:
        for move in result.trace:
            print(f"move: {move.format()}")
    if result.outcome == "hamilton-path":
        print(f"hamilton-path: {' '.join(map(str, result.path))}")
        return 0
    print(f"stalled: longest path found {' '.join(map(str, result.path))}")
    if result.certificate is not None:
        print(f"certificate: {result.certificate.format()}")
    else:
        print("certificate: none")
    exact = predicates.hamilton_uv_path(g, args.u, args.v)
    if exact is not None:
        print(f"fallback hamilton-path: {' '.join(map(str, exact))}")
        return 0
    print("fallback: no hamilton path exists")
    return 1


def _cmd_min_size(args) -> int:
    result = verify.min_size_search(args.n, args.s, args.t)
    print(result.summary())
    print(
        f"RESULT n={result.n} s={result.s} t={result.t}"
        f" lower_bound={result.lower_bound}"
        f" minimum={'none' if result.minimum is None else result.minimum}"
        f" witness={result.witness or 'none'}"
    )
    return 0 if result.minimum is not None else 1


def _cmd_gen(args) -> int:
    for siblings in verify._sibling_lists(args.n):
        sys.stdout.write("".join(g6 + "\n" for g6 in siblings))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stgraphs",
        description="Exact [s,t]-graph toolkit and theorem verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate all predicates for one graph")
    p.add_argument("graph6", help="graph6 string")
    p.add_argument("--s", type=int, default=None, help="subset order for the [s,t] check")
    p.add_argument("--t", type=int, default=None, help="edge threshold for the [s,t] check")
    p.add_argument("--k", type=int, default=None, help="connectivity/witness parameter")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="run a theorem scan")
    p.add_argument("theorem", choices=sorted(verify.THEOREMS))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX,
                   help=f"largest order to scan (default {DEFAULT_NMAX})")
    p.add_argument("--input", default=None,
                   help="graph6 file (or - for stdin) replacing the generator")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at least 1 (at most one per CPU is used)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("find-path", help="hamilton path via path-extension moves + fallback")
    p.add_argument("graph6")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="hypothesis k of a stall certificate")
    p.add_argument("--trace", action="store_true", help="print accepted moves")
    p.set_defaults(func=_cmd_find_path)

    p = sub.add_parser("min-size", help="minimum size of a connected [s,t]-graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_min_size)

    p = sub.add_parser("gen", help="stream connected graphs of order n as graph6")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
