"""Command-line front end.

Every command prints one canonical JSON report on stdout: keys sorted,
two-space indent, trailing newline.  Reports contain only input-determined
data (command, input digest, parameters, result, tool version), so repeated
runs are byte-identical; wall-clock timing goes to stderr and the worker
count never appears in the report.

Exit codes: 0 success, 2 parse or input error, 3 precondition violation,
4 budget refusal, 1 internal error.  TERMFLOW_BUDGET=EVALS[:INTERPS]
overrides the default search budget; --budget beats the environment.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .depgraph import DependencyGraph, add_source_loops, dependency_graph, to_dot
from .dsl import parse, render
from .errors import (BudgetError, ParseError, PreconditionError, TermflowError,
                     ValidationError)
from .flownet import decide_threshold, dispersion_exponent, network_dot
from .normalize import diversify, pipeline
from .oracle import (DEFAULT_BUDGET, SearchBudget, brute_dispersion,
                     brute_guessing, brute_max_solutions, check_embedding,
                     check_perfect_fixed, sandwich_check)
from .terms import TermSystem, instance_size


def _load(path: Path, kind: str):
    try:
        data = path.read_bytes()
        text = data.decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason} "
                         f"at byte {exc.start})") from None
    obj = parse(text, kind)
    meta = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    return obj, meta


def _budget(args) -> SearchBudget:
    text = args.budget if args.budget is not None else os.environ.get("TERMFLOW_BUDGET")
    if text is None:
        return DEFAULT_BUDGET
    parts = text.split(":")
    if len(parts) not in (1, 2) or not all(p.isdigit() for p in parts):
        raise ValidationError(
            f"bad budget {text!r}; expected EVALS or EVALS:INTERPS")
    evals = int(parts[0])
    interps = int(parts[1]) if len(parts) == 2 else DEFAULT_BUDGET.max_interpretations
    return SearchBudget(evals, interps)


def _budget_json(budget: SearchBudget) -> dict:
    return {"max_evaluations": budget.max_evaluations,
            "max_interpretations": budget.max_interpretations}


def _tables_json(witness) -> dict:
    """Interpretation and GuessingStrategy share the (n, tables) shape."""
    return {"n": witness.n,
            "tables": {name: list(tbl) for name, tbl in witness.tables.items()}}


def _oracle_json(res) -> dict:
    return {"value": res.value, "rate": res.rate,
            "evaluations": res.evaluations,
            "witness": _tables_json(res.witness)}


def _edges_json(graph: DependencyGraph) -> list[list[str]]:
    order = {v: i for i, v in enumerate(graph.vertices)}
    return [[u, v] for u, v in
            sorted(graph.edges, key=lambda e: (order[e[0]], order[e[1]]))]


def _as_graph(obj) -> DependencyGraph:
    """Graphs pass through; term systems go through the pipeline first."""
    if isinstance(obj, DependencyGraph):
        return obj
    if isinstance(obj, TermSystem):
        norm, _ = pipeline(obj)
        return dependency_graph(norm)
    raise PreconditionError(
        "this command needs a graph or instance input, not a dispersion spec")


def cmd_normalize(args) -> tuple[dict, int]:
    system, meta = _load(args.file, "system")
    norm, rep = pipeline(system)
    result = {
        "input_size": instance_size(system),
        "stages": list(rep.stages),
        "auxiliaries": list(rep.auxiliaries),
        "merges": [{"kept": m.kept, "removed": m.removed, "stage": m.stage}
                   for m in rep.merges],
        "defined": list(rep.defined),
        "sources": list(rep.sources),
        "is_normal": rep.is_normal,
        "is_fnf": rep.is_fnf,
        "is_collision_free": rep.is_collision_free,
        "is_cfnf": rep.is_cfnf,
        "system": render(norm),
    }
    if args.diversify:
        result["diversified"] = render(diversify(norm))
    if args.dot is not None:
        Path(args.dot).write_text(to_dot(dependency_graph(norm)))
        result["dot_path"] = args.dot
    report = _report("normalize", meta,
                     {"fnf_check": args.fnf_check, "diversify": args.diversify,
                      "dot": args.dot},
                     result)
    return report, (3 if args.fnf_check and not rep.is_fnf else 0)


def cmd_exponent(args) -> tuple[dict, int]:
    spec, meta = _load(args.file, "dispersion")
    res = dispersion_exponent(spec)
    result = {"D": res.D, "max_flow_value": res.D,
              "min_cut": list(res.min_cut)}
    if args.certificate:
        result["certificate"] = res.certificate()
    if args.dot is not None:
        Path(args.dot).write_text(network_dot(res.network))
        result["dot_path"] = args.dot
    report = _report("exponent", meta,
                     {"certificate": args.certificate, "dot": args.dot}, result)
    return report, 0


def cmd_brute(args) -> tuple[dict, int]:
    budget = _budget(args)
    jobs = max(1, args.jobs)
    if args.mode == "disp":
        spec, meta = _load(args.file, "dispersion")
        result = _oracle_json(brute_dispersion(spec, args.n, budget, jobs=jobs))
    elif args.mode == "solve":
        system, meta = _load(args.file, "system")
        result = _oracle_json(brute_max_solutions(system, args.n, budget,
                                                  jobs=jobs))
    elif args.mode == "guess":
        obj, meta = _load(args.file, "auto")
        graph = _as_graph(obj)
        result = _oracle_json(brute_guessing(graph, args.n, budget, jobs=jobs))
    elif args.mode == "perfect":
        spec, meta = _load(args.file, "dispersion")
        dec = check_perfect_fixed(spec, args.n, budget, jobs=jobs)
        result = {"perfect": dec.perfect, "target": dec.target,
                  "max_image": dec.max_image,
                  "interpretations": dec.interpretations,
                  "evaluations": dec.evaluations,
                  "witness": _tables_json(dec.witness)}
    elif args.mode == "embed":
        spec, meta = _load(args.file, "dispersion")
        chk = check_embedding(spec, args.n, budget)
        result = {"equal": chk.equal,
                  "dispersion": _oracle_json(chk.dispersion),
                  "embedded": _oracle_json(chk.embedded)}
    else:  # sandwich
        system, meta = _load(args.file, "system")
        norm, _ = pipeline(system)
        rep = sandwich_check(norm, args.n, budget, jobs=jobs)
        result = {"n": rep.n, "v": rep.v, "m": rep.m,
                  "original": _oracle_json(rep.original),
                  "diversified_same_n": _oracle_json(rep.diversified_same_n),
                  "diversified_small": _oracle_json(rep.diversified_small),
                  "lifted_count": rep.lifted_count,
                  "upper_ok": rep.upper_ok, "lower_ok": rep.lower_ok,
                  "lift_ok": rep.lift_ok, "ok": rep.ok}
    report = _report(f"brute {args.mode}", meta,
                     {"mode": args.mode, "n": args.n,
                      "budget": _budget_json(budget)},
                     result)
    return report, 0


def cmd_threshold(args) -> tuple[dict, int]:
    spec, meta = _load(args.file, "dispersion")
    dec = decide_threshold(spec, args.d)
    result = {"answer": "yes" if dec.answer else "no", "d": dec.d,
              "D": dec.exponent.D, "criterion": "D >= d+1",
              "min_cut": list(dec.exponent.min_cut)}
    report = _report("threshold", meta, {"d": args.d}, result)
    return report, 0


def cmd_graph(args) -> tuple[dict, int]:
    obj, meta = _load(args.file, "auto")
    graph = _as_graph(obj)
    if args.loops:
        graph = add_source_loops(graph)
    result = {"vertices": list(graph.vertices),
              "sources": [v for v in graph.vertices if v in graph.sources],
              "edges": _edges_json(graph),
              "vertex_count": len(graph.vertices),
              "edge_count": len(graph.edges)}
    if args.dot is not None:
        Path(args.dot).write_text(to_dot(graph))
        result["dot_path"] = args.dot
    report = _report("graph", meta, {"loops": args.loops, "dot": args.dot},
                     result)
    return report, 0


def _report(command: str, meta: dict, parameters: dict, result: dict) -> dict:
    return {"command": command, "input": meta, "parameters": parameters,
            "result": result, "version": __version__}


@functools.cache  # built on first use, shared by every `main` call
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="termflow",
        description="Normalize equational instances, extract dependency "
                    "graphs, compute dispersion exponents by max-flow, and "
                    "verify values by exhaustive small-alphabet search.")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("normalize", help="run the flatten/quotient pipeline")
    norm.add_argument("file", type=Path)
    norm.add_argument("--fnf-check", action="store_true",
                      help="exit 3 unless the result is functional")
    norm.add_argument("--diversify", action="store_true",
                      help="also emit the diversified system")
    norm.add_argument("--dot", metavar="PATH",
                      help="write the dependency graph in DOT form")
    norm.set_defaults(handler=cmd_normalize)

    exp = sub.add_parser("exponent", help="dispersion exponent via max-flow")
    exp.add_argument("file", type=Path)
    exp.add_argument("--certificate", action="store_true",
                     help="include per-bottleneck saturation detail")
    exp.add_argument("--dot", metavar="PATH",
                     help="write the flow network in DOT form")
    exp.set_defaults(handler=cmd_exponent)

    brute = sub.add_parser("brute", help="exhaustive search oracles")
    brute.add_argument("mode", choices=["disp", "solve", "guess", "perfect",
                                        "embed", "sandwich"])
    brute.add_argument("file", type=Path)
    brute.add_argument("-n", dest="n", type=int, required=True,
                       help="alphabet size")
    brute.add_argument("--budget", metavar="EVALS[:INTERPS]",
                       help="override the search budget")
    brute.add_argument("--jobs", type=int, default=1,
                       help="worker processes (result-invariant)")
    brute.set_defaults(handler=cmd_brute)

    thr = sub.add_parser("threshold",
                         help="asymptotic growth decision for a spec")
    thr.add_argument("file", type=Path)
    thr.add_argument("-d", dest="d", type=int, required=True,
                     help="threshold degree")
    thr.set_defaults(handler=cmd_threshold)

    graph = sub.add_parser("graph", help="dependency-graph extraction and DOT")
    graph.add_argument("file", type=Path)
    graph.add_argument("--loops", action="store_true",
                       help="replace sources by identity self-loops")
    graph.add_argument("--dot", metavar="PATH", help="write DOT to a file")
    graph.set_defaults(handler=cmd_graph)
    return p


_EXIT_CODES = {ParseError: 2, ValidationError: 2, PreconditionError: 3,
               BudgetError: 4, TermflowError: 1}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report, code = args.handler(args)
    except TermflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__
                    if cls in _EXIT_CODES)
    print(json.dumps(report, indent=2, sort_keys=True))
    elapsed = (time.perf_counter() - started) * 1000.0
    print(f"elapsed_ms={elapsed:.1f}", file=sys.stderr)
    return code
