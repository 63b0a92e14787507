"""Command-line front end.

Every command prints one canonical JSON report on stdout: keys sorted,
two-space indent, trailing newline.  Reports contain only input-determined
data (command, input digest, parameters, result, tool version), so repeated
runs are byte-identical; wall-clock timing goes to stderr.  A `brute` or
`normalize` result is its record's fields, written out by `_json`.  `main`
writes every report through the one writer, `_write`, byte-identical to
`json.dumps(report, indent=2, sort_keys=True)` (ASCII-escaped): with an
indent, Python 3.11's `json.dumps` runs json's pure-Python encoder, which
on the largest `exponent` reports costs more than the max-flow.  Every
scan runs in this process; `brute --jobs J` is accepted for compatibility
and ignored.

Exit codes: 0 success, 2 parse or input error, 3 precondition violation,
4 budget refusal, 1 internal error.  TERMFLOW_BUDGET=EVALS[:INTERPS], in
ASCII digits, overrides the default search budget; --budget beats the
environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii
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
from .terms import Interpretation, TermSystem, instance_size


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


def _write_dot(path: str, text: str) -> str:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}")
    return path


def _budget(args) -> SearchBudget:
    text = args.budget if args.budget is not None else os.environ.get("TERMFLOW_BUDGET")
    if text is None:
        return DEFAULT_BUDGET
    parts = text.split(":")
    try:  # ASCII digits only, and within Python's int-string limit
        if len(parts) > 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError
        return SearchBudget(*map(int, parts))  # EVALS alone keeps INTERPS
    except ValueError:
        raise ValidationError(
            f"bad budget {text!r}; expected EVALS or EVALS:INTERPS") from None


def _json(record):
    """A result record as its report: an interpretation is its tables, a
    tuple a list, and any other dataclass its fields, so the record types
    define the report schema.  A name is its own report and skips the
    call: a pipeline report can list thousands."""
    if isinstance(record, tuple):
        return [x if isinstance(x, str) else _json(x) for x in record]
    if isinstance(record, Interpretation):
        return {"n": record.n, "tables": {name: list(table) for name, table
                                          in record.tables.items()}}
    if dataclasses.is_dataclass(record):
        return {key: x if isinstance(x, str) else _json(x)
                for key, x in vars(record).items()}
    return record


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
    result = _json(rep) | {"input_size": instance_size(system),
                           "system": render(norm)}
    if args.diversify:
        result["diversified"] = render(diversify(norm))
    if args.dot is not None:
        result["dot_path"] = _write_dot(args.dot, to_dot(dependency_graph(norm)))
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
        result["dot_path"] = _write_dot(args.dot, network_dot(res.network))
    report = _report("exponent", meta,
                     {"certificate": args.certificate, "dot": args.dot}, result)
    return report, 0


def cmd_brute(args) -> tuple[dict, int]:
    budget = _budget(args)
    if args.mode == "disp":
        spec, meta = _load(args.file, "dispersion")
        record = brute_dispersion(spec, args.n, budget)
    elif args.mode == "solve":
        system, meta = _load(args.file, "system")
        record = brute_max_solutions(system, args.n, budget)
    elif args.mode == "guess":
        obj, meta = _load(args.file, "auto")
        record = brute_guessing(_as_graph(obj), args.n, budget)
    elif args.mode == "perfect":
        spec, meta = _load(args.file, "dispersion")
        record = check_perfect_fixed(spec, args.n, budget)
    elif args.mode == "embed":
        spec, meta = _load(args.file, "dispersion")
        record = check_embedding(spec, args.n, budget)
    else:  # sandwich
        system, meta = _load(args.file, "system")
        norm, _ = pipeline(system)
        record = sandwich_check(norm, args.n, budget)
    report = _report(f"brute {args.mode}", meta,
                     {"mode": args.mode, "n": args.n,
                      "budget": _json(budget)},
                     _json(record))
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
              "edges": [list(edge) for edge in graph.sorted_edges],
              "vertex_count": len(graph.vertices),
              "edge_count": len(graph.edges)}
    if args.dot is not None:
        result["dot_path"] = _write_dot(args.dot, to_dot(graph))
    report = _report("graph", meta, {"loops": args.loops, "dot": args.dot},
                     result)
    return report, 0


def _report(command: str, meta: dict, parameters: dict, result: dict) -> dict:
    return {"command": command, "input": meta, "parameters": parameters,
            "result": result, "version": __version__}


# Each scalar's JSON text by its exact type, from C-level callables
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__}


def _write(obj, indent: str = "\n") -> str:
    """`obj` as `json.dumps(obj, indent=2, sort_keys=True)` writes it.

    A float, a subclass or anything else goes through `json.dumps`.  A
    non-`str` key raises `TypeError`, where json would coerce it and sort
    it differently."""
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": "
            + (_SCALARS[type(x)](x) if type(x) in _SCALARS else _write(x, inner))
            for key, x in sorted(obj.items())]) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([
            _SCALARS[type(x)](x) if type(x) in _SCALARS else _write(x, inner)
            for x in obj]) + indent + "]"
    return json.dumps(obj)


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
                       help="accepted and ignored: every scan runs in this "
                            "process")
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
    print(_write(report))
    elapsed = (time.perf_counter() - started) * 1000.0
    print(f"elapsed_ms={elapsed:.1f}", file=sys.stderr)
    return code
