"""Command-line front end.

Every command prints one JSON report on stdout, byte-identical across runs
and written by `_write` as `json.dumps(report, indent=2, sort_keys=True)`
would, and its wall-clock time on stderr.  `_write` writes a record as its
fields, so the record types are the report schema; each scalar through a
C-level encoder; and a list of uniform rows (edge pairs, bottlenecks,
merges) with one %-template (`_rows`).
`_parse` reads argv with one table, `_COMMANDS`; `_USAGE` is the -h/--help
text.  Exit codes: 0 success (also -h/--help and --version), 2 usage,
parse or input error, 3 precondition violation, 4 budget refusal, 1
internal error.
TERMFLOW_BUDGET=EVALS[:INTERPS], in ASCII digits, overrides the default
search budget; --budget beats the environment.

`main` pauses the cyclic garbage collector for the command and restores
its state on every way out: termflow builds no reference cycles, so
reference counting still frees all it drops, and the pause only skips the
collector's repeated scans of the live objects a large input builds.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import re
import sys
import time
import types
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from . import __version__
from .depgraph import (DependencyGraph, add_source_loops, dependency_graph,
                       passthrough_graph, to_dot)
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
    return parse(text, kind), {"path": str(path),
                               "sha256": hashlib.sha256(data).hexdigest()}


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


def _as_graph(obj) -> DependencyGraph:
    """Graphs pass through.  A term system's graph is read off its DAG when
    the pipeline would leave it unchanged (`passthrough_graph`); any other
    system goes through the pipeline first, which also raises its errors."""
    if isinstance(obj, DependencyGraph):
        return obj
    if isinstance(obj, TermSystem):
        graph = passthrough_graph(obj)
        return dependency_graph(pipeline(obj)[0]) if graph is None else graph
    raise PreconditionError(
        "this command needs a graph or instance input, not a dispersion spec")


def cmd_normalize(args) -> tuple[dict, int]:
    system, meta = _load(args.file, "system")
    norm, rep = pipeline(system)
    result = vars(rep) | {"input_size": instance_size(system), "system": render(norm)}
    if args.diversify:
        result["diversified"] = render(diversify(norm))
    if args.dot is not None:
        result["dot_path"] = _write_dot(args.dot, to_dot(dependency_graph(norm)))
    return _report("normalize", meta,
                   {"fnf_check": args.fnf_check, "diversify": args.diversify,
                    "dot": args.dot},
                   result), (3 if args.fnf_check and not rep.is_fnf else 0)


def cmd_exponent(args) -> tuple[dict, int]:
    spec, meta = _load(args.file, "dispersion")
    res = dispersion_exponent(spec)
    result = {"D": res.D, "max_flow_value": res.D, "min_cut": res.min_cut}
    if args.certificate:
        result["certificate"] = res.certificate()
    if args.dot is not None:
        result["dot_path"] = _write_dot(args.dot, network_dot(res.network))
    return _report("exponent", meta,
                   {"certificate": args.certificate, "dot": args.dot}, result), 0


def cmd_brute(args) -> tuple[dict, int]:
    budget = _budget(args)
    kind = {"solve": "system", "guess": "auto", "sandwich": "system"}
    obj, meta = _load(args.file, kind.get(args.mode, "dispersion"))
    obj = (_as_graph(obj) if args.mode == "guess" else
           pipeline(obj)[0] if args.mode == "sandwich" else obj)
    search = {"disp": brute_dispersion, "solve": brute_max_solutions,
              "guess": brute_guessing, "perfect": check_perfect_fixed,
              "embed": check_embedding, "sandwich": sandwich_check}[args.mode]
    return _report(f"brute {args.mode}", meta,
                   {"mode": args.mode, "n": args.n, "budget": budget},
                   search(obj, args.n, budget)), 0


def cmd_threshold(args) -> tuple[dict, int]:
    spec, meta = _load(args.file, "dispersion")
    dec = decide_threshold(spec, args.d)
    result = {"answer": "yes" if dec.answer else "no", "d": dec.d,
              "D": dec.exponent.D, "criterion": "D >= d+1",
              "min_cut": dec.exponent.min_cut}
    return _report("threshold", meta, {"d": args.d}, result), 0


def cmd_graph(args) -> tuple[dict, int]:
    obj, meta = _load(args.file, "auto")
    graph = add_source_loops(_as_graph(obj)) if args.loops else _as_graph(obj)
    result = {"vertices": graph.vertices,
              "sources": [v for v in graph.vertices if v in graph.sources],
              "edges": graph.sorted_edges,
              "vertex_count": len(graph.vertices),
              "edge_count": len(graph.edges)}
    if args.dot is not None:
        result["dot_path"] = _write_dot(args.dot, to_dot(graph))
    return _report("graph", meta, {"loops": args.loops, "dot": args.dot},
                   result), 0


def _report(command: str, meta: dict, parameters: dict, result: dict) -> dict:
    return {"command": command, "input": meta, "parameters": parameters,
            "result": result, "version": __version__}


# Each scalar's JSON text by its exact type, from C-level callables
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__}


def _rows(rows, indent: str) -> str | None:
    """The items of `rows` (two or more, the first a list, tuple or dict)
    joined as `_write` joins them at `indent`, or None unless they are
    uniform: all lists (or all tuples) of one nonzero length, or all dicts
    with one nonempty key set, and each column's values of one exact type
    in `_SCALARS`.  The row's text is built once with `%s` for each value,
    each column is encoded with one `map`, and one `%` fills every row."""
    first = rows[0]
    if len(set(map(type, rows))) > 1 or not first:
        return None
    if type(first) is dict:
        if len(set(map(frozenset, rows))) > 1:
            return None
        keys = sorted(first)  # a non-str key raises TypeError, here or below
        columns = [map(itemgetter(key), rows) for key in keys]
        heads = [encode_basestring_ascii(key).replace("%", "%%") + ": "
                 for key in keys]
        brackets = "{}"
    else:
        if len(set(map(len, rows))) > 1:
            return None
        columns, heads, brackets = zip(*rows), [""] * len(first), "[]"
    encoded = []
    for column in map(tuple, columns):
        kinds = set(map(type, column))
        if len(kinds) > 1 or (kind := kinds.pop()) not in _SCALARS:
            return None
        encoded.append(map(_SCALARS[kind], column))
    inner = indent + "  "
    row = (brackets[0] + inner + ("," + inner).join([h + "%s" for h in heads])
           + indent + brackets[1])
    return ("," + indent).join([row] * len(rows)) % tuple(
        chain.from_iterable(zip(*encoded)))


def _write(obj, indent: str = "\n") -> str:
    """`obj` as `json.dumps(obj, indent=2, sort_keys=True)` writes it, and
    a dataclass as its fields.

    A list or tuple of uniform rows (see `_rows`) or of records is written
    with one %-template; anything else item by item.  A float, a subclass
    or anything else goes through `json.dumps`.  A non-`str` key raises
    `TypeError`, where json would coerce it and sort it differently."""
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
        if len(obj) > 1 and dataclasses.is_dataclass(obj[0]):
            obj = [vars(x) if dataclasses.is_dataclass(x) else x for x in obj]
        if (len(obj) > 1 and type(obj[0]) in (list, tuple, dict)
                and (text := _rows(obj, inner)) is not None):
            return "[" + inner + text + indent + "]"
        return "[" + inner + ("," + inner).join([
            _SCALARS[type(x)](x) if type(x) in _SCALARS else _write(x, inner)
            for x in obj]) + indent + "]"
    if dataclasses.is_dataclass(obj):
        return _write(vars(obj), indent)
    return json.dumps(obj)


_USAGE = """\
usage: termflow normalize FILE [--fnf-check] [--diversify] [--dot PATH]
       termflow exponent  FILE [--certificate] [--dot PATH]
       termflow brute {disp|solve|guess|perfect|embed|sandwich} FILE -n N
                [--budget EVALS[:INTERPS]]
       termflow threshold FILE -d D
       termflow graph     FILE [--loops] [--dot PATH]
       termflow --version | -h | --help"""
_MODES = ("disp", "solve", "guess", "perfect", "embed", "sandwich")
_FILE, _DOT, _REQUIRED = ("file", Path), ("dot", str, None), object()
# Each command's handler, its positionals as (attribute, converter) and its
# options as {option: (attribute, converter or None for a flag, default)}
_COMMANDS = {
    "normalize": (cmd_normalize, [_FILE], {
        "--fnf-check": ("fnf_check", None, False),
        "--diversify": ("diversify", None, False), "--dot": _DOT}),
    "exponent": (cmd_exponent, [_FILE], {
        "--certificate": ("certificate", None, False), "--dot": _DOT}),
    "brute": (cmd_brute, [("mode", lambda m: _MODES[_MODES.index(m)]), _FILE], {
        "-n": ("n", int, _REQUIRED), "--budget": ("budget", str, None),
        "--jobs": ("jobs", int, 1)}),  # --jobs is accepted and ignored
    "threshold": (cmd_threshold, [_FILE], {"-d": ("d", int, _REQUIRED)}),
    "graph": (cmd_graph, [_FILE], {"--loops": ("loops", None, False),
                                   "--dot": _DOT})}
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a value, though it starts with -


def _option(arg: str, options: dict) -> tuple[str | None, str | None]:
    """`arg` as argparse reads it: (option, attached value) or (None, None)."""
    name, eq, value = arg.partition("=")
    if name in options:  # --opt, --opt=VALUE, -n=N
        return name, value if eq else None
    if arg[:2] in options:  # -nN
        return arg[:2], arg[2:]
    plain = arg[:1] != "-" or arg in ("-", "--") or " " in arg or _NUMBER.match(arg)
    return (None, None) if plain else (arg, None)


def _convert(name: str, convert, text: str | None):
    """`text` through `convert`; a flag (`convert` None) takes no value."""
    try:
        if convert is None and text is not None:
            raise ValueError
        return True if convert is None else convert(text)
    except ValueError:
        raise ValidationError(f"bad {name} {text!r}") from None


def _parse(argv) -> types.SimpleNamespace | str:
    """The namespace the `cmd_*` handlers read, or the -h/--help or --version
    text.  As in argparse, a bad value raises at once, an unknown or a
    missing argument only at the end, after any -h."""
    handler, positionals, options, values, extras = None, [], {}, {}, []
    rest, ended, beside = iter(argv), False, None
    for i, arg in enumerate(rest):  # an option reads its value in its own step
        option, value = (None, None) if ended else _option(arg, options)
        if option in ("-h", "--help") or option == "--version" and not handler:
            return f"termflow {__version__}" if option == "--version" else _USAGE
        if option is None and not handler:
            if arg not in _COMMANDS:
                raise ValidationError(f"unknown command {arg!r}")
            handler, positionals, options = _COMMANDS[arg]
            positionals, values = positionals[:], {"command": arg, "handler": handler}
        elif option is None and arg == "--" and not ended:
            ended = True  # argparse keeps a `--` only beside a positional
            extras += [] if positionals or beside == i else [arg]
        elif option is None and positionals:
            (dest, convert), beside = positionals.pop(0), i + 1
            values[dest] = _convert(dest, convert, arg)
        elif option not in options:
            extras.append(arg)
        else:
            dest, convert, _ = options[option]
            if convert is not None and value is None:  # the end reads as --
                value = next(rest, "--")
                if value == "--" or _option(value, options)[0]:
                    raise ValidationError(f"{option} needs a value")
            values[dest] = _convert(option, convert, value)
    missing = [d for d, _ in positionals] + [o for o, (d, _, v) in options.items()
                                             if v is _REQUIRED and d not in values]
    if extras or missing or not handler:
        raise ValidationError(f"unknown argument {extras[0]!r}" if extras else
                              f"missing {', '.join(missing) or 'command'}")
    return types.SimpleNamespace(**{
        dest: default for dest, _, default in options.values()} | values)


_EXIT_CODES = {ParseError: 2, ValidationError: 2, PreconditionError: 3,
               BudgetError: 4, TermflowError: 1}


# The errnos that mean nobody reads a stream any more: a closed pipe, and
# on stderr also a closed or read-only descriptor.  Any other failed write
# (a full disk, an I/O error) loses output someone wants, and raises.
_STDOUT_GONE = frozenset({errno.EPIPE})
_STDERR_GONE = frozenset({errno.EPIPE, errno.EBADF})


def _say(text: str, stream, gone: frozenset) -> None:
    """Print one line on `stream` and flush it.  Python leaves a stream None
    when its descriptor is closed at start, and print would then write to
    stdout: skip it.  A write that fails with an errno in `gone` points the
    stream's descriptor at os.devnull, as the Python docs' note on SIGPIPE
    does, so the command still ends quietly with its own exit code."""
    if stream is None:
        return
    try:
        print(text, file=stream, flush=True)
    except OSError as exc:
        if exc.errno not in gone:
            raise
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)


def main(argv=None) -> int:
    import gc  # here, so that importing termflow.cli loads no module for it
    args, collecting = None, gc.isenabled()  # a usage error leaves args None
    gc.disable()
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        started = time.perf_counter()
        report, code = (None, 0) if isinstance(args, str) else args.handler(args)
    except TermflowError as exc:
        _say(f"error: {exc}" + ("" if args else f"\n{_USAGE}"), sys.stderr,
             _STDERR_GONE)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__
                    if cls in _EXIT_CODES)
    else:  # help, version or the report
        _say(args if report is None else _write(report), sys.stdout,
             _STDOUT_GONE)
        if report is not None:
            elapsed = (time.perf_counter() - started) * 1000.0
            _say(f"elapsed_ms={elapsed:.1f}", sys.stderr, _STDERR_GONE)
        return code
    finally:
        if collecting:
            gc.enable()
