"""Command-line behavior: canonical reports, exit codes, environment."""

import ast
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import termflow
from termflow import cli, kernel, normalize, oracle
from termflow.corpus import corpus_dir, corpus_names, corpus_path
from termflow.errors import TermflowError
from termflow.terms import Interpretation
from corpus_loader import load


def run_cli(*args, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "TERMFLOW_BUDGET"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "termflow", *args],
                          capture_output=True, env=env)


def path(name: str) -> str:
    return str(corpus_path(name))


def test_report_shape_and_digest():
    proc = run_cli("exponent", path("diamond.disp"))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert set(report) == {"command", "input", "parameters", "result",
                           "version"}
    assert report["command"] == "exponent"
    assert report["version"] == termflow.__version__
    raw = corpus_path("diamond.disp").read_bytes()
    assert report["input"]["sha256"] == hashlib.sha256(raw).hexdigest()
    assert report["result"]["D"] == 4
    assert report["result"]["min_cut"] == ["w", "x", "y", "z"]


# Every command form that accepts a corpus file, by the file's kind
_FORMS = {
    ".inst": [("normalize",), ("normalize", "--diversify"), ("graph",),
              ("graph", "--loops"), ("brute", "solve", "-n", "2"),
              ("brute", "guess", "-n", "2")],
    ".graph": [("graph",), ("graph", "--loops"), ("brute", "guess", "-n", "2")],
    ".disp": [("exponent",), ("exponent", "--certificate"),
              ("threshold", "-d", "1"), ("brute", "disp", "-n", "2"),
              ("brute", "perfect", "-n", "2")],
}


def test_stdout_is_canonical_json():
    """Every report json.dumps(indent=2, sort_keys=True) would write, byte
    for byte; a refusal or precondition error prints none."""
    printed = 0
    for name in corpus_names():
        for form in _FORMS[Path(name).suffix]:
            code, out, err = _main(*form, path(name))
            assert code in (0, 3, 4), (form, name, err)
            assert (code == 0) == bool(out), (form, name)
            if out:
                assert out == json.dumps(json.loads(out), indent=2,
                                         sort_keys=True) + "\n", (form, name)
                printed += 1
    assert printed >= 100
    proc = run_cli("threshold", path("diamond.disp"), "-d", "3")
    text = proc.stdout.decode()
    parsed = json.loads(text)
    assert text == json.dumps(parsed, indent=2, sort_keys=True) + "\n"
    assert parsed["result"]["answer"] == "yes"


_REPORT_DIGESTS = Path(__file__).with_name("report_digests.txt")
# The pinned commands beyond `_FORMS`, by the file's kind
_PINNED = {".disp": [("brute", "embed", "-n", "2")],
           ".inst": [("brute", "sandwich", "-n", "2")], ".graph": []}


def _report_digests() -> str:
    """`report_digests.txt` as the code writes it: one line per pinned
    command, the sha256 of its exit code and stdout, then the command, with
    the corpus directory written `<corpus>`."""
    lines = ["# sha256 of f'{exit code}\\n{stdout}' per command; the corpus "
             "directory is written <corpus>.",
             "# Regenerate after a deliberate report change with",
             "# PYTHONPATH=src:tests python -c 'import test_cli as t; "
             "t._REPORT_DIGESTS.write_text(t._report_digests())'"]
    corpus = str(corpus_dir())
    for name in corpus_names():
        suffix = Path(name).suffix
        for form in _FORMS[suffix] + _PINNED[suffix]:
            code, out, _ = _main(*form, path(name))
            digest = hashlib.sha256(
                f"{code}\n{out}".replace(corpus, "<corpus>").encode()).hexdigest()
            lines.append(f"{digest}  {' '.join(form)} <corpus>/{name}")
    return "\n".join(lines) + "\n"


def test_reports_match_their_pinned_digests():
    """Every corpus report is byte-identical to the pinned one: a change
    that alters a report on purpose regenerates the file (see its head)."""
    assert (_report_digests().splitlines()
            == _REPORT_DIGESTS.read_text().splitlines())


_TEXT = st.text(st.characters()
                | st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u2028')
                | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF))
_SCALAR = (_TEXT | st.integers(-(2 ** 130), 2 ** 130)
           | st.sampled_from([0, 1, True, False, None])
           | st.floats()
           | st.sampled_from([-0.0, 1e300, float("inf"), float("-inf"),
                              float("nan")]))
_NESTED = st.recursive(
    _SCALAR, lambda inner: (st.lists(inner, max_size=4)
                            | st.lists(inner, max_size=4).map(tuple)
                            | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(_NESTED)
def test_writer_is_indented_sorted_json(obj):
    assert cli._write(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("key", [1, None, 2.5, True])
def test_writer_refuses_a_non_str_key(key):
    # json would write the key coerced to a string, sorted among the rest
    with pytest.raises(TypeError):
        cli._write({"a": [{key: 0}]})
    with pytest.raises(TypeError):  # rows the template would write
        cli._write({"a": [{key: 0}, {key: 1}]})


class _Int(int):
    pass


_ROW_KEYS = st.sampled_from(["%", "%s", "%%d", '"', "\\", "\u00e9", "\u043a", ""]) | _TEXT
_COLUMNS = st.sampled_from([_TEXT, st.integers(-(2 ** 70), 2 ** 70),
                            st.booleans(), st.none()])


@st.composite
def _uniform_rows(draw):
    """Two or more rows the template writes: equal-length lists or tuples,
    or dicts with one key set in any insertion order, each column of one
    of `str`, `int`, `bool` and `None`."""
    kind = draw(st.sampled_from([list, tuple, dict]))
    keys = (draw(st.lists(_ROW_KEYS, min_size=1, max_size=4, unique=True))
            if kind is dict else range(draw(st.integers(1, 4))))
    columns = [draw(_COLUMNS) for _ in keys]
    rows = []
    for _ in range(draw(st.integers(2, 5))):
        values = [draw(column) for column in columns]
        if kind is dict:
            order = draw(st.permutations(range(len(keys))))
            rows.append({keys[i]: values[i] for i in order})
        else:
            rows.append(kind(values))
    return rows


def _with(row, key, value):
    """`row` with `value` at `key`."""
    if isinstance(row, dict):
        return row | {key: value}
    return type(row)(value if i == key else x for i, x in enumerate(row))


def _near_miss(rows, miss, spot):
    """`rows` spoilt at row `spot` so that the template must refuse them."""
    rows, spot = list(rows), spot % len(rows)
    row = rows[spot]
    key = next(iter(row)) if isinstance(row, dict) else 0
    if miss in ("bool_int", "int_float", "subclass"):
        rows = [_with(r, key, 7) for r in rows]
    if isinstance(row, dict):
        new = "k" * (1 + max(map(len, row)))  # a key no row has
        longer = row | {new: 0}
        renamed = {new if k == key else k: v for k, v in row.items()}
    else:  # a list or tuple has no key set: its near miss is its length
        longer = renamed = row + type(row)((0,))
    rows[spot] = {
        "length": lambda: longer,
        "keys": lambda: renamed,
        "kind": lambda: (list(row.values()) if isinstance(row, dict) else
                         list(row) if isinstance(row, tuple) else tuple(row)),
        "bool_int": lambda: _with(row, key, True),
        "int_float": lambda: _with(row, key, 7.5),
        "subclass": lambda: _with(row, key, _Int(7)),
        "nested": lambda: _with(row, key, [row[key]]),
        "empty": lambda: type(row)(),
    }[miss]()
    return rows


def _written(rows):
    for obj in (rows, tuple(rows), {"a": rows, "b": [rows, 0]}):
        assert cli._write(obj) == json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(_uniform_rows())
def test_uniform_rows_take_the_template(rows):
    assert cli._rows(rows, "\n  ") is not None
    _written(rows)


@settings(max_examples=150, deadline=None)
@given(_uniform_rows(), st.sampled_from(["length", "keys", "kind", "bool_int",
                                         "int_float", "subclass", "nested",
                                         "empty"]), st.integers(0, 4))
def test_near_miss_rows_fall_back(rows, miss, spot):
    rows = _near_miss(rows, miss, spot)
    assert cli._rows(rows, "\n  ") is None
    _written(rows)


def test_reports_take_the_row_template(monkeypatch, tmp_path):
    """The `graph` edge list, the certificate's bottlenecks and a
    pipeline's merges are each written as one template."""
    taken, rows_of = [], cli._rows

    def counting(rows, indent):
        text = rows_of(rows, indent)
        taken.append((len(rows), text is not None))
        return text

    monkeypatch.setattr(cli, "_rows", counting)
    chain = tmp_path / "chain.graph"
    chain.write_text("graph { nodes a, b, c; sources a; "
                     "edge a -> b; edge b -> c; edge c -> a; }")
    code, out, _ = _main("graph", str(chain))
    assert code == 0 and taken == [(3, True)]
    assert json.loads(out)["result"]["edges"] == [["a", "b"], ["b", "c"],
                                                  ["c", "a"]]
    taken.clear()
    code, out, _ = _main("exponent", path("diamond.disp"), "--certificate")
    bottlenecks = json.loads(out)["result"]["certificate"]["bottlenecks"]
    assert code == 0 and taken == [(len(bottlenecks), True)]
    assert len(bottlenecks) > 1
    taken.clear()
    code, out, _ = _main("normalize", path("cascade.inst"))
    assert code == 0 and taken == [(2, True)]
    assert len(json.loads(out)["result"]["merges"]) == 2


def _reference_json(record):
    """A result record as plain lists and dicts, as the CLI converted it
    before `_write` wrote records itself: an interpretation is its tables,
    a tuple a list, and any other dataclass its fields."""
    if isinstance(record, tuple):
        return [x if isinstance(x, str) else _reference_json(x) for x in record]
    if isinstance(record, Interpretation):
        return {"n": record.n, "tables": {name: list(table) for name, table
                                          in record.tables.items()}}
    if dataclasses.is_dataclass(record):
        return {key: x if isinstance(x, str) else _reference_json(x)
                for key, x in vars(record).items()}
    return record


# Each `brute` mode's search on a parsed corpus file, as `cmd_brute` runs it,
# by the kinds of file the mode accepts
_SEARCHES = {
    ".disp": [oracle.brute_dispersion, oracle.check_perfect_fixed,
              oracle.check_embedding],
    ".inst": [oracle.brute_max_solutions,
              lambda system, n: oracle.brute_guessing(cli._as_graph(system), n),
              lambda system, n: oracle.sandwich_check(
                  normalize.pipeline(system)[0], n)],
    ".graph": [oracle.brute_guessing]}


def test_writer_writes_records_as_the_reference_converter():
    records = [oracle.DEFAULT_BUDGET, oracle.SearchBudget(100, 10)]
    for name in corpus_names():
        obj, suffix = load(name), Path(name).suffix
        if suffix == ".inst":
            records.append(normalize.pipeline(obj)[1])
        for search in _SEARCHES[suffix]:
            try:
                records.append(search(obj, 2))
            except TermflowError:  # a precondition the file fails
                pass
    assert len(records) > 50
    for record in records:
        assert cli._write(record) == cli._write(_reference_json(record))


def _call_name(node):
    return (node.func.id if isinstance(node.func, ast.Name) else
            node.func.attr if isinstance(node.func, ast.Attribute) else None)


def test_one_report_writer():
    """No json call indents, and only `cli.main` writes to stdout: every
    report goes through the one writer, `cli._write`, and no print falls
    back to stdout for want of a `file`."""
    package = Path(termflow.__file__).parent
    writers = []
    for source in package.glob("*.py"):
        tree = ast.parse(source.read_text())
        named = 0  # every `.stdout` the module names, in a function or not
        for node in ast.walk(tree):
            named += getattr(node, "attr", None) == "stdout"
            if (isinstance(node, ast.Call)
                    and _call_name(node) in ("dump", "dumps")):
                assert "indent" not in {k.arg for k in node.keywords}, \
                    (source.name, node.lineno)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name != "_write":
                found = [node for node in ast.walk(func)
                         if getattr(node, "attr", None) == "stdout"]
                named -= len(found)
                writers += [(source.name, func.name, "stdout") for _ in found]
                writers += [(source.name, func.name, _call_name(node))
                            for node in ast.walk(func)
                            if isinstance(node, ast.Call)
                            and (_call_name(node) == "_write"
                                 or _call_name(node) == "print" and not any(
                                     k.arg == "file" for k in node.keywords))]
        assert named == 0, source.name
    assert sorted(writers) == [("cli.py", "main", "_write"),
                               ("cli.py", "main", "stdout")]


def test_repeated_runs_are_byte_identical():
    first = run_cli("brute", "disp", path("diamond.disp"), "-n", "2")
    second = run_cli("brute", "disp", path("diamond.disp"), "-n", "2")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_jobs_do_not_appear_or_matter():
    # index_coding at n = 2 is a long unpruned scan: 2^16 x 2^8
    # closed-form evaluations
    for mode, name, jobs in (("disp", "diamond.disp", "8"),
                             ("solve", "index_coding.inst", "2")):
        lone = run_cli("brute", mode, path(name), "-n", "2", "--jobs", "1")
        other = run_cli("brute", mode, path(name), "-n", "2", "--jobs", jobs)
        assert lone.returncode == other.returncode == 0
        assert lone.stdout == other.stdout
        assert b"jobs" not in lone.stdout


def test_import_starts_no_process_machinery():
    # every scan runs in this process, so the CLI never loads a pool
    code = ("import sys, termflow.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


_NUMPY_PROBE = """
import contextlib, io, sys
import termflow.cli
from termflow.corpus import corpus_path

def run(*args):
    args = [str(corpus_path(a)) if "." in a else a for a in args]
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        return termflow.cli.main(args)

codes = [run("normalize", "index_coding.inst"),
         run("exponent", "diamond.disp", "--certificate"),
         run("threshold", "diamond.disp", "-d", "3"),
         run("graph", "index_coding.inst"),
         termflow.cli.main(["normalize", sys.argv[1]]),
         run("brute", "disp", "diamond.disp", "-n", "4")]
before = "numpy" in sys.modules
codes.append(run("brute", "disp", "diamond.disp", "-n", "2"))
print(codes, before, "numpy" in sys.modules)
"""


def test_numpy_is_loaded_only_by_a_scan(tmp_path):
    # polynomial commands, input errors and budget refusals never scan
    bad = tmp_path / "bad.inst"
    bad.write_text("instance { vars x; sig f/1; eq f(x = y; }")
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, str(bad)],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[0, 0, 0, 0, 2, 4, 0] False True\n"


def test_only_the_kernel_imports_numpy():
    package = Path(termflow.__file__).parent
    importers = set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""]
                     if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(source.name)
    assert importers == {"kernel.py"}


def test_only_terms_decides_what_an_integer_is():
    # `terms.check_int` is the one integer gate: no other module calls
    # `operator.index` or catches the TypeError it raises
    package = Path(termflow.__file__).parent
    callers, catchers = set(), set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "index"
                    and getattr(node.value, "id", None) == "operator"
                    or isinstance(node, ast.ImportFrom)
                    and node.module == "operator"
                    and any(a.name == "index" for a in node.names)):
                callers.add(source.name)
            if (isinstance(node, ast.ExceptHandler) and node.type is not None
                    and "TypeError" in ast.dump(node.type)):
                catchers.add(source.name)
    assert callers == catchers == {"terms.py"}


_API = {
    "App", "BlockEncoding", "BudgetError", "Classification", "DEFAULT_BUDGET",
    "DependencyGraph", "DispersionSpec", "EmbeddingCheck", "Equation",
    "EvalError", "ExponentResult", "FlowNetwork", "GuessingEquality",
    "Interpretation", "NormalEquation", "NormalSystem", "OracleResult",
    "ParseError", "PerfectDecision", "PipelineReport", "PreconditionError",
    "SandwichReport", "SearchBudget", "Signature", "Term", "TermDag",
    "TermSystem", "TermflowError", "ThresholdDecision", "ValidationError",
    "Var", "add_source_loops", "assignments", "brute_dispersion",
    "brute_guessing", "brute_max_solutions", "build_dag", "build_network",
    "check_embedding", "check_perfect_fixed", "check_solutions_equal_winning",
    "classify",
    "collision_quotient", "count_solutions", "count_winning",
    "decide_perfect_r1", "decide_threshold", "dependency_graph",
    "dispersion_exponent", "diversify", "embed_dispersion", "flatten",
    "graph_system", "image_of", "instance_size", "interpretation_at",
    "interpretation_count", "lift_interpretation", "max_flow", "network_dot",
    "pad_dispersion", "parse", "pipeline", "quotient_vars", "render",
    "sandwich_check", "table_index", "to_dot",
}


def test_package_binds_exactly_the_public_api():
    # submodules are bound as they are imported, so they are not counted;
    # adding or dropping an export means editing `_API`
    public = {name for name, obj in vars(termflow).items()
              if not name.startswith("_")
              and not isinstance(obj, types.ModuleType)}
    assert public == _API


def test_only_the_kernel_names_its_chunk_geometry():
    # `oracle` calls `_scan` and `_witness`; how a scan splits into chunks
    # and which n it prunes from stay inside `kernel`
    package = Path(termflow.__file__).parent
    private = {"_chunks", "_low_digits", "_CHUNK_CELLS", "_PRUNE_MIN_N"}
    readers = set()
    for source in package.rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in private:
                readers.add(source.name)
    assert readers == {"kernel.py"}


def test_modules_read_few_private_names_of_each_other():
    # (reader, owner, name) for each `_`-prefixed name one termflow module
    # imports from another or reads off one it imported as a module
    package = Path(termflow.__file__).parent
    reads = set()
    for source in package.glob("*.py"):
        tree = ast.parse(source.read_text())
        modules = {}  # local name -> termflow module, from `from . import m`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        reads.add((source.stem, node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                reads.add((source.stem, modules[node.value.id], node.attr))
    assert reads == {
        ("dsl", "terms", "_from_dag"), ("dsl", "terms", "_from_arities"),
        ("dsl", "terms", "_Nodes"), ("oracle", "kernel", "_scan"),
        ("oracle", "kernel", "_witness")}


def test_timing_goes_to_stderr_only():
    proc = run_cli("exponent", path("diamond.disp"))
    assert b"elapsed_ms=" in proc.stderr
    assert b"elapsed_ms" not in proc.stdout


def test_threshold_no():
    proc = run_cli("threshold", path("diamond.disp"), "-d", "4")
    assert json.loads(proc.stdout)["result"]["answer"] == "no"
    proc = run_cli("threshold", path("fg.disp"), "-d", "1")
    assert json.loads(proc.stdout)["result"]["answer"] == "no"


def test_parse_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.inst"
    bad.write_text("instance { vars x; sig f/1; eq f(x = y; }")
    proc = run_cli("normalize", str(bad))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"expected ')'" in proc.stderr


def test_non_utf8_file_exits_2(tmp_path):
    bad = tmp_path / "latin1.disp"
    bad.write_bytes(b"dispersion { inputs x; sig f/1; outputs f(x); }\n"
                    b"# \xe9\n")
    proc = run_cli("exponent", str(bad))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"not UTF-8" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_missing_file_exits_2():
    proc = run_cli("exponent", "/nonexistent/nowhere.disp")
    assert proc.returncode == 2


def test_kind_mismatch_exits_2():
    proc = run_cli("exponent", path("fx.inst"))
    assert proc.returncode == 2


def test_precondition_exits_3():
    proc = run_cli("brute", "guess", path("diamond.disp"), "-n", "2")
    assert proc.returncode == 3
    proc = run_cli("brute", "sandwich", path("two_sided.inst"), "-n", "4")
    assert proc.returncode == 3


def test_fnf_check_prints_report_then_exits_3():
    proc = run_cli("normalize", path("two_sided.inst"), "--fnf-check")
    assert proc.returncode == 3
    report = json.loads(proc.stdout)
    assert report["result"]["is_fnf"] is False


def test_budget_refusal_exits_4():
    proc = run_cli("brute", "disp", path("diamond.disp"), "-n", "4")
    assert proc.returncode == 4
    assert b"4294967296" in proc.stderr


# A reader that has gone: the command still ends quietly with its own exit
# code.  Each stream is dead before the child starts, so nothing races.

def _run_dead_stream(*args, **streams):
    env = {k: v for k, v in os.environ.items() if k != "TERMFLOW_BUDGET"}
    return subprocess.run([sys.executable, "-m", "termflow", *args], env=env,
                          **streams)


@pytest.mark.parametrize("args,stderr", [
    (("brute", "disp", path("diamond.disp"), "-n", "2"), rb"elapsed_ms=\S+\n"),
    (("exponent", path("diamond.disp")), rb"elapsed_ms=\S+\n"),
    (("--help",), rb""),
])
def test_closed_stdout_pipe_ends_quietly(args, stderr):
    read, write = os.pipe()
    os.close(read)  # every write to the pipe fails with EPIPE
    try:
        proc = _run_dead_stream(*args, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert proc.returncode == 0
    assert re.fullmatch(stderr, proc.stderr), proc.stderr  # no traceback


def _read_only_stdout():
    os.dup2(os.open(os.devnull, os.O_RDONLY), 1)  # writes fail with EBADF


@pytest.mark.parametrize("args", [("exponent", path("diamond.disp")),
                                  ("--help",)])
@pytest.mark.parametrize("stdout", ["full", "read-only"])
def test_unwritable_stdout_fails(args, stdout):
    """Only a closed pipe is absorbed: a report that cannot be written at
    all (a full disk, a descriptor not open for writing) ends non-zero."""
    if stdout == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        with open("/dev/full", "wb") as full:
            proc = _run_dead_stream(*args, stdout=full, stderr=subprocess.PIPE)
    else:
        proc = _run_dead_stream(*args, stderr=subprocess.PIPE,
                                preexec_fn=_read_only_stdout)
    assert proc.returncode != 0
    assert b"OSError" in proc.stderr


def _close_stderr():
    os.close(2)


def _read_only_stderr():
    os.dup2(os.open(os.devnull, os.O_RDONLY), 2)  # writes fail with EBADF


@pytest.mark.parametrize("dead", [_close_stderr, _read_only_stderr])
@pytest.mark.parametrize("args,code", [
    (("exponent", path("diamond.disp")), 0),
    (("brute", "disp", path("diamond.disp"), "-n", "4"), 4),
    (("exponent", "--no-such-option"), 2),
])
def test_dead_stderr_ends_quietly(dead, args, code):
    proc = _run_dead_stream(*args, stdout=subprocess.PIPE, preexec_fn=dead)
    assert proc.returncode == code
    # stdout holds the report alone: nothing meant for stderr lands there
    assert proc.stdout == run_cli(*args).stdout
    assert (code == 0) == bool(proc.stdout)


def test_index_range_refusal_names_no_infinity(tmp_path):
    wide = tmp_path / "wide.disp"
    wide.write_text("dispersion { inputs x; sig f/40; outputs f("
                    + ", ".join(["x"] * 40) + "); }\n")
    proc = run_cli("brute", "disp", str(wide), "-n", "3")
    assert proc.returncode == 4
    assert b"index range" in proc.stderr
    assert b"inf" not in proc.stderr


def test_env_budget_is_honored_and_flag_wins():
    env = {"TERMFLOW_BUDGET": "100"}
    proc = run_cli("brute", "disp", path("diamond.disp"), "-n", "2",
                   env_extra=env)
    assert proc.returncode == 4
    proc = run_cli("brute", "disp", path("diamond.disp"), "-n", "2",
                   "--budget", "1000000", env_extra=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["value"] == 10


_BAD_BUDGETS = ["10x", "100:20:3", "", ":5", "\u00b2", "1:\u00b9",
                "\u0661\u0662", "0", "9" * 5000, "1:" + "9" * 5000]


def test_bad_budget_exits_2():
    """Budget digits are ASCII; a superscript, an Arabic-Indic digit or a
    value past Python's int-string limit is a bad value, never a crash,
    whether it comes from the flag or the environment."""
    args = ["brute", "disp", path("diamond.disp"), "-n", "2"]
    for budget in _BAD_BUDGETS:
        for proc in (run_cli(*args, "--budget", budget),
                     run_cli(*args, env_extra={"TERMFLOW_BUDGET": budget})):
            assert proc.returncode == 2, (budget[:20], proc.stderr[-300:])
            assert b"Traceback" not in proc.stderr
            assert proc.stdout == b""


def test_normalize_report_and_diversify():
    proc = run_cli("normalize", path("flatten_nested.inst"), "--diversify")
    result = json.loads(proc.stdout)["result"]
    assert result["auxiliaries"] == ["_z0", "_z1"]
    assert result["merges"] == [{"kept": "y", "removed": "_z1",
                                 "stage": "quotient_vars"}]
    assert result["is_fnf"] and result["is_cfnf"]
    assert "g@0" in result["diversified"]
    assert result["input_size"] == 5


def test_dot_files_are_written(tmp_path):
    dot = tmp_path / "graph.dot"
    proc = run_cli("graph", path("index_coding.inst"), "--dot", str(dot))
    assert proc.returncode == 0
    assert dot.read_text().startswith("digraph dependencies {")
    net = tmp_path / "net.dot"
    proc = run_cli("exponent", path("diamond.disp"), "--dot", str(net))
    assert proc.returncode == 0
    assert net.read_text().startswith("digraph network {")


@pytest.mark.parametrize("target,reason", [
    ("missing/x.dot", "No such file or directory"),
    (".", "Is a directory"),
])
@pytest.mark.parametrize("command,name", [
    ("normalize", "fx.inst"), ("exponent", "diamond.disp"), ("graph", "fx.inst"),
])
def test_unwritable_dot_path_exits_2(tmp_path, command, name, target, reason):
    """An unwritable --dot path is an input error, like an unreadable file:
    exit 2, one line on stderr, and no report."""
    dot = tmp_path / target
    proc = run_cli(command, path(name), "--dot", str(dot))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.decode() == f"error: cannot write {dot}: {reason}\n"


def test_graph_command_reports_structure():
    proc = run_cli("graph", path("index_coding.inst"))
    result = json.loads(proc.stdout)["result"]
    assert result["vertices"] == ["x1", "x2", "x3", "y"]
    assert result["sources"] == []
    assert result["edge_count"] == 9
    looped = run_cli("graph", path("fx.inst"), "--loops")
    lresult = json.loads(looped.stdout)["result"]
    assert lresult["sources"] == []
    assert ["x", "x"] in lresult["edges"]


def test_brute_guess_accepts_instances_and_graphs():
    via_instance = run_cli("brute", "guess", path("index_coding.inst"),
                           "-n", "2")
    assert json.loads(via_instance.stdout)["result"]["value"] == 4
    via_graph = run_cli("brute", "guess", path("cycle3.graph"), "-n", "2")
    assert json.loads(via_graph.stdout)["result"]["value"] == 2


def test_brute_perfect_and_embed_and_solve():
    proc = run_cli("brute", "perfect", path("diamond.disp"), "-n", "2")
    result = json.loads(proc.stdout)["result"]
    assert result["perfect"] is False
    assert result["max_image"] == 10 and result["target"] == 16
    proc = run_cli("brute", "embed", path("single_fn.disp"), "-n", "2")
    result = json.loads(proc.stdout)["result"]
    assert result["equal"] is True
    proc = run_cli("brute", "solve", path("index_coding.inst"), "-n", "2")
    result = json.loads(proc.stdout)["result"]
    assert result["value"] == 4
    assert result["witness"]["tables"]["f"] == [0, 0, 0, 1, 1, 0, 0, 0]


def test_brute_sandwich_command():
    proc = run_cli("brute", "sandwich", path("fx.inst"), "-n", "4")
    result = json.loads(proc.stdout)["result"]
    assert result["ok"] is True
    assert result["original"]["value"] == 4
    assert result["lifted_count"] == 4


def test_certificate_flag():
    proc = run_cli("exponent", path("diamond.disp"), "--certificate")
    result = json.loads(proc.stdout)["result"]
    assert result["certificate"]["flow_value"] == 4
    assert sorted(result["certificate"]["cut"]) == ["w", "x", "y", "z"]


_USAGE_ERRORS = [
    (),  # no command
    ("bogus", "diamond.disp"),  # an unknown command
    ("exponent", "diamond.disp", "--bogus"),  # an unknown option
    ("exponent", "diamond.disp", "--cert"),  # an abbreviated option
    ("brute", "disp", "diamond.disp"),  # no -n
    ("threshold", "diamond.disp"),  # no -d
    ("brute", "disp", "diamond.disp", "-n", "two"),  # a non-integer -n
    ("brute", "draw", "diamond.disp", "-n", "2"),  # an unknown brute mode
    ("exponent",),  # a missing positional
    ("exponent", "diamond.disp", "fg.disp"),  # an extra positional
    ("brute", "disp", "diamond.disp", "-n"),  # an option without its value
    ("exponent", "diamond.disp", "--dot", "--certificate"),
    ("exponent", "diamond.disp", "--certificate=yes"),  # a flag's value
    ("exponent", "diamond.disp", "--version"),  # --version after a command
]


def test_usage_errors_exit_2():
    """In-process: exit 2, the usage on stderr, nothing on stdout, and no
    exception (`SystemExit` included) out of `cli.main`."""
    names = set(corpus_names())
    for argv in _USAGE_ERRORS:
        code, out, err = _main(*[path(a) if a in names else a for a in argv])
        assert (code, out) == (2, ""), (argv, err)
        assert err.startswith("error: ") and cli._USAGE in err, argv


def test_cli_import_loads_no_argparse():
    # the table parser replaced argparse, which also loaded gettext
    code = ("import sys, termflow.cli; print(sorted(m for m in sys.modules "
            "if m in ('argparse', 'gettext')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("--bogus", "-h"),
                                  ("brute", "-h"), ("exponent", "f", "--help")])
def test_help_prints_the_usage(argv):
    assert _main(*argv) == (0, cli._USAGE + "\n", "")


def test_version_flag():
    assert _main("--version") == (0, f"termflow {termflow.__version__}\n", "")


def test_usage_is_the_readme_synopsis():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert f"```\n{cli._USAGE}\n```" in readme.read_text()


def test_option_forms():
    """`--opt VALUE`, `--opt=VALUE`, `-n N`, `-nN`, `-n=N` anywhere after
    the command, and `--` ending the options."""
    disp = path("diamond.disp")
    want = {"command": "brute", "mode": "disp", "file": Path(disp), "n": 2,
            "budget": "9", "jobs": 1, "handler": cli.cmd_brute}
    for argv in (["brute", "disp", disp, "-n", "2", "--budget", "9"],
                 ["brute", "--budget=9", "disp", "-n2", disp],
                 ["brute", "-n=2", "disp", "--budget", "9", "--", disp],
                 ["brute", "-n", "7", "disp", disp, "--budget=9", "-n2"]):
        assert vars(cli._parse(argv)) == want, argv
    assert vars(cli._parse(["exponent", "--", "--dot"]))["file"] == Path("--dot")


def _argparse_parser():
    """The argparse parser that `cli` used before its table: the reference
    that `test_table_parser_reads_argv_as_argparse_did` holds `cli._parse`
    to."""
    import argparse
    p = argparse.ArgumentParser(prog="termflow")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {termflow.__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    norm = sub.add_parser("normalize")
    norm.add_argument("file", type=Path)
    norm.add_argument("--fnf-check", action="store_true")
    norm.add_argument("--diversify", action="store_true")
    norm.add_argument("--dot", metavar="PATH")
    norm.set_defaults(handler=cli.cmd_normalize)
    exp = sub.add_parser("exponent")
    exp.add_argument("file", type=Path)
    exp.add_argument("--certificate", action="store_true")
    exp.add_argument("--dot", metavar="PATH")
    exp.set_defaults(handler=cli.cmd_exponent)
    brute = sub.add_parser("brute")
    brute.add_argument("mode", choices=["disp", "solve", "guess", "perfect",
                                        "embed", "sandwich"])
    brute.add_argument("file", type=Path)
    brute.add_argument("-n", dest="n", type=int, required=True)
    brute.add_argument("--budget", metavar="EVALS[:INTERPS]")
    brute.add_argument("--jobs", type=int, default=1)
    brute.set_defaults(handler=cli.cmd_brute)
    thr = sub.add_parser("threshold")
    thr.add_argument("file", type=Path)
    thr.add_argument("-d", dest="d", type=int, required=True)
    thr.set_defaults(handler=cli.cmd_threshold)
    graph = sub.add_parser("graph")
    graph.add_argument("file", type=Path)
    graph.add_argument("--loops", action="store_true")
    graph.add_argument("--dot", metavar="PATH")
    graph.set_defaults(handler=cli.cmd_graph)
    return p


# The grammar the differential test draws from: each command's
# positionals and options, True for an option that takes a value
_GRAMMAR = {
    "normalize": (["FILE"], {"--fnf-check": False, "--diversify": False,
                             "--dot": True}),
    "exponent": (["FILE"], {"--certificate": False, "--dot": True}),
    "brute": (["MODE", "FILE"], {"-n": True, "--budget": True,
                                 "--jobs": True}),
    "threshold": (["FILE"], {"-d": True}),
    "graph": (["FILE"], {"--loops": False, "--dot": True}),
    "bogus": (["FILE"], {}),
}
_MODES = ["disp", "solve", "guess", "perfect", "embed", "sandwich", "draw"]
_WORDS = ["f", "a b", "-", "-3", "", "x=y", "-x y", "٣"]
# Option values, the valid ones first; a bad one is drawn 1 time in 6
_NUMBERS = (["2", "0", "-3", "٣", "-٣", " 4", "3_0"],
            ["x", "", "1.5", "-1.5", "-x"])
_VALUES = (["p", "-", "-3", "-x y", "a=b", ""],
           ["-x", "--", "-n", "-n5", "--dot", "--bogus", "-h"])
_UNKNOWN = ["--bogus", "-x", "--bogus=1", "-q5", *(
    option for _, options in _GRAMMAR.values() for option in options)]
# Forms the table parser reads differently on purpose, never drawn:
# - an abbreviated long option (`--cert`): argparse expands it, `_parse`
#   rejects it;
# - an attached value `--` (`--dot=--`, `-n--`): argparse 3.11 strips it
#   and stores [], which the handlers cannot read;
# - a second `--`: argparse 3.11 strips the first `--` of each positional,
#   and stores [] for one that is only `--`;
# - -h or --version with anything attached (`-hn2`, `--help=x`).


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(list(_GRAMMAR)[:-1])) if draw(
        st.integers(0, 9)) else "bogus"
    kinds, options = _GRAMMAR[command]
    words = [draw(st.sampled_from(_MODES if kind == "MODE" else _WORDS))
             for kind in kinds]
    if draw(st.integers(0, 4)) == 0:  # a missing or an extra positional
        words = words[:-1] if draw(st.booleans()) else words + ["g"]
    drawn = [draw(st.sampled_from(list(options) or _UNKNOWN))
             for _ in range(draw(st.integers(0, 3)))]
    drawn += [o for o in ("-n", "-d") if o in options and draw(st.integers(0, 4))]
    items = []  # (before which word, the option's argv)
    for option in drawn:
        if not draw(st.integers(0, 9)):
            option = draw(st.sampled_from(_UNKNOWN))
        good, bad = _NUMBERS if option in ("-n", "-d", "--jobs") else _VALUES
        value = draw(st.sampled_from(bad if not draw(st.integers(0, 5))
                                     else good))
        form = draw(st.sampled_from(["separate", "=", "attached"]))
        if not options.get(option):  # a flag, or unknown here
            argv = [f"{option}={value}"] if not draw(st.integers(0, 5)) else [option]
        elif form == "separate" or value == "--":
            argv = [option, value]
        else:
            glue = "" if form == "attached" and option[1] != "-" else "="
            argv = [f"{option}{glue}{value}"]
        items.append((draw(st.integers(0, len(words))), argv))
    argv = [command]
    for at in range(len(words) + 1):
        argv += [a for before, item in items if before == at for a in item]
        argv += words[at:at + 1]
    for extra in ("--", "-h", "--help", "--version", "--bogus"):
        if not draw(st.integers(0, 11)):
            argv.insert(draw(st.integers(0, len(argv))), extra)
    return argv


def _argparse_reads(parser, argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return ("error" if exc.code else
                "version" if out.getvalue().startswith("termflow ") else "help")


def _table_reads(argv):
    try:
        args = cli._parse(argv)
    except termflow.ValidationError:
        return "error"
    if isinstance(args, str):
        return "help" if args == cli._USAGE else "version"
    return vars(args)


@settings(max_examples=400, deadline=None)
@given(_argv())
def test_table_parser_reads_argv_as_argparse_did(argv):
    """The same namespace for every argv argparse accepted, a rejection
    for every one it rejected, and help or the version where it printed
    one; `main` returns a code for each and raises nothing."""
    assert _table_reads(argv) == _argparse_reads(_argparse_parser(), argv)
    code, _, err = _main(*argv)
    assert code in (0, 2), err


def _main(*argv):
    """cli.main in-process: (exit code, stdout, stderr)."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


DEEP = 10 ** 5


def test_deep_term_through_the_cli(tmp_path):
    """f(...f(x)...) nested 10^5 deep: the parser, the DAG, the flow and
    the pipeline all walk it without recursion."""
    term = "f(" * DEEP + "x" + ")" * DEEP
    disp = tmp_path / "deep.disp"
    disp.write_text(f"dispersion {{ inputs x; sig f/1; outputs {term}; }}\n")
    inst = tmp_path / "deep.inst"
    inst.write_text(f"instance {{ vars x, y; sig f/1; eq {term} = y; }}\n")
    for argv in (["exponent", str(disp)], ["threshold", str(disp), "-d", "0"]):
        code, out, err = _main(*argv)
        assert code == 0 and "Traceback" not in err
        result = json.loads(out)["result"]
        assert result["D"] == 1 and result["min_cut"] == ["x"]
    code, out, err = _main("normalize", str(inst))
    assert code == 0 and "Traceback" not in err
    result = json.loads(out)["result"]
    assert len(result["auxiliaries"]) == DEEP and result["is_cfnf"]


# per input kind: (command words before the file, words after it); a
# `brute` command also gets a drawn `-n`
_BRUTE = ["--budget", "4096"]
_COMMANDS = {
    "dispersion": [(["exponent"], []), (["exponent"], ["--certificate"]),
                   (["threshold"], ["-d", "1"]), (["brute", "disp"], _BRUTE),
                   (["brute", "perfect"], _BRUTE),
                   (["brute", "embed"], _BRUTE)],
    "instance": [(["normalize"], ["--diversify"]),
                 (["normalize"], ["--fnf-check"]), (["graph"], []),
                 (["brute", "solve"], _BRUTE), (["brute", "guess"], _BRUTE),
                 (["brute", "sandwich"], _BRUTE)],
    "graph": [(["graph"], ["--loops"]), (["brute", "guess"], _BRUTE)],
}


@st.composite
def _cli_input(draw):
    """A command and its input file's bytes: DSL text, mostly well formed,
    with empty id-lists and blocks, arity 70 and nesting past the
    interpreter's recursion limit, then maybe a splice of arbitrary (often
    non-UTF-8) bytes.  The command mostly suits the input's kind."""
    kind = draw(st.sampled_from(["dispersion", "instance", "graph"]))
    command = draw(st.sampled_from(_COMMANDS[draw(st.sampled_from(
        [kind] * 8 + list(_COMMANDS)))]))
    if command[0][0] == "brute":
        n = draw(st.sampled_from([2, 3, 2 ** 63]))
        command = (command[0], ["-n", str(n), *command[1]])
    names = draw(st.lists(st.sampled_from(["x", "y", "z"]), max_size=3,
                          unique=True))
    sig = draw(st.lists(st.tuples(st.sampled_from(["f", "g", "c"]),
                                  st.sampled_from([0, 1, 1, 2, 70])),
                        max_size=3, unique_by=lambda p: p[0]))
    leaves = names or ["x"]

    def term(depth):
        if depth == 0 or not sig or draw(st.booleans()):
            return draw(st.sampled_from(leaves))
        sym, arity = draw(st.sampled_from(sig))
        return f"{sym}({', '.join(term(depth - 1) for _ in range(arity))})"

    def deep_term():
        unary = [s for s, a in sig if a == 1]
        if not unary or draw(st.booleans()):
            return term(2)
        sym = draw(st.sampled_from(unary))
        return f"{sym}(" * 5000 + term(2) + ")" * 5000

    sigs = ", ".join(f"{s}/{a}" for s, a in sig)
    if kind == "dispersion":
        outs = ", ".join(deep_term() for _ in range(draw(st.sampled_from(
            [0, 1, 1, 2]))))
        text = (f"dispersion {{ inputs {', '.join(names)}; sig {sigs}; "
                f"outputs {outs}; }}")
    elif kind == "instance":
        eqs = "".join(f" eq {deep_term()} = {term(1)};"
                      for _ in range(draw(st.integers(0, 2))))
        text = f"instance {{ vars {', '.join(names)}; sig {sigs};{eqs} }}"
    else:
        edges = "".join(f" edge {u} -> {v};" for u, v in draw(st.lists(
            st.tuples(st.sampled_from(leaves), st.sampled_from(leaves)),
            max_size=3)))
        sources = draw(st.lists(st.sampled_from(leaves), max_size=2,
                                unique=True))
        text = (f"graph {{ nodes {', '.join(names)}; "
                f"sources {', '.join(sources)};{edges} }}")
    data = text.encode()
    if not draw(st.integers(0, 2)):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 3))
        data = data[:at] + draw(st.binary(max_size=3)) + data[at + cut:]
    return command, data


@settings(max_examples=200, deadline=None)
@given(_cli_input())
def test_fuzzed_inputs_exit_only_0_2_3_or_4(tmp_path_factory, case):
    (head, tail), data = case
    file = tmp_path_factory.mktemp("fuzz") / "input"
    file.write_bytes(data)
    code, out, err = _main(*head, str(file), *tail)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    assert code != 0 or out


@pytest.mark.parametrize("text,argv,value", [
    ("dispersion { inputs x; sig ; outputs x; }", ["disp", "-n", "1000"], 1000),
    ("dispersion { inputs x; sig ; outputs x; }", ["disp", "-n", "2000"], 2000),
    ("instance { vars ; sig ; }", ["solve", "-n", "1000"], 1),
    ("instance { vars ; sig ; }", ["solve", "-n", str(2 ** 63)], 1),
    ("graph { nodes ; sources ; }", ["guess", "-n", str(10 ** 30)], 1),
])
def test_large_n_scans_of_one_interpretation_build_no_orbit_filter(
        tmp_path, monkeypatch, text, argv, value):
    """The filter's n(n-1)/2 swaps are work no budget charges: a scan of
    one interpretation at a large n never builds them."""
    def refuse(*args):
        raise AssertionError("the orbit filter was built")
    monkeypatch.setattr(kernel, "_transpositions", refuse)
    file = tmp_path / "input"
    file.write_text(text)
    code, out, err = _main("brute", argv[0], str(file), *argv[1:])
    assert code == 0 and "Traceback" not in err, err
    assert json.loads(out)["result"]["value"] == value


def test_parser_reuse_keeps_no_state_between_calls():
    """`main` reads one module-level table; a flag from one call must not
    leak into the next."""
    code, out, _ = _main("normalize", path("flatten_nested.inst"),
                         "--diversify")
    assert code == 0 and "diversified" in json.loads(out)["result"]
    code, out, _ = _main("normalize", path("flatten_nested.inst"))
    report = json.loads(out)
    assert code == 0
    assert report["parameters"]["diversify"] is False
    assert "diversified" not in report["result"]


@pytest.mark.parametrize("extra", ["", " eq x = x;"])
def test_duplicate_equations_collapse_whatever_else_merges(tmp_path, extra):
    """A repeated equation is one definition, with or without a no-op
    equality that sends the system through a substitution."""
    file = tmp_path / "dup.inst"
    file.write_text("instance { vars x, y; sig f/1; "
                    f"eq f(x) = y; eq f(x) = y;{extra} }}\n")
    code, out, _ = _main("normalize", str(file))
    result = json.loads(out)["result"]
    assert code == 0
    assert result["is_fnf"] and result["is_cfnf"]
    assert result["system"].count("eq f(x) = y;") == 1
    code, out, _ = _main("graph", str(file))
    assert code == 0
    assert json.loads(out)["result"]["edges"] == [["x", "y"]]


@pytest.mark.parametrize("digits,command,code", [
    (5000, ["exponent"], 2),  # past Python's int-string limit: a parse error
    (5000, ["brute", "disp"], 2),
    (400, ["exponent"], 0),  # an arity no float holds: refused, not a crash
    (400, ["brute", "disp"], 4),
    (400, ["brute", "perfect"], 4),
])
def test_huge_arity_exits_cleanly(tmp_path, digits, command, code):
    spec = tmp_path / "huge.disp"
    spec.write_text(f"dispersion {{ inputs x; sig f/{'9' * digits}; "
                    "outputs x; }\n")
    extra = ["-n", "2"] if command[0] == "brute" else []
    got, out, err = _main(*command, str(spec), *extra)
    assert got == code, err
    assert "Traceback" not in err
    if code == 2:
        assert f"1:30: arity too large ({digits} digits)" in err


# The `result` keys of each record-backed report.  A report is its record's
# fields, so a field added to a record changes the report; this list makes
# that change deliberate.
_ORACLE_KEYS = {"value", "rate", "evaluations", "witness"}
_REPORT_KEYS = {
    ("disp", "diamond.disp"): _ORACLE_KEYS,
    ("solve", "index_coding.inst"): _ORACLE_KEYS,
    ("guess", "cycle3.graph"): _ORACLE_KEYS,
    ("perfect", "diamond.disp"): {"perfect", "target", "max_image",
                                  "interpretations", "evaluations", "witness"},
    ("embed", "single_fn.disp"): {"equal", "dispersion", "embedded"},
    ("sandwich", "fx.inst"): {"n", "v", "m", "original", "diversified_same_n",
                              "diversified_small", "lifted_count", "upper_ok",
                              "lower_ok", "lift_ok", "ok"},
}


@pytest.mark.parametrize("mode,name", list(_REPORT_KEYS))
def test_brute_report_keys(mode, name):
    code, out, err = _main("brute", mode, path(name), "-n", "2")
    assert code == 0, err
    result = json.loads(out)["result"]
    assert set(result) == _REPORT_KEYS[mode, name]
    for res in [result] + [v for v in result.values() if isinstance(v, dict)]:
        if "value" in res:  # an OracleResult, alone or nested
            assert set(res) == _ORACLE_KEYS
        if "witness" in res:
            assert set(res["witness"]) == {"n", "tables"}
    budget = json.loads(out)["parameters"]["budget"]
    assert set(budget) == {"max_evaluations", "max_interpretations"}


def test_normalize_report_keys():
    code, out, err = _main("normalize", path("flatten_nested.inst"))
    assert code == 0, err
    result = json.loads(out)["result"]
    assert set(result) == {"input_size", "stages", "auxiliaries", "merges",
                           "defined", "sources", "is_normal", "is_fnf",
                           "is_collision_free", "is_cfnf", "system"}
    assert all(set(m) == {"kept", "removed", "stage"}
               for m in result["merges"]) and result["merges"]


def test_parsed_inputs_build_no_tree(monkeypatch, tmp_path):
    """The polynomial commands and the kernel scans read only a parsed
    input's DAG: no command below builds its `Var`/`App` trees, nor does a
    refused `brute embed`.  An admitted `brute embed` re-counts through the
    scalar route, so it builds them on demand."""
    from termflow import terms
    build, calls = terms._dag_trees, []

    def counting(dag):
        calls.append(dag)
        return build(dag)

    monkeypatch.setattr(terms, "_dag_trees", counting)
    dot = str(tmp_path / "out.dot")
    runs = [("normalize", "index_coding.inst"),
            ("normalize", "flatten_nested.inst", "--diversify"),
            ("normalize", "collision.inst", "--dot", dot),
            ("exponent", "diamond.disp", "--certificate"),
            ("threshold", "shared_subterm.disp", "-d", "1"),
            ("graph", "cycle3.inst"),
            ("brute", "disp", "diamond.disp", "-n", "2"),
            ("brute", "solve", "fx.inst", "-n", "2"),
            ("brute", "perfect", "nested_r1.disp", "-n", "2"),
            ("brute", "guess", "two_cycle.inst", "-n", "2")]
    names = set(corpus_names())
    for argv in runs:
        code, _, err = _main(*[path(a) if a in names else a for a in argv])
        assert code == 0, (argv, err)
        assert calls == [], argv
    # a refused embedding builds neither the trees nor the decoder system
    code, _, err = _main("brute", "embed", path("diamond.disp"), "-n", "4")
    assert code == 4 and calls == [], err
    code, out, err = _main("brute", "embed", path("single_fn.disp"), "-n", "2")
    assert code == 0, err
    result = json.loads(out)["result"]
    assert len(calls) == 1  # the spec's outputs, built once for the recount
    assert result["equal"] and result["embedded"]["value"] == 2


@pytest.fixture
def collector():
    """The cyclic collector on at the start, and on again at the end."""
    gc.enable()
    yield
    gc.enable()


def test_collector_is_restored_on_every_exit(tmp_path, collector):
    bad = tmp_path / "bad.inst"
    bad.write_text("instance { vars x; sig f/1; eq f(x = y; }")
    for argv, code in [(("graph", path("index_coding.inst")), 0),
                       (("--help",), 0), (("--version",), 0),
                       (("nonsense",), 2), (("normalize", str(bad)), 2),
                       (("brute", "guess", path("diamond.disp"), "-n", "2"), 3),
                       (("brute", "disp", path("diamond.disp"), "-n", "4"), 4)]:
        assert _main(*argv)[0] == code, argv
        assert gc.isenabled(), argv


def test_collector_is_paused_while_a_command_runs(monkeypatch, collector):
    seen, as_graph = [], cli._as_graph
    monkeypatch.setattr(cli, "_as_graph",
                        lambda obj: seen.append(gc.isenabled()) or as_graph(obj))
    assert _main("graph", path("index_coding.inst"))[0] == 0
    assert seen == [False] and gc.isenabled()

    def crash(obj):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_as_graph", crash)
    with pytest.raises(RuntimeError, match="boom"):
        _main("graph", path("index_coding.inst"))
    assert gc.isenabled()


def test_a_paused_collector_stays_paused(collector):
    gc.disable()
    assert _main("graph", path("index_coding.inst"))[0] == 0
    assert not gc.isenabled()


def test_one_classification_per_command(monkeypatch, tmp_path):
    """At most one classification per command, and none where `graph` and
    `brute guess` read the graph off the DAG (index_coding passes
    through; collision goes through the pipeline)."""
    calls = []
    body = normalize._classify
    monkeypatch.setattr(normalize, "_classify",
                        lambda system: calls.append(system) or body(system))
    inst, merged = path("index_coding.inst"), path("collision.inst")
    for argv, count in [
            (("graph", inst), 0), (("brute", "guess", inst, "-n", "2"), 0),
            (("graph", merged), 1), (("brute", "guess", merged, "-n", "2"), 1),
            (("normalize", inst, "--dot", str(tmp_path / "out.dot")), 1)]:
        calls.clear()
        code, _, err = _main(*argv)
        assert code == 0, err
        assert len(calls) == count, argv


@pytest.mark.parametrize("name, runs", [
    ("index_coding.inst", False), ("fx.inst", False), ("cycle3.inst", False),
    ("diamond_embedding.inst", False), ("two_cycle.inst", False),
    ("collision.inst", True), ("cascade.inst", True),
    ("flatten_nested.inst", True), ("two_sided.inst", True)])
def test_graph_commands_run_the_pipeline_only_off_the_dag_route(
        monkeypatch, name, runs):
    """`graph` and `brute guess` on a system the pipeline would leave
    unchanged never call it (it raises here); on any other system they
    call it once."""
    calls, body = [], cli.pipeline

    def pipeline(system):
        if not runs:
            raise AssertionError("pipeline called on a pass-through system")
        calls.append(system)
        return body(system)

    monkeypatch.setattr(cli, "pipeline", pipeline)
    for argv in [("graph", path(name)), ("graph", path(name), "--loops"),
                 ("brute", "guess", path(name), "-n", "2")]:
        calls.clear()
        _main(*argv)
        assert len(calls) == runs, argv


def test_refused_guess_never_builds_the_game(tmp_path, monkeypatch):
    """`brute guess` checks the budget on the players' arities: a refused
    game never reaches `graph_system` (it raises here)."""
    def refuse(graph):
        raise AssertionError("a refused game was built")

    monkeypatch.setattr(oracle, "graph_system", refuse)
    chain = tmp_path / "chain.inst"
    chain.write_text("instance { vars x0, x1, x2, x3, x4, x5, x6, x7, x8, x9; "
                     "sig f/1; " + " ".join(f"eq f(x{i}) = x{i + 1};"
                                            for i in range(9)) + " }")
    code, out, err = _main("brute", "guess", str(chain), "-n", "2")
    assert code == 4 and out == "", err
    assert "268435456 evaluations" in err


@pytest.mark.parametrize("mode,n,value", [
    ("disp", 3, 3), ("perfect", 3, 3), ("embed", 3, 3), ("disp", 4, None)])
def test_unused_symbols_are_not_charged(tmp_path, mode, n, value):
    """A declared symbol that no term applies is neither scanned nor
    charged: at n = 3 these commands exited 4 while the budget charged
    g/3's 3^27 tables.  The index range still covers every symbol, since
    the witness carries g's all-zero table: at n = 4 it needs 136 bits."""
    spec = tmp_path / "unused.disp"
    spec.write_text("dispersion { inputs x; sig f/1, g/3; outputs f(x); }")
    code, out, err = _main("brute", mode, str(spec), "-n", str(n))
    if value is None:
        assert code == 4 and "index range" in err
        return
    assert code == 0, err
    result = json.loads(out)["result"]
    key = {"disp": "value", "perfect": "max_image"}.get(mode)
    got = result[key] if key else result["dispersion"]["value"]
    assert got == value
