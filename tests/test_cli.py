"""Command-line behavior: canonical reports, exit codes, environment."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import termflow
from termflow.corpus import corpus_path


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


def test_stdout_is_canonical_json():
    proc = run_cli("threshold", path("diamond.disp"), "-d", "3")
    text = proc.stdout.decode()
    parsed = json.loads(text)
    assert text == json.dumps(parsed, indent=2, sort_keys=True) + "\n"
    assert parsed["result"]["answer"] == "yes"


def test_repeated_runs_are_byte_identical():
    first = run_cli("brute", "disp", path("diamond.disp"), "-n", "2")
    second = run_cli("brute", "disp", path("diamond.disp"), "-n", "2")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_jobs_do_not_appear_or_matter():
    lone = run_cli("brute", "disp", path("diamond.disp"), "-n", "2",
                   "--jobs", "1")
    pooled = run_cli("brute", "disp", path("diamond.disp"), "-n", "2",
                     "--jobs", "8")
    assert lone.stdout == pooled.stdout
    assert b"jobs" not in lone.stdout


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


def test_bad_budget_exits_2():
    proc = run_cli("brute", "disp", path("diamond.disp"), "-n", "2",
                   "--budget", "10x")
    assert proc.returncode == 2
    proc = run_cli("brute", "disp", path("diamond.disp"), "-n", "2",
                   "--budget", "100:20:3")
    assert proc.returncode == 2


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


def test_usage_errors_exit_2():
    proc = run_cli("brute", "disp", path("diamond.disp"))  # missing -n
    assert proc.returncode == 2
    proc = run_cli()  # missing subcommand
    assert proc.returncode == 2


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert termflow.__version__.encode() in proc.stdout
