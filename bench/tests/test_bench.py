"""Tests of the benchmark itself: report checks catch corrupted reports,
failures are charged and counted, the traced run covers every layer, and
generated inputs depend only on the seed.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import random
from pathlib import Path

import pytest

import checks
import measure
import workloads
from spans import LAYERS, Tracer, instrument
from termflow import cli
from termflow.corpus import corpus_path

BENCHMARK = json.loads((Path(__file__).resolve().parents[2]
                        / "BENCHMARK.json").read_text())

TINY_POLY = {"cascade": (5, 20), "chain": (20, 80), "many": (50, 200),
             "layered": ((4, 8), (8, 16)), "nested": (3, 12)}


def _report(capsys, *argv) -> dict:
    assert cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def _disp_check():
    return checks.brute_disp(str(corpus_path("diamond.disp")), 2)


def test_disp_check_accepts_the_real_report(capsys):
    report = _report(capsys, "brute", "disp", str(corpus_path("diamond.disp")),
                     "-n", "2")
    counts = _disp_check()(report, {})
    assert counts == {"oracle.evaluations": 16 * 16,
                      "oracle.interpretations": 16}


@pytest.mark.parametrize("corrupt", [
    lambda r: r["result"].__setitem__("value", r["result"]["value"] + 1),
    lambda r: r["result"]["witness"]["tables"]["f"].__setitem__(0, 1 - r["result"]["witness"]["tables"]["f"][0]),
    lambda r: r["result"].__setitem__("evaluations", 1),
    lambda r: r["result"]["witness"]["tables"].pop("f"),
])
def test_corrupted_report_or_witness_fails_the_check(capsys, corrupt):
    report = _report(capsys, "brute", "disp", str(corpus_path("diamond.disp")),
                     "-n", "2")
    corrupt(report)
    with pytest.raises(Exception):
        _disp_check()(report, {})


def test_solve_check_catches_a_wrong_count(capsys):
    path = str(corpus_path("index_coding.inst"))
    report = _report(capsys, "brute", "solve", path, "-n", "2")
    check = checks.brute_solve(path)
    check(report, {})
    report["result"]["value"] -= 1
    with pytest.raises(checks.CheckFailure):
        check(report, {})


def test_crosscheck_bound_uses_the_exponent(capsys):
    path = str(corpus_path("diamond.disp"))
    report = _report(capsys, "brute", "disp", path, "-n", "2")
    check = checks.brute_disp(path, 2, d_key="spec")
    check(report, {"spec": 4})
    with pytest.raises(checks.CheckFailure, match="exceeds n"):
        check(report, {"spec": 3})


def _one_query_runner(query) -> measure.Runner:
    return measure.Runner(workloads.Workload("t", "", [query]))


def test_corrupted_report_counts_as_failed_and_charged(monkeypatch, capsys):
    path = str(corpus_path("diamond.disp"))
    argv = ["brute", "disp", path, "-n", "2"]
    good = _report(capsys, *argv)
    bad = json.loads(json.dumps(good))
    bad["result"]["value"] += 1
    monkeypatch.setattr(cli, "main",
                        lambda a: print(json.dumps(bad, indent=2)) or 0)
    runner = _one_query_runner(workloads.Query("q", argv, _disp_check()))
    assert runner.run_query(runner.workload.queries[0]) == measure.QUERY_LIMIT_S
    assert (runner.attempted, runner.failed, runner.correct) == (1, 1, False)
    assert "check failed" in runner.failures["q"]


def test_exceptions_and_wrong_exit_codes_fail_without_marking_incorrect(tmp_path):
    probes = workloads.defect_probes(tmp_path)
    runner = measure.Runner(workloads.Workload("d", "", probes))
    runner.run_pass()
    assert runner.failed == 2 and runner.correct
    assert "RecursionError" in runner.failures[probes[0].name]


def test_report_must_match_its_jobs_pair(monkeypatch, capsys):
    path = str(corpus_path("diamond.disp"))
    argv = ["brute", "disp", path, "-n", "2"]
    text = json.dumps(_report(capsys, *argv), indent=2)
    outputs = iter([text, text + " "])
    monkeypatch.setattr(cli, "main", lambda a: print(next(outputs)) or 0)
    runner = measure.Runner(workloads.Workload("t", "", [
        workloads.Query("j1", argv, _disp_check()),
        workloads.Query("j2", argv, _disp_check(), same_as="j1")]))
    runner.run_pass()
    assert runner.failed == 1 and "differs from j1" in runner.failures["j2"]


def test_traced_pass_has_a_span_for_every_layer(tmp_path):
    workload = workloads.poly(tmp_path, 3, TINY_POLY)
    runner = measure.Runner(workload)
    tracer = Tracer()
    with instrument(tracer):
        traced = runner.run_pass(tracer)
    assert runner.failed == 0 and runner.correct, runner.failures
    names = {s.name for spans in traced["spans"].values() for s in spans}
    assert {n.split(".")[0] for n in names} >= set(LAYERS)
    for stage in ("flatten", "quotient_vars", "collision_quotient", "classify"):
        assert f"normalize.{stage}" in names
    layer = measure.per_layer(runner, [runner.run_pass()], [traced])
    assert set(layer) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert layer["normalize.merges"] == 5 + 20
    assert layer["flownet.flow_value"] > 0 and layer["oracle.refusal_s"] > 0


def test_instrument_restores_the_cli():
    before = dict(vars(cli))
    with instrument(Tracer()):
        assert cli.parse is not before["parse"]
    assert dict(vars(cli)) == before


def test_end_to_end_metrics_match_the_benchmark_file(tmp_path):
    runner = measure.Runner(workloads.crosscheck(tmp_path, 5, specs=3, systems=3))
    plain = [runner.run_pass(), runner.run_pass()]
    assert runner.failed == 0 and runner.correct, runner.failures
    metrics = measure.end_to_end(runner, plain)
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(metrics) | {"setup_s", "peak_rss_mb"} == names
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("builder", [
    lambda root, seed: workloads.poly(root, seed, TINY_POLY),
    lambda root, seed: workloads.crosscheck(root, seed, specs=5, systems=5),
])
def test_inputs_depend_only_on_the_seed(tmp_path, builder):
    def files(name, seed):
        root = tmp_path / name
        root.mkdir()
        builder(root, seed)
        return {p.name: p.read_text() for p in root.iterdir()}
    assert files("a", 7) == files("b", 7)
    assert files("a2", 7) != files("c", 8)


def test_generated_families_have_their_closed_forms():
    rng = random.Random(0)
    assert workloads.cascade_text(4, rng).count(" eq ") == 2 + 2 * 3
    assert workloads.chain_text(4, rng).count(" eq ") == 4
    assert workloads.nested_text(3).count("f(") == 3
