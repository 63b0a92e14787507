"""End-to-end acceptance suite.

One test per criterion; each records a single PASS/FAIL line (printed in
the terminal summary) and pins exact values, exact equalities, and wall
clock ceilings.  Skips happen only on explicit budget refusals, never to
hide a violation.
"""

import subprocess
import sys
import time

from termflow.corpus import corpus_names, corpus_path
from termflow.errors import BudgetError
from termflow.flownet import (decide_perfect_r1, decide_threshold,
                              dispersion_exponent)
from termflow.normalize import diversify, pipeline
from termflow.oracle import (brute_dispersion, brute_max_solutions,
                             check_embedding, check_perfect_fixed,
                             check_solutions_equal_winning, sandwich_check)
from termflow.terms import App
from corpus_loader import load
from preservation import first_mismatch


def _cli(*args):
    proc = subprocess.run([sys.executable, "-m", "termflow", *args],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_01_diamond_exponent(acceptance):
    started = time.perf_counter()
    result = dispersion_exponent(load("diamond.disp"))
    cert = result.certificate()
    elapsed = time.perf_counter() - started
    ok = (result.D == 4 and len(result.min_cut) == 4
          and len(cert["cut"]) == 4 and cert["flow_value"] == 4
          and elapsed < 0.100)
    acceptance(1, ok, f"diamond exponent D={result.D}, "
                      f"{len(result.min_cut)}-edge cut "
                      f"{result.min_cut} in {elapsed * 1000:.1f} ms")


def test_criterion_02_diamond_imperfection(acceptance):
    t2 = time.perf_counter()
    dec2 = check_perfect_fixed(load("diamond.disp"), 2)
    t2 = time.perf_counter() - t2
    t3 = time.perf_counter()
    dec3 = check_perfect_fixed(load("diamond.disp"), 3)
    t3 = time.perf_counter() - t3
    ok = (dec2.perfect is False and dec2.interpretations == 16 and t2 < 1.0
          and dec3.perfect is False and dec3.interpretations == 19683
          and t3 < 30.0)
    acceptance(2, ok, f"diamond imperfect at n=2 ({dec2.interpretations} "
                      f"tables, {t2:.2f} s) and n=3 ({dec3.interpretations} "
                      f"tables, {t3:.2f} s)")


def test_criterion_03_cut_upper_bound(acceptance):
    checked, violations, skipped = 0, 0, 0
    for name in corpus_names(".disp"):
        spec = load(name)
        bound_exp = dispersion_exponent(spec).D
        for n in (2, 3):
            try:
                value = brute_dispersion(spec, n).value
            except BudgetError:
                skipped += 1
                continue
            checked += 1
            if value > n ** bound_exp:
                violations += 1
    ok = violations == 0 and checked >= 18
    acceptance(3, ok, f"Disp_n <= n^D on {checked} spec/alphabet pairs "
                      f"({skipped} over budget), {violations} violations")


def test_criterion_04_embedding_equality(acceptance):
    started = time.perf_counter()
    results = {}
    for name in ("single_var.disp", "single_fn.disp", "diamond.disp"):
        chk = check_embedding(load(name), 2)
        results[name] = (chk.equal, chk.dispersion.value, chk.embedded.value)
    elapsed = time.perf_counter() - started
    ok = (all(equal and a == b for equal, a, b in results.values())
          and results["diamond.disp"][1] == 10
          and elapsed < 300.0)
    pairs = ", ".join(f"{n.split('.')[0]}={v[1]}" for n, v in results.items())
    acceptance(4, ok, f"Disp_2 = S_2 of the decoder system ({pairs}) "
                      f"in {elapsed:.2f} s")


def _flat_triple(eq):
    app, var = (eq.lhs, eq.rhs) if isinstance(eq.lhs, App) else (eq.rhs, eq.lhs)
    return (app.symbol, tuple(a.name for a in app.args), var.name)


def test_criterion_05_pipeline_preservation(acceptance):
    compared, identical, failures = 0, 0, []
    for name in corpus_names(".inst"):
        system = load(name)
        norm, rep = pipeline(system)
        try:
            first, _ = first_mismatch(system, norm, 2)
            compared += 1
            if first is not None:
                failures.append((name, first))
        except BudgetError:
            # too wide to enumerate: only exact structural identity counts
            if (rep.auxiliaries or rep.merges
                    or [_flat_triple(e) for e in system.equations]
                    != [(e.symbol, e.args, e.defined) for e in norm.equations]):
                failures.append((name, "changed but not enumerable"))
            else:
                identical += 1
    ok = not failures and compared >= 7
    acceptance(5, ok, f"solution counts preserved exactly on {compared} "
                      f"systems at n=2 (+{identical} unchanged by the "
                      f"pipeline), failures: {failures or 'none'}")


def test_criterion_06_guessing_equality(acceptance):
    checked, skipped, failures = [], [], []
    for name in corpus_names(".inst"):
        norm, rep = pipeline(load(name))
        if not rep.is_fnf:
            continue
        try:
            eq = check_solutions_equal_winning(diversify(norm), 2)
        except BudgetError:
            skipped.append(name)
            continue
        checked.append((name, eq.solutions.value))
        if not eq.equal:
            failures.append(name)
    ok = not failures and len(checked) >= 5
    values = ", ".join(f"{n.split('.')[0]}={v}" for n, v in checked)
    acceptance(6, ok, f"S_2(diversified) = game value on {len(checked)} FNF "
                      f"systems ({values}); over budget: "
                      f"{[s.split('.')[0] for s in skipped] or 'none'}")


def test_criterion_07_sandwich(acceptance):
    failures, details = [], []
    for name in ("fx.inst", "two_cycle.inst"):
        norm, rep = pipeline(load(name))
        if not (rep.is_cfnf and len(norm.variables) == 2):
            failures.append((name, "not a two-variable CFNF system"))
            continue
        for n in (2, 3):
            upper = brute_max_solutions(diversify(norm), n).value
            plain = brute_max_solutions(norm, n).value
            if plain > upper:
                failures.append((name, f"S_{n} > S_{n}(div)"))
        rep4 = sandwich_check(norm, 4)
        if not (rep4.ok and rep4.lower_ok and rep4.lift_ok):
            failures.append((name, "sandwich at n=4"))
        details.append(f"{name.split('.')[0]}: S_4={rep4.original.value} >= "
                       f"S_2(div)={rep4.diversified_small.value}, "
                       f"lift recount {rep4.lifted_count}")
    acceptance(7, not failures, "; ".join(details)
               + (f"; failures: {failures}" if failures else ""))


def test_criterion_08_threshold_decisions(acceptance):
    started = time.perf_counter()
    yes = decide_threshold(load("diamond.disp"), 3).answer
    no4 = decide_threshold(load("diamond.disp"), 4).answer
    nofg = decide_threshold(load("fg.disp"), 1).answer
    elapsed = time.perf_counter() - started
    ok = (yes is True and no4 is False and nofg is False and elapsed < 1.0)
    acceptance(8, ok, f"thresholds (diamond,3)->yes, (diamond,4)->no, "
                      f"(fg,1)->no in {elapsed * 1000:.1f} ms")


def test_criterion_09_r1_decision_matches_brute(acceptance):
    names = [n for n in corpus_names(".disp") if load(n).r == 1]
    mismatches = []
    for name in names:
        spec = load(name)
        syntactic = decide_perfect_r1(spec)
        brute = check_perfect_fixed(spec, 2).perfect
        if syntactic != brute:
            mismatches.append(name)
    ok = not mismatches and len(names) >= 5
    acceptance(9, ok, f"syntactic r=1 decision agrees with brute force on "
                      f"{len(names)} specs: {[n.split('.')[0] for n in names]}")


def test_criterion_10_determinism(acceptance):
    diamond = str(corpus_path("diamond.disp"))
    pairs = [
        ("exponent rerun", _cli("exponent", diamond),
         _cli("exponent", diamond)),
        ("brute rerun", _cli("brute", "disp", diamond, "-n", "2"),
         _cli("brute", "disp", diamond, "-n", "2")),
        ("jobs 1 vs 8", _cli("brute", "disp", diamond, "-n", "3",
                             "--jobs", "1"),
         _cli("brute", "disp", diamond, "-n", "3", "--jobs", "8")),
        ("normalize rerun",
         _cli("normalize", str(corpus_path("flatten_nested.inst"))),
         _cli("normalize", str(corpus_path("flatten_nested.inst")))),
    ]
    unequal = [label for label, a, b in pairs if a != b]
    acceptance(10, not unequal,
               f"byte-identical reports on {len(pairs)} command pairs "
               f"(including --jobs 1 vs 8); unequal: {unequal or 'none'}")
