"""Report checks that do not trust the route that produced the report.

Every oracle witness is replayed through the scalar reference route
(`image_of`, `count_solutions`) and must reproduce the reported value;
reported work counts must match their closed forms; generated families
must land on their known answers.  A check raises `CheckFailure`; on
success it returns the query's exact work counters.

Inputs are parsed when a check runs, not when the workload is built, so
set-up time stays input generation only; nothing parsed is kept, so the
benchmark's heap does not grow the program's garbage-collection work.
"""

from __future__ import annotations

import re

from termflow.dsl import parse
from termflow.normalize import diversify, embed_dispersion, pipeline
from termflow.oracle import count_solutions, image_of
from termflow.terms import App, Interpretation


class CheckFailure(Exception):
    """A report disagrees with an independent recomputation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _loader(path: str, kind: str):
    def load():
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read(), kind)
    return load


def _interp(witness: dict) -> Interpretation:
    return Interpretation(witness["n"], {name: tuple(table) for name, table
                                         in witness["tables"].items()})


def _symbols(terms) -> set[str]:
    used, stack = set(), list(terms)
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            used.add(t.symbol)
            stack.extend(t.args)
    return used


def _space(signature, terms, n: int) -> int:
    """Closed-form count of interpretations of the symbols the terms use."""
    used = _symbols(terms)
    total = 1
    for name, arity in signature.symbols:
        if name in used:
            total *= n ** (n ** arity)
    return total


def _oracle_value(res: dict, replayed: int, what: str) -> None:
    require(replayed == res["value"],
            f"{what}: witness replays to {replayed}, report says {res['value']}")


def _system_terms(system):
    return [t for eq in system.equations for t in (eq.lhs, eq.rhs)]


def _solve_counts(system, res: dict, n: int, what: str) -> dict:
    """Replay a max-solutions result; return its counters."""
    witness = _interp(res["witness"])
    require(witness.n == n, f"{what}: witness over [{witness.n}], asked n={n}")
    _oracle_value(res, count_solutions(system, witness), what)
    space = _space(system.signature, _system_terms(system), n)
    require(res["evaluations"] == space * n ** len(system.variables),
            f"{what}: evaluations {res['evaluations']} != closed form")
    return {"oracle.evaluations": res["evaluations"],
            "oracle.interpretations": space}


def _disp_counts(spec, res: dict, n: int, what: str) -> dict:
    witness = _interp(res["witness"])
    require(witness.n == n, f"{what}: witness over [{witness.n}], asked n={n}")
    _oracle_value(res, len(image_of(spec, witness)), what)
    require(res["value"] <= n ** min(spec.k, spec.r),
            f"{what}: image {res['value']} above n^min(k, r)")
    space = _space(spec.signature, spec.outputs, n)
    require(res["evaluations"] == space * n ** spec.k,
            f"{what}: evaluations {res['evaluations']} != closed form")
    return {"oracle.evaluations": res["evaluations"],
            "oracle.interpretations": space}


def brute_disp(path: str, n: int, *, expect_value: int | None = None,
               d_key: str | None = None):
    """`brute disp`: scalar image replay; with `d_key`, the image must not
    exceed n^D for the D that `exponent` reported on the same spec."""
    load = _loader(path, "dispersion")

    def check(report: dict, ctx: dict) -> dict:
        res = report["result"]
        counts = _disp_counts(load(), res, n, "brute disp")
        if expect_value is not None:
            require(res["value"] == expect_value,
                    f"image {res['value']}, expected {expect_value}")
        if d_key is not None:
            d = ctx[d_key]
            require(res["value"] <= n ** d,
                    f"brute image {res['value']} exceeds n^D = {n}^{d}")
        return counts
    return check


def brute_solve(path: str, *, norm_key: str | None = None):
    """`brute solve` at n=2: scalar recount of the witness; with
    `norm_key`, the normalized system from the same pass must count the
    same solutions under the witness (the pipeline preserves counts)."""
    load = _loader(path, "system")

    def check(report: dict, ctx: dict) -> dict:
        res = report["result"]
        n = report["parameters"]["n"]
        counts = _solve_counts(load(), res, n, "brute solve")
        if norm_key is not None:
            got = count_solutions(ctx[norm_key], _interp(res["witness"]))
            require(got == res["value"],
                    f"normalized system counts {got}, original {res['value']}")
        return counts
    return check


def brute_perfect(path: str, n: int):
    load = _loader(path, "dispersion")

    def check(report: dict, ctx: dict) -> dict:
        spec, res = load(), report["result"]
        require(res["target"] == n ** spec.r, "wrong perfect target")
        image = len(image_of(spec, _interp(res["witness"])))
        space = _space(spec.signature, spec.outputs, n)
        if res["perfect"]:
            require(image == res["target"], "perfect witness is not surjective")
        else:
            require(image == res["max_image"] < res["target"],
                    f"refutation witness replays to {image}, "
                    f"report says {res['max_image']}")
            require(res["interpretations"] == space,
                    "a refutation must scan every interpretation")
        require(res["evaluations"] == res["interpretations"] * n ** spec.k,
                "evaluations != interpretations * n^k")
        return {"oracle.evaluations": res["evaluations"],
                "oracle.interpretations": res["interpretations"]}
    return check


def brute_embed(path: str, n: int):
    load = _loader(path, "dispersion")

    def check(report: dict, ctx: dict) -> dict:
        spec, res = load(), report["result"]
        counts = _disp_counts(spec, res["dispersion"], n, "embed dispersion")
        embedded = res["embedded"]
        _oracle_value(embedded, count_solutions(embed_dispersion(spec),
                                                _interp(embedded["witness"])),
                      "embedded system")
        require(res["equal"] is True and
                res["dispersion"]["value"] == embedded["value"],
                "dispersion and embedded solution count differ")
        return {"oracle.evaluations": counts["oracle.evaluations"]
                + embedded["evaluations"],
                "oracle.interpretations": 2 * counts["oracle.interpretations"]}
    return check


def brute_sandwich(path: str):
    load = _loader(path, "system")

    def check(report: dict, ctx: dict) -> dict:
        res, n = report["result"], report["parameters"]["n"]
        norm, _ = pipeline(load())
        div = diversify(norm).to_term_system()
        norm = norm.to_term_system()
        totals = {"oracle.evaluations": 0, "oracle.interpretations": 0}
        for key, system, size in (("original", norm, n),
                                  ("diversified_same_n", div, n),
                                  ("diversified_small", div, res["m"])):
            counts = _solve_counts(system, res[key], size, f"sandwich {key}")
            for name, value in counts.items():
                totals[name] += value
        orig, same, small = (res[k]["value"] for k in
                             ("original", "diversified_same_n",
                              "diversified_small"))
        require(small <= orig <= same and res["lifted_count"] >= small
                and res["ok"] is True, "sandwich bounds do not hold")
        return totals
    return check


def _exponent_counts(spec, res: dict) -> dict:
    d = res["D"]
    require(d == res["max_flow_value"] == len(res["min_cut"]),
            "D, flow value and cut size disagree")
    require(0 <= d <= min(spec.k, spec.r), f"D={d} outside [0, min(k, r)]")
    if "certificate" in res:
        cert = res["certificate"]
        rows = cert["bottlenecks"]
        require(cert["flow_value"] == d and cert["cut"] == res["min_cut"],
                "certificate disagrees with the exponent")
        require(sum(r["in_cut"] for r in rows) == d and
                all(r["saturated"] for r in rows if r["in_cut"]),
                "certificate cut is not a saturated cut of size D")
    return {"flownet.flow_value": d}


def exponent(path: str, *, expect_d: int | None = None,
             key: str | None = None):
    """`exponent`: D = flow value = cut size, D <= min(k, r), the
    certificate agrees; `key` stores D for a later `brute disp` bound."""
    load = _loader(path, "dispersion")

    def check(report: dict, ctx: dict) -> dict:
        res = report["result"]
        counts = _exponent_counts(load(), res)
        if expect_d is not None:
            require(res["D"] == expect_d, f"D={res['D']}, expected {expect_d}")
        if key is not None:
            ctx[key] = res["D"]
        return counts
    return check


def _normal_flags(system) -> tuple[bool, bool]:
    """(is_fnf, is_collision_free), recomputed from the equations."""
    defining, keys = {}, {}
    for eq in system.equations:
        defining[eq.rhs.name] = defining.get(eq.rhs.name, 0) + 1
        keys.setdefault((eq.lhs.symbol, eq.lhs.args), set()).add(eq.rhs.name)
    return (all(c == 1 for c in defining.values()),
            all(len(v) == 1 for v in keys.values()))


def _normalized(system, res: dict):
    norm = parse(res["system"], "system", allow_reserved=True)
    aux, merges = len(res["auxiliaries"]), len(res["merges"])
    require(len(norm.variables) == len(system.variables) + aux - merges,
            "variable count != originals + auxiliaries - merges")
    require(all(m["stage"] in ("quotient_vars", "collision_quotient")
                for m in res["merges"]), "merge from an unknown stage")
    fnf, free = _normal_flags(norm)
    require(res["is_normal"] and res["is_fnf"] == fnf
            and res["is_collision_free"] == free
            and res["is_cfnf"] == (fnf and free),
            "classification flags disagree with the normalized equations")
    return norm


def normalize(path: str, *, key: str | None = None):
    """`normalize` on a random system; `key` stores the normalized system
    for the `brute solve` count-preservation check."""
    load = _loader(path, "system")

    def check(report: dict, ctx: dict) -> dict:
        norm = _normalized(load(), report["result"])
        if key is not None:
            ctx[key] = norm
        return {}
    return check


_EQ_LINE = re.compile(r"^  eq ", re.MULTILINE)


def cascade_normalize(n: int):
    """Cascade N: N collision-quotient merges, N equations, CFNF."""
    def check(report: dict, ctx: dict) -> dict:
        res = report["result"]
        require(len(res["merges"]) == n and all(
            m["stage"] == "collision_quotient" for m in res["merges"]),
            f"{len(res['merges'])} merges, expected {n} collision merges")
        require(len(_EQ_LINE.findall(res["system"])) == n,
                f"expected {n} equations")
        require(res["is_cfnf"] and not res["auxiliaries"], "expected CFNF")
        return {}
    return check


def chain_graph(n: int):
    """Chain N: FNF (else `graph` exits 3), N+1 vertices, N edges
    v_i -> v_{i+1}, source v0."""
    want = {(f"v{i}", f"v{i + 1}") for i in range(n)}

    def check(report: dict, ctx: dict) -> dict:
        res = report["result"]
        require(res["vertex_count"] == n + 1 and res["edge_count"] == n,
                "chain graph has the wrong size")
        require({tuple(e) for e in res["edges"]} == want
                and res["sources"] == ["v0"], "chain graph has the wrong edges")
        return {}
    return check
