"""Surface syntax for the three input kinds.

    system     := "instance"   "{" "vars" idlist ";" "sig" sigs ";"
                                   ("eq" term "=" term ";")* "}"
    dispersion := "dispersion" "{" "inputs" idlist ";" "sig" sigs ";"
                                   "outputs" termlist ";" "}"
    graph      := "graph"      "{" "nodes" idlist ";" "sources" idlist ";"
                                   ("edge" id "->" id ";")* "}"

    sigs     := [id "/" nat ("," id "/" nat)*]
    idlist   := [id ("," id)*]
    termlist := term ("," term)*
    term     := id | id "(" [term ("," term)*] ")"

Application is prefix (`f(a, b)`), constants render with explicit parens
(`c()`), and `#` starts a comment running to end of line.  Id-lists may be
empty so that source-free graphs and symbol-free specs stay expressible.

User identifiers may not start with "_" or contain "@"; those namespaces are
reserved for pipeline-minted auxiliary variables and diversified symbols.
Rendering is deterministic and `parse(render(obj))` returns an equal object.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .depgraph import DependencyGraph
from .errors import ParseError
from .normalize import NormalSystem
from .terms import (App, DispersionSpec, Equation, Ident, Signature, Term,
                    TermSystem, Var, is_reserved_ident)

KEYWORDS = frozenset({
    "instance", "dispersion", "graph", "vars", "inputs", "outputs",
    "sig", "eq", "nodes", "sources", "edge",
})

_TOKEN_RE = re.compile(r"""
    (?P<skip>\s+|\#[^\n]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_@]*)
  | (?P<nat>[0-9]+)
  | (?P<punct>->|[{}();,=/])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class _Token(NamedTuple):
    kind: str  # "id" | "nat" | "punct" | "eof"
    text: str
    offset: int


def _line_col(text: str, offset: int) -> tuple[int, int]:
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}",
                             *_line_col(text, m.start()))
        if kind != "skip":
            tokens.append(_Token(kind, m.group(), m.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, allow_reserved: bool):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allow_reserved = allow_reserved

    @property
    def here(self) -> _Token:
        return self.tokens[self.pos]

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.here
        raise ParseError(message, *_line_col(self.text, tok.offset))

    def take(self, text: str) -> _Token:
        tok = self.here
        if tok.text != text or tok.kind == "eof":
            self.fail(f"expected {text!r}, found {tok.text!r}" if tok.kind != "eof"
                      else f"expected {text!r}, found end of input")
        self.pos += 1
        return tok

    def ident(self, what: str = "identifier") -> _Token:
        tok = self.here
        if tok.kind != "id" or tok.text in KEYWORDS:
            self.fail(f"expected {what}, found {tok.text!r}")
        if not self.allow_reserved and is_reserved_ident(tok.text):
            self.fail(f"reserved identifier {tok.text!r} "
                      "(leading '_' and '@' belong to the pipeline)")
        self.pos += 1
        return tok

    def idlist(self) -> list[_Token]:
        # possibly empty, terminated by ';'
        out = []
        if self.here.text == ";":
            return out
        out.append(self.ident())
        while self.here.text == ",":
            self.take(",")
            out.append(self.ident())
        return out

    def siglist(self) -> list[tuple[_Token, int]]:
        out = []
        if self.here.text == ";":
            return out
        while True:
            sym = self.ident("symbol")
            self.take("/")
            nat = self.here
            if nat.kind != "nat":
                self.fail(f"expected arity, found {nat.text!r}")
            self.pos += 1
            out.append((sym, int(nat.text)))
            if self.here.text != ",":
                return out
            self.take(",")

    def term(self, signature: Signature, variables: frozenset[Ident]) -> Term:
        """One term, parsed on an explicit stack of open applications."""
        frames: list[tuple[_Token | None, list[Term]]] = [(None, [])]
        while True:
            tok = self.ident("term")
            if self.here.text == "(":
                self.take("(")
                if tok.text not in signature:
                    self.fail(f"unknown symbol {tok.text!r}", tok)
                frames.append((tok, []))
                if self.here.text != ")":
                    continue  # on to the first argument
            else:
                if tok.text in signature:
                    self.fail(f"symbol {tok.text!r} used without arguments "
                              "(constants are written c())", tok)
                if tok.text not in variables:
                    self.fail(f"undeclared variable {tok.text!r}", tok)
                frames[-1][1].append(Var(tok.text))
            # close applications until one takes a further argument
            while len(frames) > 1 and self.here.text != ",":
                tok, args = frames.pop()
                self.take(")")
                want = signature.arity(tok.text)
                if len(args) != want:
                    self.fail(f"arity mismatch: {tok.text!r} declared /{want}, "
                              f"applied to {len(args)}", tok)
                frames[-1][1].append(App(tok.text, tuple(args)))
            if len(frames) == 1:
                return frames[0][1][0]
            self.take(",")

    # ---- top-level forms -------------------------------------------------

    def signature_block(self) -> Signature:
        self.take("sig")
        pairs = self.siglist()
        self.take(";")
        seen = {}
        for tok, arity in pairs:
            if tok.text in seen:
                self.fail(f"duplicate symbol {tok.text!r}", tok)
            seen[tok.text] = arity
        return Signature(tuple((tok.text, arity) for tok, arity in pairs))

    def names_block(self, keyword: str) -> tuple[Ident, ...]:
        self.take(keyword)
        toks = self.idlist()
        self.take(";")
        seen = set()
        for tok in toks:
            if tok.text in seen:
                self.fail(f"duplicate name {tok.text!r}", tok)
            seen.add(tok.text)
        return tuple(tok.text for tok in toks)

    def system(self) -> TermSystem:
        self.take("instance")
        self.take("{")
        variables = self.names_block("vars")
        signature = self.signature_block()
        for v in variables:
            if v in signature:
                self.fail(f"{v!r} is both a variable and a symbol")
        declared = frozenset(variables)
        equations = []
        while self.here.text == "eq":
            self.take("eq")
            lhs = self.term(signature, declared)
            self.take("=")
            rhs = self.term(signature, declared)
            self.take(";")
            equations.append(Equation(lhs, rhs))
        self.take("}")
        return TermSystem(variables, signature, tuple(equations))

    def dispersion(self) -> DispersionSpec:
        self.take("dispersion")
        self.take("{")
        inputs = self.names_block("inputs")
        signature = self.signature_block()
        for v in inputs:
            if v in signature:
                self.fail(f"{v!r} is both an input and a symbol")
        declared = frozenset(inputs)
        self.take("outputs")
        outputs = [self.term(signature, declared)]
        while self.here.text == ",":
            self.take(",")
            outputs.append(self.term(signature, declared))
        self.take(";")
        self.take("}")
        if not inputs:
            self.fail("dispersion spec needs at least one input")
        return DispersionSpec(inputs, signature, tuple(outputs))

    def graph(self) -> DependencyGraph:
        self.take("graph")
        self.take("{")
        nodes = self.names_block("nodes")
        declared = frozenset(nodes)
        self.take("sources")
        src_toks = self.idlist()
        self.take(";")
        for tok in src_toks:
            if tok.text not in declared:
                self.fail(f"source {tok.text!r} is not a declared node", tok)
        edges = set()
        while self.here.text == "edge":
            self.take("edge")
            u = self.ident("node")
            self.take("->")
            v = self.ident("node")
            self.take(";")
            for tok in (u, v):
                if tok.text not in declared:
                    self.fail(f"edge endpoint {tok.text!r} is not a declared node",
                              tok)
            edges.add((u.text, v.text))
        self.take("}")
        return DependencyGraph(nodes, frozenset(edges),
                               frozenset(tok.text for tok in src_toks))

    def finish(self):
        if self.here.kind != "eof":
            self.fail(f"trailing input {self.here.text!r}")


def parse(text: str, kind: str = "auto", *, allow_reserved: bool = False):
    """Parse one of the three DSL forms.

    kind is "system", "dispersion", "graph", or "auto" (dispatch on the
    leading keyword).  Raises ParseError with line:col on syntax errors and
    on file-level validation failures (arity mismatch, duplicate symbol,
    undeclared variable).
    """
    p = _Parser(text, allow_reserved)
    lead = p.here.text
    if kind == "auto":
        if lead not in ("instance", "dispersion", "graph"):
            p.fail("expected 'instance', 'dispersion', or 'graph'")
        kind = {"instance": "system"}.get(lead, lead)
    form = {"system": p.system, "dispersion": p.dispersion,
            "graph": p.graph}.get(kind)
    if form is None:
        raise ParseError(f"unknown input kind {kind!r}")
    obj = form()
    p.finish()
    return obj


# ---- rendering -----------------------------------------------------------


def _render_sig(signature: Signature) -> str:
    return ", ".join(f"{name}/{arity}" for name, arity in signature.symbols)


def _block(keyword: str, *lines: str) -> str:
    return "\n".join([f"{keyword} {{", *(f"  {x}" for x in lines), "}\n"])


def _instance(system, equations) -> str:
    """`equations` yields (lhs, rhs) text pairs."""
    return _block("instance", f"vars {', '.join(system.variables)};",
                  f"sig {_render_sig(system.signature)};",
                  *(f"eq {lhs} = {rhs};" for lhs, rhs in equations))


def render(obj) -> str:
    """Deterministic text for any parseable object; inverse of parse."""
    if isinstance(obj, TermSystem):
        sides = obj.dag.labels(obj.dag.outputs)
        return _instance(obj, zip(sides[::2], sides[1::2]))
    if isinstance(obj, NormalSystem):
        eqs = [(f"{e.symbol}({', '.join(e.args)})", e.defined)
               for e in obj.equations]
        return _instance(obj, eqs + list(obj.var_equalities))
    if isinstance(obj, DispersionSpec):
        return _block("dispersion", f"inputs {', '.join(obj.inputs)};",
                      f"sig {_render_sig(obj.signature)};",
                      f"outputs {', '.join(obj.dag.labels(obj.dag.outputs))};")
    if isinstance(obj, DependencyGraph):
        order = {v: i for i, v in enumerate(obj.vertices)}
        sources = sorted(obj.sources, key=order.__getitem__)
        edges = sorted(obj.edges, key=lambda e: (order[e[0]], order[e[1]]))
        return _block("graph", f"nodes {', '.join(obj.vertices)};",
                      f"sources {', '.join(sources)};",
                      *(f"edge {u} -> {v};" for u, v in edges))
    raise ParseError(f"cannot render {type(obj).__name__}")
