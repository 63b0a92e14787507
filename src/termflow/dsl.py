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
from dataclasses import dataclass

from .depgraph import DependencyGraph
from .errors import ParseError
from .terms import (App, DispersionSpec, Equation, Ident, Signature, Term,
                    TermSystem, Var, is_reserved_ident)

KEYWORDS = frozenset({
    "instance", "dispersion", "graph", "vars", "inputs", "outputs",
    "sig", "eq", "nodes", "sources", "edge",
})

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_@]*)
  | (?P<nat>[0-9]+)
  | (?P<punct>->|[{}();,=/])
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str  # "id" | "nat" | "punct" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, allow_reserved: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allow_reserved = allow_reserved

    @property
    def here(self) -> _Token:
        return self.tokens[self.pos]

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.here
        raise ParseError(message, tok.line, tok.col)

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
    if kind == "system":
        obj = p.system()
    elif kind == "dispersion":
        obj = p.dispersion()
    elif kind == "graph":
        obj = p.graph()
    else:
        raise ParseError(f"unknown input kind {kind!r}")
    p.finish()
    return obj


# ---- rendering -----------------------------------------------------------


def _render_sig(signature: Signature) -> str:
    return ", ".join(f"{name}/{arity}" for name, arity in signature.symbols)


def render(obj) -> str:
    """Deterministic text for any parseable object; inverse of parse."""
    if isinstance(obj, TermSystem):
        lines = ["instance {",
                 f"  vars {', '.join(obj.variables)};",
                 f"  sig {_render_sig(obj.signature)};"]
        sides = obj.dag.labels(obj.dag.outputs)
        lines += [f"  eq {lhs} = {rhs};" for lhs, rhs in zip(sides[::2], sides[1::2])]
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, DispersionSpec):
        outs = ", ".join(obj.dag.labels(obj.dag.outputs))
        return ("dispersion {\n"
                f"  inputs {', '.join(obj.inputs)};\n"
                f"  sig {_render_sig(obj.signature)};\n"
                f"  outputs {outs};\n"
                "}\n")
    if isinstance(obj, DependencyGraph):
        order = {v: i for i, v in enumerate(obj.vertices)}
        sources = sorted(obj.sources, key=order.__getitem__)
        lines = ["graph {",
                 f"  nodes {', '.join(obj.vertices)};",
                 f"  sources {', '.join(sources)};"]
        for u, v in sorted(obj.edges, key=lambda e: (order[e[0]], order[e[1]])):
            lines.append(f"  edge {u} -> {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    # normalized systems render through their term-system view
    to_ts = getattr(obj, "to_term_system", None)
    if to_ts is not None:
        return render(to_ts())
    raise ParseError(f"cannot render {type(obj).__name__}")
