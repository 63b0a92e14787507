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

Tokenizing pads each punctuation token with spaces and splits on whitespace,
then checks with one regex search that every distinct word is one whole
token.  `_TOKEN_RE` stays the definition of a token: only text that fails
that check, which the parser always rejects, is tokenized by it, so that its
errors come out as before.  Tokens are plain strings; a token's kind is its first
character, and a token is named by its index (line:col is found only for an
error, by tokenizing again up to it).  An id list or signature is read as one
slice up to its ';' and checked with set operations; only a list that fails a
check is walked item by item, to report its first error.  A graph's `edge`
lines are read one by one.  A term section (all `outputs`, or every `eq`
line) is read in one loop with no call per term: each application is
hash-consed into the DAG as it closes, each separator is compared inline,
and every check a constructor would make is made here.  A token that names
a variable is taken as one with no look at the next token: the header makes
names and symbols disjoint, so only an applied variable `x(` is misread,
and it is caught where a term must end, as a '(' after a name.

User identifiers may not start with "_" or contain "@"; those namespaces are
reserved for pipeline-minted auxiliary variables and diversified symbols.
Rendering is deterministic and `parse(render(obj))` returns an equal object.
"""

from __future__ import annotations

import itertools
import re
from operator import itemgetter
from typing import NoReturn

from .depgraph import DependencyGraph
from .errors import ParseError
from .normalize import NormalSystem
from .terms import (IDENT_RE, KEYWORDS, DispersionSpec, Ident, Signature,
                    TermSystem, _from_arities, _from_dag, _Nodes,
                    is_reserved_ident)

# Each token kind, written once: everything below is built from these
_COMMENT, _NUMBER, _ARROW, _PUNCT = r"#[^\n]*", "[0-9]+", "->", "(){};,=/"
# identifier | arity | arrow | punctuation
_WORD = rf"{IDENT_RE.pattern}|{_NUMBER}|{_ARROW}|[{re.escape(_PUNCT)}]"
# comment | a word | any other visible character
_TOKEN_RE = re.compile(rf"{_COMMENT}|{_WORD}|\S")
_ID_START = frozenset(filter(IDENT_RE.fullmatch, map(chr, range(128))))
_ONE_CHAR = frozenset(filter(re.compile(_WORD).fullmatch, map(chr, range(128))))
_COMMENT_RE = re.compile(_COMMENT)
_PADDED = [(p, f" {p} ") for p in (_ARROW, *_PUNCT)]
# the first of some newline-joined words that is not one whole token: a
# search, since a fullmatch repeating over the words keeps one backtracking
# frame per word
_NOT_A_TOKEN_RE = re.compile(rf"^(?!(?:{_WORD})$|\Z)", re.MULTILINE)


def _position(text: str, index: int) -> tuple[int, int]:
    """line:col of token `index` (the end marker is one past the last
    token), found by tokenizing again: only an error needs an offset."""
    starts = (m.start() for m in _TOKEN_RE.finditer(text) if m[0][0] != "#")
    offset = next(itertools.islice(starts, index, None), len(text))
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _regex_tokens(text: str) -> list[str]:
    """`_TOKEN_RE`'s tokens outside comments.  Only a one-character token
    can be a character that starts no token."""
    tokens = _TOKEN_RE.findall(text)
    if "#" in text:
        tokens = [tok for tok in tokens if tok[0] != "#"]
    bad = [tok for tok in set(tokens) if len(tok) == 1 and tok not in _ONE_CHAR]
    if bad:
        at = min(map(tokens.index, bad))
        raise ParseError(f"unexpected character {tokens[at]!r}",
                         *_position(text, at))
    return tokens


def _tokenize(text: str) -> list[str]:
    """The tokens outside comments as plain strings, then "" for the end.

    Padding never splits or joins a token, a comment ends before its
    newline, and `str.split` and `\\s` agree on whitespace, so when every
    word is one whole token the words are `_regex_tokens(text)`.  Two
    tokens touch with nothing padded between them only in text the parser
    rejects, and only then does `_regex_tokens` run."""
    words = _COMMENT_RE.sub("", text) if "#" in text else text
    for punct, padded in _PADDED:
        words = words.replace(punct, padded)
    words = words.split()
    if _NOT_A_TOKEN_RE.search("\n".join(set(words))):
        words = _regex_tokens(text)
    words.append("")
    return words


class _Parser:
    """Recursive descent over the token list; a token is named by its index."""

    def __init__(self, text: str, allow_reserved: bool):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.allow_reserved = allow_reserved

    @property
    def here(self) -> str:
        return self.toks[self.pos]

    def fail(self, message: str, at: int | None = None):
        raise ParseError(message, *_position(
            self.text, self.pos if at is None else at))

    def take(self, text: str) -> None:
        if self.here != text:
            found = repr(self.here) if self.here else "end of input"
            self.fail(f"expected {text!r}, found {found}")
        self.pos += 1

    def ident(self, what: str = "identifier") -> int:
        tok = self.here
        if tok[:1] not in _ID_START or tok in KEYWORDS:
            self.fail(f"expected {what}, found {tok!r}")
        if not self.allow_reserved and is_reserved_ident(tok):
            self.fail(f"reserved identifier {tok!r} "
                      "(leading '_' and '@' belong to the pipeline)")
        self.pos += 1
        return self.pos - 1

    def symbol(self) -> int:
        """`name/arity`, checked, as the name's index."""
        at = self.ident("symbol")
        self.take("/")
        if not self.here.isdigit():
            self.fail(f"expected arity, found {self.here!r}")
        try:
            int(self.here)
        except ValueError:  # past Python's int-string limit
            self.fail(f"arity too large ({len(self.here)} digits)")
        self.pos += 1
        return at

    def items(self, width: int, item, repeated: str | None) -> list[str]:
        """The `;`-ended list at `pos` as one slice of tokens, each item
        `width - 1` tokens with a ',' after all but the last; `pos` moves
        past the ';'.  Each item's first token must be a name `ident`
        accepts, and the names must be distinct if `repeated` says what they
        are; a list that fails is walked with `item` by `list_error`."""
        toks, start = self.toks, self.pos
        try:
            end = toks.index(";", start)
        except ValueError:
            self.list_error(start, item, repeated)
        items = toks[start:end]
        names = items[::width]
        firsts = set(map(itemgetter(0), names))
        shaped = not items or ((len(items) + 1) % width == 0
                               and set(items[width - 1::width]) <= {","})
        named = (firsts <= _ID_START and KEYWORDS.isdisjoint(names)
                 and (self.allow_reserved
                      or "_" not in firsts and "@" not in "".join(names)))
        if not (shaped and named) or repeated and len(set(names)) < len(names):
            self.list_error(start, item, repeated)
        self.pos = end + 1
        return items

    def list_error(self, start: int, item, repeated: str | None) -> NoReturn:
        """Walk the list at `start` item by item and raise the error it
        meets first: the error path of a list that failed a bulk check."""
        self.pos = start
        ats = []
        if self.here != ";":
            ats.append(item())
            while self.here == ",":
                self.pos += 1
                ats.append(item())
        self.take(";")
        seen = set()
        for at in ats if repeated else ():
            if self.toks[at] in seen:
                self.fail(f"duplicate {repeated} {self.toks[at]!r}", at)
            seen.add(self.toks[at])
        raise AssertionError("a list failed its bulk check but has no error")

    def terms(self, arities: dict[Ident, int], nodes: _Nodes,
              seps: tuple[str, ...]) -> list[int]:
        """A whole term section as its roots' DAG nodes, in one loop over
        the tokens with an explicit stack of open applications; each is
        interned in `nodes` when it closes.  `seps` are the separators after
        each root in turn, cycled; all their tokens are required but the
        last one's last, whose absence ends the section before it."""
        toks, i, k = self.toks, self.pos, 0  # k: the next root's separator
        get, intern, arity_of = nodes.get, nodes.setdefault, arities.get
        cycle = [sep.split() for sep in seps]
        # (symbol's index, its arity, outer args) per open application
        stack: list[tuple[int, int, list[int]]] = []
        push, pop = stack.append, stack.pop
        roots = args = []  # the innermost open application's args, or roots
        while True:
            tok = toks[i]
            node = get(tok)
            if node is not None:  # a variable: the token is no symbol
                args.append(node)
                i += 1
            elif (arity := arity_of(tok)) is not None and toks[i + 1] == "(":
                push((i, arity, args))
                args = []
                i += 2
                if toks[i] != ")":
                    continue  # on to the first argument
            else:
                self.pos = i
                self.ident("term")
                if toks[i + 1] == "(":
                    self.fail(f"unknown symbol {tok!r}", i)
                if tok in arities:
                    self.fail(f"symbol {tok!r} used without arguments "
                              "(constants are written c())", i)
                self.fail(f"undeclared variable {tok!r}", i)
            # close applications until one takes a further argument
            while stack:
                tok = toks[i]
                if tok == ")":
                    at, arity, outer = pop()
                    symbol = toks[at]
                    if len(args) != arity:
                        self.fail(f"arity mismatch: {symbol!r} declared "
                                  f"/{arity}, applied to {len(args)}", at)
                    outer.append(intern((symbol, tuple(args)), len(nodes)))
                    args = outer
                    i += 1
                elif tok == ",":
                    i += 1  # on to the next argument
                    break
                else:
                    self.after_term(i, [")"], False)
            else:  # a root has closed: its separator
                sep = cycle[k]
                j = i + len(sep)
                k = (k + 1) % len(cycle)
                if toks[i:j] != sep:
                    self.pos = self.after_term(i, sep, k == 0)
                    return roots
                i = j

    def after_term(self, i: int, sep: list[str], ends: bool) -> int:
        """Raise at token `i`, after a term, where `sep` does not follow;
        or, if `ends` and only `sep`'s last token is missing, return the
        index where the section ends.  A variable applied is caught here,
        at its '(': only a name, never a ')', is followed by one there."""
        toks = self.toks
        if toks[i] == "(" and toks[i - 1] != ")":
            self.fail(f"unknown symbol {toks[i - 1]!r}", i - 1)
        self.pos = i
        for tok in sep[:-1] if ends else sep:
            self.take(tok)
        return self.pos

    # ---- top-level forms, after their opening `keyword {` ----------------

    def names(self, keyword: str, repeated: str | None = "name") -> list[Ident]:
        """`keyword name, ..., name;` as its names."""
        self.take(keyword)
        return self.items(2, self.ident, repeated)[::2]

    def header(self, keyword: str, what: str):
        """`keyword names; sig symbols;` as the symbols' arities in
        declaration order and a hash-consing table over the names."""
        names = self.names(keyword)
        self.take("sig")
        start = self.pos
        items = self.items(4, self.symbol, "symbol")
        try:  # of all tokens, `int` reads only digit runs, up to its limit
            arities = dict(zip(items[::4], map(int, items[2::4])))
        except ValueError:
            self.list_error(start, self.symbol, "symbol")
        if not set(items[1::4]) <= {"/"}:
            self.list_error(start, self.symbol, "symbol")
        if not arities.keys().isdisjoint(names):
            v = next(v for v in names if v in arities)
            self.fail(f"{v!r} is both {what} and a symbol")
        return arities, _Nodes(names)

    def system(self) -> TermSystem:
        arities, nodes = self.header("vars", "a variable")
        sides = []
        if self.here == "eq":
            self.pos += 1
            sides = self.terms(arities, nodes, ("=", "; eq"))
        self.take("}")
        return _from_dag(TermSystem, _from_arities(arities),
                         nodes.dag(sides))

    def dispersion(self) -> DispersionSpec:
        arities, nodes = self.header("inputs", "an input")
        self.take("outputs")
        outputs = self.terms(arities, nodes, (",",))
        self.take(";")
        self.take("}")
        if not nodes.inputs:
            self.fail("dispersion spec needs at least one input")
        return _from_dag(DispersionSpec, _from_arities(arities),
                         nodes.dag(outputs))

    def graph(self) -> DependencyGraph:
        toks = self.toks
        nodes = self.names("nodes")
        declared = frozenset(nodes)
        start = self.pos + 1  # the first source, after the keyword
        sources = self.names("sources", None)
        if not declared.issuperset(sources):
            at = next(at for at in range(start, self.pos, 2)
                      if toks[at] not in declared)
            self.fail(f"source {toks[at]!r} is not a declared node", at)
        edges = set()
        while self.here == "edge":
            self.pos += 1
            u = self.ident("node")
            self.take("->")
            v = self.ident("node")
            self.take(";")
            for at in (u, v):
                if toks[at] not in declared:
                    self.fail(f"edge endpoint {toks[at]!r} is not a declared node", at)
            edges.add((toks[u], toks[v]))
        self.take("}")
        return DependencyGraph(tuple(nodes), frozenset(edges), frozenset(sources))


def parse(text: str, kind: str = "auto", *, allow_reserved: bool = False):
    """Parse one of the three DSL forms.

    kind is "system", "dispersion", "graph", or "auto" (dispatch on the
    leading keyword).  Raises ParseError with line:col on syntax errors and
    on file-level validation failures (arity mismatch, duplicate symbol,
    undeclared variable).
    """
    p = _Parser(text, allow_reserved)
    leads = {"system": "instance", "dispersion": "dispersion", "graph": "graph"}
    if kind == "auto":
        if p.here not in ("instance", "dispersion", "graph"):
            p.fail("expected 'instance', 'dispersion', or 'graph'")
        kind = {"instance": "system"}.get(p.here, p.here)
    if kind not in leads:
        raise ParseError(f"unknown input kind {kind!r}")
    p.take(leads[kind])
    p.take("{")
    obj = getattr(p, kind)()
    if p.here:
        p.fail(f"trailing input {p.here!r}")
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
        sources = [v for v in obj.vertices if v in obj.sources]
        return _block("graph", f"nodes {', '.join(obj.vertices)};",
                      f"sources {', '.join(sources)};",
                      *(f"edge {u} -> {v};" for u, v in obj.sorted_edges))
    raise ParseError(f"cannot render {type(obj).__name__}")
