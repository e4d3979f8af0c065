"""Finite simple undirected graphs and the constructors used throughout.

Vertices are the integers 0..vertex_count-1 and edges are canonically stored
as (u, v) pairs with u < v, so two equal graphs compare equal.  Graphs are
immutable; connectedness is checked by the group-level operations, not here,
because joins of disconnected graphs are legitimate inputs.

Every graph has at most MAX_VERTICES vertices, checked by ``Graph`` before it
reads an edge, so no graph, join or cone above that budget allocates
anything.  K_m is further capped at MAX_COMPLETE_VERTICES, and so is the n of
a cone, whose one rule ``_check_cone_size`` also requires a positive int.
"""

from __future__ import annotations

import codecs
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Tuple

from .errors import InputError, SizeError

__all__ = [
    "Graph",
    "complete",
    "path",
    "cycle",
    "join",
    "cone",
    "is_connected",
    "leaves",
    "is_tree",
    "parse_edge_list",
    "read_edge_list",
    "format_edge_list",
]

Edge = Tuple[int, int]

# K_m has m(m-1)/2 edges, all built eagerly: K_2048 already holds 2.1M edges
# (about 0.45 GB of Python objects), and a mistyped cone size such as 10**20
# would exhaust memory instead of failing.  Every graph is held to twice that
# many vertices, the largest cone (k = n = 2048) the K_m cap allows, so a
# header such as "2097152 0" or a join with millions of cross edges fails
# before anything is allocated.
MAX_COMPLETE_VERTICES = 2048
MAX_VERTICES = 2 * MAX_COMPLETE_VERTICES


@dataclass(frozen=True)
class Graph:
    """A simple graph on vertices 0..vertex_count-1; duplicate edges are merged.

    More than MAX_VERTICES vertices raise ``SizeError`` before any edge is
    read, so ``edges`` may be a lazy iterable of any length.
    """

    vertex_count: int
    edges: frozenset

    def __init__(self, vertex_count: int, edges: Iterable[Edge] = ()):
        _check_vertex_count(vertex_count)
        canonical = set()
        for pair in edges:
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise InputError(f"edge {pair!r} must be a pair of vertices") from None
            if not isinstance(u, int) or not isinstance(v, int):
                raise InputError(f"edge endpoints must be integers, got {pair!r}")
            if u == v:
                raise InputError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InputError(
                    f"edge ({u}, {v}) out of range for {vertex_count} vertices"
                )
            canonical.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", frozenset(canonical))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _adjacency(self) -> tuple:
        neighbors = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            neighbors[u].add(v)
            neighbors[v].add(u)
        return tuple(frozenset(s) for s in neighbors)

    def neighbors(self, v: int) -> frozenset:
        self._check_vertex(v)
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adjacency[v])

    def edge_list(self) -> list:
        """Edges in sorted order, for deterministic serialization."""
        return sorted(self.edges)

    def _check_vertex(self, v: int):
        if not isinstance(v, int) or not (0 <= v < self.vertex_count):
            raise InputError(f"vertex {v!r} out of range [0, {self.vertex_count})")

    def __repr__(self):
        return f"Graph({self.vertex_count}, {self.edge_list()})"


def _check_vertex_count(vertex_count) -> None:
    """The vertex rule of every graph: a positive int of at most MAX_VERTICES.

    Constructors that draw or allocate per vertex call it first.
    """
    if not isinstance(vertex_count, int) or vertex_count < 1:
        raise InputError(f"vertex count must be a positive integer, got {vertex_count!r}")
    if vertex_count > MAX_VERTICES:
        raise SizeError(
            f"graph on {vertex_count} vertices exceeds the limit of {MAX_VERTICES}"
        )


def _check_complete_size(m: int) -> None:
    if m > MAX_COMPLETE_VERTICES:
        raise SizeError(
            f"complete graph on {m} vertices exceeds the limit of {MAX_COMPLETE_VERTICES}"
        )


def _check_cone_size(k: int, n: int) -> None:
    """The one cone-size rule, for ``cone(g, n)`` with |g| = k: an int n in
    [1, MAX_COMPLETE_VERTICES] and k + n <= MAX_VERTICES, before K_n exists."""
    if not isinstance(n, int):
        raise InputError(f"cone size must be an integer, got {n!r}")
    if n < 1:
        raise InputError("cone size must be at least 1")
    _check_complete_size(n)
    if k + n > MAX_VERTICES:
        raise SizeError(
            f"cone of a graph on {k} vertices with {n} cone vertices has {k + n} "
            f"vertices, more than the limit of {MAX_VERTICES}"
        )


def complete(m: int) -> Graph:
    _check_vertex_count(m)
    _check_complete_size(m)
    return Graph(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def path(m: int) -> Graph:
    _check_vertex_count(m)
    return Graph(m, [(i, i + 1) for i in range(m - 1)])


def cycle(m: int) -> Graph:
    _check_vertex_count(m)
    if m < 3:
        raise InputError("cycle needs at least three vertices")
    return Graph(m, [(i, (i + 1) % m) for i in range(m)])


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets.

    Vertices of g1 keep their indices; vertices of g2 are shifted up by
    g1.vertex_count.  The edges reach ``Graph`` lazily, so a join with more
    than MAX_VERTICES vertices raises ``SizeError`` before any edge is built.
    """
    k1, k2 = g1.vertex_count, g2.vertex_count
    shifted = ((u + k1, v + k1) for u, v in g2.edges)
    cross = ((u, v + k1) for u in range(k1) for v in range(k2))
    return Graph(k1 + k2, itertools.chain(g1.edges, shifted, cross))


def cone(g: Graph, n: int) -> Graph:
    """The nth cone over g: the join of g with the complete graph K_n.

    Base vertices keep indices 0..k-1 and the n cone vertices follow.  An n
    above MAX_COMPLETE_VERTICES, or a cone above MAX_VERTICES, raises
    ``SizeError`` before K_n is built.
    """
    _check_cone_size(g.vertex_count, n)
    return join(g, complete(n))


def is_connected(g: Graph) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.vertex_count


def leaves(g: Graph) -> tuple:
    """Sorted tuple of the degree-1 vertices."""
    return tuple(v for v in range(g.vertex_count) if g.degree(v) == 1)


def is_tree(g: Graph) -> bool:
    return g.edge_count == g.vertex_count - 1 and is_connected(g)


def _parse_decimal(token: str) -> int:
    """A token matching -?[0-9]+ as an int; ValueError for anything else.

    ``int`` also reads a leading ``+``, ``_`` between digits and non-ASCII
    digits, so ruling those out leaves exactly that pattern, at a third of
    the cost of a regex match.
    """
    if not token.isascii() or "_" in token or token.startswith("+"):
        raise ValueError(token)
    return int(token)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Line 1 is ``n m`` (vertex and edge counts), followed by m lines ``u v``
    with 0-based indices.  Every count and index is a plain ASCII decimal
    integer.  Lines starting with ``#`` are comments and blank lines are
    ignored.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line.split()))

    if not rows:
        raise InputError("empty graph file")
    lineno, header = rows[0]
    if len(header) != 2:
        raise InputError(f"line {lineno}: header must be 'n m'")
    try:
        n, m = _parse_decimal(header[0]), _parse_decimal(header[1])
    except ValueError:
        raise InputError(f"line {lineno}: header must contain two integers") from None
    body = rows[1:]
    if len(body) != m:
        raise InputError(f"header promises {m} edges but file has {len(body)} edge lines")
    pairs = []
    for lineno, tokens in body:
        if len(tokens) != 2:
            raise InputError(f"line {lineno}: edge line must be 'u v'")
        try:
            pairs.append((_parse_decimal(tokens[0]), _parse_decimal(tokens[1])))
        except ValueError:
            raise InputError(f"line {lineno}: edge endpoints must be integers") from None
    return Graph(n, pairs)


def read_edge_list(path: str) -> Graph:
    """Read a file as strict UTF-8 after one leading BOM; offsets count the BOM."""
    with open(path, "rb") as fh:
        data = fh.read()
    bom = codecs.BOM_UTF8 if data.startswith(codecs.BOM_UTF8) else b""
    try:
        text = data[len(bom) :].decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start + len(bom)
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {at})") from None
    return parse_edge_list(text)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edge_list()]
    return "\n".join(lines) + "\n"
