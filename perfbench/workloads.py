"""Seeded inputs and answer checks for the three benchmark workloads.

This module never imports chipfire: the graphs and divisors come from the
benchmark's own RNG and generators, and the expected group orders from its
own determinant, so a change to the library cannot change the inputs or the
yardstick the answers are checked against.

Every workload is an endless stream of ops built from a repeating *cycle* of
slots.  The slots of one cycle fix the sizes and the op mix; the seed
shuffles the slot order in each cycle and draws the graphs and divisors.
Two seeds therefore give different inputs with the same size distribution,
which keeps run-to-run spread low.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

WORKLOADS = ("group", "verify", "divisor")

Edges = Tuple[Tuple[int, int], ...]


# --- graphs -----------------------------------------------------------------


def _connect(rng: random.Random, n: int, edges: set) -> None:
    """Join the components of (n, edges) into one by adding bridge edges."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    components = {}
    for v in range(n):
        components.setdefault(find(v), []).append(v)
    groups = list(components.values())
    for prev, cur in zip(groups, groups[1:]):
        u, v = rng.choice(prev), rng.choice(cur)
        edges.add((min(u, v), max(u, v)))


def gnp(rng: random.Random, n: int, p: float, connected: bool = True) -> Edges:
    """Erdos-Renyi G(n, p); when asked, components are bridged together."""
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    if connected:
        _connect(rng, n, edges)
    return tuple(sorted(edges))


def tree_plus(rng: random.Random, n: int, extra: int) -> Edges:
    """Random recursive tree on n vertices plus `extra` random chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return tuple(sorted(edges))


def edge_list_text(n: int, edges: Edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def laplacian_rows(n: int, edges: Edges) -> List[List[int]]:
    rows = [[0] * n for _ in range(n)]
    for u, v in edges:
        rows[u][v] -= 1
        rows[v][u] -= 1
        rows[u][u] += 1
        rows[v][v] += 1
    return rows


def spanning_trees(n: int, edges: Edges) -> int:
    """|Pic0| by the matrix-tree theorem, with the benchmark's own Bareiss."""
    m = [row[1:] for row in laplacian_rows(n, edges)[1:]]
    size = n - 1
    if size == 0:
        return 1
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, size):
            head = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
        prev = pivot
    return abs(sign * m[size - 1][size - 1])


# --- ops --------------------------------------------------------------------


@dataclass
class Op:
    """One timed call.

    CLI ops carry `argv` plus the graph files it names (`files`, as
    (name, text) pairs the runner writes before the call).  Library ops
    name a chipfire function in `kind` and carry the index of their pool
    graph and their divisor arguments.  `key` identifies the graph(s) the op
    works on, for the repeat share; `expect` holds what the checks need.
    """

    kind: str
    key: object
    argv: Optional[List[str]] = None
    files: List[Tuple[str, str]] = field(default_factory=list)
    graph: int = -1
    divisors: Tuple[tuple, ...] = ()
    expect: dict = field(default_factory=dict)


def _cycles(rng: random.Random, slots: Sequence) -> Iterator:
    while True:
        order = list(slots)
        rng.shuffle(order)
        yield from order


# Each cycle of 20 slots is laid out in cost classes: the cheapest 8, then
# 4 of one kind, 4 dearer, and 4 of the dearest kind.  op_p50_ms and
# op_p90_ms then fall inside a class of identical slots instead of on a
# jump between two kinds, which would move with where the run stops.

# group: the headline "compute this graph's group" call.  Mostly dense
# G(n, 0.3) over n = 22..40, a sparse tree-plus-chords family, and
# `cone FILE N` on dense bases.  No graph repeats.
GROUP_SLOTS = (
    [("dense", n, 0) for n in (22, 24, 26, 28)]
    + [("sparse", 26, 0), ("cone", 21, 1), ("cone", 26, 2), ("cone", 23, 3)]
    + [("dense", 32, 0)] * 4
    + [("sparse", 38, 0), ("dense", 35, 0), ("dense", 37, 0), ("sparse", 40, 0)]
    + [("dense", 40, 0)] * 4
)

# verify: the paper's theorem checks.  `verify cone` over bases k = 12..26
# with N = 2..6, and 3 of 20 ops `verify join` on 2-3 factors of 6-12
# vertices.  No base graph or factor tuple repeats.
VERIFY_SLOTS = (
    [("join", (6, 12)), ("join", (6, 8, 10)), ("join", (9, 11))]
    + [("cone", k, n) for k, n in ((12, 2), (13, 5), (14, 3), (15, 6), (16, 4))]
    + [("cone", 19, 3)] * 4
    + [("cone", k, n) for k, n in ((20, 6), (22, 2), (23, 5), (24, 3))]
    + [("cone", 26, 4)] * 4
)

# divisor: a long-lived library session over a fixed pool of graphs, so
# almost every op reuses a graph already seen.  Each cycle gives every pool
# graph 4 is_principal (2 of them on divisors principal by construction),
# 4 class_order and one subgroup/quotient pair on the same generators: 80%
# cached-path queries, 20% fresh SNFs.  Six of the eight graphs are one
# size, so that both quantiles fall well inside graphs of that size.
DIVISOR_POOL = (("sparse", 35),) + (("dense", 36),) * 6 + (("dense", 45),)
DIVISOR_SLOTS = [
    (kind, gi)
    for gi in range(len(DIVISOR_POOL))
    for kind in ["principal", "is_principal"] * 2 + ["class_order"] * 4 + ["pair"]
]


def _distinct(seen: set, make):
    while True:
        value = make()
        if value not in seen:
            seen.add(value)
            return value


def group_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(f"group:{seed}")
    seen: set = set()
    for index, (family, n, cone_size) in enumerate(_cycles(rng, GROUP_SLOTS)):
        if family == "sparse":
            make = lambda: (n, tree_plus(rng, n, max(2, n // 10)))
        else:
            make = lambda: (n, gnp(rng, n, 0.3))
        key = _distinct(seen, make)
        name = f"g{index}.txt"
        text = edge_list_text(*key)
        if family == "cone":
            argv = ["cone", name, str(cone_size)]
            vertices = n + cone_size
            edges = len(key[1]) + n * cone_size + cone_size * (cone_size - 1) // 2
        else:
            argv = ["group", name]
            vertices, edges = n, len(key[1])
        yield Op(
            kind=family,
            key=key,
            argv=argv,
            files=[(name, text)],
            expect={"vertices": vertices, "edges": edges},
        )


def verify_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(f"verify:{seed}")
    seen: set = set()
    for index, slot in enumerate(_cycles(rng, VERIFY_SLOTS)):
        if slot[0] == "cone":
            _, k, cone_size = slot
            key = _distinct(seen, lambda: (k, gnp(rng, k, 0.3)))
            name = f"v{index}.txt"
            yield Op(
                kind="cone",
                key=key,
                argv=["verify", "cone", name, "-n", str(cone_size)],
                files=[(name, edge_list_text(*key))],
                expect={"k": k, "n": cone_size},
            )
        else:
            sizes = slot[1]
            key = _distinct(
                seen,
                lambda: tuple((m, gnp(rng, m, 0.4, connected=False)) for m in sizes),
            )
            names = [f"v{index}_{i}.txt" for i in range(len(sizes))]
            yield Op(
                kind="join",
                key=key,
                argv=["verify", "join", *names],
                files=[(nm, edge_list_text(*g)) for nm, g in zip(names, key)],
                expect={"sizes": list(sizes)},
            )


def divisor_pool(seed: int) -> List[Tuple[int, Edges]]:
    rng = random.Random(f"divisor-pool:{seed}")
    pool = []
    for family, n in DIVISOR_POOL:
        edges = tree_plus(rng, n, n // 5) if family == "sparse" else gnp(rng, n, 0.3)
        pool.append((n, edges))
    return pool


def _random_degree_zero(rng: random.Random, n: int) -> tuple:
    d = [rng.randint(-3, 3) for _ in range(n)]
    d[rng.randrange(n)] -= sum(d)
    return tuple(d)


def _principal(rng: random.Random, n: int, edges: Edges) -> tuple:
    """L x for a random small x: principal by construction."""
    x = [rng.randint(-2, 2) for _ in range(n)]
    d = [0] * n
    for u, v in edges:
        d[u] += x[u] - x[v]
        d[v] += x[v] - x[u]
    return tuple(d)


def divisor_ops(seed: int, pool: Sequence[Tuple[int, Edges]]) -> Iterator[Op]:
    rng = random.Random(f"divisor:{seed}")
    for slot, gi in _cycles(rng, DIVISOR_SLOTS):
        n, edges = pool[gi]
        if slot == "pair":
            # 1-3 generators, fixed per graph so that every cycle costs the same
            gens = tuple(_random_degree_zero(rng, n) for _ in range(1 + gi % 3))
            first, second = rng.sample(["subgroup_invariants", "quotient_by_classes"], 2)
            yield Op(kind=first, key=gi, graph=gi, divisors=gens)
            yield Op(kind=second, key=gi, graph=gi, divisors=gens)
        elif slot == "principal":
            d = _principal(rng, n, edges)
            yield Op(kind="is_principal", key=gi, graph=gi, divisors=(d,), expect={"principal": True})
        else:
            yield Op(kind=slot, key=gi, graph=gi, divisors=(_random_degree_zero(rng, n),))


# --- answer checks for CLI output -------------------------------------------

_DECIMAL = re.compile(r"-?[0-9]+\Z")


def as_int(value) -> int:
    """A JSON int or a decimal string, as the CLI may print either."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str) and _DECIMAL.match(value):
        return int(value)
    raise ValueError(f"{value!r} is neither a JSON int nor a decimal string")


def factor_chain(values) -> List[int]:
    """Parse an invariant-factor list and check it is a divisibility chain."""
    factors = [as_int(v) for v in values]
    if any(d < 2 for d in factors):
        raise ValueError(f"invariant factors must be >= 2: {factors}")
    if any(b % a for a, b in zip(factors, factors[1:])):
        raise ValueError(f"invariant factors are not a divisibility chain: {factors}")
    return factors


def _records(text: str) -> List[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check_cli(op: Op, exit_code: int, text: str) -> None:
    """Raise ValueError unless the CLI output of `op` is a right answer."""
    if exit_code != 0:
        raise ValueError(f"exit code {exit_code}")
    records = _records(text)
    if len(records) != 1:
        raise ValueError(f"expected one record, got {len(records)}")
    result = records[0]["result"]
    if op.argv[0] in ("group", "cone"):
        factors = factor_chain(result["invariant_factors"])
        order = as_int(result["order"])
        if order != as_int(result["spanning_trees"]):
            raise ValueError("order differs from the spanning-tree count")
        if math.prod(factors) != order:
            raise ValueError("product of invariant factors differs from the order")
        if (result["vertices"], result["edges"]) != (
            op.expect["vertices"],
            op.expect["edges"],
        ):
            raise ValueError("vertex or edge count differs from the input")
    elif op.kind == "cone":
        if result.get("holds") is not True:
            raise ValueError("verify cone record does not hold")
        k, n = op.expect["k"], op.expect["n"]
        pic0 = factor_chain(result["pic0_factors"])
        sub = factor_chain(result["subgroup_factors"])
        quot = factor_chain(result["quotient_factors"])
        if sub != [n + k] * (n - 1):
            raise ValueError("subgroup is not (Z/(n+k))^(n-1)")
        if math.prod(quot) != as_int(result["p_at_minus_n"]):
            raise ValueError("|H_n| differs from |P(-n)|")
        if math.prod(pic0) != as_int(result["pic0_order"]) or math.prod(
            pic0
        ) != math.prod(sub) * math.prod(quot):
            raise ValueError("|Pic0| differs from |subgroup| * |H_n|")
    else:
        if result.get("holds") is not True:
            raise ValueError("verify join record does not hold")
        if as_int(result["lhs"]) != as_int(result["rhs"]):
            raise ValueError("join order formula sides differ")
        if result["factor_vertex_counts"] != op.expect["sizes"]:
            raise ValueError("factor sizes differ from the input")


def ops_for(workload: str, seed: int, pool=None) -> Iterator[Op]:
    if workload == "group":
        return group_ops(seed)
    if workload == "verify":
        return verify_ops(seed)
    return divisor_ops(seed, pool)
