"""Finite simple graphs on vertex set {0, ..., n-1}.

Everything downstream (flag complexes, star/link combinatorics, the search
pipeline) works with these graphs.  Instances are immutable and hashable, so
they can be shared freely between worker processes.
"""

from __future__ import annotations

import itertools
from functools import partial
from multiprocessing import Pool
from typing import Callable, Iterable, Iterator, Sequence

MAX_ENUMERATE_N = 9


class GraphError(ValueError):
    """Malformed graph input or an out-of-range argument."""


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class SimpleGraph:
    """An undirected simple graph with dense integer vertex labels.

    Stored as the vertex count plus a frozenset of (u, v) pairs with u < v.
    Adjacency bitmasks are precomputed; ``adj[u]`` has bit v set iff uv is
    an edge.
    """

    __slots__ = ("n", "edges", "adj", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        normalized = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
            normalized.add(_normalize_edge(u, v))
        self.n = n
        self.edges = frozenset(normalized)
        adj = [0] * n
        for u, v in normalized:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = tuple(adj)
        self._hash = hash((n, self.edges))

    # -- basic queries ----------------------------------------------------

    def vertices(self) -> range:
        return range(self.n)

    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return u != v and bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return self.adj[u].bit_count()

    def neighbors(self, u: int) -> set[int]:
        self._check_vertex(u)
        return set(_iter_bits(self.adj[u]))

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise GraphError(f"vertex {u} out of range [0, {self.n})")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={sorted(self.edges)})"

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _iter_bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _set_to_bits(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


# -- construction helpers -------------------------------------------------


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, itertools.combinations(range(n), 2))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def empty_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n)


# -- text formats ----------------------------------------------------------


def parse_edge_list(text: str) -> SimpleGraph:
    """Parse a line-oriented edge list.

    Each non-comment line holds two distinct vertex indices "u v"; an
    optional leading "n=<count>" line pins the vertex count (otherwise it is
    one more than the largest index seen).  '#' starts a comment.
    """
    declared_n = None
    pairs = []
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n=") and declared_n is None and not pairs:
            try:
                declared_n = int(line[2:])
            except ValueError:
                raise GraphError(f"line {lineno}: bad vertex count header {line!r}")
            if declared_n < 0:
                raise GraphError(f"line {lineno}: negative vertex count")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: expected two integers, got {line!r}")
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex index")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop '{u} {u}'")
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise GraphError(
                f"line {lineno}: vertex index beyond declared n={declared_n}"
            )
        pairs.append((u, v))
        max_seen = max(max_seen, u, v)
    n = declared_n if declared_n is not None else max_seen + 1
    return SimpleGraph(max(n, 0), pairs)


def format_edge_list(graph: SimpleGraph) -> str:
    lines = [f"n={graph.n}"]
    lines.extend(f"{u} {v}" for u, v in graph.sorted_edges())
    return "\n".join(lines) + "\n"


# -- graph6 codec ----------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def graph6_decode(code: str) -> SimpleGraph:
    """Decode a graph6 string (standard 6-bit printable layout)."""
    text = code.strip()
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):]
    if not text:
        raise GraphError("empty graph6 code")
    data = []
    for ch in text:
        value = ord(ch) - 63
        if not 0 <= value <= 63:
            raise GraphError(f"graph6 character {ch!r} outside printable range")
        data.append(value)
    if data[0] <= 62:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        raise GraphError("graph6 codes with n >= 258048 are not supported")
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(body) < need_bytes:
        raise GraphError("truncated graph6 bit stream")
    if len(body) > need_bytes:
        raise GraphError("trailing data after graph6 bit stream")
    bits = 0
    for value in body:
        bits = (bits << 6) | value
    bits >>= 6 * need_bytes - need_bits  # drop the zero padding
    edges = []
    position = need_bits - 1
    for v in range(1, n):
        for u in range(v):
            if bits >> position & 1:
                edges.append((u, v))
            position -= 1
    return SimpleGraph(n, edges)


def graph6_encode(graph: SimpleGraph) -> str:
    """Encode a labeled graph in graph6 form (no header)."""
    return _graph6(graph.n, _code_from_order(graph.adj, range(graph.n)))


def _graph6(n: int, code: int) -> str:
    """graph6 text of an n-vertex graph from its :func:`_code_from_order` bits."""
    if n <= 62:
        prefix = [n]
    elif n <= 258047:
        prefix = [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    else:
        raise GraphError("graph6 encoding limited to n <= 258047")
    count = n * (n - 1) // 2
    pad = (-count) % 6
    code <<= pad
    body = [code >> shift & 63 for shift in range(count + pad - 6, -1, -6)]
    return "".join(chr(value + 63) for value in prefix + body)


# -- combinatorial operations ----------------------------------------------


def star(graph: SimpleGraph, u: int) -> set[int]:
    """The closed star: u together with its neighbors."""
    graph._check_vertex(u)
    return set(_iter_bits(graph.adj[u] | (1 << u)))


def link(graph: SimpleGraph, u: int) -> set[int]:
    """The open neighborhood of u."""
    graph._check_vertex(u)
    return set(_iter_bits(graph.adj[u]))


def induced_subgraph(
    graph: SimpleGraph, vertices: Iterable[int]
) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Induced subgraph on a vertex set, relabeled densely.

    Vertices keep their relative order; the returned tuple maps each new
    label to its original one.
    """
    kept = sorted(set(vertices))
    for v in kept:
        graph._check_vertex(v)
    index = {old: new for new, old in enumerate(kept)}
    edges = [
        (index[u], index[v])
        for u, v in graph.edges
        if u in index and v in index
    ]
    return SimpleGraph(len(kept), edges), tuple(kept)


def connected_components(graph: SimpleGraph) -> list[set[int]]:
    """Vertex sets of the connected components, ordered by smallest member."""
    masks = _component_masks(graph.adj, (1 << graph.n) - 1)
    return [set(_iter_bits(mask)) for mask in masks]


def _component_masks(adj, universe: int) -> list[int]:
    """Connected components of the subgraph induced on the `universe` bits,
    ordered by smallest member."""
    out = []
    remaining = universe
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            reached = 0
            for v in _iter_bits(frontier):
                reached |= adj[v]
            frontier = reached & remaining & ~comp
            comp |= frontier
        out.append(comp)
        remaining &= ~comp
    return out


def _star_mask(graph: SimpleGraph, v: int) -> int:
    return graph.adj[v] | (1 << v)


def _complement_component_masks(graph: SimpleGraph, v: int) -> list[int]:
    """Connected components of the graph minus the closed star of v."""
    universe = (1 << graph.n) - 1 & ~_star_mask(graph, v)
    return _component_masks(graph.adj, universe)


def is_connected(graph: SimpleGraph) -> bool:
    return graph.n == 0 or len(connected_components(graph)) == 1


def disjoint_union(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Disjoint union; the second graph is shifted past the first."""
    shift = g1.n
    edges = list(g1.edges)
    edges.extend((u + shift, v + shift) for u, v in g2.edges)
    return SimpleGraph(g1.n + g2.n, edges)


def join(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Graph join: disjoint union plus every edge across the two parts."""
    shift = g1.n
    base = disjoint_union(g1, g2)
    edges = list(base.edges)
    edges.extend((u, v + shift) for u in range(g1.n) for v in range(g2.n))
    return SimpleGraph(base.n, edges)


def cone(graph: SimpleGraph) -> SimpleGraph:
    """Join with a single new vertex (the apex gets the largest label)."""
    return join(graph, SimpleGraph(1))


def suspension(graph: SimpleGraph) -> SimpleGraph:
    """Join with two new non-adjacent vertices."""
    return join(graph, SimpleGraph(2))


# -- seeded randomness -----------------------------------------------------
#
# All randomness flows through SplitMix64.  Per-sample seeds are derived by
# mixing the master seed with the sample index, so a pool of workers can
# evaluate samples in any order and still produce the stream a single
# worker would have produced.

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def mix_seed(master_seed: int, sample_index: int) -> int:
    """Deterministic per-sample seed: one SplitMix64 round over both inputs."""
    _, mixed = splitmix64((master_seed ^ (sample_index * 0xD1342543DE82EF95)) & _MASK64)
    return mixed


def erdos_renyi(n: int, p: float, seed: int) -> SimpleGraph:
    """G(n, p) with each edge included independently with probability p.

    The edge stream is a fixed traversal of the (u, v) pairs driven by
    SplitMix64, so a given (n, p, seed) always yields the same graph.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability {p} outside [0, 1]")
    threshold = int(p * (1 << 64))
    state = seed & _MASK64
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            state, draw = splitmix64(state)
            if draw < threshold:
                edges.append((u, v))
    return SimpleGraph(n, edges)


# -- canonical labeling ----------------------------------------------------
#
# Equitable refinement plus individualization backtracking over partitions
# whose cells are ascending vertex bitmasks.  Each leaf of the search tree
# orders the vertices; its code is the upper-triangular adjacency bit string
# of the graph relabeled by that order, which is the graph6 body of that
# relabeling.  The canonical form is the least code: refinement and
# individualization commute with relabeling, so that minimum is well defined
# on isomorphism classes, and the first leaf reaching it in depth-first
# order gives the canonical order.
#
# The search prunes automorphic branches (McKay & Piperno, "Practical graph
# isomorphism, II", J. Symbolic Comput. 60, 2014).  A vertex individualized
# at a node keeps that node's target position in every leaf below it, since
# the cells before the target are singletons.  So two leaves with equal
# codes give an automorphism that fixes their common individualization
# prefix pointwise and maps the earlier branch below it onto the later one;
# the search records it and backjumps to that prefix.  A child of a node is
# skipped when the group generated by the recorded automorphisms that fix
# the node's prefix pointwise maps an earlier child onto it.  Either way
# the skipped subtree is the automorphic image of one that comes earlier in
# depth-first order, so its leaves repeat earlier codes: the first leaf with
# the least code is still visited, and the code and the order are those of
# the full search.


def _refine_partition(adj, cells: list[int]) -> list[int]:
    """Equitable refinement: split cells by neighbor counts into every cell."""
    changed = True
    while changed:
        changed = False
        new_cells = []
        for cell in cells:
            if not cell & (cell - 1):
                new_cells.append(cell)
                continue
            keyed = {}
            for v in _iter_bits(cell):
                key = tuple((adj[v] & mask).bit_count() for mask in cells)
                keyed[key] = keyed.get(key, 0) | 1 << v
            if len(keyed) > 1:
                changed = True
            for key in sorted(keyed):
                new_cells.append(keyed[key])
        cells = new_cells
    return cells


def _target_cell(adj, cells: list[int]) -> int | None:
    """The first cell with more than one vertex, or None at a leaf.

    A last such cell whose vertices are mutually indistinguishable (the same
    rows outside it, and complete or empty among themselves) also makes a
    leaf, since any order of them gives the same code.
    """
    target = next((i for i, cell in enumerate(cells) if cell & (cell - 1)), None)
    if target == len(cells) - 1:
        cell = cells[target]
        members = list(_iter_bits(cell))
        inner = [adj[v] & cell for v in members]
        if len({adj[v] & ~cell for v in members}) == 1 and (
            not any(inner)
            or all(row == cell ^ 1 << v for v, row in zip(members, inner))
        ):
            return None
    return target


def _code_from_order(adj, order: Sequence[int]) -> int:
    """Upper-triangular adjacency bits of the relabeled graph, as an int."""
    code = 0
    for j in range(1, len(order)):
        row = adj[order[j]]
        for i in range(j):
            code = (code << 1) | (row >> order[i] & 1)
    return code


def _canonical_order(adj, n: int) -> tuple[list[int], int]:
    """The canonical order (new label -> old vertex) and its code."""
    best: list[int] = []
    best_code: int | None = None
    best_path: list[int] = []
    automorphisms: list[list[int]] = []

    def leaf(order, path):
        """Score a leaf; return the depth to backjump to, or None."""
        nonlocal best, best_code, best_path
        code = _code_from_order(adj, order)
        if best_code is None or code < best_code:
            best_code, best, best_path = code, order, path
            return None
        if code > best_code:
            return None
        gamma = [0] * n
        for old, new in zip(best, order):
            gamma[old] = new
        automorphisms.append(gamma)
        depth = 0
        while best_path[depth] == path[depth]:
            depth += 1
        return depth

    def recurse(cells, path):
        target = _target_cell(adj, cells)
        if target is None:
            return leaf([v for cell in cells for v in _iter_bits(cell)], path)
        cell = cells[target]
        depth = len(path)
        orbit = None
        known = 0
        for i, v in enumerate(_iter_bits(cell)):
            if i and known < len(automorphisms):
                known = len(automorphisms)
                orbit = _orbit_labels(n, [
                    g for g in automorphisms if all(g[u] == u for u in path)
                ])
            earlier = _iter_bits(cell & ((1 << v) - 1))
            if orbit is not None and orbit[v] in {orbit[u] for u in earlier}:
                continue
            split = cells[:target] + [1 << v, cell ^ 1 << v] + cells[target + 1:]
            jump = recurse(_refine_partition(adj, split), path + [v])
            if jump is not None and jump < depth:
                return jump
        return None

    recurse(_refine_partition(adj, [(1 << n) - 1]), [])
    return best, best_code


def _orbit_labels(n: int, generators: list[list[int]]) -> list[int]:
    """The least vertex of each vertex's orbit under the generated group."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in generators:
        for x in range(n):
            a, b = find(x), find(g[x])
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


def canonical_relabel(graph: SimpleGraph) -> tuple[SimpleGraph, tuple[int, ...]]:
    """The canonical representative plus the order (new label -> old vertex)."""
    order, _ = _canonical_order(graph.adj, graph.n)
    position = {old: new for new, old in enumerate(order)}
    edges = [(position[u], position[v]) for u, v in graph.edges]
    return SimpleGraph(graph.n, edges), tuple(order)


def canonical_form(graph: SimpleGraph) -> str:
    """Canonical graph6 code: equal exactly for isomorphic graphs."""
    _, code = _canonical_order(graph.adj, graph.n)
    return _graph6(graph.n, code)


# -- exhaustive enumeration -------------------------------------------------


def enumerate_nonisomorphic(n: int) -> Iterator[SimpleGraph]:
    """One canonical representative per isomorphism class of graphs on n vertices.

    Generated by repeatedly extending the (k-1)-vertex classes with one new
    vertex over every possible neighborhood and deduplicating by canonical
    form.  Representatives are yielded in canonical-code order.
    """
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    for code in enumerate_codes(n):
        yield graph6_decode(code)


def _expand_parents(k: int, parent_codes: Sequence[str]) -> set[str]:
    out = set()
    for code in parent_codes:
        parent = graph6_decode(code)
        base_edges = list(parent.edges)
        for mask in range(1 << (k - 1)):
            edges = base_edges + [(u, k - 1) for u in _iter_bits(mask)]
            out.add(canonical_form(SimpleGraph(k, edges)))
    return out


def enumerate_codes(n: int, jobs: int = 1) -> list[str]:
    """Sorted canonical codes of all isomorphism classes on exactly n vertices.

    The last level of :func:`enumerate_levels`; the result is independent of
    the worker count.
    """
    return enumerate_levels(n, jobs)[n] if n >= 0 else []


def enumerate_levels(n: int, jobs: int = 1) -> list[list[str]]:
    """Sorted canonical codes of every order up to n, built in one pass.

    ``levels[k]`` holds the classes on exactly k vertices.  Each level comes
    from the one before it by the augment-and-deduplicate strategy of
    :func:`enumerate_nonisomorphic`, with the child expansion optionally
    spread over worker processes.
    """
    if n > MAX_ENUMERATE_N:
        raise GraphError(f"enumeration supports n <= {MAX_ENUMERATE_N}, got {n}")
    levels = [[graph6_encode(SimpleGraph(0))], [graph6_encode(SimpleGraph(1))]]
    for k in range(2, n + 1):
        level = levels[-1]
        merged: set[str] = set()
        for part in parallel_map(
            partial(_expand_parents, k), level, jobs if len(level) >= 64 else 1
        ):
            merged |= part
        levels.append(sorted(merged))
    return levels[:max(n + 1, 0)]


# -- parallel map -------------------------------------------------------------


def parallel_map(fn: Callable, items: Sequence, jobs: int) -> Iterator:
    """Apply ``fn`` to consecutive slices of ``items``; yield results in order.

    Slices hold about ``len(items) / (8 * jobs)`` items (at most 2048) at
    every worker count.  One job evaluates them in this process as results
    are read; more jobs evaluate them in a pool of worker processes, so
    ``fn`` must be picklable.  Results come back in slice order, so the
    output never depends on the worker count.  ``jobs`` is checked on the
    call, before any slice runs.
    """
    if jobs < 1:
        raise GraphError(f"jobs must be at least 1, got {jobs}")
    chunk = max(1, min(2048, len(items) // (8 * jobs)))
    slices = (items[start:start + chunk] for start in range(0, len(items), chunk))
    if jobs == 1:
        return map(fn, slices)
    return _pool_map(fn, slices, jobs)


def _pool_map(fn: Callable, slices: Iterable, jobs: int) -> Iterator:
    with Pool(jobs) as pool:
        yield from pool.imap(fn, slices)
