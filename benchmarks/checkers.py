"""Checkers that share no code with raagscan.

Every correctness check in the benchmark is computed here from edge sets,
or is a property the method must have.  Nothing is compared with a stored
copy of the program's output.  ``self_test`` exercises each checker on
hand-built graphs and runs at the start of every benchmark run.
"""

from __future__ import annotations

import itertools
import random

# Unlabeled graphs on n vertices, n = 1..8 (OEIS A000088); regenerate
# with `python3 benchmarks/checkers.py`, which counts them by Burnside.
PUBLISHED_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

_MASK64 = (1 << 64) - 1


def burnside_class_count(n: int) -> int:
    """Unlabeled graphs on n vertices: the average over all permutations of
    2 ** (number of orbits the permutation has on vertex pairs)."""
    pairs = list(itertools.combinations(range(n), 2))
    total = 0
    perms = 0
    for perm in itertools.permutations(range(n)):
        perms += 1
        seen = set()
        orbits = 0
        for pair in pairs:
            if pair in seen:
                continue
            orbits += 1
            while pair not in seen:
                seen.add(pair)
                pair = tuple(sorted((perm[pair[0]], perm[pair[1]])))
        total += 1 << orbits
    return total // perms


# -- graph6 ------------------------------------------------------------------


def decode_graph6(code: str) -> tuple[int, set[tuple[int, int]]]:
    """Vertex count and edge set of a graph6 code with n <= 62."""
    data = [ord(ch) - 63 for ch in code.strip()]
    if not data or not all(0 <= x <= 63 for x in data) or data[0] > 62:
        raise ValueError(f"not a small graph6 code: {code!r}")
    n = data[0]
    bits = []
    for value in data[1:]:
        bits.extend(value >> shift & 1 for shift in range(5, -1, -1))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    if len(bits) < len(pairs) or any(bits[len(pairs):]):
        raise ValueError(f"bad graph6 bit stream: {code!r}")
    return n, {pair for pair, bit in zip(pairs, bits) if bit}


# -- domination (the transvection gate) --------------------------------------


def _neighbourhoods(n: int, edges) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def _link_masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def dominates(n: int, edges, u: int, v: int) -> bool:
    """lk(u) inside st(v), for distinct u and v."""
    links = _link_masks(n, edges)
    return u != v and links[u] & ~(links[v] | 1 << v) == 0


def has_domination(n: int, edges) -> bool:
    """Whether some ordered pair u != v has lk(u) inside st(v)."""
    links = _link_masks(n, edges)
    return any(
        u != v and links[u] & ~(links[v] | 1 << v) == 0
        for u in range(n) for v in range(n)
    )


# -- cliques, purity and Euler characteristic --------------------------------


def clique_counts(n: int, edges) -> list[int]:
    """f-vector of the flag complex: f[k] counts cliques with k + 1 vertices."""
    nbrs = _neighbourhoods(n, edges)
    counts: list[int] = []

    def grow(size: int, candidates: set[int]) -> None:
        if len(counts) < size:
            counts.append(0)
        counts[size - 1] += 1
        for w in candidates:
            grow(size + 1, {x for x in candidates & nbrs[w] if x > w})

    for v in range(n):
        grow(1, {w for w in nbrs[v] if w > v})
    return counts


def euler_characteristic(n: int, edges) -> int:
    return sum((-1) ** k * f for k, f in enumerate(clique_counts(n, edges)))


def maximal_clique_sizes(n: int, edges) -> set[int]:
    """Sizes of the inclusion-maximal cliques (plain Bron-Kerbosch)."""
    nbrs = _neighbourhoods(n, edges)
    sizes: set[int] = set()

    def expand(r: int, p: set[int], x: set[int]) -> None:
        if not p and not x:
            sizes.add(r)
            return
        for v in list(p):
            expand(r + 1, p & nbrs[v], x & nbrs[v])
            p = p - {v}
            x = x | {v}

    expand(0, set(range(n)), set())
    return sizes


def component_count(n: int, edges) -> int:
    nbrs = _neighbourhoods(n, edges)
    seen: set[int] = set()
    count = 0
    for start in range(n):
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            for w in nbrs[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
    return count


# -- relabeling ----------------------------------------------------------------


def relabel(edges, perm) -> set[tuple[int, int]]:
    """Image of an edge set under a vertex permutation (old -> perm[old])."""
    return {tuple(sorted((perm[u], perm[v]))) for u, v in edges}


def random_permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def invariant_under_relabeling(code_of, n: int, edges, rng, trials: int) -> bool:
    """Whether code_of(n, edges) is unchanged by `trials` random relabelings."""
    reference = code_of(n, set(edges))
    return all(
        code_of(n, relabel(edges, random_permutation(n, rng))) == reference
        for _ in range(trials)
    )


# -- the seeded sample stream ------------------------------------------------
#
# G(n, p) samples as documented: SplitMix64, the per-sample seed one round
# over master ^ index * 0xD1342543DE82EF95, and one draw per pair (u, v),
# u < v, in row order, an edge when the draw is below p * 2^64.


def splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def sample_edges(n: int, p: float, master_seed: int, index: int) -> set[tuple[int, int]]:
    _, state = splitmix64((master_seed ^ (index * 0xD1342543DE82EF95)) & _MASK64)
    threshold = int(p * (1 << 64))
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            # splitmix64, inlined: this runs for every pair of every sample.
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            if z ^ (z >> 31) < threshold:
                edges.add((u, v))
    return edges


# -- hand-built graphs ---------------------------------------------------------


def cycle_edges(n: int) -> set[tuple[int, int]]:
    return {tuple(sorted((i, (i + 1) % n))) for i in range(n)}


def complete_edges(n: int, offset: int = 0) -> set[tuple[int, int]]:
    return {(offset + u, offset + v) for u, v in itertools.combinations(range(n), 2)}


def join_edges(n1: int, e1, n2: int, e2) -> tuple[int, set[tuple[int, int]]]:
    edges = set(e1) | {(u + n1, v + n1) for u, v in e2}
    edges |= {(u, n1 + v) for u in range(n1) for v in range(n2)}
    return n1 + n2, edges


def union_edges(n1: int, e1, n2: int, e2) -> tuple[int, set[tuple[int, int]]]:
    return n1 + n2, set(e1) | {(u + n1, v + n1) for u, v in e2}


def cross_polytope_edges(k: int) -> tuple[int, set[tuple[int, int]]]:
    """Boundary of the k-dimensional cross-polytope: all pairs except i, i+k."""
    n = 2 * k
    return n, {(u, v) for u, v in itertools.combinations(range(n), 2) if v != u + k}


def _encode_graph6(n: int, edges) -> str:
    bits = [1 if (u, v) in edges else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return "".join(chr(x + 63) for x in [n] + body)


def self_test() -> None:
    """Each checker on hand-built graphs; raises AssertionError on a fault."""
    square = cycle_edges(4)
    assert decode_graph6(_encode_graph6(4, square)) == (4, square)
    assert decode_graph6("A_") == (2, {(0, 1)})
    assert decode_graph6("C~") == (4, complete_edges(4))

    path3 = {(0, 1), (1, 2)}
    assert dominates(3, path3, 0, 2) and not dominates(3, path3, 1, 0)
    assert has_domination(3, path3)
    assert not has_domination(5, cycle_edges(5))
    assert has_domination(4, square)  # opposite corners share a link

    assert clique_counts(3, complete_edges(3)) == [3, 3, 1]
    octahedron = cross_polytope_edges(3)
    assert clique_counts(*octahedron) == [6, 12, 8]
    assert euler_characteristic(*octahedron) == 2
    assert euler_characteristic(5, cycle_edges(5)) == 0
    assert maximal_clique_sizes(4, {(0, 1), (1, 2), (0, 2), (2, 3)}) == {2, 3}
    assert component_count(6, complete_edges(3) | complete_edges(3, 3)) == 2

    def degrees(n, edges):
        return sorted(sum(1 for e in edges if v in e) for v in range(n))

    def labels(n, edges):
        return sorted(edges)

    rng = random.Random(1)
    assert invariant_under_relabeling(degrees, 5, path3 | {(3, 4)}, rng, 8)
    assert not invariant_under_relabeling(labels, 5, path3 | {(3, 4)}, rng, 8)

    # Published first output of SplitMix64 from state 0.
    assert splitmix64(0)[1] == 0xE220A8397B1DCDAF
    assert sample_edges(6, 1.0, 3, 0) == complete_edges(6)
    assert sample_edges(6, 0.0, 3, 0) == set()
    state, draws = splitmix64((5 ^ 2 * 0xD1342543DE82EF95) & _MASK64)[1], []
    for _ in range(3):
        state, draw = splitmix64(state)
        draws.append(draw < 1 << 63)
    assert sample_edges(3, 0.5, 5, 2) == {
        pair for pair, bit in zip([(0, 1), (0, 2), (1, 2)], draws) if bit
    }

    for n in range(1, 6):
        assert burnside_class_count(n) == PUBLISHED_CLASS_COUNTS[n]


if __name__ == "__main__":
    self_test()
    for n, published in PUBLISHED_CLASS_COUNTS.items():
        counted = burnside_class_count(n)
        print(f"n={n}: {counted} classes by Burnside, published {published}")
        if counted != published:
            raise SystemExit(1)
