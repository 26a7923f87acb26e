"""Brute-force implementations kept as independent oracles for the tests.

Each one is the slow, obviously exhaustive version of something the
library does faster; the tests compare the two.
"""

from __future__ import annotations

from raagscan.graphs import _cell_is_homogeneous, _code_from_order, _refine_partition


def canonical_order_exhaustive(adj, n: int) -> list[int]:
    """Canonical order from every leaf of the individualization tree.

    The same refinement, leaf code and homogeneous-last-cell shortcut as
    ``graphs._canonical_order``, without automorphism pruning: the first
    leaf in depth-first order with the least code wins.
    """
    if n == 0:
        return []
    best: list[int] = []
    best_code: int | None = None

    def recurse(cells):
        nonlocal best, best_code
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target is None:
            order = [cell[0] for cell in cells]
            code = _code_from_order(adj, order)
            if best_code is None or code < best_code:
                best_code = code
                best = order
            return
        cell = cells[target]
        if target == len(cells) - 1 and _cell_is_homogeneous(adj, cell):
            order = [c[0] for c in cells[:target]] + sorted(cell)
            code = _code_from_order(adj, order)
            if best_code is None or code < best_code:
                best_code = code
                best = order
            return
        for v in cell:
            rest = [w for w in cell if w != v]
            split = cells[:target] + [[v], rest] + cells[target + 1:]
            recurse(_refine_partition(adj, split))

    recurse(_refine_partition(adj, [sorted(range(n))]))
    return best
