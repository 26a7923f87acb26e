"""Words and symbolic automorphisms of the group defined by a graph.

The group has one generator per vertex, with two generators commuting
exactly when their vertices span an edge.  A word is a sequence of signed
letters.  A :class:`Word` always holds its canonical form, the
lexicographically least geodesic representative under the order
(vertex, sign with + before -).

This module is the word-level oracle used to validate the combinatorial
constructions elsewhere: equality of words, inner-ness of pure symmetric
automorphisms, and commutation of partial conjugations in the outer
automorphism group are all decided here from first principles.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .graphs import SimpleGraph

Letter = tuple[int, int]  # (vertex, sign), sign in {+1, -1}

WORD_LENGTH_CAP = 512
ORBIT_CAP = 100_000


class WordError(ValueError):
    pass


class BoundExceeded(WordError):
    """A word or orbit outgrew the configured resource bound."""


class Word:
    """An element of the group, as a reduced word over the ambient graph.

    Construction reduces the letters to canonical form, so two Words over
    the same graph are equal as group elements iff they compare equal.
    """

    __slots__ = ("graph", "letters")

    def __init__(self, graph: SimpleGraph, letters: Iterable[Letter] = (),
                 _reduced: bool = False):
        letters = tuple(letters)
        for v, s in letters:
            graph._check_vertex(v)
            if s not in (1, -1):
                raise WordError(f"letter sign must be +1 or -1, got {s}")
        if len(letters) > WORD_LENGTH_CAP:
            raise BoundExceeded(
                f"word length {len(letters)} exceeds cap {WORD_LENGTH_CAP}"
            )
        self.graph = graph
        self.letters = letters if _reduced else _canonical(graph.adj, letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.graph == other.graph
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.letters))

    def __mul__(self, other: "Word") -> "Word":
        self._check_ambient(other)
        return Word(self.graph, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.graph, [(v, -s) for v, s in reversed(self.letters)])

    def is_identity(self) -> bool:
        return not self.letters

    def _check_ambient(self, other: "Word") -> None:
        if self.graph != other.graph:
            raise WordError("words live over different ambient graphs")

    def __repr__(self) -> str:
        if not self.letters:
            return "Word()"
        pretty = ".".join(
            f"{v}" if s > 0 else f"{v}'" for v, s in self.letters
        )
        return f"Word({pretty})"


def generator(graph: SimpleGraph, v: int, sign: int = 1) -> Word:
    return Word(graph, [(v, sign)])


def word_from_vertices(graph: SimpleGraph, vertices: Sequence[int]) -> Word:
    """Positive word from a vertex sequence.  Build words with inverse
    letters from explicit (vertex, sign) pairs instead."""
    return Word(graph, [(v, 1) for v in vertices])


# -- normal form -------------------------------------------------------------


def _stack_reduce(adj, letters: Sequence[Letter]) -> list[Letter]:
    """Left-greedy cancellation; the output is a geodesic representative.

    Each incoming letter scans back past letters whose vertices are adjacent
    to its own; if the first blocking letter is its inverse, the pair
    cancels.  A letter on the same vertex always blocks (a vertex is not
    adjacent to itself).
    """
    out: list[Letter] = []
    for v, s in letters:
        row = adj[v]
        k = len(out) - 1
        cancelled = False
        while k >= 0:
            w, t = out[k]
            if w == v:
                if t == -s:
                    del out[k]
                    cancelled = True
                break
            if not row >> w & 1:
                break
            k -= 1
        if not cancelled:
            out.append((v, s))
    return out


def _canonical(adj, letters: Sequence[Letter]) -> tuple[Letter, ...]:
    """Cancel to a geodesic, then pick the lexicographically least shuffle.

    The least shuffle is built by repeatedly extracting the smallest
    front-movable letter (one whose earlier letters all commute with it);
    this greedy choice is exactly the minimum of the trace equivalence
    class, unlike a naive adjacent-swap bubble pass, which can stall.
    """
    reduced = _stack_reduce(adj, letters)
    out: list[Letter] = []
    while reduced:
        seen = 0
        best_key = None
        best_index = -1
        for index, (v, s) in enumerate(reduced):
            if seen & ~adj[v] == 0:
                key = (v, 0 if s > 0 else 1)
                if best_key is None or key < best_key:
                    best_key, best_index = key, index
            seen |= 1 << v
        out.append(reduced.pop(best_index))
    return tuple(out)


def words_equal(u: Word, v: Word) -> bool:
    u._check_ambient(v)
    return (u * v.inverse()).is_identity()


def shuffle_orbit(word: Word, bound: int = ORBIT_CAP) -> set[tuple[Letter, ...]]:
    """All geodesic spellings reachable by swapping adjacent commuting letters."""
    adj = word.graph.adj
    start = word.letters
    orbit = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for i in range(len(current) - 1):
            (v, s), (w, t) = current[i], current[i + 1]
            if v != w and adj[v] >> w & 1:
                swapped = (
                    current[:i] + ((w, t), (v, s)) + current[i + 2:]
                )
                if swapped not in orbit:
                    if len(orbit) >= bound:
                        raise BoundExceeded(
                            f"shuffle orbit exceeds bound {bound}"
                        )
                    orbit.add(swapped)
                    frontier.append(swapped)
    return orbit


# -- parabolic double cosets -------------------------------------------------


def _front_movable(adj, letters: Sequence[Letter], allowed: int) -> Optional[int]:
    """Index of a front-movable letter whose vertex lies in the allowed mask."""
    seen = 0
    for index, (v, _) in enumerate(letters):
        if allowed >> v & 1 and seen & ~adj[v] == 0:
            return index
        seen |= 1 << v
    return None


def parabolic_double_coset_member(
    word: Word, left_vertices: Iterable[int], right_vertices: Iterable[int]
) -> Optional[tuple[Word, Word]]:
    """Factor a word as (word over Λ) * (word over M), if possible.

    Greedy strategy: alternately strip front-movable letters with vertex in
    Λ and back-movable letters with vertex in M until neither applies.
    Each strip multiplies by an element of the corresponding standard
    subgroup, so membership in the double coset is unchanged; a nonempty
    stable residue certifies non-membership because any minimal-length
    factorization concatenates without cancellation, leaving its first
    Λ-letter front-movable.
    """
    graph = word.graph
    adj = graph.adj
    left_mask = 0
    for v in left_vertices:
        graph._check_vertex(v)
        left_mask |= 1 << v
    right_mask = 0
    for v in right_vertices:
        graph._check_vertex(v)
        right_mask |= 1 << v

    current = list(word.letters)
    alpha: list[Letter] = []
    beta: list[Letter] = []
    progress = True
    while progress:
        progress = False
        index = _front_movable(adj, current, left_mask)
        while index is not None:
            alpha.append(current.pop(index))
            progress = True
            index = _front_movable(adj, current, left_mask)
        # Back-movable letters are front-movable in the reversed inverse.
        mirrored = [(v, -s) for v, s in reversed(current)]
        index = _front_movable(adj, mirrored, right_mask)
        while index is not None:
            v, s = mirrored.pop(index)
            beta.append((v, -s))
            progress = True
            index = _front_movable(adj, mirrored, right_mask)
        if progress:
            current = [(v, -s) for v, s in reversed(mirrored)]
    if current:
        return None
    return Word(graph, alpha), Word(graph, list(reversed(beta)))


# -- automorphisms -----------------------------------------------------------


class Automorphism:
    """A generator-to-word map extending to a group homomorphism.

    Construction checks that images of adjacent generators commute; the
    families used here (partial conjugations and their products) are
    invertible by construction.
    """

    __slots__ = ("graph", "images")

    def __init__(self, graph: SimpleGraph, images: dict[int, Word],
                 check: bool = True):
        self.graph = graph
        self.images = {
            v: images.get(v, generator(graph, v)) for v in graph.vertices()
        }
        for v, image in self.images.items():
            if image.graph != graph:
                raise WordError(f"image of generator {v} has a different ambient")
        if check:
            for u, v in graph.edges:
                lhs = self.images[u] * self.images[v]
                rhs = self.images[v] * self.images[u]
                if lhs != rhs:
                    raise WordError(
                        f"images of adjacent generators {u}, {v} do not commute"
                    )

    def apply(self, word: Word) -> Word:
        if word.graph != self.graph:
            raise WordError("word and automorphism have different ambients")
        letters: list[Letter] = []
        for v, s in word.letters:
            image = self.images[v]
            if s > 0:
                letters.extend(image.letters)
            else:
                letters.extend((w, -t) for w, t in reversed(image.letters))
        return Word(self.graph, letters)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: (self.compose(other))(v) = self(other(v))."""
        if self.graph != other.graph:
            raise WordError("automorphisms have different ambients")
        images = {v: self.apply(other.images[v]) for v in self.graph.vertices()}
        return Automorphism(self.graph, images, check=False)

    def is_identity(self) -> bool:
        return all(
            image == generator(self.graph, v) for v, image in self.images.items()
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Automorphism)
            and self.graph == other.graph
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((self.graph, tuple(sorted(self.images.items(),
                                              key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        moved = {v: w for v, w in self.images.items()
                 if w != generator(self.graph, v)}
        return f"Automorphism({moved})"


def identity_automorphism(graph: SimpleGraph) -> Automorphism:
    return Automorphism(graph, {}, check=False)


def partial_conjugation_automorphism(
    graph: SimpleGraph, actor: int, component: Iterable[int], sign: int = 1
) -> Automorphism:
    """Conjugate the generators in one vertex set by the actor generator."""
    a = generator(graph, actor, sign)
    a_inv = a.inverse()
    images = {
        v: a * generator(graph, v) * a_inv for v in component
    }
    return Automorphism(graph, images)


def commutator(phi: Automorphism, psi: Automorphism,
               phi_inverse: Automorphism, psi_inverse: Automorphism) -> Automorphism:
    return phi.compose(psi).compose(phi_inverse).compose(psi_inverse)


# -- inner automorphism testing ----------------------------------------------


def conjugating_word(word_image: Word, target_vertex: int) -> Optional[Word]:
    """Extract w with image = w * v * w^-1, peeling one conjugating letter
    at a time from the canonical form; None when the image has no such shape."""
    graph = word_image.graph
    current = word_image
    collected: list[Letter] = []
    while len(current) > 1:
        v, s = current.letters[0]
        head = Word(graph, [(v, s)])
        conjugated = head.inverse() * current * head
        if len(conjugated) != len(current) - 2:
            return None
        collected.append((v, s))
        current = conjugated
    if current.letters != ((target_vertex, 1),):
        return None
    return Word(graph, collected)


def is_inner(
    phi: Automorphism, allow_center: bool = False
) -> Optional[Word]:
    """Conjugator g with phi = (x -> g x g^-1), or None if phi is not inner.

    Requires a pure symmetric automorphism: every generator must map to a
    conjugate of itself.  Candidate conjugators for a single generator v
    form the coset w_v * <st(v)> because the centralizer of a generator is
    its star subgroup; the intersection over all generators is maintained
    as a coset of a standard subgroup, shrinking via parabolic double coset
    factorizations.  With a trivial center at most one candidate survives
    and is verified letterwise before being returned.
    """
    graph = phi.graph
    from .graphs import star
    from .raag_props import center_vertices

    center = center_vertices(graph)
    if center and not allow_center:
        raise WordError(
            "ambient graph has a nontrivial center; pass allow_center=True "
            "to accept a conjugator determined up to the center"
        )
    constraints = []
    for v in graph.vertices():
        w_v = conjugating_word(phi.images[v], v)
        if w_v is None:
            raise WordError(
                f"generator {v} does not map to a conjugate of itself; "
                "inner testing only covers pure symmetric automorphisms"
            )
        constraints.append((v, w_v))
    if not constraints:
        return Word(graph)
    v0, g = constraints[0]
    lam = star(graph, v0)
    for v, w_v in constraints[1:]:
        h = g.inverse() * w_v
        split = parabolic_double_coset_member(h, lam, star(graph, v))
        if split is None:
            return None
        alpha, _ = split
        g = g * alpha
        lam = lam & star(graph, v)
    # lam is now the set of center vertices; any representative serves.
    for v in graph.vertices():
        lhs = phi.images[v]
        rhs = g * generator(graph, v) * g.inverse()
        if lhs != rhs:
            return None
    return g

