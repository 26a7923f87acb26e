"""Exact reduced simplicial homology over the integers.

Matrices are plain lists of Python ints, so intermediate entry growth during
Smith reduction can never overflow.  No floating point is used anywhere in
this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ComplexError, SimplicialComplex

IntegerMatrix = list[list[int]]


class HomologyError(ValueError):
    pass


def zero_matrix(rows: int, cols: int) -> IntegerMatrix:
    return [[0] * cols for _ in range(rows)]


def identity_matrix(n: int) -> IntegerMatrix:
    out = zero_matrix(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def matrix_multiply(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """The product a b, skipping the zero entries of both factors."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    b_nonzero = [[(j, y) for j, y in enumerate(brow) if y] for brow in b]
    out = zero_matrix(rows, cols)
    for i in range(rows):
        row = a[i]
        acc = out[i]
        for k in range(inner):
            coeff = row[k]
            if coeff:
                for j, y in b_nonzero[k]:
                    acc[j] += coeff * y
    return out


def matrix_is_zero(m: IntegerMatrix) -> bool:
    return all(entry == 0 for row in m for entry in row)


@dataclass(frozen=True)
class SmithForm:
    """Diagonal d1 | d2 | ... | dr with unimodular witnesses U, V.

    U @ M @ V equals the diagonal matrix (same shape as M).
    """

    diagonal: tuple[int, ...]
    rank: int
    transform_left: IntegerMatrix
    transform_right: IntegerMatrix


def smith_normal_form(matrix: IntegerMatrix) -> SmithForm:
    """Smith normal form with transformation witnesses.

    Pivot choice: the nonzero entry of least absolute value, ties broken
    uppermost-leftmost.  The witness identity U M V = D and the unimodularity
    of U and V are verified before returning.  Unimodularity is certified
    by integer inverses of U and V, built alongside them from the inverse
    of every elementary step.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    a = [row[:] for row in matrix]
    u = identity_matrix(rows)
    v = identity_matrix(cols)
    # A row op on U is a column op on its inverse, so the inverse of U is
    # held by columns; a column op on V is a row op on its inverse.
    u_inverse_columns = identity_matrix(rows)
    v_inverse = identity_matrix(cols)

    def row_op(i, j, factor):  # row_i -= factor * row_j
        a[i] = [x - factor * y for x, y in zip(a[i], a[j])]
        u[i] = [x - factor * y for x, y in zip(u[i], u[j])]
        u_inverse_columns[j] = [
            x + factor * y for x, y in zip(u_inverse_columns[j], u_inverse_columns[i])
        ]

    def col_op(i, j, factor):  # col_i -= factor * col_j
        for row in a:
            row[i] -= factor * row[j]
        for row in v:
            row[i] -= factor * row[j]
        v_inverse[j] = [x + factor * y for x, y in zip(v_inverse[j], v_inverse[i])]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        u_inverse_columns[i], u_inverse_columns[j] = u_inverse_columns[j], u_inverse_columns[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inverse[i], v_inverse[j] = v_inverse[j], v_inverse[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        u_inverse_columns[i] = [-x for x in u_inverse_columns[i]]

    limit = min(rows, cols)
    t = 0
    while t < limit:
        pivot = None
        best = None
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                value = abs(row[j])
                if value and (best is None or value < best):
                    best, pivot = value, (i, j)
                    if value == 1:
                        break  # no later entry is smaller, and ties go earlier
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                quotient = a[i][t] // a[t][t]
                row_op(i, t, quotient)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                quotient = a[t][j] // a[t][t]
                col_op(j, t, quotient)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # smaller remainders appeared; re-pick the pivot
        t += 1

    # Enforce the divisibility chain d1 | d2 | ... by folding adjacent
    # entries into (gcd, lcm) pairs until stable.
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            if a[i + 1][i + 1] % a[i][i] != 0:
                changed = True
                col_op(i, i + 1, -1)  # column i gains the d_{i+1} entry
                while a[i + 1][i]:
                    if abs(a[i + 1][i]) < abs(a[i][i]):
                        swap_rows(i, i + 1)
                    row_op(i + 1, i, a[i + 1][i] // a[i][i])
                if a[i][i + 1]:
                    col_op(i + 1, i, a[i][i + 1] // a[i][i])
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)

    form = SmithForm(tuple(a[i][i] for i in range(t)), t, u, v)
    del a  # the working matrix is not needed to verify the witnesses
    u_inverse = [list(column) for column in zip(*u_inverse_columns)]
    del u_inverse_columns
    _verify_smith(matrix, form, u_inverse, v_inverse)
    return form


def _verify_smith(
    matrix: IntegerMatrix, form: SmithForm,
    left_inverse: IntegerMatrix, right_inverse: IntegerMatrix,
) -> None:
    """Raise unless U M V = D, D is a positive divisibility chain, and the
    claimed inverses certify U and V unimodular.

    An integer matrix with an integer inverse has determinant +-1.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    product = matrix_multiply(matrix_multiply(form.transform_left, matrix), form.transform_right) if rows and cols else []
    expected = zero_matrix(rows, cols)
    for i, d in enumerate(form.diagonal):
        expected[i][i] = d
    if rows and cols and product != expected:
        raise HomologyError("Smith witnesses do not reproduce the diagonal form")
    del product, expected
    for i in range(form.rank - 1):
        if form.diagonal[i + 1] % form.diagonal[i] != 0:
            raise HomologyError("Smith diagonal violates the divisibility chain")
    if any(d <= 0 for d in form.diagonal):
        raise HomologyError("Smith diagonal entries must be positive")
    if not _is_identity(matrix_multiply(form.transform_left, left_inverse)):
        raise HomologyError("left Smith witness is not unimodular")
    if not _is_identity(matrix_multiply(form.transform_right, right_inverse)):
        raise HomologyError("right Smith witness is not unimodular")


def _is_identity(m: IntegerMatrix) -> bool:
    n = len(m)
    return all(row == [0] * i + [1] + [0] * (n - i - 1) for i, row in enumerate(m))


def boundary_matrix(complex_: SimplicialComplex, k: int) -> IntegerMatrix:
    """Boundary map from k-chains to (k-1)-chains of the augmented complex.

    Rows are indexed by the sorted (k-1)-faces (the empty simplex for k = 0,
    giving the all-ones augmentation row), columns by the sorted k-faces.
    Signs follow the ascending-vertex orientation.
    """
    if k < 0 or k > complex_.dimension():
        raise ComplexError(f"boundary degree {k} out of range")
    k_faces = complex_.simplices_of_dim(k)
    lower = complex_.simplices_of_dim(k - 1)
    row_index = {face: i for i, face in enumerate(lower)}
    matrix = zero_matrix(len(lower), len(k_faces))
    for j, face in enumerate(k_faces):
        for position in range(len(face)):
            sub = face[:position] + face[position + 1:]
            matrix[row_index[sub]][j] = (-1) ** position
    return matrix


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced homology: free rank and torsion divisors per degree.

    Degrees run from -1 up to the dimension; anything outside is zero.
    Torsion lists are the Smith diagonal entries exceeding 1, so each
    divides the next.
    """

    ranks: dict[int, int]
    torsion: dict[int, tuple[int, ...]]

    def free_rank(self, degree: int) -> int:
        return self.ranks.get(degree, 0)

    def torsion_of(self, degree: int) -> tuple[int, ...]:
        return self.torsion.get(degree, ())

    def is_trivial(self) -> bool:
        return not self.ranks and not self.torsion

    def nonzero_degrees(self) -> list[int]:
        return sorted(set(self.ranks) | set(self.torsion))

    def has_torsion(self) -> bool:
        return bool(self.torsion)

    def to_json(self) -> dict:
        degrees = self.nonzero_degrees()
        return {
            str(k): {"rank": self.free_rank(k), "torsion": list(self.torsion_of(k))}
            for k in degrees
        }

    def describe(self) -> str:
        if self.is_trivial():
            return "trivial"
        parts = []
        for k in self.nonzero_degrees():
            summands = []
            if self.free_rank(k):
                summands.append(
                    "Z" if self.free_rank(k) == 1 else f"Z^{self.free_rank(k)}"
                )
            summands.extend(f"Z/{d}" for d in self.torsion_of(k))
            parts.append(f"H~{k} = {' + '.join(summands)}")
        return ", ".join(parts)


def reduced_homology(complex_: SimplicialComplex) -> HomologyProfile:
    """Reduced integral homology via Smith normal form of the boundary maps.

    The augmented chain complex is used, so the empty simplex contributes:
    a complex with no vertices has H~_{-1} = Z, and H~_0 counts components
    minus one.
    """
    dim = complex_.dimension()
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    if dim == -1:
        ranks[-1] = 1  # only the empty simplex: one copy of Z in degree -1
        return HomologyProfile(ranks, torsion)
    face_counts = {
        k: len(complex_.simplices_of_dim(k)) for k in range(-1, dim + 1)
    }
    smith: dict[int, SmithForm] = {}
    for k in range(0, dim + 1):
        smith[k] = smith_normal_form(boundary_matrix(complex_, k))
    for k in range(-1, dim + 1):
        rank_k = smith[k].rank if k >= 0 else 0
        rank_up = smith[k + 1].rank if k + 1 <= dim else 0
        kernel = face_counts[k] - rank_k
        free = kernel - rank_up
        if free:
            ranks[k] = free
        if k + 1 <= dim:
            divisors = tuple(d for d in smith[k + 1].diagonal if d > 1)
            if divisors:
                torsion[k] = divisors
    return HomologyProfile(ranks, torsion)


def concentrated_free_in_degree(profile: HomologyProfile, degree: int) -> bool:
    """True when homology is torsion-free and zero outside one degree.

    Zero homology in the named degree is allowed.
    """
    if profile.has_torsion():
        return False
    return all(k == degree for k in profile.ranks)


def euler_characteristic_from_faces(complex_: SimplicialComplex) -> int:
    """Unreduced Euler characteristic from face counts (empty face excluded)."""
    total = 0
    for k, faces in complex_.faces_by_dim().items():
        if k >= 0:
            total += (-1) ** k * len(faces)
    return total


def euler_characteristic_from_homology(profile: HomologyProfile) -> int:
    """1 + alternating sum of reduced Betti numbers over degrees >= 0."""
    total = 1
    for k, rank in profile.ranks.items():
        if k >= 0:
            total += (-1) ** k * rank
        else:
            total -= rank  # empty complex: chi = 0 = 1 - rank(H~_{-1})
    return total
