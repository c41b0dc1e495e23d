"""Finite abstract simplicial complexes.

Cells are tuples of strictly increasing non-negative vertex ids.  Vertex ids
are preserved verbatim: they need not be contiguous.  All deterministic
orderings in the package derive from the lexicographic order of these tuples.
"""

from __future__ import annotations

import json
from itertools import combinations

from .errors import ComplexError, UnsupportedDimensionError
from .linalg import RationalMatrix

Cell = tuple


def normalize_cell(vertices) -> Cell:
    """Canonical form of a simplex: sorted tuple of distinct vertex ids.

    >>> normalize_cell([3, 1, 2])
    (1, 2, 3)
    """
    cell = tuple(sorted(vertices))
    if not cell:
        raise ComplexError("a simplex needs at least one vertex")
    if len(set(cell)) != len(cell):
        raise ComplexError("simplex %r has repeated vertices" % (list(vertices),))
    for v in cell:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ComplexError("vertex %r is not a non-negative integer" % (v,))
    return cell


def faces_of(cell):
    """All non-empty faces of a cell, the cell itself included."""
    out = []
    for k in range(1, len(cell) + 1):
        out.extend(combinations(cell, k))
    return out


def facets_of(cell):
    """Codimension-1 faces, in the order that drops vertex i first.

    A vertex has none: the empty simplex is not a cell.
    """
    if len(cell) == 1:
        return []
    return [cell[:i] + cell[i + 1:] for i in range(len(cell))]


class SimplicialComplex:
    """An abstract simplicial complex closed under taking faces."""

    __slots__ = ("name", "_cells", "_by_dim")

    def __init__(self, maximal_simplices=(), name=None):
        cells = set()
        for s in maximal_simplices:
            cells.update(faces_of(normalize_cell(s)))
        self.name = name
        self._cells = frozenset(cells)
        self._index()

    @classmethod
    def from_closed_cells(cls, cells, name=None, verify=True):
        """Fast path for a cell set already closed under faces.

        With ``verify`` every facet is checked to be present; violations are
        a :class:`ComplexError`.
        """
        obj = cls.__new__(cls)
        obj.name = name
        obj._cells = frozenset(cells)
        if verify:
            for c in obj._cells:
                if len(c) > 1:
                    for f in facets_of(c):
                        if f not in obj._cells:
                            raise ComplexError(
                                "cell set not closed: %r lacks face %r" % (c, f))
        obj._index()
        return obj

    def _index(self):
        by_dim = {}
        for c in self._cells:
            by_dim.setdefault(len(c) - 1, []).append(c)
        self._by_dim = {k: tuple(sorted(v)) for k, v in by_dim.items()}

    # -- basic queries ----------------------------------------------------

    @property
    def dimension(self) -> int:
        return max(self._by_dim) if self._by_dim else -1

    def cells(self, k) -> tuple:
        """The k-cells in lexicographic order."""
        return self._by_dim.get(k, ())

    def all_cells(self):
        for k in sorted(self._by_dim):
            yield from self._by_dim[k]

    def cell_set(self) -> frozenset:
        return self._cells

    def n_cells(self, k) -> int:
        return len(self._by_dim.get(k, ()))

    def cell_counts(self) -> dict:
        return {k: len(self._by_dim[k]) for k in sorted(self._by_dim)}

    def has_cell(self, cell) -> bool:
        return tuple(cell) in self._cells

    def vertices(self) -> tuple:
        return tuple(c[0] for c in self._by_dim.get(0, ()))

    def maximal_cells(self) -> tuple:
        """Cells that are not a proper face of any other cell."""
        non_max = set()
        for c in self._cells:
            if len(c) > 1:
                non_max.update(facets_of(c))
        return tuple(sorted((c for c in self._cells if c not in non_max),
                            key=lambda c: (len(c), c)))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(cs) for k, cs in self._by_dim.items())

    def __len__(self):
        return len(self._cells)

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._cells == other._cells and self.name == other.name

    def __hash__(self):
        return hash(self._cells)

    def __repr__(self):
        tag = "" if self.name is None else " %r" % self.name
        return "<SimplicialComplex%s dim=%d cells=%d>" % (tag, self.dimension, len(self._cells))

    # -- structure --------------------------------------------------------

    def boundary_matrix(self, k) -> RationalMatrix:
        """Simplicial boundary from k-chains to (k-1)-chains.

        Rows index (k-1)-cells and columns k-cells, both lexicographically.
        For k = 0 the matrix has zero rows.
        """
        if k < 0:
            raise UnsupportedDimensionError("boundary dimension must be >= 0")
        cols = self.cells(k)
        rows = self.cells(k - 1) if k > 0 else ()
        row_index = {c: i for i, c in enumerate(rows)}
        entries = []
        for j, c in enumerate(cols):
            if k > 0:
                for i, f in enumerate(facets_of(c)):
                    entries.append((row_index[f], j, (-1) ** i))
        return RationalMatrix.from_entries(len(rows), len(cols), entries)

    # -- transformations --------------------------------------------------

    def relabel(self, mapping) -> "SimplicialComplex":
        """Apply an injective vertex relabeling."""
        verts = self.vertices()
        image = [mapping[v] for v in verts]
        if len(set(image)) != len(image):
            raise ComplexError("relabeling is not injective")
        return SimplicialComplex.from_closed_cells(
            (normalize_cell(tuple(mapping[v] for v in c)) for c in self._cells),
            name=self.name, verify=False)

    def subdivide(self) -> "SimplicialComplex":
        """One round of edge subdivision (each triangle splits into four).

        A midpoint vertex is added per edge; fresh ids start past the largest
        existing vertex, assigned to edges in lexicographic order.  Only
        complexes of dimension <= 2 are supported.
        """
        if self.dimension > 2:
            raise UnsupportedDimensionError("subdivision implemented for dimension <= 2")
        base = (max(self.vertices()) + 1) if self._by_dim.get(0) else 0
        mid = {e: base + i for i, e in enumerate(self.cells(1))}
        out = []
        for t in self.maximal_cells():
            if len(t) == 3:
                a, b, c = t
                mab, mac, mbc = mid[(a, b)], mid[(a, c)], mid[(b, c)]
                out += [(a, mab, mac), (b, mab, mbc), (c, mac, mbc), (mab, mac, mbc)]
            elif len(t) == 2:
                a, b = t
                out += [(a, mid[t]), (mid[t], b)]
            else:
                out.append(t)
        return SimplicialComplex(out, name=self.name)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        d = {"maximal_simplices": [list(c) for c in self.maximal_cells()]}
        if self.name is not None:
            d["name"] = self.name
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data) -> "SimplicialComplex":
        """Parse a ``{"maximal_simplices": [...], "name": ...}`` document.

        Documents above the stratifier's dimension cap raise
        UnsupportedDimensionError before any simplex is closed under faces
        (2^n cells for n vertices); malformed simplices are reported first.
        """
        from .stratify import MAX_DIMENSION

        if not isinstance(data, dict):
            raise ComplexError("input must be a JSON object")
        if "maximal_simplices" not in data:
            raise ComplexError("missing key 'maximal_simplices'")
        sims = data["maximal_simplices"]
        if not isinstance(sims, list) or not all(isinstance(s, list) for s in sims):
            raise ComplexError("'maximal_simplices' must be a list of lists")
        name = data.get("name")
        if name is not None and not isinstance(name, str):
            raise ComplexError("'name' must be a string")
        if any(len(s) > MAX_DIMENSION + 1 for s in sims):
            dim = max(len(normalize_cell(s)) for s in sims) - 1
            raise UnsupportedDimensionError(
                "stratification supports dimension <= %d, got %d"
                % (MAX_DIMENSION, dim))
        return cls(sims, name=name)

    @classmethod
    def from_json(cls, text) -> "SimplicialComplex":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ComplexError("invalid JSON: %s" % exc) from exc
        return cls.from_dict(data)
