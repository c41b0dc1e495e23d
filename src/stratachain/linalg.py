"""Sparse exact linear algebra over the rationals.

Everything here is exact: entries are ints or Fractions, pivots are chosen
for sparsity, never by magnitude, and no floating point appears anywhere.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd


class RationalMatrix:
    """A rows x cols matrix over Q stored as sparse columns.

    Columns are dicts mapping row index to a nonzero value.  Values may be
    ints or Fractions; arithmetic keeps them exact either way.
    """

    __slots__ = ("rows", "cols", "_columns")

    def __init__(self, rows, cols, columns=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        self._columns = [dict() for _ in range(cols)] if columns is None else columns

    @classmethod
    def from_entries(cls, rows, cols, entries):
        """Build from an iterable of (row, col, value); zeros are dropped."""
        m = cls(rows, cols)
        for i, j, v in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError("entry (%d, %d) out of range" % (i, j))
            if v:
                m._columns[j][i] = v
        return m

    @classmethod
    def from_dense(cls, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        m = cls(rows, cols)
        for i, row in enumerate(dense):
            for j, v in enumerate(row):
                if v:
                    m._columns[j][i] = v
        return m

    def entry(self, i, j) -> Fraction:
        return Fraction(self._columns[j].get(i, 0))

    def to_dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self._columns):
            for i, v in col.items():
                out[i][j] = v
        return out

    def nnz(self) -> int:
        return sum(len(c) for c in self._columns)

    def is_zero(self) -> bool:
        return all(not c for c in self._columns)

    def is_integer(self) -> bool:
        return all(Fraction(v).denominator == 1 for c in self._columns for v in c.values())

    def transpose(self) -> "RationalMatrix":
        t = RationalMatrix(self.cols, self.rows)
        for j, col in enumerate(self._columns):
            for i, v in col.items():
                t._columns[i][j] = v
        return t

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        out = RationalMatrix(self.rows, other.cols)
        for j in range(other.cols):
            acc = {}
            for k, w in other._columns[j].items():
                for i, v in self._columns[k].items():
                    s = acc.get(i, 0) + v * w
                    if s:
                        acc[i] = s
                    elif i in acc:
                        del acc[i]
            out._columns[j] = acc
        return out

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        for a, b in zip(self._columns, other._columns):
            if len(a) != len(b):
                return False
            for i, v in a.items():
                if i not in b or b[i] != v:
                    return False
        return True

    def __hash__(self):
        return hash((self.rows, self.cols, self.nnz()))

    def __repr__(self):
        return "RationalMatrix(%dx%d, nnz=%d)" % (self.rows, self.cols, self.nnz())

    # -- elimination ------------------------------------------------------

    def rank(self) -> int:
        """Exact rank by sparse elimination.

        Pivots come from the currently shortest row (lazy heap), choosing the
        column with fewest active rows.  On boundary matrices of surfaces the
        rows stay at <= 2 nonzeros throughout, so fill never blows up.
        """
        rows_ = {}
        col_rows = {}
        for j, col in enumerate(self._columns):
            for i, v in col.items():
                rows_.setdefault(i, {})[j] = Fraction(v)
                col_rows.setdefault(j, set()).add(i)
        heap = [(len(r), i) for i, r in rows_.items()]
        heapq.heapify(heap)
        rank = 0
        while heap:
            n, i = heapq.heappop(heap)
            row = rows_.get(i)
            if row is None or len(row) != n:
                continue  # stale heap entry
            if not row:
                del rows_[i]
                continue
            # pivot column: fewest active rows, ties by index
            c = min(row, key=lambda j: (len(col_rows[j]), j))
            pval = row[c]
            rank += 1
            del rows_[i]
            targets = col_rows.pop(c)
            targets.discard(i)
            for j in row:
                if j != c:
                    col_rows[j].discard(i)
            for r in targets:
                other = rows_[r]
                factor = other.pop(c) / pval
                for j, v in row.items():
                    if j == c:
                        continue
                    s = other.get(j, 0) - factor * v
                    if s:
                        if j not in other:
                            col_rows[j].add(r)
                        other[j] = s
                    elif j in other:
                        del other[j]
                        col_rows[j].discard(r)
                heapq.heappush(heap, (len(other), r))
        return rank

    def kernel_basis(self):
        """Basis of the right kernel as primitive integer vectors.

        Dense reduced-row-echelon construction: one basis vector per free
        column, free columns in increasing order, each vector scaled to
        coprime integers with its first nonzero entry positive.
        """
        rref, pivots = self._rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for f in free:
            vec = [Fraction(0)] * self.cols
            vec[f] = Fraction(1)
            for r, p in enumerate(pivots):
                vec[p] = -rref[r][f]
            basis.append(_primitive(vec))
        return basis

    def _rref(self):
        rows = [[Fraction(v) for v in row] for row in self.to_dense()]
        pivots = []
        r = 0
        for c in range(self.cols):
            pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            pv = rows[r][c]
            rows[r] = [v / pv for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return rows, pivots


def _primitive(vec):
    """Scale a rational vector to coprime ints, first nonzero positive."""
    denom = 1
    for v in vec:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)
