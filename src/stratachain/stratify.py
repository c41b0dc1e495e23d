"""Stratification of a complex by its manifold points.

Peeling a complex X of dimension d: X_d = X, and X_{k} is X_{k+1} with the
open cells removed whose points have a neighborhood like R^{k+1} inside
X_{k+1}.  The k-strata are the connected components of X_k minus X_{k-1};
each one is a k-manifold and carries an orientation class computed by sign
propagation, or a re-checkable witness of non-orientability.

Manifold points are recognized through links: a cell's interior is an
m-manifold point iff its link triangulates a sphere of dimension
m - dim(cell) - 1.  The test is exact for link dimensions up to 2, which
covers input complexes up to dimension 3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from .errors import ComplexError, InternalCheckError, UnsupportedDimensionError
from .simplicial import SimplicialComplex, facets_of

#: Largest input dimension the stratifier accepts.
MAX_DIMENSION = 3


def facet_sign(cell, facet) -> int:
    """Coefficient of a codimension-1 face in the boundary of a sorted cell."""
    for i in range(len(cell)):
        if i == len(cell) - 1 or cell[i] != facet[i]:
            return (-1) ** i
    raise ValueError("%r is not a facet of %r" % (facet, cell))


def signed_boundary(chain) -> dict:
    """Simplicial boundary of a chain given as cell -> coefficient.

    Sums coefficient times :func:`facet_sign` over the facets of each cell;
    faces whose total is zero are left out.
    """
    acc = {}
    for c, w in chain.items():
        for f in facets_of(c):
            v = acc.get(f, 0) + w * facet_sign(c, f)
            if v:
                acc[f] = v
            elif f in acc:
                del acc[f]
    return acc


def _links(K: SimplicialComplex) -> dict:
    """Link cell lists for every cell of K, built in one pass.

    For each cell u and non-empty proper subset s, u - s is a link cell of s.
    Closure of K makes each resulting list face-closed already.
    """
    links = {c: [] for c in K.all_cells()}
    for u in K.all_cells():
        n = len(u)
        if n == 1:
            continue
        for mask in range(1, (1 << n) - 1):
            s = tuple(u[i] for i in range(n) if mask >> i & 1)
            links[s].append(tuple(u[i] for i in range(n) if not mask >> i & 1))
    return links


def _connected(link) -> bool:
    """Whether a link cell list is non-empty with a connected 1-skeleton."""
    adj = {}
    for t in link:
        if len(t) == 1:
            adj.setdefault(t[0], [])
        elif len(t) == 2:
            adj.setdefault(t[0], []).append(t[1])
            adj.setdefault(t[1], []).append(t[0])
    if not adj:
        return False
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def manifold_cells(K: SimplicialComplex, m: int) -> tuple:
    """Cells whose interiors are m-manifold points of K.

    Requires 0 <= m <= 3 and dim(K) <= m.  A j-cell is one iff its link L
    is a d-sphere, d = m - j - 1.  Cells are decided top-down, so when a
    j-cell comes up every (j+1)-coface, whose link is the link in L of a
    vertex of L, is already decided.  For d <= 2, L is a d-sphere iff it is
    empty (d = -1), or else every such coface is a manifold cell (so L is
    a closed pseudomanifold whose vertex links are (d-1)-spheres),
    chi(L) = 1 + (-1)^d, and L is connected when d >= 1.
    """
    if not 0 <= m <= MAX_DIMENSION:
        raise UnsupportedDimensionError("manifold dimension must be 0..3, got %d" % m)
    if K.dimension > m:
        raise UnsupportedDimensionError(
            "complex of dimension %d cannot consist of %d-manifold points"
            % (K.dimension, m))
    links = _links(K)
    out = []
    bad_facets = set()  # facets of cells found not to be manifold cells
    for j in range(K.dimension, -1, -1):
        d = m - j - 1
        for c in K.cells(j):
            link = links[c]
            if d == -1:
                ok = not link
            elif c in bad_facets:
                ok = False
            else:
                chi = sum(1 if len(t) % 2 else -1 for t in link)
                ok = chi == 1 + (-1) ** d and (d == 0 or _connected(link))
            if ok:
                out.append(c)
            else:
                bad_facets.update(facets_of(c))
    return tuple(sorted(out, key=lambda c: (len(c), c)))


@dataclass(frozen=True)
class Filtration:
    """The descending levels X_d, ..., X_0; ``levels[k]`` is X_k."""

    levels: tuple

    @property
    def dimension(self) -> int:
        return len(self.levels) - 1

    @property
    def complex(self) -> SimplicialComplex:
        if not self.levels:
            return SimplicialComplex()
        return self.levels[-1]

    def level(self, k) -> SimplicialComplex:
        if not 0 <= k <= self.dimension:
            raise ValueError("no filtration level %d" % k)
        return self.levels[k]

    def cells_below(self, k) -> frozenset:
        """Cell set of X_{k-1}, empty for k = 0."""
        return self.levels[k - 1].cell_set() if k > 0 else frozenset()


def build_filtration(K: SimplicialComplex) -> Filtration:
    """Peel K into its manifold-point filtration.

    Each level is verified to be a subcomplex of the one above; the theory
    guarantees this, so a violation raises InternalCheckError.
    """
    d = K.dimension
    if d > MAX_DIMENSION:
        raise UnsupportedDimensionError(
            "stratification supports dimension <= %d, got %d" % (MAX_DIMENSION, d))
    if d < 0:
        return Filtration(levels=())
    levels = [None] * (d + 1)
    levels[d] = K
    for k in range(d - 1, -1, -1):
        upper = levels[k + 1]
        removed = set(manifold_cells(upper, k + 1))
        kept = [c for c in upper.all_cells() if c not in removed]
        try:
            lower = SimplicialComplex.from_closed_cells(kept, verify=True)
        except ComplexError as exc:
            raise InternalCheckError(
                "filtration level %d is not a subcomplex: %s" % (k, exc)) from exc
        if lower.dimension > k:
            raise InternalCheckError(
                "filtration level %d has dimension %d" % (k, lower.dimension))
        levels[k] = lower
    return Filtration(levels=tuple(levels))


@dataclass(frozen=True)
class Stratum:
    """A connected component of X_k minus X_{k-1}.

    ``cells`` holds the k-dimensional open cells whose union (together with
    the interior lower cells joining them) is the stratum.  ``generator``
    maps each cell to +-1 for orientable strata; non-orientable strata carry
    a ``certificate`` instead: a closed walk through shared interior faces
    with an odd number of orientation-reversing steps.
    """

    level: int
    index: int
    cells: tuple
    orientable: bool
    generator: dict = field(default=None, compare=False)
    certificate: tuple = None


def _interior_facet_pairs(cells, filtration, k):
    """Map each shared (k-1)-face outside X_{k-1} to its two cells."""
    below = filtration.cells_below(k)
    by_facet = {}
    for c in cells:
        for f in facets_of(c):
            by_facet.setdefault(f, []).append(c)
    pairs = {}
    for f, cofaces in by_facet.items():
        if f in below:
            continue
        if len(cofaces) != 2:
            raise InternalCheckError(
                "interior face %r of a %d-stratum lies in %d cells"
                % (f, k, len(cofaces)))
        pairs[f] = tuple(cofaces)
    return pairs


def extract_strata(filtration: Filtration, k: int):
    """The k-strata, ordered and indexed by their smallest cell.

    Two k-cells of X_k belong to the same stratum iff they are joined by a
    chain of shared (k-1)-faces not in X_{k-1}.
    """
    if not 0 <= k <= filtration.dimension:
        raise ValueError("no level %d in this filtration" % k)
    level = filtration.level(k)
    kcells = level.cells(k)
    parent = {c: c for c in kcells}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    if k > 0:
        for f, (a, b) in _interior_facet_pairs(kcells, filtration, k).items():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for c in kcells:
        groups.setdefault(find(c), []).append(c)
    comps = sorted((tuple(sorted(g)) for g in groups.values()), key=lambda g: g[0])
    strata = []
    for idx, comp in enumerate(comps):
        orientable, gen, cert = orient_stratum(comp, filtration, k)
        strata.append(Stratum(level=k, index=idx, cells=comp,
                              orientable=orientable, generator=gen,
                              certificate=cert))
    return strata


def orient_stratum(cells, filtration: Filtration, k: int, root=None):
    """Propagate orientations over a stratum's cells.

    Starting from ``root`` (smallest cell by default) with sign +1, each
    shared interior face forces the neighbor's sign so the two boundary
    contributions cancel.  Returns (orientable, generator, certificate);
    exactly one of generator and certificate is None.
    """
    cells = tuple(sorted(cells))
    if k == 0:
        return True, {c: 1 for c in cells}, None
    pairs = _interior_facet_pairs(cells, filtration, k)
    adj = {c: [] for c in cells}
    for f, (a, b) in sorted(pairs.items()):
        rel = -facet_sign(a, f) * facet_sign(b, f)
        adj[a].append((b, f, rel))
        adj[b].append((a, f, rel))
    if root is None:
        root = cells[0]
    if root not in adj:
        raise ValueError("root %r is not a cell of the stratum" % (root,))
    sign = {root: 1}
    tree = {root: None}  # cell -> (parent, face, rel)
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nbr, f, rel in adj[cur]:
            want = sign[cur] * rel
            if nbr not in sign:
                sign[nbr] = want
                tree[nbr] = (cur, f, rel)
                queue.append(nbr)
            elif sign[nbr] != want:
                cert = _reversing_cycle(tree, cur, nbr, f, rel)
                return False, None, cert
    if len(sign) != len(cells):
        raise InternalCheckError("stratum cells are not connected")
    _check_generator_boundary(sign, filtration, k)
    return True, sign, None


def _path_to_root(tree, c):
    """Steps (from_cell, face, to_cell) climbing from c to the BFS root."""
    steps = []
    while tree[c] is not None:
        parent, f, _rel = tree[c]
        steps.append((c, f, parent))
        c = parent
    return steps


def _reversing_cycle(tree, cur, nbr, face, rel):
    """Closed walk with an odd number of orientation-reversing steps."""
    down = [(b, f, a) for (a, f, b) in reversed(_path_to_root(tree, cur))]
    cycle = down + [(cur, face, nbr)] + _path_to_root(tree, nbr)
    return tuple(cycle)


def _check_generator_boundary(sign, filtration, k):
    below = filtration.cells_below(k)
    for f in signed_boundary(sign):
        if f not in below:
            raise InternalCheckError(
                "generator boundary touches %r outside the lower level" % (f,))


def verify_certificate(stratum: Stratum, filtration: Filtration) -> bool:
    """Re-check a non-orientability witness from scratch.

    Valid iff the walk is closed, stays in the stratum, crosses only shared
    interior faces, and multiplies to an orientation reversal.
    """
    cert = stratum.certificate
    if stratum.orientable or not cert:
        return False
    cells = set(stratum.cells)
    below = filtration.cells_below(stratum.level)
    product = 1
    for i, (a, f, b) in enumerate(cert):
        if a not in cells or b not in cells or a == b:
            return False
        if f in below or f not in facets_of(a) or f not in facets_of(b):
            return False
        nxt = cert[(i + 1) % len(cert)]
        if nxt[0] != b:
            return False
        product *= -facet_sign(a, f) * facet_sign(b, f)
    return product == -1


class Stratification:
    """Filtration plus all strata of a complex, with cell lookup maps."""

    def __init__(self, K: SimplicialComplex):
        self.complex = K
        self.filtration = build_filtration(K)
        self.strata = {k: extract_strata(self.filtration, k)
                       for k in range(self.filtration.dimension + 1)}
        self._locate = {}
        for k, strata in self.strata.items():
            level = self.filtration.level(k)
            below = self.filtration.cells_below(k)
            in_level = {}
            for s in strata:
                for c in s.cells:
                    self._locate[c] = (k, s.index)
                    in_level[c] = s.index
            # lower-dimensional cells interior to a k-stratum: tag them with
            # the stratum of any k-cell they bound
            for c in level.cells(k):
                idx = in_level[c]
                for j in range(1, len(c)):
                    for sub in combinations(c, j):
                        if sub not in below and sub not in self._locate:
                            self._locate[sub] = (k, idx)

    @property
    def dimension(self) -> int:
        return self.filtration.dimension

    def level_strata(self, k):
        return self.strata.get(k, [])

    def stratum(self, k, index) -> Stratum:
        return self.strata[k][index]

    def stratum_of_cell(self, cell):
        """(level, index) of the stratum whose interior contains the cell."""
        return self._locate[tuple(cell)]

    def counts(self) -> dict:
        return {k: len(v) for k, v in self.strata.items()}
