"""Seeded input generators for the benchmark.

Every generator is plain Python and independent of the package under
test: a complex is a list of maximal simplices (vertex-id tuples), and
every fact the output check relies on (top homology, Euler
characteristic, cell counts, compare verdicts) holds by construction.
The random generator only relabels vertices and draws subspace entries,
so the cost of an input is set by its shape, not by the seed.  The one
exception is a true compare verdict: the search stops at the first match,
and where that match lies depends on the labels.
"""

from __future__ import annotations

from itertools import permutations

from checks import echelon


def relabel(simplices, rng):
    """Apply a random bijection of the vertex ids."""
    verts = sorted({v for s in simplices for v in s})
    image = list(verts)
    rng.shuffle(image)
    mapping = dict(zip(verts, image))
    return [tuple(sorted(mapping[v] for v in s)) for s in simplices]


def grid_torus(m, n):
    """m x n vertex grid on the torus, two triangles per square."""
    def vid(i, j):
        return (i % m) * n + (j % n)
    tris = []
    for i in range(m):
        for j in range(n):
            tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            tris.append((vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)))
    return tris


def grid_klein(m, n):
    """m x n vertex grid glued into a Klein bottle.

    The j direction closes up as on the torus; crossing i = m returns to
    column 0 with j reversed, which makes the surface non-orientable.
    """
    def vid(i, j):
        if i == m:
            return (-j) % n
        return i * n + (j % n)
    tris = []
    for i in range(m):
        for j in range(n):
            tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            tris.append((vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)))
    return tris


def freudenthal(k, periodic):
    """k^3 cubes, each cut into six tetrahedra along its main diagonal.

    ``periodic`` identifies opposite faces (a 3-torus); otherwise the
    result is a 3-ball.
    """
    side = k if periodic else k + 1

    def vid(x, y, z):
        if periodic:
            x, y, z = x % k, y % k, z % k
        return (x * side + y) * side + z
    tets = []
    for x in range(k):
        for y in range(k):
            for z in range(k):
                for order in permutations(range(3)):
                    p = [x, y, z]
                    path = [vid(*p)]
                    for axis in order:
                        p[axis] += 1
                        path.append(vid(*p))
                    tets.append(tuple(path))
    return tets


def subdivide_graph(edges):
    """Put a midpoint on every edge of a graph."""
    fresh = max(v for e in edges for v in e) + 1
    out = []
    for i, (a, b) in enumerate(edges):
        mid = fresh + i
        out += [(a, mid), (mid, b)]
    return out


def subdivide_surface(tris):
    """Split every triangle into four through its edge midpoints."""
    fresh = max(v for t in tris for v in t) + 1
    mid = {}

    def m(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid:
            mid[key] = fresh + len(mid)
        return mid[key]
    out = []
    for a, b, c in tris:
        ab, ac, bc = m(a, b), m(a, c), m(b, c)
        out += [(a, ab, ac), (b, ab, bc), (c, ac, bc), (ab, ac, bc)]
    return out


def prism(n):
    """Circular ladder: two n-cycles joined by rungs (2n vertices)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return edges


def moebius_ladder(n):
    """A 2n-cycle with its n diagonals (2n vertices, cubic)."""
    edges = [(i, (i + 1) % (2 * n)) for i in range(2 * n)]
    edges += [(i, i + n) for i in range(n)]
    return edges


def book(pages):
    """``pages`` triangles sharing the spine edge (0, 1)."""
    return [(0, 1, 2 + p) for p in range(pages)]


def book5_twin():
    """Five disks on the graph of the 5-page book, attached unlike it.

    Two vertices joined by six arcs, each a path through a midpoint; every
    disk is a cone over the 4-cycle of two arcs.  The arcs carry 3, 3, 1,
    1, 1, 1 disks instead of the book's 5, 1, 1, 1, 1, 1, so the pair has
    the same graph and surface shapes but is not homeomorphic, and the
    comparator exhausts its whole search.
    """
    tris = []
    for centre, (i, j) in enumerate(((0, 1), (0, 1), (0, 2), (1, 3), (4, 5))):
        a, b = 2 + i, 2 + j
        for e in ((0, a), (a, 1), (1, b), (b, 0)):
            tris.append(e + (8 + centre,))
    return tris


def folded_book():
    """Three pages plus a flap joining two of them: not taut."""
    return [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3)]


def octahedron():
    """Boundary of the octahedron: a 2-sphere on six vertices."""
    return [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]


def torus7():
    """The 7-vertex torus."""
    return sorted({tuple(sorted((i, (i + a) % 7, (i + 3) % 7)))
                   for i in range(7) for a in (1, 2)})


def complex_doc(name, simplices):
    """The JSON document the CLI reads."""
    return {"name": name,
            "maximal_simplices": [list(s) for s in sorted(set(simplices))]}


# -- random rational subspaces -------------------------------------------

def random_subspace(n, k, rng):
    """k independent integer vectors in Q^n, entries in [-3, 3].

    Exactly one entry in seven (rounded down) is zero, at random places,
    so the matroid is not always uniform and the circuit sizes vary within
    one subspace, while the cost of a shape varies little from seed to
    seed.
    """
    while True:
        entries = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n * k)]
        for i in rng.sample(range(n * k), n * k // 7):
            entries[i] = 0
        basis = [tuple(entries[r * n:(r + 1) * n]) for r in range(k)]
        if len(echelon(basis, n)[1]) == k:
            return basis
