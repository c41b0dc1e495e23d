"""Independent brute-force oracles used by unit and acceptance tests.

Deliberately structured unlike the library: dense Fraction elimination,
full subset scans, no pruning, and manifold points decided by a recursive
sphere recognizer on explicitly built links.  Nothing here imports the
library; complexes are plain sets of sorted vertex tuples.
"""

from fractions import Fraction
from itertools import combinations


def dense_kernel(rows, n_cols):
    """Kernel basis of a dense Fraction matrix, one vector per free column."""
    m = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -m[i][f]
        basis.append(v)
    return basis


def brute_circuit_set(basis, n):
    """All signed circuits of span(basis) in R^n as (positive, negative)
    frozenset pairs: scan every support subset, collect every subspace
    element supported exactly there, then keep inclusion-minimal supports."""
    vecs = [tuple(map(Fraction, v)) for v in basis]
    k = len(vecs)
    found = {}
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            inside = set(S)
            comp = [j for j in range(n) if j not in inside]
            rows = [[vecs[i][j] for i in range(k)] for j in comp]
            for a in dense_kernel(rows, k):
                z = [sum(a[i] * vecs[i][j] for i in range(k))
                     for j in range(n)]
                supp = {j for j in range(n) if z[j] != 0}
                if supp != inside:
                    continue
                sign = (frozenset(j for j in S if z[j] > 0),
                        frozenset(j for j in S if z[j] < 0))
                found.setdefault(frozenset(S), set()).update(
                    {sign, (sign[1], sign[0])})
    minimal = [S for S in found
               if not any(T < S for T in found if T != S)]
    out = set()
    for S in minimal:
        out.update(found[S])
    return out


def is_circuit(basis, n, positive, negative):
    """Whether span(basis) in R^n holds a vector with exactly this sign
    pattern (up to negation) whose support cannot shrink: the vectors of
    the span that vanish off the support must form a single line."""
    vecs = [tuple(map(Fraction, v)) for v in basis]
    support = positive | negative
    rows = [[v[j] for v in vecs] for j in range(n) if j not in support]
    line = []
    for a in dense_kernel(rows, len(vecs)):
        z = [sum(c * v[j] for c, v in zip(a, vecs)) for j in range(n)]
        if any(z):
            line.append(z)
    if not line or len(dense_kernel(line, n)) != n - 1:
        return False
    z = line[0]
    sign = (frozenset(j for j in range(n) if z[j] > 0),
            frozenset(j for j in range(n) if z[j] < 0))
    return sign in ((positive, negative), (negative, positive))


def naive_min_encoding(pairs, n):
    """Full scan over all 2^n reorientations; minimum encoding list."""
    best = None
    for f in range(1 << n):
        enc = []
        for p, q in pairs:
            fp = (p & ~f) | (q & f)
            fq = (q & ~f) | (p & f)
            enc.append(min((fp, fq), (fq, fp)))
        if best is None or enc < best:
            best = enc
    return best


def random_subspace(rng, max_n=10):
    """A small random rational subspace: (basis vectors, ambient dim)."""
    n = rng.randint(1, max_n)
    k = rng.randint(1, min(3, n))
    basis = []
    for _ in range(k):
        basis.append(tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if rng.random() < 0.7 else Fraction(0) for _ in range(n)))
    return basis, n


def link(cells, s):
    """Cells disjoint from s whose union with s is a cell."""
    ss = set(s)
    return {tuple(v for v in u if v not in ss)
            for u in cells if len(u) > len(s) and ss.issubset(u)}


def n_components(cells):
    """Number of connected components (0 for the empty complex)."""
    parent = {c[0]: c[0] for c in cells if len(c) == 1}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for c in cells:
        for w in c[1:]:
            parent[find(w)] = find(c[0])
    return len({find(v) for v in parent})


def is_sphere(cells, d):
    """Recognize a triangulated d-sphere, d in -1..2, from its cell set.

    d = -1: empty; d = 0: two points; d = 1: one cycle; d = 2: a connected,
    pure, closed surface with Euler characteristic 2 whose vertex links
    are all cycles.
    """
    if not -1 <= d <= 2:
        raise ValueError("sphere recognition supports dimensions -1..2")
    if d == -1:
        return not cells
    if d == 0:
        return len(cells) == 2 and all(len(c) == 1 for c in cells)
    dim = max((len(c) - 1 for c in cells), default=-1)
    if dim != d or n_components(cells) != 1:
        return False
    verts = [c for c in cells if len(c) == 1]
    if d == 1:
        return all(sum(1 for e in cells if len(e) == 2 and v[0] in e) == 2
                   for v in verts)
    chi = sum((-1) ** (len(c) - 1) for c in cells)
    if chi != 2:
        return False
    edge_use = {e: 0 for e in cells if len(e) == 2}
    covered = set()
    for t in cells:
        if len(t) == 3:
            for e in combinations(t, 2):
                edge_use[e] += 1
            covered.update(t)
    if any(n != 2 for n in edge_use.values()):
        return False
    if len(covered) != len(verts):
        return False
    return all(is_sphere(link(cells, v), 1) for v in verts)


def manifold_cell_set(cells, m):
    """Cells whose link is an (m - dim - 1)-sphere: the m-manifold points."""
    return {c for c in cells if is_sphere(link(cells, c), m - len(c))}
