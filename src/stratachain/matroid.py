"""Oriented matroid of the top cycle space.

The ground set has one axis per orientable top strata; circuits are the sign
patterns of minimal-support nonzero vectors in the span of the cycle basis.
Reorientation classes are canonicalized by minimizing a fixed encoding over
all sign flips of the axes, capped by ``max_ground``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import GroundCapError, InternalCheckError
from .linalg import RationalMatrix, _primitive

DEFAULT_MAX_GROUND = 16


@dataclass(frozen=True, order=True)
class SignedVector:
    """Sign pattern of a vector: disjoint positive and negative index sets."""

    n: int
    positive: frozenset
    negative: frozenset

    def __post_init__(self):
        if self.positive & self.negative:
            raise ValueError("positive and negative parts overlap")

    @property
    def support(self) -> frozenset:
        return self.positive | self.negative

    def negate(self) -> "SignedVector":
        return SignedVector(self.n, self.negative, self.positive)

    def flip(self, axes) -> "SignedVector":
        """Reorient: swap the sign on the given axes."""
        axes = frozenset(axes)
        return SignedVector(
            self.n,
            (self.positive - axes) | (self.negative & axes),
            (self.negative - axes) | (self.positive & axes))

    def permute(self, perm) -> "SignedVector":
        """Relabel axes by the mapping old index -> new index."""
        return SignedVector(self.n,
                            frozenset(perm[i] for i in self.positive),
                            frozenset(perm[i] for i in self.negative))

    def sort_key(self):
        return (tuple(sorted(self.support)),
                tuple(sorted(self.positive)), tuple(sorted(self.negative)))

    @classmethod
    def from_vector(cls, vec) -> "SignedVector":
        return cls(len(vec),
                   frozenset(i for i, v in enumerate(vec) if v > 0),
                   frozenset(i for i, v in enumerate(vec) if v < 0))


def enumerate_circuits(cycle_basis, n):
    """All circuits of the span of ``cycle_basis`` inside Q^n.

    Each circuit is, up to scale, the unique vector of the rank-k span that
    vanishes on some k - 1 independent coordinates (an elementary vector).
    From k independent primitive integer rows, a depth-first walk picks
    such coordinates in increasing order, clearing each from the other rows
    by fraction-free elimination and dropping its pivot row; the last row
    left is a circuit.  The result holds both signs of every circuit, one
    pair per support, sorted by (support, signs).

    >>> [(sorted(c.positive), sorted(c.negative))
    ...  for c in enumerate_circuits([(1, 0, -1), (0, 1, -1)], 3)]
    [([0], [1]), ([1], [0]), ([0], [2]), ([2], [0]), ([1], [2]), ([2], [1])]
    """
    for v in cycle_basis:
        if len(v) != n:
            raise ValueError("basis vector length %d != ground size %d" % (len(v), n))
    reduced, pivots = RationalMatrix.from_dense(list(cycle_basis))._rref()
    k = len(pivots)
    if k == 0:
        return []
    seen = {}
    stack = [([_primitive(r) for r in reduced[:k]], 0)]
    while stack:
        rows, start = stack.pop()
        if len(rows) == 1:
            pos = _mask(i for i, v in enumerate(rows[0]) if v > 0)
            neg = _mask(i for i, v in enumerate(rows[0]) if v < 0)
            if seen.setdefault(pos | neg, (pos, neg)) not in ((pos, neg), (neg, pos)):
                raise InternalCheckError("circuit signs disagree on a support")
            continue
        # leave room for the len(rows) - 1 columns still to be chosen
        for c in range(start, n - len(rows) + 2):
            at = next((i for i, r in enumerate(rows) if r[c]), None)
            if at is None:
                continue  # c depends on the coordinates already chosen
            pivot, pc = rows[at], rows[at][c]
            rest = []
            for r in rows[:at] + rows[at + 1:]:
                rc = r[c]
                if rc:
                    r = [a * pc - rc * b for a, b in zip(r, pivot)]
                    g = gcd(*r)
                    if g > 1:
                        r = [a // g for a in r]
                rest.append(r)
            stack.append((rest, c + 1))
    out = [SignedVector(n, _unmask(p, n), _unmask(q, n)) for p, q in seen.values()]
    out += [sv.negate() for sv in out]
    return sorted(out, key=SignedVector.sort_key)


def circuit_pairs(circuits):
    """One (positive-mask, negative-mask) int pair per +-pair of circuits.

    Pairs come back ordered by support; supports are pairwise distinct, so
    the order is canonical and unaffected by reorientation.
    """
    seen = {}
    for c in circuits:
        key = frozenset(c.support)
        masks = (_mask(c.positive), _mask(c.negative))
        if key in seen:
            if seen[key] not in (masks, (masks[1], masks[0])):
                raise InternalCheckError("two circuit pairs share a support")
        else:
            seen[key] = masks
    return [seen[k] for k in sorted(seen, key=lambda s: tuple(sorted(s)))]


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _unmask(mask, n):
    return frozenset(i for i in range(n) if mask >> i & 1)


def _min_encoding(pairs, n):
    """Minimum circuit-pair encoding over all 2^n axis sign flips.

    Staged scan: slot by slot, keep exactly the flips that minimize the
    encoding so far.  Ties are all retained, so the result equals the naive
    full-scan minimum while touching far fewer candidates.
    """
    candidates = list(range(1 << n))
    best = []
    for p, q in pairs:
        best_rep = None
        survivors = []
        for f in candidates:
            fp = (p & ~f) | (q & f)
            fq = (q & ~f) | (p & f)
            rep = (fp, fq) if (fp, fq) <= (fq, fp) else (fq, fp)
            if best_rep is None or rep < best_rep:
                best_rep = rep
                survivors = [f]
            elif rep == best_rep:
                survivors.append(f)
        candidates = survivors
        best.append(best_rep)
    return best


@dataclass(frozen=True)
class OrientedMatroidClass:
    """A reorientation class with its canonical string form.

    ``canonical_form`` lists the canonically reoriented circuit pairs in
    support order, one representative per pair, each written as
    ``+i+j-k`` over ``n=<ground size>``.  Equal strings mean equal classes.
    """

    ground_size: int
    circuits: tuple
    canonical_form: str


def canonical_reorientation_class(circuits, n,
                                  max_ground=DEFAULT_MAX_GROUND) -> OrientedMatroidClass:
    """Canonicalize a circuit set under sign flips of the ground axes."""
    if n > max_ground:
        raise GroundCapError(n, max_ground)
    pairs = circuit_pairs(circuits)
    encoded = _min_encoding(pairs, n) if pairs else []
    parts = []
    for p, q in encoded:
        pos = "".join("+%d" % i for i in sorted(_unmask(p, n)))
        neg = "".join("-%d" % i for i in sorted(_unmask(q, n)))
        parts.append(pos + neg)
    form = "n=%d;circuits=[%s]" % (n, ",".join(parts))
    return OrientedMatroidClass(ground_size=n,
                                circuits=tuple(sorted(circuits,
                                                      key=SignedVector.sort_key)),
                                canonical_form=form)


def top_cycle_matroid(chain, max_ground=DEFAULT_MAX_GROUND):
    """Circuits and reorientation class of a chain complex's top cycles.

    Returns (ground axes, circuits, OrientedMatroidClass); the ground axes
    are the stratum indices labeling the coordinates.
    """
    d = chain.dimension
    if d < 0:
        empty = canonical_reorientation_class([], 0, max_ground)
        return (), [], empty
    ground = chain.axes[d]
    n = len(ground)
    if n > max_ground:
        raise GroundCapError(n, max_ground)
    circuits = enumerate_circuits(chain.cycle_basis, n)
    return ground, circuits, canonical_reorientation_class(circuits, n, max_ground)


def complex_matroid(K, max_ground=DEFAULT_MAX_GROUND):
    """Top-cycle matroid straight from a simplicial complex."""
    from .chains import assemble
    from .stratify import Stratification

    return top_cycle_matroid(assemble(Stratification(K)), max_ground)
