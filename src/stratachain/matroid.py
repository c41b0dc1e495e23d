"""Oriented matroid of the top cycle space.

The ground set has one axis per orientable top strata; circuits are the sign
patterns of minimal-support nonzero vectors in the span of the cycle basis.
Reorientation classes are canonicalized by minimizing a fixed encoding over
all sign flips of the axes, capped by ``max_ground``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import GroundCapError, InternalCheckError
from .linalg import RationalMatrix

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

    Support subsets are scanned in increasing size, skipping supersets of
    supports already found, and each candidate is settled by an exact
    nullspace computation.  The result contains both signs of every circuit
    and is sorted by (support, signs).
    """
    for v in cycle_basis:
        if len(v) != n:
            raise ValueError("basis vector length %d != ground size %d" % (len(v), n))
    # reduce to an independent basis of the span; the support-subset scan
    # relies on coefficient kernels matching restricted cycle spaces.  The
    # circuit set depends only on the span, not on the basis chosen.
    rows, pivots = RationalMatrix.from_dense(list(cycle_basis))._rref()
    vectors = rows[:len(pivots)]
    k = len(vectors)
    out = []
    if k == 0 or n == 0:
        return out
    matrix = RationalMatrix.from_entries(
        n, k, ((i, j, vectors[j][i]) for j in range(k) for i in range(n)
               if vectors[j][i]))
    found_supports = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            sset = set(subset)
            if any(f <= sset for f in found_supports):
                continue
            comp = [i for i in range(n) if i not in sset]
            sub = matrix.submatrix(comp, range(k))
            kernel = sub.kernel_basis()
            if not kernel:
                continue
            if len(kernel) > 1:
                raise InternalCheckError(
                    "unpruned support with kernel dimension > 1")
            coeffs = kernel[0]
            vec = [sum(c * vectors[j][i] for j, c in enumerate(coeffs))
                   for i in range(n)]
            if {i for i, v in enumerate(vec) if v} != sset:
                continue
            sv = SignedVector.from_vector(vec)
            out.extend((sv, sv.negate()))
            found_supports.append(frozenset(sset))
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
