"""Chain complex spanned by orientable strata.

Level k of the complex has one coordinate axis per orientable k-stratum;
non-orientable strata contribute nothing.  The boundary of an axis is read
off from the simplicial boundary of the stratum's generator chain, whose
coefficients are constant across each lower stratum (asserted, not assumed).
The kernel at the top level computes the complex's top homology, which the
independent simplicial-rank oracle cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError
from .linalg import RationalMatrix
from .simplicial import SimplicialComplex
from .stratify import Stratification, signed_boundary


@dataclass(frozen=True)
class CoordinateSpace:
    """One chain group: a distinguished axis per orientable stratum.

    axis_labels holds the stratum indices in coordinate order, so row and
    column positions of the boundary matrices can be traced back to strata.
    """

    dim: int
    axis_labels: tuple


@dataclass(frozen=True)
class StrataChainComplex:
    """dims[k] counts the axes of level k; boundaries[k] maps level k+1 to k."""

    dims: tuple
    axes: tuple          # axes[k]: tuple of orientable stratum indices at level k
    boundaries: tuple    # boundaries[k]: RationalMatrix, C_{k+1} -> C_k
    cycle_basis: tuple   # primitive integer vectors spanning ker of the top map

    @property
    def dimension(self) -> int:
        return len(self.dims) - 1

    def top_homology_dim(self) -> int:
        return len(self.cycle_basis)


def chain_group(strat, k: int) -> CoordinateSpace:
    """The level-k chain group of a stratification (or of a complex).

    Levels outside [0, dim] give the zero group.
    """
    if isinstance(strat, SimplicialComplex):
        strat = Stratification(strat)
    if not 0 <= k <= strat.dimension:
        return CoordinateSpace(dim=0, axis_labels=())
    axes = tuple(s.index for s in strat.level_strata(k) if s.orientable)
    return CoordinateSpace(dim=len(axes), axis_labels=axes)


def boundary_in_strata(strat: Stratification, k: int) -> RationalMatrix:
    """The boundary map from level k+1 to level k in stratum coordinates.

    For each orientable (k+1)-stratum the generator's boundary chain must be
    constant across every orientable k-stratum (relative to its generator)
    and zero on every non-orientable one; both facts are checked cell by
    cell and violations raise InternalCheckError.
    """
    upper = [s for s in strat.level_strata(k + 1) if s.orientable]
    lower_all = strat.level_strata(k)
    lower = [s for s in lower_all if s.orientable]
    row_of = {s.index: i for i, s in enumerate(lower)}
    entries = []
    for j, up in enumerate(upper):
        chain = signed_boundary(up.generator)
        for cell in chain:
            lv, _ = strat.stratum_of_cell(cell)
            if lv != k:
                raise InternalCheckError(
                    "generator boundary cell %r sits at level %d, not %d"
                    % (cell, lv, k))
        for low in lower_all:
            vals = {chain.get(c, 0) * low.generator[c] if low.orientable
                    else chain.get(c, 0)
                    for c in low.cells}
            if len(vals) != 1:
                raise InternalCheckError(
                    "boundary coefficient not constant on stratum %d.%d"
                    % (k, low.index))
            (coeff,) = vals
            if not low.orientable:
                if coeff != 0:
                    raise InternalCheckError(
                        "boundary hits non-orientable stratum %d.%d"
                        % (k, low.index))
            elif coeff:
                entries.append((row_of[low.index], j, coeff))
    return RationalMatrix.from_entries(len(lower), len(upper), entries)


def assemble(strat: Stratification) -> StrataChainComplex:
    """Build all chain groups and boundary maps, checking d-squared = 0."""
    d = strat.dimension
    if d < 0:
        return StrataChainComplex(dims=(), axes=(), boundaries=(), cycle_basis=())
    axes = tuple(tuple(s.index for s in strat.level_strata(k) if s.orientable)
                 for k in range(d + 1))
    boundaries = tuple(boundary_in_strata(strat, k) for k in range(d))
    for b in boundaries:
        if not b.is_integer():
            raise InternalCheckError("boundary matrix has a non-integer entry")
    for k in range(d - 1):
        if not boundaries[k].matmul(boundaries[k + 1]).is_zero():
            raise InternalCheckError(
                "boundary composite %d.%d is nonzero" % (k, k + 1))
    if d == 0:
        # every vertex chain is a cycle
        n = len(axes[0])
        basis = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    else:
        basis = tuple(boundaries[d - 1].kernel_basis())
    return StrataChainComplex(dims=tuple(len(a) for a in axes), axes=axes,
                              boundaries=boundaries, cycle_basis=basis)


def top_homology_dim(chain: StrataChainComplex) -> int:
    """Dimension of the top homology of the underlying complex."""
    return chain.top_homology_dim()


def simplicial_top_cycles_dim(K: SimplicialComplex) -> int:
    """Oracle: dimension of the space of top-dimensional simplicial cycles.

    Computed by exact rank of the plain simplicial boundary matrix, with no
    reference to strata.  Must agree with the stratified computation.
    """
    d = K.dimension
    if d < 0:
        return 0
    boundary = K.boundary_matrix(d)
    return boundary.cols - boundary.rank()


def cycles_to_simplicial(strat: Stratification, chain: StrataChainComplex):
    """Expand each top cycle-basis vector into a simplicial chain.

    Each result must be a genuine simplicial cycle; anything else raises
    InternalCheckError.
    """
    d = strat.dimension
    if d < 0:
        return []
    strata = {s.index: s for s in strat.level_strata(d)}
    out = []
    for vec in chain.cycle_basis:
        acc = {}
        for axis, coeff in zip(chain.axes[d], vec):
            if not coeff:
                continue
            s = strata[axis]
            for c in s.cells:
                acc[c] = acc.get(c, 0) + coeff * s.generator[c]
        if signed_boundary(acc):
            raise InternalCheckError("expanded basis vector is not a cycle")
        out.append(acc)
    return out
