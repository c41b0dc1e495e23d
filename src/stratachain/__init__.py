"""Stratifications of simplicial complexes and their invariants.

The pipeline: build the manifold-point filtration of a complex, split it
into strata, orient them, assemble the stratum chain complex over exact
rationals, read off the top homology and the oriented matroid of minimal
top cycles, and, for taut 2-complexes, the complete surface invariant
deciding homeomorphism.
"""

from .chains import (CoordinateSpace, StrataChainComplex, assemble,
                     chain_group, cycles_to_simplicial,
                     simplicial_top_cycles_dim, top_homology_dim)
from .corpus import BUILTIN_NAMES, builtin_complex
from .errors import (ComplexError, GroundCapError, InternalCheckError,
                     NotTautError, UnsupportedDimensionError)
from .linalg import RationalMatrix
from .matroid import (DEFAULT_MAX_GROUND, OrientedMatroidClass, SignedVector,
                      canonical_reorientation_class, complex_matroid,
                      enumerate_circuits, top_cycle_matroid)
from .simplicial import SimplicialComplex, normalize_cell
from .stratify import (Filtration, Stratification, Stratum, build_filtration,
                       extract_strata, manifold_cells,
                       orient_stratum, verify_certificate)
from .taut import (CircleCover, CompletedSurface, Constant, GraphArc,
                   GraphInvariant, SurfaceData, TautInvariant, Word,
                   attaching, build_invariant, check_taut, complete_surface,
                   graph_invariant, homeomorphic)
from .words import (abelianize, canonical_cyclic_word, cyclic_reduce,
                    invert_word, letter, letter_stratum)

__version__ = "1.0.0"

__all__ = [
    "BUILTIN_NAMES", "CircleCover", "CompletedSurface", "ComplexError",
    "Constant", "CoordinateSpace", "DEFAULT_MAX_GROUND", "Filtration",
    "GraphArc", "GraphInvariant", "GroundCapError", "InternalCheckError",
    "NotTautError", "OrientedMatroidClass", "RationalMatrix", "SignedVector",
    "SimplicialComplex", "StrataChainComplex", "Stratification", "Stratum",
    "SurfaceData", "TautInvariant", "UnsupportedDimensionError", "Word",
    "abelianize", "assemble", "attaching", "build_filtration",
    "build_invariant", "builtin_complex", "canonical_cyclic_word",
    "canonical_reorientation_class",
    "chain_group", "check_taut", "complete_surface", "complex_matroid",
    "cycles_to_simplicial", "cyclic_reduce", "enumerate_circuits",
    "extract_strata", "graph_invariant", "homeomorphic", "invert_word",
    "letter", "letter_stratum", "manifold_cells",
    "normalize_cell", "orient_stratum", "simplicial_top_cycles_dim",
    "top_cycle_matroid", "top_homology_dim", "verify_certificate",
]
