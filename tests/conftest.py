import random
from itertools import permutations

import pytest

from stratachain import SimplicialComplex, builtin_complex
from stratachain.corpus import BUILTIN_NAMES, pinched_sphere


@pytest.fixture(scope="session")
def corpus():
    complexes = {name: builtin_complex(name) for name in BUILTIN_NAMES}
    complexes["pinched_sphere"] = pinched_sphere()
    return complexes


def random_complex(rng: random.Random, max_facets: int = 12) -> SimplicialComplex:
    """Random complex of dimension <= 2 with at most max_facets maximal cells."""
    n = rng.randint(3, 10)
    facets = set()
    for _ in range(rng.randint(1, max_facets)):
        k = rng.choice((0, 1, 2, 2))
        facets.add(tuple(sorted(rng.sample(range(n), k + 1))))
    return SimplicialComplex(sorted(facets))


def random_relabeling(rng: random.Random, K: SimplicialComplex) -> dict:
    vs = sorted(K.vertices())
    targets = rng.sample(range(3 * len(vs) + 5), len(vs))
    return dict(zip(vs, targets))


def cone(K: SimplicialComplex, name=None) -> SimplicialComplex:
    """Cone over K with a fresh apex; the apex link is K itself."""
    apex = max(K.vertices()) + 1
    return SimplicialComplex([c + (apex,) for c in K.maximal_cells()],
                             name=name)


def freudenthal(k: int, periodic: bool = False, name=None) -> SimplicialComplex:
    """k^3 cubes, each cut into six tetrahedra along its main diagonal.

    With ``periodic`` opposite faces are identified (a 3-torus, k >= 3);
    otherwise the result is a 3-ball.
    """
    side = k if periodic else k + 1

    def vid(p):
        if periodic:
            p = [x % k for x in p]
        return (p[0] * side + p[1]) * side + p[2]

    tets = []
    for x in range(k):
        for y in range(k):
            for z in range(k):
                for order in permutations(range(3)):
                    p = [x, y, z]
                    path = [vid(p)]
                    for axis in order:
                        p[axis] += 1
                        path.append(vid(p))
                    tets.append(path)
    return SimplicialComplex(tets, name=name)
