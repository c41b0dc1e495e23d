import doctest

from stratachain import linalg, matroid, simplicial, stratify, words


def test_module_doctests():
    for mod in (simplicial, words, stratify, linalg, matroid):
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
