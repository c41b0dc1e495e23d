"""Output checks that do not rely on the package under test.

Every op's output is checked against facts known by construction (top
homology, cell counts, Euler characteristic, compare verdicts, exit
codes).  Non-orientability certificates are re-walked here, and every
circuit is re-derived with this file's own exact elimination: it must be
the sign pattern of a vector in the span whose support cannot shrink.
For the default seed the first round's reports must also match the
SHA-256 digests recorded in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd, lcm


def digest(code, text):
    """Digest of one op's outcome: exit code and report bytes."""
    return hashlib.sha256(("%d\n%s" % (code, text or "")).encode()).hexdigest()


def check(case, code, text, stderr):
    """Problems found in one op's outcome; empty when it is correct."""
    try:
        if case.command == "analyze":
            return _check_analyze(case, code, text)
        if case.command == "compare":
            return _check_compare(case, code, text, stderr)
        return _check_subspace(case, code, text)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return ["malformed report: %r" % (e,)]


def _check_analyze(case, code, text):
    if code != 0:
        return ["exit code %d, expected 0" % code]
    e = case.expect
    r = json.loads(text)
    dim = e["dimension"]
    counts = r["input"]["cell_counts"]
    problems = []
    facts = {
        "dimension": (r["input"]["dimension"], dim),
        "vertices": (counts["0"], e["vertices"]),
        "top cells": (counts[str(dim)], e["top_cells"]),
        "euler characteristic": (r["input"]["euler_characteristic"], e["euler"]),
        "top homology": (r["homology"]["top_homology_dim"], e["top_homology"]),
        "oracle": (r["homology"]["oracle_dim"], e["top_homology"]),
        "ground size": (len(r["matroid"]["ground"]), int(e["orientable"])),
        "circuits": (len(r["matroid"]["circuits"]), 2 * e["top_homology"]),
    }
    top = r["strata"]["levels"][dim]["strata"]
    facts["top strata"] = (len(top), 1)
    if len(top) == 1:
        facts["top stratum orientable"] = (top[0]["orientable"], e["orientable"])
        facts["top stratum cells"] = (top[0]["cells"], e["top_cells"])
        if not top[0]["orientable"]:
            cells = {tuple(c) for c in case.docs[0]["maximal_simplices"]}
            if not _certificate_ok(top[0].get("certificate"), cells):
                problems.append("invalid non-orientability certificate")
    taut = r["taut"]["taut"] if r["taut"] is not None else None
    facts["taut"] = (taut, e["taut"])
    problems += ["%s is %r, expected %r" % (k, got, want)
                 for k, (got, want) in facts.items() if got != want]
    return problems


def _facet_sign(cell, facet):
    (i,) = [i for i, v in enumerate(cell) if v not in facet]
    return -1 if i % 2 else 1


def _certificate_ok(cert, cells):
    """A closed walk of top cells through shared facets, reversing orientation."""
    if not cert:
        return False
    product = 1
    for i, (a, f, b) in enumerate(cert):
        a, f, b = tuple(a), tuple(f), tuple(b)
        if a not in cells or b not in cells or a == b:
            return False
        if len(f) != len(a) - 1 or not set(f) < set(a) or not set(f) < set(b):
            return False
        if tuple(cert[(i + 1) % len(cert)][0]) != b:
            return False
        product *= -_facet_sign(a, f) * _facet_sign(b, f)
    return product == -1


def _check_compare(case, code, text, stderr):
    want = case.expect["code"]
    if code != want:
        return ["exit code %d, expected %d" % (code, want)]
    if code == 2:
        return [] if "is not taut" in stderr else ["no non-taut message"]
    r = json.loads(text)
    verdict = case.expect["verdict"]
    problems = []
    if r["homeomorphic"] is not verdict:
        problems.append("verdict %r, expected %r" % (r["homeomorphic"], verdict))
    if (r["certificate"] is not None) != verdict:
        problems.append("certificate does not match the verdict")
    return problems


def _check_subspace(case, code, text):
    if code != 0:
        return ["exit code %d, expected 0" % code]
    basis = case.basis
    n = len(basis[0])
    r = json.loads(text)
    problems = []
    if r["ground"] != list(range(n)):
        problems.append("ground %r" % (r["ground"],))
    if not r["canonical_form"].startswith("n=%d;" % n):
        problems.append("canonical form %r" % r["canonical_form"][:20])
    patterns = {(tuple(c["positive"]), tuple(c["negative"])) for c in r["circuits"]}
    if len(patterns) != len(r["circuits"]):
        problems.append("repeated circuit")
    if not r["circuits"]:
        problems.append("no circuits")
    for pos, neg in patterns:
        if (neg, pos) not in patterns:
            problems.append("circuit %r without its negative" % ((pos, neg),))
        elif pos <= neg and not _is_circuit(basis, set(pos), set(neg)):
            problems.append("%r is not a circuit of the span" % ((pos, neg),))
    return problems


def _is_circuit(basis, pos, neg):
    """True iff exactly one line of the span vanishes off ``pos | neg``,
    and its vectors have that whole support with these signs (or their
    negation).  A vector with smaller support would lie on the same line,
    so the support cannot shrink."""
    support = pos | neg
    n, k = len(basis[0]), len(basis)
    rows = [[basis[j][i] for j in range(k)] for i in range(n) if i not in support]
    coeffs = _kernel_line(rows, k)
    if coeffs is None:
        return False
    vec = [sum(c * basis[j][i] for j, c in enumerate(coeffs)) for i in range(n)]
    plus = {i for i, v in enumerate(vec) if v > 0}
    minus = {i for i, v in enumerate(vec) if v < 0}
    return (plus, minus) in ((pos, neg), (neg, pos))


def echelon(rows, k):
    """Fraction-free reduction of integer ``rows`` with k columns.

    Each pivot column is cleared in every other row, so a pivot row is
    zero in all other pivot columns.  Returns (rows, pivot columns); the
    rows past the pivots are zero.
    """
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(k):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                row = [a * p[c] - row[c] * b for a, b in zip(row, p)]
                g = gcd(*row) or 1
                rows[i] = [v // g for v in row]
        pivots.append(c)
    return rows, pivots


def _kernel_line(rows, k):
    """An integer vector spanning the kernel of ``rows`` (k columns), or
    None when the kernel is not a line."""
    rows, pivots = echelon(rows, k)
    free = [c for c in range(k) if c not in pivots]
    if len(free) != 1:
        return None
    (f,) = free
    # pivot row i reads rows[i][p] * x_p + rows[i][f] * x_f = 0
    scale = lcm(*(abs(rows[i][p]) for i, p in enumerate(pivots)))
    vec = [0] * k
    vec[f] = scale
    for i, p in enumerate(pivots):
        vec[p] = -rows[i][f] * scale // rows[i][p]
    return vec
