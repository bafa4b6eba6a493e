"""Exceptional-curve chains over a parabolic point and their blow-downs.

A weight alpha = p/q in (0, 1) determines an iterated blow-up of the fiber
over its base point.  The resulting exceptional set is a linear chain of
rational curves with self-intersections

    -e_1, ..., -e_l,  -1,  -e'_m, ..., -e'_1

where e_1..e_l are the negative-continued-fraction digits of q/p and
e'_1..e'_m those of q/(q-p).  Contracting -1 curves repeatedly returns any
such chain to the original fiber, a single curve of self-intersection 0.
The blow-down is implemented independently of the chain construction and
acts as the combinatorial oracle for it.

Chains are plain tuples of integers, left to right.  The strings are
built from the checked (digit, multiplicity) runs of :func:`cfrac.hj_runs`,
in O(log q) steps plus the length of the output: a run of t twos is one
repeat of -2, and no approximant pairs are built.
"""

from __future__ import annotations

from fractions import Fraction

from cscglue.cfrac import expand_runs, hj_length, hj_runs
from cscglue.parabolic import split_weight

Chain = tuple[int, ...]


def fiber_chain(alpha: Fraction) -> Chain:
    """Exceptional chain of the iterated blow-up encoded by a weight.

    Parameters
    ----------
    alpha : Fraction
        Weight in (0, 1).

    Returns
    -------
    tuple of int
        ``(-e_1, ..., -e_l, -1, -e'_m, ..., -e'_1)`` with e the digits
        for alpha = p/q and e' the digits for 1 - alpha.
    """
    return chain_from_strings(*singular_strings(alpha))


def chain_from_strings(left: Chain, right: Chain) -> Chain:
    """The fiber chain joined from its two :func:`singular_strings`."""
    return left + (-1,) + right[::-1]


def blow_down_fully(chain: Chain) -> Chain:
    """Contract -1 curves, leftmost first, until none remain.

    For any :func:`fiber_chain` output the result is exactly ``(0,)``, the
    original fiber.  Chains that contract to the singleton (-1,) raise
    ``ValueError``.

    A contraction at i can only make i - 1 or i the new leftmost -1, so the
    search resumes there: O(len(chain)) comparisons and at most len(chain)
    list deletions in all, in the same order as rescanning from the start.
    """
    out = [*chain, -1]  # the -1 past the end stops every search
    i = 0
    while True:
        if i > 0 and out[i - 1] == -1:
            i -= 1
        elif out[i] != -1:
            i = out.index(-1, i)
        if i == len(out) - 1:
            return tuple(out[:-1])
        if len(out) < 3:
            raise ValueError("chain contracts to a point, not a curve")
        del out[i]
        if i > 0:
            out[i - 1] += 1
        if i < len(out) - 1:
            out[i] += 1


def blowup_count(alpha: Fraction) -> int:
    """Number of blow-ups over the fiber of a point with weight alpha.

    The digit counts of q/p and q/(q-p), in O(log q) steps.
    """
    p, q = split_weight(alpha)
    return hj_length(p, q) + hj_length(q - p, q)


def singular_strings(alpha: Fraction) -> tuple[Chain, Chain]:
    """The two Hirzebruch-Jung strings on either side of the -1 curve.

    Contracting the middle of the fiber chain leaves two cyclic quotient
    singularities; the returned strings are their minimal resolutions,
    for Gamma_{p,q} and Gamma_{q-p,q} respectively.
    """
    p, q = split_weight(alpha)
    return _string(p, q), _string(q - p, q)


def format_chain(chain: Chain) -> str:
    """Render a chain the way the CLI prints it, e.g. ``-3 -1 -2 -2``."""
    return " ".join(str(c) for c in chain)


def _string(p: int, q: int) -> Chain:
    return expand_runs((-e, t) for e, t in hj_runs(p, q))

