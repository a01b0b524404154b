"""Reference decider for p-adic zeros via breadth-first congruence lifting.

Deliberately independent of the rest of the package: it works on the raw
coefficient vector, never reduces valuations, and uses no class labels.
Equivalence tests pit it against the fast decision routes.

A primitive vector x mod p^m with f(x) = sum a_i x_i^k congruent to 0 is
kept in the frontier.  A node is accepted as soon as the one-variable
Newton criterion v_p(f(x)) > 2 * min_i v_p(k a_i x_i^(k-1)) holds (or
f(x) = 0 exactly); it then lifts to an exact zero.  A node that is not
accepted has no unit gradient, since a unit k a_i x_i^(k-1) would meet
the criterion against v_p(f(x)) >= 1; so every lift of such a node by
one digit per coordinate is a child once f(x) vanishes mod p^(m+1).
Every node at depth 2*(v_p(k) + max_i v_p(a_i)) + 1 passes the
criterion, so the walk always terminates: either some node accepts, or
the frontier empties and no nontrivial zero exists.
"""

from __future__ import annotations

import operator
from itertools import product

from .errors import DegenerateInput, OracleOverflow, PreconditionViolated


def _vp(x: int, p: int) -> int:
    v = 0
    x = abs(x)
    while x and x % p == 0:
        x //= p
        v += 1
    return v


def decide_by_lifting(entries: tuple[int, ...], k: int, p: int,
                      *, max_nodes: int = 500_000) -> bool:
    """True iff sum a_i x_i^k = 0 has a nontrivial zero over Z_p."""
    try:
        entries = tuple(operator.index(a) for a in entries)
        k, p = operator.index(k), operator.index(p)
    except TypeError as exc:
        raise PreconditionViolated(
            f"entries, degree and prime must be integers: {exc}") from None
    if len(entries) < 2 or k < 2 or p < 2:
        raise DegenerateInput("need >= 2 coefficients, degree >= 2, prime p")
    if all(a == 0 for a in entries):
        raise DegenerateInput("all-zero coefficient vector")
    if any(a == 0 for a in entries):
        return True
    width = len(entries)
    nonzero_vals = [_vp(a, p) for a in entries]
    depth_cap = 2 * (_vp(k, p) + max(nonzero_vals)) + 3

    def f(x):
        return sum(a * t**k for a, t in zip(entries, x))

    def accepts(x, fx):
        if fx == 0:
            return True
        vf = _vp(fx, p)
        best = None
        for a, t in zip(entries, x):
            g = k * a * t**(k - 1)
            if g == 0:
                continue
            vg = _vp(g, p)
            best = vg if best is None else min(best, vg)
        return best is not None and vf > 2 * best

    frontier = [x for x in product(range(p), repeat=width)
                if any(x) and f(x) % p == 0]
    seen = len(frontier)
    modulus = p
    for _ in range(1, depth_cap + 1):
        children = []
        for x in frontier:
            fx = f(x)
            if accepts(x, fx):
                return True
            if fx % (p * modulus) == 0:
                children.extend(tuple(t + modulus * di
                                      for t, di in zip(x, d))
                                for d in product(range(p), repeat=width))
        seen += len(children)
        if seen > max_nodes:
            raise OracleOverflow(f"lifting tree exceeded {max_nodes} nodes")
        if not children:
            return False
        frontier = children
        modulus *= p
    raise OracleOverflow("lifting walk failed to terminate")  # unreachable
