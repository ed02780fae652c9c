"""Orderly orbit enumeration for one charge profile of the geometric power.

The group prod_i S_{k_i} acts on the off-diagonal tuples of exponent-source
points times the coefficient state spaces by permuting within blocks.  Since
the points of a tuple are distinct, every orbit holds exactly one element
whose points increase within each block.  count_profile_orbits visits those
representatives one at a time and no other element: block by block it picks
a k_i-subset of the points not used yet and one state per point.

Two runtime checks guard the count, and either failure raises OrbitCheckError:

- well-definedness, before the enumeration, once per filling of a block
  (k_i increasing points, a state each): the target orbit is computed from
  the filling and again from its pairs reversed, reading g_values anew, and
  the two must agree.  A block's target orbit depends on its filling only,
  and each filling extends to a representative when s <= m and every X_i is
  nonempty (the other blocks take s - k_i of the m - k_i points left), so
  this covers every block of every representative.
- freeness: once per profile, the count must satisfy the orbit-stabiliser
  identity orbits * prod k_i! == perm(m, s) * prod |X_i|^{k_i}.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Sequence, Tuple

# A block describes the k_i-fold factor attached to charge i:
#   (k, x_size, g_values, y_size)
# where g_values maps states 0..x_size-1 into 0..y_size-1.
Block = Tuple[int, int, Sequence[int], int]


class OrbitCheckError(RuntimeError):
    """An internal structural check (free action / well-definedness) failed."""


def count_profile_orbits(m_size: int, f_values: Sequence[int], blocks: Sequence[Block]) -> int:
    s = sum(b[0] for b in blocks)
    if s == 0:
        raise ValueError("a charge profile must have at least one particle")
    if s > m_size or any(k > 0 and x_size == 0 for k, x_size, _, _ in blocks):
        return 0
    for k, x_size, g_values, _ in blocks:
        for points in combinations(range(m_size), k):
            backwards = points[::-1]
            for states in product(range(x_size), repeat=k):
                target = sorted([(f_values[p], g_values[x]) for p, x in zip(points, states)])
                other = sorted(
                    [(f_values[p], g_values[x]) for p, x in zip(backwards, states[::-1])]
                )
                if target != other:
                    raise OrbitCheckError(
                        "induced orbit map is not well defined: one source orbit "
                        "hits two target orbits"
                    )
    last = len(blocks) - 1

    def count_from(index: int, unused: Sequence[int]) -> int:
        """Representatives that fill blocks[index:] from the unused points."""
        k, x_size, _, _ = blocks[index]
        total = 0
        for points in combinations(unused, k):
            rest = [p for p in unused if p not in points] if index < last else ()
            for _states in product(range(x_size), repeat=k):
                total += 1 if index == last else count_from(index + 1, rest)
        return total

    orbits = count_from(0, range(m_size))
    stabiliser = math.prod(math.factorial(k) for k, _, _, _ in blocks)
    tuples = math.perm(m_size, s) * math.prod(x_size**k for k, x_size, _, _ in blocks)
    if orbits * stabiliser != tuples:
        raise OrbitCheckError(
            f"non-free action: {orbits} orbits of size {stabiliser} "
            f"do not cover {tuples} tuples"
        )
    return orbits
