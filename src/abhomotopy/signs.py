"""Koszul sign bookkeeping: permutations, graded signatures, shuffles.

Conventions used throughout the package:

- A permutation of n items is a tuple ``sigma`` in word notation with
  0-based positions: ``sigma[i]`` is the output position of input item
  ``i``.  The item landing at output position ``k`` is ``inverse(sigma)[k]``.
- Degrees are plain integers (gradings may be negative or shifted by
  arbitrary integers); only parity enters sign computations.
- Reordering homogeneous factors a_0 ... a_{n-1} of degrees d_i into the
  output order a_{inv(0)} ... a_{inv(n-1)} produces the Koszul sign
  (-1)**t, where t counts crossings of two odd-degree factors.  This is
  the signature of the permutation restricted to the odd-degree items.
  Permuting whole blocks is the same computation on the block degrees.

Two independent sign algorithms are provided: :func:`koszul_sign`
(restricted signature, used by the symmetric coalgebra's oracles --
the directly coded cobrackets and ``q_by_taylor`` -- and by the tests as
the reference for ``block_splits``, whose signs come from the production
split enumerator's ``crossing_sign`` of degree parities; the slot
permutations of ``permute_slots`` read it once per permutation and
parity pattern) and
:func:`koszul_sign_by_swaps` (explicit adjacent-transposition product,
kept as an oracle because sign bugs are the dominant failure mode here;
``ell2_oracle`` uses it with :func:`enumerate_shuffles`).  :func:`sign`
is the parity sign every module uses.
"""

from __future__ import annotations

import itertools
from typing import Sequence

Permutation = tuple[int, ...]


def sign(exponent: int) -> int:
    """(-1)**exponent, for any integer exponent.

    >>> sign(3), sign(-2)
    (-1, 1)
    """
    return -1 if exponent % 2 else 1


def inverse(sigma: Sequence[int]) -> Permutation:
    """Inverse in word notation: inverse(sigma)[sigma[i]] == i.

    >>> inverse((2, 0, 1))
    (1, 2, 0)
    """
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(inv)


def koszul_sign(degrees: Sequence[int], sigma: Sequence[int]) -> int:
    """Sign produced by reordering factors of the given degrees along sigma.

    Computed as the signature of sigma restricted to the positions of
    odd-degree factors: two odd inputs i < j cross exactly when
    sigma[i] > sigma[j].

    >>> koszul_sign([1, 1], (1, 0))
    -1
    >>> koszul_sign([2, 1], (1, 0))
    1
    """
    if len(degrees) != len(sigma):
        raise ValueError(
            f"degree vector of length {len(degrees)} does not match "
            f"permutation of size {len(sigma)}"
        )
    odd_targets = [sigma[i] for i, d in enumerate(degrees) if d % 2]
    crossings = 0
    for i in range(len(odd_targets)):
        ti = odd_targets[i]
        for j in range(i + 1, len(odd_targets)):
            if ti > odd_targets[j]:
                crossings += 1
    return -1 if crossings % 2 else 1


def koszul_sign_by_swaps(degrees: Sequence[int], sigma: Sequence[int]) -> int:
    """Independent sign oracle: realize sigma as adjacent transpositions.

    Starts from the identity arrangement and bubbles each item into its
    output slot, multiplying by (-1)**(d_u * d_v) per adjacent swap of
    items u, v.  Slower than :func:`koszul_sign` but structurally
    unrelated to it.
    """
    if len(degrees) != len(sigma):
        raise ValueError(
            f"degree vector of length {len(degrees)} does not match "
            f"permutation of size {len(sigma)}"
        )
    n = len(sigma)
    target = inverse(sigma)  # target[k] = item that must land at position k
    current = list(range(n))
    sign = 1
    for k in range(n):
        p = current.index(target[k], k)
        while p > k:
            u, v = current[p - 1], current[p]
            if degrees[u] % 2 and degrees[v] % 2:
                sign = -sign
            current[p - 1], current[p] = v, u
            p -= 1
    return sign


def enumerate_shuffles(p: int, q: int) -> list[Permutation]:
    """All (p,q)-shuffles: sigma with sigma[0]<...<sigma[p-1] and
    sigma[p]<...<sigma[p+q-1].

    Enumerated by choosing the output positions of the first block, in
    lexicographic subset order, so the result is deterministic.  There
    are binomial(p+q, p) of them.

    >>> enumerate_shuffles(1, 1)
    [(0, 1), (1, 0)]
    """
    if p < 1 or q < 1:
        raise ValueError(f"shuffles need two nonempty blocks, got p={p}, q={q}")
    n = p + q
    out = []
    for first in itertools.combinations(range(n), p):
        taken = set(first)
        rest = [pos for pos in range(n) if pos not in taken]
        out.append(tuple(first) + tuple(rest))
    return out
