import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abhomotopy.signs import (
    enumerate_shuffles,
    inverse,
    koszul_sign,
    koszul_sign_by_swaps,
)


def perms(n):
    return [tuple(p) for p in itertools.permutations(range(n))]


def test_identity_gives_plus_one():
    for n in range(1, 6):
        for degs in itertools.product((0, 1), repeat=n):
            assert koszul_sign(degs, tuple(range(n))) == 1


def test_spec_pair_examples():
    # two odd factors anticommute, an even factor commutes freely
    assert koszul_sign([1, 1], (1, 0)) == -1
    assert koszul_sign([2, 1], (1, 0)) == 1
    # 3-cycle of three odd factors decomposes into two odd-odd swaps
    assert koszul_sign([1, 1, 1], (1, 2, 0)) == 1
    assert koszul_sign_by_swaps([1, 1, 1], (1, 2, 0)) == 1


def test_block_sign_examples():
    # permuting whole blocks is koszul_sign on the block degrees
    assert koszul_sign([3, 2], (1, 0)) == 1
    assert koszul_sign([1, 3], (1, 0)) == -1
    # blocks of degrees (1,1,2) rearranged by 1->3, 2->1, 3->2
    assert koszul_sign([1, 1, 2], (2, 0, 1)) == -1


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        koszul_sign([1, 1], (0, 1, 2))
    with pytest.raises(ValueError):
        koszul_sign_by_swaps([1], (0, 1))


def test_oracle_agreement_small():
    for n in range(1, 5):
        for sigma in perms(n):
            for degs in itertools.product((0, 1), repeat=n):
                assert koszul_sign(degs, sigma) == koszul_sign_by_swaps(degs, sigma)


def test_full_degrees_only_parity_matters():
    for sigma in perms(4):
        for degs in itertools.product((-3, -2, 0, 5), repeat=4):
            assert koszul_sign(degs, sigma) == koszul_sign(
                [d % 2 for d in degs], sigma
            )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_composition_is_multiplicative(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    degs = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    sigma = tuple(data.draw(st.permutations(range(n))))
    rho = tuple(data.draw(st.permutations(range(n))))
    # reorder along sigma, then along rho; the second stage sees permuted degrees
    permuted = [degs[inverse(sigma)[k]] for k in range(n)]
    total = tuple(rho[s] for s in sigma)  # sigma first, then rho
    assert koszul_sign(degs, total) == koszul_sign(degs, sigma) * koszul_sign(
        permuted, rho
    )


def test_inverse_and_compose_roundtrip():
    for sigma in perms(4):
        inv = inverse(sigma)
        assert tuple(sigma[i] for i in inv) == tuple(range(4))
        assert tuple(inv[s] for s in sigma) == tuple(range(4))
        assert inverse(inv) == sigma


def binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def test_shuffle_counts_and_shape():
    for p in range(1, 5):
        for q in range(1, 5):
            if p + q > 8:
                continue
            shuffles = enumerate_shuffles(p, q)
            assert len(shuffles) == binom(p + q, p)
            assert len(set(shuffles)) == len(shuffles)
            for sigma in shuffles:
                assert sorted(sigma) == list(range(p + q))
                assert list(sigma[:p]) == sorted(sigma[:p])
                assert list(sigma[p:]) == sorted(sigma[p:])


def test_shuffles_deterministic_lexicographic():
    shuffles = enumerate_shuffles(2, 2)
    firsts = [sigma[:2] for sigma in shuffles]
    assert firsts == sorted(firsts)
    assert enumerate_shuffles(1, 1) == [(0, 1), (1, 0)]
    assert len(enumerate_shuffles(2, 1)) == 3
    assert len(enumerate_shuffles(2, 2)) == 6


def test_empty_block_rejected():
    with pytest.raises(ValueError):
        enumerate_shuffles(0, 3)
    with pytest.raises(ValueError):
        enumerate_shuffles(3, 0)
