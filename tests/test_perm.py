import pytest

from ccakit.perm import Permutation, compose


def test_left_action_convention():
    # (p * q)(i) = p(q(i)): q acts first
    p = Permutation((1, 2, 0))
    q = Permutation((0, 2, 1))
    assert (p * q).images == (1, 0, 2)
    assert compose(p, q).images == tuple(p(q(i)) for i in range(3))


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 3, 1))
    with pytest.raises(ValueError):
        Permutation.identity(0)


def test_inverse_and_power():
    p = Permutation((2, 0, 3, 1))
    assert (p * p.inverse()).is_identity()
    assert p ** 0 == Permutation.identity(4)
    assert p ** 4 == Permutation.identity(4)  # p is a 4-cycle
    assert p ** -1 == p.inverse()
    assert p ** 7 == p ** 3


def test_from_cycles():
    p = Permutation.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert p.images == (1, 2, 0, 4, 3)
    assert Permutation.from_cycles(3, []).is_identity()
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(0, 3)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(0, 1), (1, 2)])


def test_cycles_canonical():
    p = Permutation((1, 0, 2, 4, 5, 3))
    assert p.cycles() == [(0, 1), (3, 4, 5)]
    assert Permutation.identity(4).cycles() == []


def test_ordering_and_hash():
    a = Permutation((0, 1, 2))
    b = Permutation((0, 2, 1))
    assert a < b
    assert len({a, b, Permutation((0, 2, 1))}) == 2


def test_degree_mismatch():
    with pytest.raises(ValueError):
        compose(Permutation((0, 1)), Permutation((0, 1, 2)))
