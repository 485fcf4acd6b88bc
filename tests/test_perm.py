import pytest

from ccakit.perm import bijection, compose, from_cycles, inverse, power


def test_left_action_convention():
    # compose(p, q)(i) = p(q(i)): q acts first
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == (1, 0, 2)
    assert compose(p, q) == tuple(p[q[i]] for i in range(3))


def test_rejects_non_bijections():
    # a repeated image, an out-of-range image, and a wrong length: the
    # images of 0..2 with one missing
    for images in ((0, 0, 1), (0, 3, 1), (1, 2)):
        with pytest.raises(ValueError):
            bijection(images)


def test_bijection_returns_a_tuple():
    assert bijection([2, 0, 1]) == (2, 0, 1)


def test_inverse_and_power():
    p = (2, 0, 3, 1)
    ident = (0, 1, 2, 3)
    assert compose(p, inverse(p)) == ident
    assert power(p, 0) == ident
    assert power(p, 4) == ident  # p is a 4-cycle
    assert power(p, -1) == inverse(p)
    assert power(p, 7) == power(p, 3)


def test_from_cycles():
    assert from_cycles(5, [(0, 1, 2), (3, 4)]) == (1, 2, 0, 4, 3)
    assert from_cycles(3, []) == (0, 1, 2)
    with pytest.raises(ValueError):
        from_cycles(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_cycles(4, [(0, 1), (1, 2)])


def test_degree_mismatch():
    with pytest.raises(ValueError):
        compose((0, 1), (0, 1, 2))
