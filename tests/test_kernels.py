"""The search kernel against the all-permutations filter."""

import pytest

from ccakit import kernels
from ccakit.graphs import cayley_graph, complete_colour_graph
from ccakit.groups import cyclic, dihedral, direct_product, quaternion

from bruteforce import brute_colour_automorphisms, edge_dict

GRAPHS = [
    cayley_graph(cyclic(6), [1, 5]).graph,
    cayley_graph(cyclic(8), [1, 7, 4]).graph,
    complete_colour_graph(quaternion()).graph,
    complete_colour_graph(direct_product(cyclic(2), cyclic(2))).graph,
    cayley_graph(dihedral(4), [4, 5, 1, 3]).graph,
]


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: repr(g))
def test_search_matches_bruteforce(g):
    n = g.vertex_count
    found, _ = kernels.search(n, g.colour_matrix(), range(n))
    assert set(found) == brute_colour_automorphisms(n, edge_dict(g))


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: repr(g))
def test_search_fixing_vertex_0_matches_bruteforce(g):
    n = g.vertex_count
    found, _ = kernels.search(n, g.colour_matrix(), (0,))
    brute = brute_colour_automorphisms(n, edge_dict(g))
    assert found == sorted(p for p in brute if p[0] == 0)


def test_search_output_sorted_and_counted():
    g = cayley_graph(cyclic(6), [1, 5]).graph
    n = g.vertex_count
    found, nodes = kernels.search(n, g.colour_matrix(), range(n))
    assert found == sorted(found)
    assert len(found) == 12  # the 6-cycle: rotations and reflections
    # distinct leaves need distinct committed placements; prefixes are shared
    assert nodes >= max(len(found), n)


def test_search_rejects_disconnected():
    g = cayley_graph(cyclic(6), [2, 4]).graph
    with pytest.raises(ValueError):
        kernels.search(g.vertex_count, g.colour_matrix(), range(6))


def test_check_assoc():
    c4 = cyclic(4)
    flat = [x for row in c4.table for x in row]
    assert kernels.check_assoc(4, flat) == -1
    broken = list(flat)
    broken[1 * 4 + 2] = 0  # r * r^2 = e breaks associativity somewhere
    assert kernels.check_assoc(4, broken) >= 0
