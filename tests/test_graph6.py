"""graph6 encoding, and the bit rows between graph6 text, Graph and
adjacency stack, against independent references: networkx's encoder and
decoder, and matrices written out from edge lists."""

import random

import networkx as nx
import numpy as np
import pytest

from specirr import (
    complete,
    cycle,
    enumerate_graphs,
    from_edges,
    parse_graph6,
    path,
    prism,
    star,
    subdivided_prism,
    to_graph6,
)
from specirr.graphs import Graph, _bits_stack, _class_bits, _class_forms, _graph6_bits
from specirr.harness import Claim, verify_graphs
from specirr.spectral import _adjacency_stack

NAMED = [
    complete(2), complete(5), cycle(4), cycle(7), path(1), path(6),
    star(4), star(8), prism(3), prism(4), subdivided_prism(3),
]


def _nx_edges(g6: str) -> set:
    g = nx.from_graph6_bytes(g6.encode("ascii"))
    return {tuple(sorted(e)) for e in g.edges()}


def test_decode_known_string():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert g.edges == _nx_edges("D?{")


def test_header_prefix_tolerated():
    assert parse_graph6(">>graph6<<D?{").edges == parse_graph6("D?{").edges


@pytest.mark.parametrize("g", NAMED, ids=lambda g: f"n{g.n}m{g.m}")
def test_round_trip_named(g):
    assert parse_graph6(to_graph6(g)).edges == g.edges


def test_round_trip_small_corpus():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert parse_graph6(to_graph6(g)).edges == g.edges


def _nx_graph6(n: int, edges) -> str:
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(n))
    nx_graph.add_edges_from(edges)
    return nx.to_graph6_bytes(nx_graph, nodes=range(n), header=False).decode("ascii").strip()


def test_encoding_matches_networkx():
    rng = random.Random(5)
    for n in range(1, 63):
        for p in (0.1, 0.3, 0.8):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            g = from_edges(n, edges)
            theirs = _nx_graph6(n, edges)
            assert to_graph6(g) == theirs
            assert parse_graph6(theirs).edges == g.edges


def test_canonical_strings_round_trip_exactly():
    # For any standard-encoded string s, to_graph6(parse_graph6(s)) == s,
    # and parse_graph6 finds the edges networkx decodes.
    rng = random.Random(9)
    for n in range(1, 63):
        for p in (0.05, 0.4, 0.95):
            g = nx.gnp_random_graph(n, p, seed=rng.randint(0, 10**6))
            s = nx.to_graph6_bytes(g, header=False).decode("ascii").strip()
            assert parse_graph6(s).edges == _nx_edges(s)
            assert to_graph6(parse_graph6(s)) == s


@pytest.mark.parametrize("n", range(1, 9))
def test_parse_graph6_rebuilds_every_stored_class(n):
    # enumerate_graphs builds its Graphs from the stored bit rows, not
    # through parse_graph6, so the parser is checked here on every class.
    assert [parse_graph6(text) for text in _class_forms(n)] == list(enumerate_graphs(n))


def _matrix(g: Graph) -> np.ndarray:
    # The adjacency matrix, written out from the edge list.
    a = np.zeros((g.n, g.n), dtype=np.uint8)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1
    return a


def _random_graph(n: int, p: float, rng: random.Random) -> Graph:
    return from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])


def test_adjacency_stack_matches_the_edge_lists():
    rng = random.Random(300)
    runs = [[from_edges(n, []), complete(n), _random_graph(n, 0.5, rng)] for n in (1, 2, 62)]
    runs.append([_random_graph(300, 0.3, rng)])
    for run in runs:
        stack = _adjacency_stack(run)
        assert stack.dtype == np.uint8
        assert np.array_equal(stack, np.stack([_matrix(g) for g in run]))


def test_violation_names_the_relabelled_graph():
    # A claim that fails on every graph: each violation must name its own
    # graph's graph6, as networkx encodes it, whatever the vertex labels.
    rng = random.Random(11)
    graphs = []
    for n in range(10, 63):
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(_random_graph(n, rng.uniform(0.1, 0.9), rng).relabel(perm))
    fired = {"x": lambda columns, tol: [Claim("x", 1, 0, 0)]}
    violations = verify_graphs(graphs, checks=fired)
    assert [v.graph6 for v in violations] == [_nx_graph6(g.n, g.edges) for g in graphs]


def test_parse_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        parse_graph6("")


def test_parse_rejects_truncation():
    with pytest.raises(ValueError, match="truncated"):
        parse_graph6("D?")


def test_parse_rejects_trailing_bytes():
    with pytest.raises(ValueError, match="trailing"):
        parse_graph6("D?{{")


def test_parse_rejects_bad_bytes():
    with pytest.raises(ValueError, match="outside"):
        parse_graph6("D?!")


def test_parse_rejects_long_form_header():
    with pytest.raises(ValueError, match="not supported"):
        parse_graph6("~??~?????")


def test_parse_rejects_zero_vertices():
    with pytest.raises(ValueError, match="empty vertex set"):
        parse_graph6("?")


def test_parse_rejects_nonzero_padding():
    # K2 is 'A_' (bit 1, padding 00000); force a padding bit on.
    assert parse_graph6("A_").m == 1
    with pytest.raises(ValueError, match="padding"):
        parse_graph6("A`")


def test_encode_rejects_oversized():
    with pytest.raises(ValueError, match="n <= 62"):
        to_graph6(from_edges(63, []))


def _loop_bits(n, texts):
    # The reference decoder: one pass per upper-triangle bit column.
    body = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8).reshape(len(texts), -1) - 63
    bits = np.empty((len(texts), n * (n - 1) // 2), dtype=np.uint8)
    for k in range(bits.shape[1]):
        bits[:, k] = body[:, 1 + k // 6] >> (5 - k % 6) & 1
    return bits


@pytest.mark.parametrize("n", range(1, 8))
def test_class_bits_match_the_column_loop(n):
    assert np.array_equal(_class_bits(n), _loop_bits(n, _class_forms(n)))


def test_vectorised_decoder_matches_parse_graph6():
    rng = random.Random(62)
    for n in range(1, 63):
        texts = [to_graph6(from_edges(n, [(i, j) for j in range(n) for i in range(j)
                                          if rng.random() < p])) for p in (0.1, 0.5, 0.9)]
        bits = _graph6_bits(n, texts)
        assert np.array_equal(bits, _loop_bits(n, texts))
        for text, matrix in zip(texts, _bits_stack(n, bits)):
            i, j = np.nonzero(np.triu(matrix))
            assert set(zip(i.tolist(), j.tolist())) == _nx_edges(text)
            assert parse_graph6(text).edges == _nx_edges(text)
