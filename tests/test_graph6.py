"""graph6 encoding against an independent decoder (networkx)."""

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
from specirr.graphs import _bits_stack, _class_bits, _class_forms, _graph6_bits

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


def test_encoding_matches_networkx():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 30)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
        g = from_edges(n, edges)
        mine = to_graph6(g)
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(n))
        nx_graph.add_edges_from(edges)
        theirs = nx.to_graph6_bytes(nx_graph, nodes=range(n), header=False)
        theirs = theirs.decode("ascii").strip()
        assert mine == theirs
        assert parse_graph6(theirs).edges == g.edges


def test_canonical_strings_round_trip_exactly():
    # For any standard-encoded string s, to_graph6(parse_graph6(s)) == s.
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 40)
        g = nx.gnp_random_graph(n, 0.4, seed=rng.randint(0, 10**6))
        s = nx.to_graph6_bytes(g, header=False).decode("ascii").strip()
        assert to_graph6(parse_graph6(s)) == s


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
            assert set(zip(i.tolist(), j.tolist())) == parse_graph6(text).edges
