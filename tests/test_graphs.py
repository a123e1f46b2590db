"""Graph core: construction, statistics, classification, canonical forms,
and exhaustive enumeration."""

import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from specirr import (
    Graph,
    RegularityClass,
    canonical_form,
    classify,
    classify_degree_multiset,
    complete,
    connected_components,
    cycle,
    degree_stats,
    enumerate_graphs,
    from_edges,
    is_connected,
    path,
    prism,
    star,
    subdivide_edge,
    subdivided_prism,
    to_graph6,
)
from specirr import graphs
from specirr.spectral import _adjacency_stack

# Published counts of isomorphism classes on n vertices (OEIS A000088 and
# A001349); the enumeration must reproduce them exactly.
KNOWN_TOTAL = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
KNOWN_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

# SHA-256 of the ASCII lines to_graph6(g) + "\n" over enumerate_graphs(n)
# for n = 1..n_max: pins both the classes and their order.
ENUMERATION_DIGESTS = {
    7: "75ccf4b551e4f74a95546b968a89e9dd02062ffa912b0f16cdd249a14dc2e32a",
    8: "399677b2bc5490df0ef107b608c6d33dbbc4d53579b6b45e067b9286717bd8e0",
}


# K3,3,3: a symmetric graph where the twin pruning cuts the canonical search.
K333 = from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if u // 3 != v // 3])
K33 = from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])


def _random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_from_edges_path():
    g = from_edges(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.m == 2
    assert g.degrees == (1, 2, 1)


def test_from_edges_complete():
    g = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert g.m == 6
    assert classify(g) is RegularityClass.REGULAR


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        from_edges(3, [(0, 0)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        from_edges(3, [(0, 3)])


def test_from_edges_rejects_duplicates_either_orientation():
    with pytest.raises(ValueError, match="duplicate"):
        from_edges(3, [(0, 1), (1, 0)])


def test_from_edges_rejects_empty_vertex_set():
    with pytest.raises(ValueError, match="positive"):
        from_edges(0, [])


def test_graph_is_immutable():
    g = from_edges(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5


# ---------------------------------------------------------------------------
# Degree statistics
# ---------------------------------------------------------------------------

def test_stats_regular_cycle():
    s = degree_stats(cycle(4))
    assert s.max_degree == s.min_degree == 2
    assert s.avg_degree == 2
    assert s.variance == 0


def test_stats_star():
    s = degree_stats(star(4))
    assert sorted(s.degrees) == [1, 1, 1, 3]
    assert s.avg_degree == Fraction(3, 2)
    assert s.variance == Fraction(3, 4)
    assert s.sum_sq_degrees == 12


def test_stats_subdivided_prism():
    # degree multiset (2, 3^6): the high subregular witness shape
    s = degree_stats(subdivided_prism(3))
    assert s.n == 7 and s.m == 10
    assert sorted(s.degrees) == [2, 3, 3, 3, 3, 3, 3]
    assert s.avg_degree == Fraction(20, 7)
    assert s.variance == Fraction(6, 49)


def test_stats_identities_on_random_graphs():
    # Reference: the definitional forms, against which degree_stats' closed
    # form variance and edge-list two-degrees must agree exactly.
    rng = random.Random(11)
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    graphs += [_random_graph(rng, rng.randint(1, 40), rng.choice([0.2, 0.5, 0.8]))
               for _ in range(200)]
    for g in graphs:
        s = degree_stats(g)
        degs, masks = g.degrees, g.neighbor_masks
        avg = Fraction(2 * g.m, g.n)
        assert s.avg_degree == avg and sum(s.degrees) == 2 * s.m
        assert s.variance == sum((d - avg) ** 2 for d in degs) / g.n
        assert s.two_degrees == tuple(
            sum(degs[u] for u in range(g.n) if (masks[v] >> u) & 1) for v in range(g.n)
        )
        assert sum(s.two_degrees) == s.sum_sq_degrees  # double counting
        assert (s.min_degree, s.max_degree) == (min(degs), max(degs))


def test_degree_statistics_stay_exact_past_int64():
    # A star's n sum d^2 is about n^3, past int64 from n = 2 100 000 on;
    # one graph's statistics are Python ints, as exact as the formulas.
    leaves = 2_100_000
    row = graphs._degree_row([leaves] + [1] * leaves)
    n, m, sum_sq = leaves + 1, leaves, leaves * leaves + leaves
    assert row["n2_variance"] == n * sum_sq - 4 * m * m > 2**63
    assert (row["m"], row["sum_sq_degrees"]) == (m, sum_sq)


def test_two_degrees_path():
    s = degree_stats(path(3))
    assert s.two_degrees == (2, 2, 2)


# ---------------------------------------------------------------------------
# Regularity classification
# ---------------------------------------------------------------------------

def test_classify_cycle_regular():
    assert classify(cycle(5)) is RegularityClass.REGULAR


def test_classify_subdivided_prism_high():
    assert classify(subdivided_prism(3)) is RegularityClass.HIGH_SUBREGULAR


def test_classify_low_subregular():
    # K5 minus two disjoint edges: degrees (4, 3, 3, 3, 3)
    g = from_edges(5, [e for e in complete(5).edges if e not in {(1, 2), (3, 4)}])
    assert sorted(g.degrees) == [3, 3, 3, 3, 4]
    assert classify(g) is RegularityClass.LOW_SUBREGULAR


def test_classify_star_other_irregular():
    assert classify(star(4)) is RegularityClass.OTHER_IRREGULAR


def test_classify_depends_on_multiset_only():
    assert classify_degree_multiset((3, 3, 3, 3, 3, 3, 2)) is RegularityClass.HIGH_SUBREGULAR
    assert classify_degree_multiset((4, 3, 3, 3, 3)) is RegularityClass.LOW_SUBREGULAR
    assert classify_degree_multiset((2, 2, 1, 1)) is RegularityClass.OTHER_IRREGULAR
    assert classify_degree_multiset((0,)) is RegularityClass.REGULAR
    # One vertex of degree D and one of degree D - 1: both counts are 1,
    # and low wins.
    assert classify_degree_multiset((2, 1)) is RegularityClass.LOW_SUBREGULAR


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

def test_connectivity_basics():
    assert is_connected(path(3))
    assert is_connected(Graph(1, frozenset()))
    assert not is_connected(from_edges(4, [(0, 1), (2, 3)]))


def test_connected_rows_at_the_graph6_cap():
    # The squarings must span a shortest path of n - 1 = 61 edges: P_62's
    # ends, the two paths of P_31 + P_31, and a tree with a long path.
    n = graphs.GRAPH6_MAX_N
    half = n // 2
    rng = random.Random(67)
    tree = from_edges(n, [(v, rng.randrange(max(0, v - 3), v)) for v in range(1, n)])
    cases = [
        path(n),
        from_edges(n, [(v, v + 1) for v in range(n - 1) if v != half - 1]),
        tree,
        from_edges(n, [(v, v + 1) for v in range(n - 2)]),  # an isolated last vertex
    ]
    assert graphs._connected_rows(_adjacency_stack(cases)).tolist() == [is_connected(g) for g in cases]
    assert [is_connected(g) for g in cases] == [True, False, True, False]


def test_components():
    g = from_edges(5, [(0, 1), (2, 3)])
    assert connected_components(g) == [[0, 1], [2, 3], [4]]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_prism_is_cubic():
    g = prism(3)
    assert g.n == 6 and g.m == 9
    assert set(g.degrees) == {3}


def test_subdivided_prism_shape():
    g = subdivided_prism(3)
    assert g.n == 7 and g.m == 10
    assert sorted(g.degrees) == [2, 3, 3, 3, 3, 3, 3]
    assert is_connected(g)


def test_star_is_k13():
    g = star(4)
    assert g.m == 3 and sorted(g.degrees) == [1, 1, 1, 3]


def test_generator_size_validation():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        prism(2)
    with pytest.raises(ValueError):
        path(0)


def test_subdivide_edge_requires_edge():
    with pytest.raises(ValueError, match="not in graph"):
        subdivide_edge(path(3), (0, 2))


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def test_canonical_form_identifies_relabelings():
    p3 = path(3)
    forms = {canonical_form(p3.relabel(perm)) for perm in itertools.permutations(range(3))}
    assert len(forms) == 1


def test_canonical_form_separates_classes():
    assert canonical_form(path(3)) != canonical_form(complete(3))


def test_canonical_form_random_relabel_invariance():
    rng = random.Random(23)
    for n in itertools.chain((rng.randint(2, 7) for _ in range(300)), [8, 9] * 30):
        g = _random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        f0 = canonical_form(g)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(perm)) == f0
    # Symmetric graphs, where the twin pruning cuts the search: K9, C9, K3,3,3.
    for g in (complete(9), cycle(9), K333):
        f0 = canonical_form(g)
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == f0


def test_canonical_form_bits_are_the_graph6_bits():
    # canonical_form packs the canonical relabeling's upper triangle eight
    # bits per byte; graph6 packs the same bits six per character.
    for n in range(1, 8):
        nbits = n * (n - 1) // 2
        for g in enumerate_graphs(n):
            form = canonical_form(g)
            form_bits = "".join(f"{byte:08b}" for byte in form[1:])[:nbits]
            text = to_graph6(g)
            text_bits = "".join(f"{ord(c) - 63:06b}" for c in text[1:])[:nbits]
            assert form[0] == n and form_bits == text_bits


def test_canonical_order_relabels_to_the_canonical_graph6():
    # Enumeration picks the vertex to delete by its place in this order.
    rng = random.Random(29)
    cases = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    cases += [_random_graph(rng, n, rng.choice([0.2, 0.5, 0.8])) for n in [8, 9] * 20]
    cases += [complete(9), cycle(9), K333]
    for g in cases:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        blocks, order, _ = graphs._canonical_blocks(h.neighbor_masks, h.n)
        assert sorted(order) == list(range(h.n))
        position = [0] * h.n
        for k, v in enumerate(order):
            position[v] = k
        assert to_graph6(h.relabel(position)) == graphs._graph6(h.n, graphs._block_bits(blocks))


# The canonical search as first written, kept as the reference that the
# faster search must match order for order.

def _reference_root_candidates(masks, n):
    colors = [masks[v].bit_count() for v in range(n)]
    nclasses = len(set(colors))
    while nclasses < n:
        sigs = []
        for v in range(n):
            mv = masks[v]
            nb = sorted(colors[u] for u in range(n) if (mv >> u) & 1)
            sigs.append((colors[v], tuple(nb)))
        ids = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [ids[s] for s in sigs]
        if len(ids) == nclasses:
            break
        nclasses = len(ids)
    groups = {}
    for v in range(n):
        groups.setdefault(colors[v], []).append(v)
    return min(groups.values(), key=lambda vs: (len(vs), colors[vs[0]]))


def _reference_canonical_blocks(masks, n):
    if n == 1:
        return (), (0,)
    best = None
    best_order = ()
    blocks = [0] * (n - 1)
    order = [0] * n
    vertices = range(n)
    roots = _reference_root_candidates(masks, n)

    def search(depth, rem, tight, bvec):
        nonlocal best, best_order
        if depth:
            maxb = -1
            cands = []
            r = rem
            while r:
                lsb = r & -r
                r ^= lsb
                v = lsb.bit_length() - 1
                b = bvec[v]
                if b > maxb:
                    maxb = b
                    cands = [v]
                elif b == maxb:
                    cands.append(v)
            if tight and best is not None:
                ref = best[depth - 1]
                if maxb < ref:
                    return
                tight = maxb == ref
            blocks[depth - 1] = maxb
            if depth == n - 1:
                if best is None or (not tight and blocks > best):
                    best = blocks.copy()
                    order[depth] = cands[0]
                    best_order = tuple(order)
                return
        else:
            cands = roots
        kept = []
        for v in cands:
            mv = masks[v]
            vbit = 1 << v
            for u in kept:
                if not (masks[u] ^ mv) & rem & ~(1 << u) & ~vbit:
                    break
            else:
                kept.append(v)
        for v in kept:
            order[depth] = v
            child = tuple((bvec[u] << 1) | ((masks[u] >> v) & 1) for u in vertices)
            search(depth + 1, rem & ~(1 << v), tight, child)

    search(0, (1 << n) - 1, True, (0,) * n)
    return tuple(best), best_order


def _search_cases():
    """Every class with n <= 7 under a random relabeling, 200 random graphs
    each at n = 8 and n = 9, and four symmetric graphs."""
    rng = random.Random(31)
    cases = []
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            cases.append(g.relabel(perm))
    cases += [_random_graph(rng, n, rng.choice([0.2, 0.5, 0.8])) for n in (8, 9) for _ in range(200)]
    return cases + [complete(9), cycle(9), K333, prism(4)]


def test_canonical_blocks_match_the_reference_search():
    for g in _search_cases():
        masks = g.neighbor_masks
        assert graphs._canonical_blocks(masks, g.n)[:2] == _reference_canonical_blocks(masks, g.n)


def _automorphisms(g):
    return graphs._canonical_blocks(g.neighbor_masks, g.n)[2]


def test_enumeration_automorphisms_preserve_the_edges():
    # Relabeled, so that the search meets leaves tying a best it later beats.
    for g in _search_cases():
        for p in _automorphisms(g):
            assert sorted(p) == list(range(g.n))
            assert {tuple(sorted((p[u], p[v]))) for u, v in g.edges} == g.edges


@pytest.mark.parametrize("g", [cycle(9), K333, K33, prism(4)], ids=["C9", "K333", "K33", "prism4"])
def test_enumeration_automorphisms_join_a_transitive_graph(g):
    orbit = {0}
    frontier = [0]
    generators = _automorphisms(g)
    while frontier:
        v = frontier.pop()
        for p in generators:
            if p[v] not in orbit:
                orbit.add(p[v])
                frontier.append(p[v])
    assert orbit == set(range(g.n))


def _generated_group(generators, n):
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        q = frontier.pop()
        for p in generators:
            pq = tuple(p[q[v]] for v in range(n))
            if pq not in group:
                group.add(pq)
                frontier.append(pq)
    return group


def test_canonical_search_generators_generate_the_whole_group():
    # Enumeration keeps a child only if its new vertex lies in the orbit of
    # v* under these generators, so a missing one would lose classes.  The
    # group they generate must be every automorphism, found here by trying
    # all n! permutations.
    rng = random.Random(37)
    cases = []
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            cases.append(g.relabel(perm))
    for g in cases + [K33]:
        brute = {
            p for p in itertools.permutations(range(g.n))
            if {tuple(sorted((p[u], p[v]))) for u, v in g.edges} == g.edges
        }
        assert _generated_group(_automorphisms(g), g.n) == brute, to_graph6(g)


def test_canonical_form_cap():
    with pytest.raises(ValueError, match="capped"):
        canonical_form(complete(10))


def test_canonical_form_agrees_with_vf2():
    # Independent isomorphism oracle: equal forms must coincide exactly
    # with VF2 isomorphism on random same-(n, m) pairs.
    import networkx as nx
    rng = random.Random(47)
    pairs_checked = same_form = 0
    while pairs_checked < 150:
        n = rng.randint(4, 7)
        a = _random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        b = _random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        if a.m != b.m:
            continue
        pairs_checked += 1
        nx_a, nx_b = nx.Graph(list(a.edges)), nx.Graph(list(b.edges))
        nx_a.add_nodes_from(range(n))
        nx_b.add_nodes_from(range(n))
        forms_equal = canonical_form(a) == canonical_form(b)
        same_form += forms_equal
        assert forms_equal == nx.is_isomorphic(nx_a, nx_b)
    assert same_form > 0  # the sample must exercise the equal branch too


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", sorted(KNOWN_TOTAL))
def test_enumeration_counts(n):
    assert sum(1 for _ in enumerate_graphs(n)) == KNOWN_TOTAL[n]
    assert sum(1 for _ in enumerate_graphs(n, connected_only=True)) == KNOWN_CONNECTED[n]


@pytest.mark.parametrize("n_max", sorted(ENUMERATION_DIGESTS))
def test_enumeration_digest(n_max):
    h = hashlib.sha256()
    for n in range(1, n_max + 1):
        for g in enumerate_graphs(n):
            h.update((to_graph6(g) + "\n").encode("ascii"))
    assert h.hexdigest() == ENUMERATION_DIGESTS[n_max]


def _fresh_class_forms(monkeypatch, cache_home):
    """An empty in-process cache over the on-disk one under cache_home; the
    module's cache, which later tests reuse, is put back untouched."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    fresh = functools.lru_cache(maxsize=None)(graphs._class_forms.__wrapped__)
    monkeypatch.setattr(graphs, "_class_forms", fresh)
    return fresh


def _count_canonicalizations(monkeypatch):
    calls = [0]
    canonical_blocks = graphs._canonical_blocks

    def counted(masks, n):
        calls[0] += 1
        return canonical_blocks(masks, n)

    monkeypatch.setattr(graphs, "_canonical_blocks", counted)
    return calls


def _level_bytes(n):
    return "".join(text + "\n" for text in graphs._class_forms(n)).encode("ascii")


def test_enumeration_canonicalization_budget(monkeypatch, tmp_path):
    # Canonical augmentation with one extension set per Aut(parent) orbit
    # and McKay's orbit test for acceptance takes 1 494 canonicalizations
    # up to n = 7, about 1.2 per class, the parents' automorphism searches
    # included.  The budget fails the 1 583 taken when each child whose v*
    # is not the new vertex also canonicalized the graph left by deleting v*.
    # An empty cache directory makes it count a cold build of every level:
    # each kept class is canonicalized at least once.
    fresh = _fresh_class_forms(monkeypatch, tmp_path)
    calls = _count_canonicalizations(monkeypatch)
    assert len(graphs._class_forms(7)) == KNOWN_TOTAL[7]
    assert fresh.cache_info().currsize == 7
    assert sum(KNOWN_TOTAL[n] for n in range(2, 8)) <= calls[0] <= 1550


def test_class_digests_pin_every_level():
    assert sorted(graphs.CLASS_DIGESTS) == list(range(1, graphs.ENUMERATION_CAP + 1))


def test_class_cache_cold_build_writes_the_pinned_levels(monkeypatch, tmp_path):
    expected = {n: _level_bytes(n) for n in range(1, 7)}
    _fresh_class_forms(monkeypatch, tmp_path)
    assert _level_bytes(6) == expected[6]
    stored = tmp_path / "specirr" / "classes"
    assert sorted(p.name for p in stored.iterdir()) == [f"n{n}.g6" for n in range(1, 7)]
    for n in range(1, 7):
        data = (stored / f"n{n}.g6").read_bytes()
        assert hashlib.sha256(data).hexdigest() == graphs.CLASS_DIGESTS[n]
        assert data == expected[n]


def test_class_cache_warm_load_builds_nothing(monkeypatch, tmp_path):
    expected = graphs._class_forms(7)
    _fresh_class_forms(monkeypatch, tmp_path)
    graphs._class_forms(7)  # cold: stores n = 1..7
    fresh = _fresh_class_forms(monkeypatch, tmp_path)
    calls = _count_canonicalizations(monkeypatch)
    assert graphs._class_forms(7) == expected
    assert calls[0] == 0
    assert fresh.cache_info().currsize == 1  # no level below was needed


def _flip_one_byte(data, n):
    return data[:7] + bytes([data[7] ^ 1]) + data[8:]


@pytest.mark.parametrize("spoil", [
    _flip_one_byte,
    lambda data, n: data[:-5],
    lambda data, n: _level_bytes(n - 1),
], ids=["flipped-byte", "truncated", "other-level"])
def test_class_cache_bad_file_is_rebuilt_and_overwritten(spoil, monkeypatch, tmp_path):
    n = 6
    good = _level_bytes(n)
    stored = tmp_path / "specirr" / "classes"
    stored.mkdir(parents=True)
    (stored / f"n{n}.g6").write_bytes(spoil(good, n))
    expected = graphs._class_forms(n)
    _fresh_class_forms(monkeypatch, tmp_path)
    calls = _count_canonicalizations(monkeypatch)
    assert graphs._class_forms(n) == expected
    assert calls[0] > 0
    assert (stored / f"n{n}.g6").read_bytes() == good
    assert not list(stored.glob("*.tmp"))


def test_class_cache_unwritable_directory_changes_nothing(monkeypatch, tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    expected = graphs._class_forms(6)
    _fresh_class_forms(monkeypatch, blocker)
    assert graphs._class_forms(6) == expected
    assert blocker.read_text() == ""


def test_class_build_missing_its_pin_raises_and_stores_nothing(monkeypatch, tmp_path):
    _fresh_class_forms(monkeypatch, tmp_path)
    monkeypatch.setitem(graphs.CLASS_DIGESTS, 5, "0" * 64)
    with pytest.raises(AssertionError, match="5 vertices"):
        graphs._class_forms(5)
    stored = tmp_path / "specirr" / "classes"
    assert sorted(p.name for p in stored.iterdir()) == [f"n{n}.g6" for n in range(1, 5)]


@pytest.mark.parametrize("xdg", [None, "", "relative/cache"], ids=["unset", "empty", "relative"])
def test_class_cache_dir_falls_back_to_home(xdg, monkeypatch, tmp_path):
    # The XDG base-directory rules: only an absolute $XDG_CACHE_HOME is used.
    monkeypatch.setenv("HOME", str(tmp_path))
    if xdg is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
    assert graphs._class_cache_dir() == str(tmp_path / ".cache" / "specirr" / "classes")


def test_enumeration_k3_cell():
    found = list(enumerate_graphs(3, m=3))
    assert len(found) == 1
    assert found[0].m == 3 and classify(found[0]) is RegularityClass.REGULAR


def test_enumeration_no_duplicate_forms():
    forms = [canonical_form(g) for g in enumerate_graphs(6)]
    assert len(forms) == len(set(forms))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_labeled_graph_maps_to_one_class(n):
    # Brute force over all labeled graphs: their canonical forms must
    # exactly cover the enumerated classes.
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labeled_forms = set()
    for bits in range(1 << len(pairs)):
        edges = [e for k, e in enumerate(pairs) if (bits >> k) & 1]
        labeled_forms.add(canonical_form(from_edges(n, edges)))
    enumerated = {canonical_form(g) for g in enumerate_graphs(n)}
    assert labeled_forms == enumerated


def test_enumeration_is_deterministic():
    first = [to_graph6(g) for g in enumerate_graphs(5)]
    second = [to_graph6(g) for g in enumerate_graphs(5)]
    assert first == second


def test_enumeration_cap_and_ranges():
    with pytest.raises(ValueError, match="capped"):
        list(enumerate_graphs(10))
    with pytest.raises(ValueError, match="out of range"):
        list(enumerate_graphs(4, m=7))
