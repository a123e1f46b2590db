"""Core machinery for small undirected simple graphs.

Graphs are immutable value objects over vertices 0..n-1 with adjacency kept
as per-vertex bitmasks.  The module covers construction and validation,
graph6 text I/O, degree statistics in exact rational arithmetic,
near-regularity classification, the standard generator families, canonical
forms under isomorphism, and exhaustive enumeration of isomorphism classes
up to ENUMERATION_CAP vertices, kept on disk under pinned SHA-256 digests.
The degree statistics and the regularity class are stated once, as int64
and boolean columns over a run's degree rows (_degree_columns);
degree_stats and classify are its run of one, read back into Python
values by _row_stats and _row_class.  A run's structure is one pass over
its adjacency stack (_stack_columns): the int64 degree rows, the
2-degrees A d, connectivity (_connected_rows) and the _degree_columns of
those rows, which bounds.bound_columns and the search read.
spectral._solve_stack reads the regular mask of _degree_columns for its
exact regular radii.
One row of upper-triangle bits in graph6 order is the interchange between
graph6 text, Graph and adjacency stack.  Edge (i, j) sits at
_position(i, j) = j(j-1)/2 + i, the one rule between edges and bits;
_triangle and _cells list the cells in that order.  graph6 texts with one n
are decoded together into rows (_graph6_bits): a stored level once
(_class_bits), compute's input a run at a time, and parse_graph6's text
alone.  A row becomes a Graph through _bits_graph (parse_graph6,
enumerate_graphs, a violation's graph) or, with no Graph built, a stack of
adjacency matrices through _bits_stack.  The other way, to_graph6 packs a
Graph's edge positions into text and spectral._adjacency_stack sets them
in zero rows.  A level's classes with m edges are one slice of it, found
by its edge-count index (_edge_cells).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

# Permutation-search canonicalization is exponential in the worst case;
# nine vertices keeps every corpus run at desk scale.
ENUMERATION_CAP = 9
GRAPH6_MAX_N = 62

# SHA-256 of each level's bytes, "".join(text + "\n" for text in
# _class_forms(n)) in ASCII: pins the classes on n vertices and their order.
# A stored level is used only when it matches, and a build that misses it
# is an enumeration bug.
CLASS_DIGESTS = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
    3: "ad734c7f1aa188ac62d0ba1b2c514d019e1e2602e846f9bcc471f5850e392ab8",
    4: "ed8abc41a92e685877ff1d8e513362845300676addb95cfac953705d4c45d710",
    5: "dae3dc08363c08fce2d46906a982b3d17f98e888c96261e8d7c6bc05c60c227c",
    6: "4eb098f4bf81341d2474903cb13adcc83a2e2887daa703c11856cc80ac10d856",
    7: "cf6a02b850e9178b813725856ebd8b653137deb45c5fab51347b16e6c157ffde",
    8: "cf557333082f5799c63f1b5261830c1e975e73ab3f954a1fb7654bf9119bf526",
    9: "73f6d97e625a48619d36bd45fbee7b4c036a1d88c970625537864334af966d27",
}


# ---------------------------------------------------------------------------
# Graph value object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Edges are stored as sorted (u, v) pairs with u < v; adjacency bitmasks
    and degrees are derived lazily and cached.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        for u, v in self.edges:
            if not 0 <= u < v < self.n:
                raise ValueError(f"edge ({u}, {v}) is not a sorted in-range pair")

    @property
    def m(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @functools.cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.neighbor_masks)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Graph with vertex i renamed to perm[i]."""
        relabeled = (tuple(sorted((perm[u], perm[v]))) for u, v in self.edges)
        return Graph(self.n, frozenset(relabeled))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, rejecting malformed input.

    Self-loops, endpoints outside 0..n-1, and repeated pairs (in either
    orientation) are each rejected with a distinct error.
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    normalized = []
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range in edge ({u}, {v}) for n={n}")
        normalized.append((u, v) if u < v else (v, u))
    seen: set[tuple[int, int]] = set()
    for e in normalized:
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    return Graph(n, frozenset(seen))


# ---------------------------------------------------------------------------
# graph6 interchange format
# ---------------------------------------------------------------------------
#
# Single-byte size header N(n) = chr(n + 63) for n <= 62, followed by the
# upper-triangle bits x(i,j), 0 <= i < j <= n-1, ordered column by column,
# packed six bits per printable byte (ASCII 63..126), zero-padded.

_GRAPH6_HEADER = ">>graph6<<"


def _position(i, j):
    """The index of edge (i, j), i < j, in a row of graph6 bits: j(j-1)/2 + i.
    The one rule from an edge to its bit."""
    return j * (j - 1) // 2 + i


def _graph6(n: int, bits: int) -> str:
    """graph6 text for n vertices and the n(n-1)/2 upper-triangle bits."""
    nbits = n * (n - 1) // 2
    pad = (-nbits) % 6
    bits <<= pad
    chars = [chr(n + 63)]
    for k in range(nbits + pad - 6, -1, -6):
        chars.append(chr(((bits >> k) & 0x3F) + 63))
    return "".join(chars)


def to_graph6(g: Graph) -> str:
    """Encode a graph as a one-line graph6 string."""
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 encoding supported for n <= {GRAPH6_MAX_N}, got {g.n}")
    last = g.n * (g.n - 1) // 2 - 1
    return _graph6(g.n, sum(1 << (last - _position(i, j)) for i, j in g.edges))


def _graph6_size(line: str) -> int:
    """Vertex count of a graph6 string already stripped of whitespace and
    of the '>>graph6<<' prefix; ValueError naming its first defect if it
    is malformed."""
    if not line:
        raise ValueError("empty graph6 string")
    if min(line) < "?" or max(line) > "~":
        raise ValueError(f"graph6 string contains bytes outside ASCII 63..126: {line!r}")
    if line[0] == "~":
        raise ValueError("multi-byte graph6 size headers (n >= 63) are not supported")
    n = ord(line[0]) - 63
    if n == 0:
        raise ValueError("graph6 string encodes an empty vertex set")
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    if len(line) - 1 < need:
        raise ValueError(f"truncated graph6 bit vector: got {len(line) - 1} bytes, need {need}")
    if len(line) - 1 > need:
        raise ValueError(f"trailing bytes after graph6 bit vector: {line[1 + need:]!r}")
    # The padding bits are the low 6 need - total bits of the last byte.
    if total and (ord(line[-1]) - 63) & ((1 << (6 * need - total)) - 1):
        raise ValueError("nonzero padding bits in graph6 string")
    return n


def parse_graph6(text: str) -> Graph:
    """Decode a one-line graph6 string (optional '>>graph6<<' prefix tolerated)."""
    line = text.strip().removeprefix(_GRAPH6_HEADER)
    n = _graph6_size(line)
    return _bits_graph(n, _graph6_bits(n, [line])[0])


# Row c: the six bits, most significant first, that graph6 byte c carries
# (c - 63, for c in 63..126).
_SIXES = np.unpackbits((np.arange(256) - 63).astype(np.uint8)[:, None], axis=1)[:, 2:]


def _graph6_bits(n: int, lines: Sequence[str]) -> np.ndarray:
    """(len(lines), n(n-1)/2) uint8 upper-triangle bits of valid graph6
    strings on n vertices (see _graph6_size), in graph6 order: x(0,1),
    x(0,2), x(1,2), x(0,3), ...  One lookup in _SIXES decodes every byte
    of every line; the header's six bits are dropped."""
    text = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8)
    return _SIXES[text].reshape(len(lines), -1)[:, 6:6 + n * (n - 1) // 2]


# ---------------------------------------------------------------------------
# Degree statistics and regularity class
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeStats:
    """Exact degree-level statistics of a graph.

    avg_degree and variance are kept as exact rationals; float conversion
    is left to the consumer so the bound formulas control their own
    rounding.  two_degrees[i] is the sum of the degrees over the neighbors
    of vertex i.
    """

    n: int
    m: int
    degrees: tuple[int, ...]
    avg_degree: Fraction
    max_degree: int
    min_degree: int
    sum_sq_degrees: int
    variance: Fraction
    two_degrees: tuple[int, ...]

    @property
    def avg_degree_float(self) -> float:
        return float(self.avg_degree)

    @property
    def variance_float(self) -> float:
        return float(self.variance)


class RegularityClass(Enum):
    """How close a degree multiset is to regular.

    Naming convention used throughout this library: with max degree D and
    min degree D-1, a *high* subregular graph sits just below D-regular
    (exactly one vertex of degree D-1, all others of degree D, so the
    average degree is D - 1/n), and a *low* subregular graph sits just
    above (D-1)-regular (exactly one vertex of degree D, average degree
    D - 1 + 1/n).  Where both counts are 1, as in the degrees (2, 1), low
    wins.  Part of the literature attaches the names the other way around;
    this library uses the convention above consistently.
    """

    REGULAR = "regular"
    HIGH_SUBREGULAR = "high-subregular"
    LOW_SUBREGULAR = "low-subregular"
    OTHER_IRREGULAR = "other-irregular"


# The masks of _degree_columns, in RegularityClass order; a row in none of
# them is other-irregular.
_CLASS_COLUMNS = ("regular", "high_subregular", "low_subregular")


def _degree_columns(degrees: np.ndarray) -> dict[str, np.ndarray]:
    """The degree statistics and regularity class of each row of a (B, n)
    array of degree rows, as columns: m, max_degree, min_degree,
    sum_sq_degrees, n2_variance = n^2 var = n sum d^2 - 4m^2 (the exact
    variance scaled to an integer) and the masks of _CLASS_COLUMNS, which
    state the rule of RegularityClass once.  _stack_columns and
    spectral._solve_stack read it on a run's int64 rows, degree_stats and
    classify on one row of Python ints (_degree_row)."""
    n = degrees.shape[1]
    total = degrees.sum(axis=1)
    m = total // 2
    dmax, dmin = degrees.max(axis=1), degrees.min(axis=1)
    sum_sq = (degrees * degrees).sum(axis=1)
    # Where the gap is 1, every degree is dmin or dmax, and total - n dmin
    # of them are dmax.
    near = dmax - dmin == 1
    low = near & (total - n * dmin == 1)
    high = near & ~low & (n * dmax - total == 1)
    return dict(m=m, max_degree=dmax, min_degree=dmin, sum_sq_degrees=sum_sq,
                n2_variance=n * sum_sq - 4 * m * m, regular=dmax == dmin,
                high_subregular=high, low_subregular=low)


def _row_class(row) -> RegularityClass:
    """The class of one row of _degree_columns (a mapping from column name
    to value): the first whose mask holds, else other-irregular."""
    return next((c for c, key in zip(RegularityClass, _CLASS_COLUMNS) if row[key]),
                RegularityClass.OTHER_IRREGULAR)


def _row_stats(n: int, row) -> DegreeStats:
    """The DegreeStats of one row of _degree_columns, as Python values,
    with its degrees and two_degrees."""
    return DegreeStats(
        n=n, degrees=tuple(row["degrees"]), two_degrees=tuple(row["two_degrees"]),
        avg_degree=Fraction(2 * row["m"], n), variance=Fraction(row["n2_variance"], n * n),
        **{key: row[key] for key in ("m", "max_degree", "min_degree", "sum_sq_degrees")})


def _degree_row(degrees: Sequence[int]) -> dict:
    """_degree_columns of one degree sequence, as Python values.  The row
    holds Python ints, not int64, which would wrap on n sum d^2 (about n^3
    on a star) past two million vertices."""
    columns = _degree_columns(np.array([degrees], dtype=object))
    return {key: column.item() for key, column in columns.items()}


def degree_stats(g: Graph) -> DegreeStats:
    """Degree statistics of g: _degree_columns of its degrees, a run of one,
    and its two-degrees summed over the edges, in O(n + m).  The variance
    is the rational (n * sum d^2 - (2m)^2) / n^2, equal to the mean squared
    deviation from 2m/n.
    """
    degs, two = g.degrees, [0] * g.n
    for u, v in g.edges:
        two[u] += degs[v]
        two[v] += degs[u]
    return _row_stats(g.n, {**_degree_row(degs), "degrees": degs, "two_degrees": two})


def classify_degree_multiset(degrees: Sequence[int]) -> RegularityClass:
    """The RegularityClass of a degree multiset: _degree_columns on a run
    of one."""
    return _row_class(_degree_row(degrees))


def classify(g: Graph) -> RegularityClass:
    """Regularity class of a graph (a function of its degree multiset only)."""
    return classify_degree_multiset(g.degrees)


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, in increasing vertex order."""
    masks = g.neighbor_masks
    unseen = (1 << g.n) - 1
    components = []
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        reach = 1 << start
        frontier = reach
        while frontier:
            nxt = 0
            f = frontier
            while f:
                lsb = f & -f
                nxt |= masks[lsb.bit_length() - 1]
                f ^= lsb
            frontier = nxt & ~reach
            reach |= nxt
        components.append([v for v in range(g.n) if (reach >> v) & 1])
        unseen &= ~reach
    return components


def is_connected(g: Graph) -> bool:
    """True iff the graph has exactly one connected component."""
    return len(connected_components(g)) == 1


def _connected_rows(stack: np.ndarray) -> np.ndarray:
    """is_connected of each matrix of a (B, n, n) 0/1 adjacency stack.

    Squaring the 0/1 matrix A + I and clipping the product to 0/1 doubles
    the distance it spans: after s squarings, entry (u, v) is 1 exactly when
    v lies within distance 2^s of u.  A shortest path has at most n - 1
    edges, so ceil(log2(n - 1)) squarings reach vertex 0's whole component,
    and the graph is connected when that row is every vertex.
    """
    n = stack.shape[1]
    reach = stack.astype(float)
    diagonal = np.arange(n)
    reach[:, diagonal, diagonal] = 1.0
    for _ in range(max(n - 2, 0).bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    return reach[:, 0].all(axis=1)


def _stack_columns(stack: np.ndarray) -> dict[str, np.ndarray]:
    """The structure of each matrix of a (B, n, n) 0/1 adjacency stack, as
    columns: its int64 degrees, its two_degrees A d, connected
    (_connected_rows) and the _degree_columns of the degree rows.  The one
    structural pass of a run, read by bounds.bound_columns and the search."""
    degrees = stack.sum(axis=2, dtype=np.int64)
    return dict(_degree_columns(degrees), degrees=degrees,
                two_degrees=(stack @ degrees[:, :, None])[:, :, 0],
                connected=_connected_rows(stack))


# ---------------------------------------------------------------------------
# Generator families
# ---------------------------------------------------------------------------

def complete(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle(n: int) -> Graph:
    """Cycle C_n (n >= 3)."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, frozenset(tuple(sorted((i, (i + 1) % n))) for i in range(n)))


def path(n: int) -> Graph:
    """Path P_n on n vertices."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def star(n: int) -> Graph:
    """Star on n vertices: center 0 joined to n-1 leaves (K_{1,n-1})."""
    if n < 1:
        raise ValueError(f"star needs n >= 1, got {n}")
    return Graph(n, frozenset((0, i) for i in range(1, n)))


def prism(k: int) -> Graph:
    """Prism over C_k: two k-cycles joined by a perfect matching, 3-regular."""
    if k < 3:
        raise ValueError(f"prism needs k >= 3, got {k}")
    edges = set()
    for i in range(k):
        edges.add(tuple(sorted((i, (i + 1) % k))))
        edges.add(tuple(sorted((k + i, k + (i + 1) % k))))
        edges.add((i, k + i))
    return Graph(2 * k, frozenset(edges))


def subdivide_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Replace edge (u, v) by the path u-w-v through a new vertex w = n."""
    u, v = min(e), max(e)
    if (u, v) not in g.edges:
        raise ValueError(f"edge ({u}, {v}) not in graph")
    w = g.n
    edges = set(g.edges)
    edges.remove((u, v))
    edges.add((u, w))
    edges.add((v, w))
    return Graph(g.n + 1, frozenset(edges))


def subdivided_prism(k: int) -> Graph:
    """Prism over C_k with one edge subdivided; high subregular with max degree 3."""
    return subdivide_edge(prism(k), (0, 1))


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------
#
# A placement order of the vertices defines a bit string: position k
# contributes one block, the k adjacency bits between the vertex placed at
# position k and the vertices placed at 0..k-1 (most significant bit =
# adjacency to position 0).  The canonical form fixes the ordering that
# maximizes the concatenated string; maximizing it is the same search as
# minimizing the complemented string and keeps the branching tight on
# sparse graphs (dense prefixes collapse ties fast).

def _root_candidates(masks: Sequence[int], n: int) -> list[int]:
    """A canonically chosen vertex class to start the ordering search from.

    Iterated degree/neighborhood refinement yields a stable coloring whose
    color ids are isomorphism-invariant (they are assigned in sorted
    signature order, starting from degrees).  Restricting the first placed
    vertex to the smallest color class (ties broken by color id) keeps the
    canonical string an isomorphism invariant while shrinking the root
    branching from n to the class size.
    """
    colors = [mv.bit_count() for mv in masks]
    nclasses = len(set(colors))
    if nclasses < n:
        nbrs = [[u for u in range(n) if (mv >> u) & 1] for mv in masks]
        while True:
            color = colors.__getitem__
            sigs = [(c, tuple(sorted(map(color, nb)))) for c, nb in zip(colors, nbrs)]
            ids = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
            colors = [ids[s] for s in sigs]
            if len(ids) == nclasses or len(ids) == n:
                break
            nclasses = len(ids)
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, []).append(v)
    return min(groups.values(), key=lambda vs: (len(vs), colors[vs[0]]))


def _canonical_blocks(
    masks: Sequence[int], n: int
) -> tuple[tuple[int, ...], tuple[int, ...], list[tuple[int, ...]]]:
    """The maximal blocks, a placement order that reaches them, and
    generators of the automorphism group.

    order[k] is the vertex placed at position k: renaming order[k] to k
    gives the graph whose graph6 bits are _block_bits(blocks).  Any two
    orders reaching the maximum differ by an automorphism, so a vertex
    picked by its position in the order is canonical up to automorphism.

    Each generator is a tuple p with p[v] the image of v.  A leaf whose
    order o reaches the final maximum gives p[order[k]] = o[k].  Leaves are
    automorphisms only against the final maximum: those that tied an
    earlier, smaller best are dropped when the best improves.  The search
    prunes the subtrees of twins (two vertices whose masks agree outside
    the pair), so each twin adds its transposition with the least vertex of
    its twin class instead.  Together they generate the whole group; the
    proof is in _class_forms, which depends on it.
    """
    if n == 1:
        return (), (0,), []
    best: list[int] | None = None
    best_order: tuple[int, ...] = ()
    ties: list[tuple[int, ...]] = []  # leaf orders that reach best
    blocks = [0] * (n - 1)
    order = [0] * n
    last = n - 1

    def search(depth: int, rem: list[int], remmask: int, tight: bool, bvec: list[int]) -> None:
        # rem: the unplaced vertices in increasing order; bvec[i]: adjacency
        # bits of rem[i] to the placed vertices, in placement order (most
        # significant bit = position 0).  Both lists belong to this call.  A
        # lone candidate is placed in the loop; the search recurses only
        # where it branches.  cands and kept hold positions in rem, which at
        # the root are the vertices themselves.
        nonlocal best, best_order
        if depth:
            while True:
                maxb = max(bvec)
                if tight and best is not None:
                    ref = best[depth - 1]
                    if maxb < ref:
                        return
                    tight = maxb == ref
                blocks[depth - 1] = maxb
                if depth == last:
                    order[depth] = rem[0]
                    if best is None or (not tight and blocks > best):
                        best = blocks.copy()
                        best_order = tuple(order)
                        ties.clear()
                    elif tight or blocks == best:
                        ties.append(tuple(order))
                    return
                if bvec.count(maxb) > 1:
                    cands = [i for i, b in enumerate(bvec) if b == maxb]
                    break
                i = bvec.index(maxb)
                v = rem[i]
                order[depth] = v
                mv = masks[v]
                bvec = [(b << 1) | ((mv >> u) & 1) for u, b in zip(rem, bvec)]
                del bvec[i]
                del rem[i]
                remmask &= ~(1 << v)
                depth += 1
        else:
            cands = roots
        # Candidates whose swap is an automorphism (twins) explore
        # identical subtrees: keep one representative per twin group.
        kept: list[int] = []
        for i in cands:
            v = rem[i]
            mv = masks[v]
            others = remmask & ~(1 << v)
            for j in kept:
                u = rem[j]
                if not (masks[u] ^ mv) & others & ~(1 << u):
                    break
            else:
                kept.append(i)
        for i in kept:
            v = rem[i]
            order[depth] = v
            mv = masks[v]
            child = [(b << 1) | ((mv >> u) & 1) for u, b in zip(rem, bvec)]
            del child[i]
            search(depth + 1, rem[:i] + rem[i + 1:], remmask & ~(1 << v), tight, child)

    roots = _root_candidates(masks, n)
    search(0, list(range(n)), (1 << n) - 1, True, [0] * n)
    assert best is not None
    generators = []
    for tie in ties:
        p = [0] * n
        for v, w in zip(best_order, tie):
            p[v] = w
        generators.append(tuple(p))
    for v in range(n):
        for u in range(v):
            if not (masks[u] ^ masks[v]) & ~((1 << u) | (1 << v)):
                p = list(range(n))
                p[u], p[v] = v, u
                generators.append(tuple(p))
                break
    return tuple(best), best_order, generators


def _block_bits(blocks: Sequence[int]) -> int:
    """Blocks joined into one vector: the relabeled graph's graph6 bit order."""
    bits = 0
    for k, b in enumerate(blocks, start=1):
        bits = (bits << k) | b
    return bits


def _pack_form(n: int, blocks: Sequence[int]) -> bytes:
    total_bits = n * (n - 1) // 2
    nbytes = (total_bits + 7) // 8
    bits = _block_bits(blocks) << (nbytes * 8 - total_bits)
    return bytes([n]) + bits.to_bytes(nbytes, "big")


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: equal byte strings iff the graphs are isomorphic.

    Byte 0 is n.  The rest is the canonical relabeling's upper triangle in
    graph6 bit order (column by column), packed eight bits per byte, most
    significant first, zero-padded.  Its hex is the `canonical` column of
    violation rows.
    """
    if g.n > ENUMERATION_CAP:
        raise ValueError(f"canonical form capped at n <= {ENUMERATION_CAP}, got {g.n}")
    return _pack_form(g.n, _canonical_blocks(g.neighbor_masks, g.n)[0])


# ---------------------------------------------------------------------------
# Exhaustive enumeration of isomorphism classes
# ---------------------------------------------------------------------------

def _orbit(mask: int, generators: Sequence[Sequence[int]]) -> set[int]:
    """Orbit of a vertex-set bitmask under the group the permutations generate."""
    orbit = {mask}
    stack = [mask]
    while stack:
        s = stack.pop()
        for p in generators:
            image = 0
            rest = s
            while rest:
                lsb = rest & -rest
                image |= 1 << p[lsb.bit_length() - 1]
                rest ^= lsb
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    return orbit


def _class_cache_dir() -> str:
    """$XDG_CACHE_HOME/specirr/classes, with ~/.cache as the base when the
    variable is unset, empty or relative (the XDG base-directory rules)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "specirr", "classes")


def _sha256(data: bytes) -> str:
    # CPython's own SHA-256 module, imported here and not at the top, so a
    # run that never enumerates loads none.  hashlib would load OpenSSL:
    # about 3.7 MB of resident memory, twice what `search --hong --n 7`
    # uses beyond its imports.
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10, 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


@functools.lru_cache(maxsize=None)
def _class_forms(n: int) -> tuple[str, ...]:
    """Canonical graph6 text of every isomorphism class on n vertices,
    sorted by (edge count, text), stored on disk once it has been checked.

    The level is read from n{n}.g6 in _class_cache_dir() and used only when
    its bytes hash to CLASS_DIGESTS[n]; it then needs none of the levels
    below it.  A missing, unreadable, tampered or stale file is never
    trusted: the level is built by _augment_classes, which may read or build
    the level below, and its bytes must match the same pin.  A matching build
    is stored by writing a file of this process's own and renaming it over
    n{n}.g6, so a reader sees the old file or the whole new one.  A cache
    that cannot be written changes nothing but the cost of the next run.
    To clear the cache, delete the directory.
    """
    path = os.path.join(_class_cache_dir(), f"n{n}.g6")
    try:
        with open(path, "rb") as f:
            stored = f.read()
    except OSError:
        stored = None
    if stored is not None and _sha256(stored) == CLASS_DIGESTS[n]:
        return tuple(stored.decode("ascii").split("\n")[:-1])
    forms = _augment_classes(n)
    data = "".join(text + "\n" for text in forms).encode("ascii")
    if _sha256(data) != CLASS_DIGESTS[n]:
        raise AssertionError(
            f"the {len(forms)} classes built on {n} vertices miss their pinned SHA-256"
        )
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
    return forms


def _augment_classes(n: int) -> tuple[str, ...]:
    """Canonical graph6 text of every isomorphism class on n vertices,
    built from the classes on n - 1 vertices.

    Classes on n vertices grow from the classes on n-1 vertices by canonical
    augmentation (McKay, J. Algorithms 26 (1998) 306-324).  A parent, the
    canonical representative of an (n-1)-class, gets a new vertex top
    joined to a set S of its vertices.  The parent tries one set S per
    orbit of its automorphism group: in itertools.combinations order, a set
    in the orbit of an earlier set is skipped.  The child is kept only if:

    - signature rule: top has the least signature (degree, sorted
      neighbour degrees) among the child's vertices, ties allowed.  It then
      has minimum degree, so |S| <= 1 + the parent's minimum degree and
      only those sets are generated;
    - orbit rule: among the vertices of least signature, let v* be the one
      placed last by the child's canonical order.  top lies in the orbit of
      v* under the child's automorphism group.

    Both groups come from _canonical_blocks, and both rules need all of
    the group, not a subgroup: a missing generator would keep two sets of
    one orbit (a duplicate) or reject a child whose top is equivalent to
    v* (a lost class).

    The generators do generate the whole group.  Let R be the root class and
    M the maximal block string over orders starting in R.  An order reaching
    M places, at each depth, a vertex of the largest block, so it is a leaf
    of the search tree, and any two such leaves differ by an automorphism;
    as R is invariant, the leaves reaching M are exactly the images
    alpha(best_order) for alpha in Aut, one leaf per automorphism.  Tight
    pruning cuts only subtrees below the best so far, so never a leaf
    reaching M, and every reached leaf that ties the final maximum gives a
    generator p with p(best_order) = leaf.  Twin pruning drops a candidate v
    whose twin u (equal blocks and equal adjacency to the unplaced vertices,
    so masks equal outside the pair) is kept at the same node: the dropped
    subtree is the image of u's subtree under the transposition (u v).
    Twinhood is an equivalence relation, so the returned transpositions with
    the least vertex of each twin class generate (u v).  By induction on the
    depth at which a leaf reaching M first leaves the explored tree, each
    such leaf is a product of returned generators applied to a reached one,
    so the group they generate has the same regular orbit of leaves as Aut,
    and equals it.

    No class is lost.  Relabel any n-class G so that its v* is top and G
    minus top is the canonical representative P of its class.  Then G is
    the child of P with S = N(top), and the set sigma(S) tried from S's
    orbit gives a child isomorphic to G by sigma extended with top -> top.
    That child passes both rules, as both are invariant under isomorphism:
    signatures are, and v* is canonical up to automorphism, so an
    isomorphism from G takes top = v* into the orbit of the child's v*.

    No class is produced twice.  A kept child minus top is isomorphic to
    the child minus v*, so every n-class is kept only from the one parent
    class its v* deletion leaves.  If sets S and S' of one parent give
    isomorphic kept children, an isomorphism between them can be composed
    with an automorphism so that it fixes top (both tops lie in the orbit
    of v*); restricted to the parent it is an automorphism mapping S to
    S', so only one of them was tried.

    The result is sorted by (edge count, text), the edge count being the
    bit count of the child's blocks; this is the same order as (edge count,
    canonical_form): both pack one bit vector big-endian with equal padding.
    """
    if n == 1:
        return (_graph6(1, 0),)
    top = n - 1
    children: list[tuple[int, str]] = []  # (edge count, text)
    for parent in _class_forms(top):
        pmasks = parse_graph6(parent).neighbor_masks
        pdegs = [pm.bit_count() for pm in pmasks]
        automorphisms = _canonical_blocks(pmasks, top)[2]
        # bitmasks of the sets tried so far and of their orbits
        covered: set[int] = set()
        for k in range(min(min(pdegs) + 1, top) + 1):
            # the new vertex has the least degree only if S holds every
            # parent vertex of degree below k
            low = sum(1 << v for v in range(top) if pdegs[v] < k)
            for ext in itertools.combinations(range(top), k):
                extmask = sum(1 << i for i in ext)
                if low & ~extmask or extmask in covered:
                    continue
                covered |= _orbit(extmask, automorphisms)
                masks = list(pmasks)
                degs = pdegs + [k]
                for i in ext:
                    masks[i] |= 1 << top
                    degs[i] += 1
                masks.append(extmask)
                sigs = {
                    v: sorted(degs[u] for u in range(n) if (masks[v] >> u) & 1)
                    for v in range(n) if degs[v] == k
                }
                least = sigs[top]
                if any(sig < least for sig in sigs.values()):
                    continue
                blocks, order, generators = _canonical_blocks(masks, n)
                last = max((v for v, sig in sigs.items() if sig == least), key=order.index)
                if 1 << top in _orbit(1 << last, generators):
                    bits = _block_bits(blocks)
                    children.append((bits.bit_count(), _graph6(n, bits)))
    return tuple(text for _, text in sorted(children))


@functools.lru_cache(maxsize=None)
def _class_bits(n: int) -> np.ndarray:
    """The classes of _class_forms(n) as a (classes, n(n-1)/2) uint8 array:
    row k holds the upper-triangle bits of class k (_graph6_bits)."""
    return _graph6_bits(n, _class_forms(n))


@functools.lru_cache(maxsize=None)
def _edge_cells(n: int) -> tuple[int, ...]:
    """The edge-count index of the classes of n: cells[m] is the index of
    the first class with at least m edges, for m = 0..n(n-1)/2 + 1, so
    classes cells[m]..cells[m + 1]-1 are those with m edges (the classes
    are sorted by edge count).  Found once per n, from the bit sums of
    _class_bits(n); enumerate_graphs(n, m) and harness.bell_max_search
    select a cell by it."""
    edges = _class_bits(n).sum(axis=1)
    return tuple(np.searchsorted(edges, np.arange(n * (n - 1) // 2 + 2)).tolist())


# Bounded: adjacency stacks reach any n, and at n = 1 500 the index arrays
# alone take 18 MB.
@functools.lru_cache(maxsize=16)
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (j, i) index pair of the n(n-1)/2 cells i < j in graph6 order,
    by column j, then row i: entry k is the cell at _position k.  Built
    once per n while cached, read-only."""
    j, i = np.tril_indices(n, -1)
    j.flags.writeable = i.flags.writeable = False
    return j, i


@functools.lru_cache(maxsize=16)
def _cells(n: int) -> tuple[tuple[int, int], ...]:
    """The cells of _triangle(n) as (i, j) pairs: cell k is the edge at
    _position k."""
    j, i = _triangle(n)
    return tuple(zip(i.tolist(), j.tolist()))


def _bits_graph(n: int, row: np.ndarray) -> Graph:
    """The Graph of one row of upper-triangle bits in graph6 order: its
    edges are the cells whose bit is set."""
    return Graph(n, frozenset(itertools.compress(_cells(n), row.tolist())))


def _bits_stack(n: int, bits: np.ndarray) -> np.ndarray:
    """(len(bits), n, n) uint8 adjacency matrices of rows of upper-triangle
    bits in graph6 order (_graph6_bits, _class_bits)."""
    j, i = _triangle(n)
    stack = np.zeros((len(bits), n, n), dtype=np.uint8)
    stack[:, i, j] = bits
    stack[:, j, i] = bits
    return stack


def _check_edge_count(n: int, m: int) -> None:
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"edge count {m} out of range for n={n}")


def enumerate_graphs(
    n: int,
    m: int | None = None,
    connected_only: bool = False,
) -> Iterator[Graph]:
    """Yield one representative per isomorphism class on n vertices.

    Each representative is the canonical relabeling, built from its row of
    _class_bits(n), the bits of the stored graph6 text: the classes are
    enumerated once per process, and once per machine while the on-disk
    copy matches its pinned SHA-256.  The stream is deterministic (sorted
    by edge count, then canonical graph6).  Optionally filter by edge count
    and/or connectivity: the classes with m edges are one slice of the
    stored level, found by _edge_cells(n).
    """
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"enumeration capped at 1 <= n <= {ENUMERATION_CAP}, got {n}")
    if m is not None:
        _check_edge_count(n, m)
    cell = slice(None) if m is None else slice(*_edge_cells(n)[m:m + 2])
    for row in _class_bits(n)[cell]:
        g = _bits_graph(n, row)
        if connected_only and not is_connected(g):
            continue
        yield g
