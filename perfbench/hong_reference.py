"""Write hong_n7.csv, the reference table of the hong-n7 workload's checks.

    python3 perfbench/hong_reference.py

Brute force over all 2^21 labelled graphs on 7 vertices, independent of
specirr: for each edge count m, the least epsilon = rho - 2m/n among the
connected non-regular graphs (rho from numpy.linalg.eigvalsh), the degree
gap shared by every graph within 1e-9 of it, and the graph6 string of the
first such labelled graph.  Takes about 20 s.
"""

import numpy as np

from workloads import HONG_N, HONG_REFERENCE, encode_graph6

TIE_TOL = 1e-9
CHUNK = 1 << 15


def minima(n: int) -> dict[int, tuple[float, set[int], str]]:
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    best: dict[int, tuple[float, set[int], str]] = {}
    for start in range(0, 1 << len(pairs), CHUNK):
        bits = (np.arange(start, start + CHUNK)[:, None] >> np.arange(len(pairs))) & 1
        a = np.zeros((CHUNK, n, n))
        for k, (i, j) in enumerate(pairs):
            a[:, i, j] = a[:, j, i] = bits[:, k]
        reach = np.eye(n) + a
        for _ in range(3):  # paths of length up to 8 >= n - 1
            reach = np.minimum(reach @ reach, 1.0)
        degrees = a.sum(axis=2)
        gaps = (degrees.max(axis=1) - degrees.min(axis=1)).astype(int)
        keep = np.flatnonzero((reach > 0).all(axis=(1, 2)) & (gaps > 0))
        edges = bits.sum(axis=1)
        eps = np.linalg.eigvalsh(a[keep])[:, -1] - 2 * edges[keep] / n
        for index, e in zip(keep, eps):
            m, gap = int(edges[index]), int(gaps[index])
            if m not in best or e < best[m][0] - TIE_TOL:
                g6 = encode_graph6(n, {pairs[k] for k in np.flatnonzero(bits[index])})
                best[m] = (float(e), {gap}, g6)
            elif e <= best[m][0] + TIE_TOL:
                best[m][1].add(gap)
    return best


def main() -> None:
    lines = ["m,epsilon,degree_gap,graph6"]
    for m, (eps, gaps, g6) in sorted(minima(HONG_N).items()):
        if len(gaps) != 1:
            raise SystemExit(f"m={m}: minimizers with degree gaps {sorted(gaps)}")
        lines.append(f"{m},{eps:.12f},{gaps.pop()},{g6}")
    HONG_REFERENCE.write_text("\n".join(lines) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
