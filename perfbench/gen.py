"""Deterministic inputs for the two benchmark workloads.

Everything here is a function of the workload name and the workload seed.
The files are written under ``perfbench/.cache`` (ignored by git) and are
rebuilt whenever they are missing; the benchmark hands only these files and
the seed nodes to ``sparsepr``.  The benchmark's reference solver takes its
edge arrays from ``grid_edges`` and ``community_edges`` directly, never from
the program's parse.

    python3 perfbench/gen.py --workload wide-support --seed 3

prints the directory that holds the generated inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from pathlib import Path

import numpy as np

CACHE = Path(__file__).resolve().parent / ".cache"
VERSION = 1  # bump when any generated byte changes

# local-query: point seeds on a large grid; supports stay at 45 nodes
GRID_SIDE = 700
SMALL_SIDE = 100
LOCAL_ALPHA = 0.1
LOCAL_RHO = 1e-3
LOCAL_QUERIES = 16
LOCAL_OFFSET = 40  # seeds sit within this many rows/cols of the centre

# wide-support: communities with heavy-tailed degrees, supports of hundreds
COMMUNITIES = 20
BLOCK = 500
WIDE_ALPHA = 0.01
WIDE_RHO = 2e-4
WIDE_QUERIES = 64  # more than the rounds of one run, so no query repeats
SEED_WEIGHTS = (0.5, 0.3, 0.2)

WORKLOADS = ("local-query", "wide-support")


def grid_edges(side):
    """Edges of a side-by-side 4-neighbour grid, node id = row*side + col."""
    idx = np.arange(side * side, dtype=np.int64).reshape(side, side)
    horizontal = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    vertical = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    return np.concatenate([horizontal, vertical])


def community_edges():
    """A connected graph of COMMUNITIES blocks of BLOCK nodes.

    Chung-Lu edges inside each block and across the graph, with Pareto node
    weights (degrees from 2 to a few hundred), plus one random Hamiltonian
    cycle so that every node has degree >= 2 and the graph is connected.
    Returns (n, edges) with each undirected edge once, as (low, high).  The
    graph is the same for every workload seed, as the grid is: the seed only
    picks the queries, so runs with different seeds do comparable work.
    """
    rng = np.random.default_rng([VERSION, 2])
    n = COMMUNITIES * BLOCK
    weight = rng.pareto(2.5, n) + 1.0
    parts = []
    for c in range(COMMUNITIES):
        nodes = np.arange(c * BLOCK, (c + 1) * BLOCK)
        p = weight[nodes] / weight[nodes].sum()
        parts.append(np.stack([rng.choice(nodes, 4 * BLOCK, p=p),
                               rng.choice(nodes, 4 * BLOCK, p=p)], axis=1))
    p = weight / weight.sum()
    m = int(0.4 * n)
    parts.append(np.stack([rng.choice(n, m, p=p), rng.choice(n, m, p=p)], axis=1))
    cycle = rng.permutation(n)
    parts.append(np.stack([cycle, np.roll(cycle, 1)], axis=1))
    e = np.concatenate(parts)
    e = np.sort(e[e[:, 0] != e[:, 1]], axis=1)
    return n, np.unique(e, axis=0)


def _write_lines(path, lines):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _write_edgelist(path, edges):
    _write_lines(path, ("%d %d" % (i, j) for i, j in edges.tolist()))


def _write_matrixmarket(path, n, edges):
    head = ["%%MatrixMarket matrix coordinate pattern symmetric",
            "%d %d %d" % (n, n, len(edges))]
    body = ("%d %d" % (j + 1, i + 1) for i, j in edges.tolist())
    _write_lines(path, [*head, *body])


def _write_dist(path, nodes, weights):
    _write_lines(path, ("%d %r" % (v, w) for v, w in zip(nodes, weights)))


def local_queries(seed):
    """Seed offsets (drow, dcol) from the grid centre, distinct, in order."""
    rng = np.random.default_rng([VERSION, seed, 1])
    span = 2 * LOCAL_OFFSET + 1
    cells = rng.choice(span * span, LOCAL_QUERIES, replace=False)
    return [(int(c // span) - LOCAL_OFFSET, int(c % span) - LOCAL_OFFSET)
            for c in cells]


def grid_node(side, offset):
    r, c = side // 2 + offset[0], side // 2 + offset[1]
    return r * side + c


def wide_queries(seed):
    """Seed node triples, each inside one community, in order."""
    rng = np.random.default_rng([VERSION, seed, 3])
    out = []
    for _ in range(WIDE_QUERIES):
        c = int(rng.integers(COMMUNITIES))
        nodes = rng.choice(np.arange(c * BLOCK, (c + 1) * BLOCK), 3, replace=False)
        out.append([int(v) for v in nodes])
    return out


def _shared_file(path, write):
    """A file that every seed of a workload shares; ``write(tmp)`` makes it."""
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp%d" % os.getpid())
        write(tmp)
        os.replace(tmp, path)
    return path


def _build(workload, seed, out):
    """Write one workload's files into the empty directory ``out``."""
    shared = CACHE / ("graphs-v%d" % VERSION)
    if workload == "local-query":
        path = _shared_file(shared / ("grid%d.txt" % GRID_SIDE),
                            lambda tmp: _write_edgelist(tmp, grid_edges(GRID_SIDE)))
        queries = []
        for k, off in enumerate(local_queries(seed)):
            node = grid_node(GRID_SIDE, off)
            _write_dist(out / ("dist-%d.txt" % k), [node], [1.0])
            queries.append({"offset": list(off), "seed_node": node,
                            "small_seed_node": grid_node(SMALL_SIDE, off),
                            "dist": "dist-%d.txt" % k})
        manifest = {"format": "edgelist", "alpha": LOCAL_ALPHA, "rho": LOCAL_RHO}
    else:
        path = _shared_file(shared / "communities.mtx",
                            lambda tmp: _write_matrixmarket(tmp, *community_edges()))
        queries = []
        for k, nodes in enumerate(wide_queries(seed)):
            _write_dist(out / ("dist-%d.txt" % k), nodes, SEED_WEIGHTS)
            queries.append({"seed_nodes": nodes, "weights": list(SEED_WEIGHTS),
                            "dist": "dist-%d.txt" % k})
        manifest = {"format": "matrixmarket", "alpha": WIDE_ALPHA, "rho": WIDE_RHO}
    manifest["graph"] = str(Path("..", "..", shared.name, path.name))
    manifest.update(workload=workload, seed=seed, version=VERSION,
                    queries=queries)
    with open(out / "manifest.json", "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=1)


def generate(workload, seed):
    """Return the manifest of (workload, seed), writing its files if missing.

    File names in the manifest are resolved to absolute paths.  Files are
    put in place by rename, so an interrupted run leaves no half-written
    input behind.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    final = CACHE / ("%s-v%d" % (workload, VERSION)) / ("seed-%d" % seed)
    if not (final / "manifest.json").exists():
        tmp = final.with_name(final.name + ".tmp%d" % os.getpid())
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        _build(workload, seed, tmp)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    with open(final / "manifest.json", encoding="ascii") as fh:
        manifest = json.load(fh)
    manifest["graph"] = str((final / manifest["graph"]).resolve())
    for query in manifest["queries"]:
        query["dist"] = str(final / query["dist"])
    manifest["dir"] = str(final)
    return manifest


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    print(generate(args.workload, args.seed)["dir"])


if __name__ == "__main__":
    main()
