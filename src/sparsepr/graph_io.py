"""Graph and seed-distribution file loading for the command line tools."""

from __future__ import annotations

import math

import numpy as np

from .problem import Graph

__all__ = ["GraphFormatError", "load_graph", "load_distribution"]

FORMATS = ("edgelist", "matrixmarket")


class GraphFormatError(ValueError):
    """Malformed graph or distribution file (message carries line numbers)."""


def _add_edge(seen, lineno, i, j):
    """Record the undirected edge (i, j) read at line ``lineno`` in ``seen``
    (edge -> first line, in file order), rejecting self-loops and repeats."""
    if i == j:
        raise GraphFormatError("line %d: self-loop at node %d" % (lineno, i))
    key = (min(i, j), max(i, j))
    if key in seen:
        raise GraphFormatError(
            "line %d: duplicate edge (%d, %d), first seen at line %d"
            % (lineno, key[0], key[1], seen[key]))
    seen[key] = lineno


def _parse_edgelist(lines):
    seen = {}
    declared_n = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#") or line.startswith("%"):
            body = line.lstrip("#%").strip()
            if body.lower().startswith("nodes:"):
                try:
                    declared_n = int(body.split(":", 1)[1])
                except ValueError:
                    raise GraphFormatError(
                        "line %d: malformed node-count header" % lineno)
            continue
        try:
            i, j = map(int, line.split())
        except ValueError:
            raise GraphFormatError(
                "line %d: expected two node ids, got %r" % (lineno, line))
        if i < 0 or j < 0:
            raise GraphFormatError("line %d: negative node id" % lineno)
        _add_edge(seen, lineno, i, j)
    if not seen:
        raise GraphFormatError("no edges found")
    edges = list(seen)
    max_id = max(j for _, j in edges)
    n = max_id + 1
    if declared_n is not None:
        if declared_n < n:
            raise GraphFormatError(
                "declared node count %d is below the largest id %d"
                % (declared_n, max_id))
        n = declared_n
    return n, edges


def _parse_matrixmarket(lines):
    it = iter(enumerate(lines, start=1))
    try:
        lineno, header = next(it)
    except StopIteration:
        raise GraphFormatError("empty file")
    fields = header.strip().lower().split()
    if (len(fields) < 5 or fields[0] != "%%matrixmarket"
            or fields[1] != "matrix" or fields[2] != "coordinate"
            or fields[3] != "pattern" or fields[4] != "symmetric"):
        raise GraphFormatError(
            "line 1: expected '%%MatrixMarket matrix coordinate pattern symmetric'")
    dims = None
    for lineno, raw in it:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        try:
            rows, cols, nnz = map(int, line.split())
        except ValueError:
            raise GraphFormatError("line %d: expected 'rows cols nnz'" % lineno)
        if rows != cols:
            raise GraphFormatError("line %d: adjacency must be square" % lineno)
        dims = (rows, nnz)
        break
    if dims is None:
        raise GraphFormatError("missing dimension line")
    n, nnz = dims
    seen = {}
    for lineno, raw in it:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        try:
            i, j = map(int, line.split())
        except ValueError:
            raise GraphFormatError("line %d: expected two 1-based ids" % lineno)
        i, j = i - 1, j - 1
        if not (0 <= i < n and 0 <= j < n):
            raise GraphFormatError("line %d: id out of declared range" % lineno)
        _add_edge(seen, lineno, i, j)
    if len(seen) != nnz:
        raise GraphFormatError(
            "entry count %d does not match declared nnz %d" % (len(seen), nnz))
    return n, list(seen)


def load_graph(path, fmt="edgelist"):
    """Load an undirected graph.

    edgelist: one '<i> <j>' pair per line, 0-indexed; '#'/'%' start comments;
    an optional '# nodes: N' header declares isolated-free node count above
    the largest id.  matrixmarket: coordinate pattern symmetric, 1-indexed.
    Self-loops and duplicate edges are rejected with their line numbers;
    connectivity is enforced by the Graph constructor.
    """
    if fmt not in FORMATS:
        raise GraphFormatError("unknown format %r (choose from %s)"
                               % (fmt, ", ".join(FORMATS)))
    with open(path) as fh:
        lines = fh.readlines()
    if fmt == "edgelist":
        n, edges = _parse_edgelist(lines)
    else:
        n, edges = _parse_matrixmarket(lines)
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc))


def load_distribution(path, n):
    """Load '<node> <weight>' lines into a seed distribution of length n.

    Weights must be nonnegative and sum to 1 within 1e-6; the vector is then
    renormalized exactly.
    """
    s = np.zeros(n)
    seen = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("%"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(
                    "line %d: expected '<node> <weight>'" % lineno)
            try:
                node = int(parts[0])
                w = float(parts[1])
            except ValueError:
                raise GraphFormatError(
                    "line %d: expected '<node> <weight>'" % lineno)
            if not 0 <= node < n:
                raise GraphFormatError("line %d: node %d out of range" % (lineno, node))
            if not math.isfinite(w):
                raise GraphFormatError("line %d: non-finite weight" % lineno)
            if w < 0:
                raise GraphFormatError("line %d: negative weight" % lineno)
            if node in seen:
                raise GraphFormatError("line %d: node %d repeated" % (lineno, node))
            seen.add(node)
            s[node] = w
    total = s.sum()
    if abs(total - 1.0) > 1e-6:
        raise GraphFormatError(
            "weights sum to %.9g, not 1 within 1e-6" % total)
    return s / total
