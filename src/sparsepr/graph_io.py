"""Graph and seed-distribution file loading for the command line tools."""

from __future__ import annotations

import math
from array import array

import numpy as np

from .problem import EdgeError, Graph

__all__ = ["GraphFormatError", "load_graph", "load_distribution"]

FORMATS = ("edgelist", "matrixmarket")


class GraphFormatError(ValueError):
    """Malformed graph or distribution file (message carries line numbers)."""


def _parse_edgelist(lines):
    """Return (n, edges, at, top): the node count, the (m, 2) int64 id pairs
    in file order, the line number of each pair, and the index of the pair
    whose largest id set n (None when a header declared n)."""
    ids, at = array("q"), array("q")
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
            ids.extend((i, j))
        except (ValueError, OverflowError):
            raise GraphFormatError(
                "line %d: expected two node ids, got %r" % (lineno, line))
        at.append(lineno)
    if not at:
        raise GraphFormatError("no edges found")
    edges = np.frombuffer(ids, dtype=np.int64).reshape(-1, 2)
    top = int(np.argmax(edges)) // 2
    n = int(edges[top].max()) + 1
    if declared_n is None:
        return n, edges, at, top
    if declared_n < n:
        raise GraphFormatError(
            "declared node count %d is below the largest id %d"
            % (declared_n, n - 1))
    return declared_n, edges, at, None


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
    for lineno, raw in it:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        try:
            n, cols, nnz = map(int, line.split())
        except ValueError:
            raise GraphFormatError("line %d: expected 'rows cols nnz'" % lineno)
        if n != cols:
            raise GraphFormatError("line %d: adjacency must be square" % lineno)
        break
    else:
        raise GraphFormatError("missing dimension line")
    ids, at = array("q"), array("q")
    for lineno, raw in it:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        try:
            i, j = map(int, line.split())
            ids.extend((i - 1, j - 1))
        except (ValueError, OverflowError):
            raise GraphFormatError("line %d: expected two 1-based ids" % lineno)
        at.append(lineno)
    if len(at) != nnz:
        raise GraphFormatError(
            "entry count %d does not match declared nnz %d" % (len(at), nnz))
    return n, np.frombuffer(ids, dtype=np.int64).reshape(-1, 2), at, None


# What an out-of-range endpoint means in each format: the edge list sizes
# the graph from its largest id, so only a negative id can fall outside.
RANGE_FAULT = {"edgelist": "negative node id",
               "matrixmarket": "id out of declared range"}


def load_graph(path, fmt="edgelist"):
    """Load an undirected graph.

    edgelist: one '<i> <j>' pair per line, 0-indexed; '#'/'%' start comments;
    an optional '# nodes: N' header declares isolated-free node count above
    the largest id.  matrixmarket: coordinate pattern symmetric, 1-indexed.
    The parsers only read ids; the :class:`Graph` constructor checks the
    edges and connectivity, and its first invalid pair is reported here
    with its line number.  An isolated node in a header-less edge list is
    reported at the line of the largest id, which set the node count.
    """
    if fmt not in FORMATS:
        raise GraphFormatError("unknown format %r (choose from %s)"
                               % (fmt, ", ".join(FORMATS)))
    parse = _parse_edgelist if fmt == "edgelist" else _parse_matrixmarket
    with open(path) as fh:
        n, edges, at, top = parse(fh)
    try:
        return Graph(n, edges)
    except EdgeError as exc:
        text = RANGE_FAULT[fmt] if exc.kind == "range" else str(exc)
        if exc.first is not None:
            text += ", first seen at line %d" % at[exc.first]
        raise GraphFormatError("line %d: %s" % (at[exc.position], text))
    except ValueError as exc:
        text = str(exc)
        if top is not None and text.startswith("isolated node"):
            text = "line %d: largest id %d sets the node count; %s" % (
                at[top], n - 1, text)
        raise GraphFormatError(text)


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
