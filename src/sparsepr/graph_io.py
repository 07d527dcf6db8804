"""Graph and seed-distribution file loading for the command line tools.

Graph files follow one grammar.  A line ends at '\\n' and may end in '\\r'
just before it.  Fields are separated by spaces or tabs, and every integer
(node id, node count, dimension) is ASCII ``-?[0-9]+``.  A line whose first
non-blank byte is a comment mark (``#`` or ``%`` in an edge list, ``%`` in
MatrixMarket) is a comment, and may hold any bytes; a line of blanks is
skipped.  Every other line after the header is a data line of exactly two
ids.  Ids of 19 or more bytes are checked exactly against int64.

Data lines are read by one vectorised pass over the file's bytes; Python
touches only comment lines and MatrixMarket's banner and dimension lines.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .problem import EdgeError, Graph

__all__ = ["GraphFormatError", "load_graph", "load_distribution"]

FORMATS = ("edgelist", "matrixmarket")


class GraphFormatError(ValueError):
    """Malformed graph or distribution file (message carries line numbers)."""


_INT = re.compile(r"-?[0-9]+")


def _text(line):
    """A line's bytes as text: its final '\\r' dropped, undecodable bytes
    shown as backslash escapes."""
    if line.endswith(b"\r"):
        line = line[:-1]
    return line.decode("utf-8", "backslashreplace")


def _ints(text):
    """The integers of ``text``, or None unless every blank-separated field
    is ASCII ``-?[0-9]+``."""
    fields = re.split(r"[ \t]+", text.strip(" \t"))
    if not all(_INT.fullmatch(f) for f in fields):
        return None
    return [int(f) for f in fields]


def _read_data_lines(data, start, lineno, marks, base):
    """Read the data lines of ``data[start:]``, whose first line is line
    ``lineno`` of the file.

    Returns (pairs, at, notes, bad): the (m, 2) int64 ids minus ``base`` in
    file order, the line number of each pair, the (line number, bytes) of
    each comment line (its first non-blank byte is in ``marks``), and the
    (line number, text) of the first malformed data line, or None.
    """
    a = np.frombuffer(data, dtype=np.uint8, offset=start)
    size = a.size
    ends = np.flatnonzero(a == ord("\n"))  # line k ends at ends[k]

    def span(k):
        return (int(ends[k - 1]) + 1 if k else 0,
                int(ends[k]) if k < ends.size else size)

    # comment lines, blanked out so that only data lines are left
    notes = []
    is_mark = a == marks[0]
    for mark in marks[1:]:
        is_mark |= a == mark
    found = np.flatnonzero(is_mark)
    del is_mark
    if found.size:
        lines, first = np.unique(np.searchsorted(ends, found), return_index=True)
        a = a.copy()
        for k, pos in zip(lines.tolist(), found[first].tolist()):
            s, e = span(k)
            if not data[start + s:start + pos].strip(b" \t"):
                notes.append((lineno + k, data[start + s:start + e]))
                a[s:e] = ord(" ")

    faults = []  # byte offsets of faults, the first of each kind
    digit = (a - ord("0")) < 10  # uint8 arithmetic wraps the bytes below '0'
    token = digit | (a == ord("-"))
    known = token | (a == ord(" ")) | (a == ord("\t")) | (a == ord("\r"))
    known |= a == ord("\n")
    if not known.all():
        faults.append(int(np.argmin(known)))
    del known
    # a '\r' anywhere but just before a line end
    cr = np.flatnonzero(a[:-1] == ord("\r"))
    cr = cr[a[cr + 1] != ord("\n")]
    faults.extend(cr[:1].tolist())
    # a '-' that does not start a token, or has no digit after it
    minus = np.flatnonzero(a == ord("-"))
    inside = token[np.maximum(minus - 1, 0)] & (minus > 0)
    bare = ~digit[np.minimum(minus + 1, size - 1)] | (minus == size - 1)
    faults.extend(minus[inside | bare][:1].tolist())
    del digit
    # tokens begin and end where the token mask flips
    bounds = np.flatnonzero(np.diff(token, prepend=False, append=False))
    del token
    starts, stops = bounds[0::2], bounds[1::2]
    # tokens per line: a data line holds two, a blank line none
    counts = np.diff(np.searchsorted(starts, ends), prepend=0,
                     append=starts.size)
    wrong = (counts != 0) & (counts != 2)
    if wrong.any():
        k = int(np.argmax(wrong))
        faults.append(span(k)[0])
    # ids of 19 or more bytes are checked exactly against int64
    exact = {}
    for k in np.flatnonzero(stops - starts >= 19).tolist():
        try:
            value = int(data[start + starts[k]:start + stops[k]]) - base
        except ValueError:
            value = None
        if value is None or not -2**63 <= value < 2**63:
            faults.append(int(starts[k]))
        else:
            exact[k] = value
    if faults:
        k = int(np.searchsorted(ends, min(faults)))
        s, e = span(k)
        return None, None, notes, (lineno + k,
                                   _text(data[start + s:start + e]).strip())
    del bounds, starts, stops, ends
    at = np.flatnonzero(counts) + lineno
    del counts
    if at.size:
        # as bytes: the number parser reads on to the NUL that ends a
        # bytes object, and an array has none
        ids = np.fromstring(a.tobytes(), dtype=np.int64, sep=" ")
        if ids.size != 2 * at.size:
            raise GraphFormatError("could not read the ids of %d pairs" % at.size)
    else:  # fromstring reads a text of blanks as one 0
        ids = np.empty(0, dtype=np.int64)
    ids -= base
    for k, value in exact.items():
        ids[k] = value
    return ids.reshape(-1, 2), at, notes, None


def _parse_edgelist(data):
    """Return (n, edges, at, top): the node count, the (m, 2) int64 id pairs
    in file order, the line number of each pair, and the index of the pair
    whose largest id set n (None when a header declared n)."""
    edges, at, notes, bad = _read_data_lines(data, 0, 1, b"#%", 0)
    declared_n = None
    for lineno, line in notes:
        if bad is not None and bad[0] < lineno:
            break
        body = _text(line).strip(" \t").lstrip("#%").strip(" \t")
        if body.lower().startswith("nodes:"):
            count = _ints(body[len("nodes:"):])
            if count is None or len(count) != 1:
                raise GraphFormatError(
                    "line %d: malformed node-count header" % lineno)
            declared_n = count[0]
    if bad is not None:
        raise GraphFormatError(
            "line %d: expected two node ids, got %r" % bad)
    if not at.size:
        raise GraphFormatError("no edges found")
    top = int(np.argmax(edges)) // 2
    n = int(edges[top].max()) + 1
    if declared_n is None:
        return n, edges, at, top
    if declared_n < n:
        raise GraphFormatError(
            "declared node count %d is below the largest id %d"
            % (declared_n, n - 1))
    return declared_n, edges, at, None


def _header_lines(data):
    """Yield (line number, text, offset of the next line) for each line."""
    lineno, pos = 0, 0
    while pos < len(data):
        end = data.find(b"\n", pos)
        end = len(data) if end < 0 else end
        lineno += 1
        yield lineno, _text(data[pos:end]), min(end + 1, len(data))
        pos = end + 1


def _parse_matrixmarket(data):
    if not data:
        raise GraphFormatError("empty file")
    lines = _header_lines(data)
    fields = next(lines)[1].strip().lower().split()
    if (len(fields) < 5 or fields[0] != "%%matrixmarket"
            or fields[1] != "matrix" or fields[2] != "coordinate"
            or fields[3] != "pattern" or fields[4] != "symmetric"):
        raise GraphFormatError(
            "line 1: expected '%%MatrixMarket matrix coordinate pattern symmetric'")
    for lineno, line, pos in lines:
        body = line.strip(" \t")
        if not body or body.startswith("%"):
            continue
        dims = _ints(body)
        if dims is None or len(dims) != 3:
            raise GraphFormatError("line %d: expected 'rows cols nnz'" % lineno)
        n, cols, nnz = dims
        if n != cols:
            raise GraphFormatError("line %d: adjacency must be square" % lineno)
        break
    else:
        raise GraphFormatError("missing dimension line")
    edges, at, _, bad = _read_data_lines(data, pos, lineno + 1, b"%", 1)
    if bad is not None:
        raise GraphFormatError("line %d: expected two 1-based ids" % bad[0])
    if at.size != nnz:
        raise GraphFormatError(
            "entry count %d does not match declared nnz %d" % (at.size, nnz))
    return n, edges, at, None


# What an out-of-range endpoint means in each format: the edge list sizes
# the graph from its largest id, so only a negative id can fall outside.
RANGE_FAULT = {"edgelist": "negative node id",
               "matrixmarket": "id out of declared range"}


def load_graph(path, fmt="edgelist"):
    """Load an undirected graph.

    edgelist: one '<i> <j>' pair per line, 0-indexed; '#'/'%' start comments;
    an optional '# nodes: N' header declares isolated-free node count above
    the largest id.  matrixmarket: coordinate pattern symmetric, 1-indexed,
    '%' starts comments.  Both follow the module's grammar: ids are ASCII
    ``-?[0-9]+`` separated by spaces or tabs, and a line may end in '\\r'.
    The first malformed line in file order is reported.  The parsers only
    read ids; the :class:`Graph` constructor checks the edges and
    connectivity, and its first invalid pair is reported here with its line
    number.  An isolated node in a header-less edge list is reported at the
    line of the largest id, which set the node count.
    """
    if fmt not in FORMATS:
        raise GraphFormatError("unknown format %r (choose from %s)"
                               % (fmt, ", ".join(FORMATS)))
    parse = _parse_edgelist if fmt == "edgelist" else _parse_matrixmarket
    with open(path, "rb") as fh:
        data = fh.read()
    n, edges, at, top = parse(data)
    del data
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
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            # an undecodable byte reads as a backslash escape, which is no
            # number, so its line is reported as malformed
            line = raw.decode("utf-8", "backslashreplace").strip()
            if not line or line.startswith("#") or line.startswith("%"):
                continue
            try:
                node, w = line.split()
                node, w = int(node), float(w)
            except ValueError:
                raise GraphFormatError(
                    "line %d: expected '<node> <weight>', got %r" % (lineno, line))
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
