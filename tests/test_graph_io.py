"""Edge-list and MatrixMarket parsing, seed-distribution loading."""

import re
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsepr import Graph, random_graph_instance
from sparsepr import graph_io
from sparsepr.graph_io import GraphFormatError, load_distribution, load_graph
from sparsepr.oracle import GRAPH_KINDS


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def write_bytes(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data)
    return str(p)


class TestEdgelist:
    def test_two_node_path(self, tmp_path):
        g = load_graph(write(tmp_path, "g.txt", "0 1\n"))
        assert g.n == 2 and g.num_edges == 1

    def test_triangle_with_comments(self, tmp_path):
        text = "# a triangle\n0 1\n1 2\n% percent comments too\n2 0\n"
        g = load_graph(write(tmp_path, "g.txt", text))
        assert g.n == 3 and g.num_edges == 3
        assert sorted(g.degrees) == [2, 2, 2]

    def test_node_count_header(self, tmp_path):
        g = load_graph(write(tmp_path, "g.txt", "# nodes: 3\n0 1\n1 2\n"))
        assert g.n == 3

    def test_node_count_header_too_small(self, tmp_path):
        with pytest.raises(GraphFormatError, match="below the largest id"):
            load_graph(write(tmp_path, "g.txt", "# nodes: 2\n0 1\n1 2\n"))

    def test_self_loop_reports_line(self, tmp_path):
        with pytest.raises(GraphFormatError, match="line 1: self-loop"):
            load_graph(write(tmp_path, "g.txt", "0 0\n"))

    def test_duplicate_edge_reports_both_lines(self, tmp_path):
        with pytest.raises(GraphFormatError,
                           match=r"line 3: duplicate edge \(0, 1\), first seen at line 1"):
            load_graph(write(tmp_path, "g.txt", "0 1\n1 2\n1 0\n"))

    def test_malformed_line_reports_position(self, tmp_path):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(write(tmp_path, "g.txt", "0 1\n1 two\n"))

    def test_negative_id_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="negative node id"):
            load_graph(write(tmp_path, "g.txt", "0 -1\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="no edges"):
            load_graph(write(tmp_path, "g.txt", "# just a comment\n"))

    def test_disconnected_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="connected"):
            load_graph(write(tmp_path, "g.txt", "0 1\n2 3\n"))

    def test_undecodable_byte_is_a_malformed_line(self, tmp_path):
        with pytest.raises(GraphFormatError,
                           match=r"^line 2: expected two node ids, got '1 \\\\xff'$"):
            load_graph(write_bytes(tmp_path, "g.txt", b"0 1\n1 \xff\n"))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="unknown format"):
            load_graph(write(tmp_path, "g.txt", "0 1\n"), fmt="json")


class TestMatrixMarket:
    HEADER = "%%MatrixMarket matrix coordinate pattern symmetric\n"

    def test_path_graph(self, tmp_path):
        text = self.HEADER + "% comment\n3 3 2\n1 2\n2 3\n"
        g = load_graph(write(tmp_path, "g.mtx", text), fmt="matrixmarket")
        assert g.n == 3 and g.num_edges == 2
        assert list(g.degrees) == [1, 2, 1]

    def test_wrong_header_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="line 1"):
            load_graph(write(tmp_path, "g.mtx",
                             "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n"),
                       fmt="matrixmarket")

    def test_nnz_mismatch_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="does not match declared nnz"):
            load_graph(write(tmp_path, "g.mtx", self.HEADER + "3 3 3\n1 2\n2 3\n"),
                       fmt="matrixmarket")

    def test_out_of_range_id_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="out of declared range"):
            load_graph(write(tmp_path, "g.mtx", self.HEADER + "2 2 1\n1 5\n"),
                       fmt="matrixmarket")

    def test_non_integer_dimension_reports_line(self, tmp_path):
        with pytest.raises(GraphFormatError,
                           match="^line 2: expected 'rows cols nnz'$"):
            load_graph(write(tmp_path, "g.mtx", self.HEADER + "3 3 x\n1 2\n"),
                       fmt="matrixmarket")

    def test_non_integer_entry_reports_line(self, tmp_path):
        with pytest.raises(GraphFormatError,
                           match="^line 4: expected two 1-based ids$"):
            load_graph(write(tmp_path, "g.mtx",
                             self.HEADER + "3 3 2\n1 2\n2 y\n"),
                       fmt="matrixmarket")

    def test_undecodable_byte_is_a_malformed_line(self, tmp_path):
        text = self.HEADER.encode() + b"3 3 2\n1 2\n2 \xff\n"
        with pytest.raises(GraphFormatError,
                           match="^line 4: expected two 1-based ids$"):
            load_graph(write_bytes(tmp_path, "g.mtx", text), fmt="matrixmarket")

    def test_one_indexing_converted(self, tmp_path):
        text = self.HEADER + "2 2 1\n1 2\n"
        g = load_graph(write(tmp_path, "g.mtx", text), fmt="matrixmarket")
        assert sorted(map(tuple, np.asarray(g.edges).tolist())) == [(0, 1)]


class TestDistribution:
    def test_loads_and_renormalizes(self, tmp_path):
        p = write(tmp_path, "d.txt", "0 0.25\n2 0.75\n")
        s = load_distribution(p, 3)
        assert np.allclose(s, [0.25, 0.0, 0.75])
        assert s.sum() == 1.0

    def test_off_simplex_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="sum"):
            load_distribution(write(tmp_path, "d.txt", "0 0.5\n1 0.4\n"), 2)

    def test_near_simplex_accepted(self, tmp_path):
        p = write(tmp_path, "d.txt", "0 0.5000001\n1 0.5\n")
        s = load_distribution(p, 2)
        assert abs(s.sum() - 1.0) <= 1e-15

    def test_negative_weight_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="negative weight"):
            load_distribution(write(tmp_path, "d.txt", "0 -0.5\n1 1.5\n"), 2)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        with pytest.raises(GraphFormatError, match="line 2: non-finite weight"):
            load_distribution(
                write(tmp_path, "d.txt", "1 0.5\n0 %s\n" % weight), 2)

    def test_repeated_node_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="repeated"):
            load_distribution(write(tmp_path, "d.txt", "0 0.5\n0 0.5\n"), 2)

    def test_repeated_node_after_zero_weight_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="line 2: node 0 repeated"):
            load_distribution(write(tmp_path, "d.txt", "0 0\n0 1\n"), 3)

    def test_out_of_range_node_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="out of range"):
            load_distribution(write(tmp_path, "d.txt", "5 1.0\n"), 2)

    def test_malformed_line_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="line 1"):
            load_distribution(write(tmp_path, "d.txt", "0 0.5 extra\n"), 2)

    def test_undecodable_byte_is_a_malformed_line(self, tmp_path):
        with pytest.raises(GraphFormatError,
                           match=r"^line 2: expected '<node> <weight>', "
                                 r"got '1 0.\\\\xff5'$"):
            load_distribution(
                write_bytes(tmp_path, "d.txt", b"0 0.5\n1 0.\xff5\n"), 2)


@pytest.mark.parametrize("fmt, text", [
    ("edgelist", "# nodes: 3000000\n0 1\n"),
    ("matrixmarket", TestMatrixMarket.HEADER + "3000000 3000000 1\n1 2\n"),
], ids=["edgelist", "matrixmarket"])
def test_declared_node_count_does_not_drive_memory(tmp_path, fmt, text):
    path = write(tmp_path, "g.txt", text)
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError, match="isolated node 2 "):
            load_graph(path, fmt=fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


MM = TestMatrixMarket.HEADER

# One fault per file, each after comment and blank lines, so the reported
# line number differs from the faulty pair's row among the edges.
SINGLE_FAULTS = [
    ("edgelist", "0 1\n\n# c\n1 two\n",
     "line 4: expected two node ids, got '1 two'"),
    ("edgelist", "0 1\n# c\n\n1 2 3\n",
     "line 4: expected two node ids, got '1 2 3'"),
    ("edgelist", "# c\n\n# nodes: x\n0 1\n",
     "line 3: malformed node-count header"),
    ("edgelist", "# nodes: 2\n0 1\n# c\n\n1 2\n",
     "declared node count 2 is below the largest id 2"),
    ("edgelist", "0 1\n# c\n\n1 -2\n",
     "line 4: negative node id"),
    ("edgelist", "0 1\n# c\n\n1 1\n1 2\n",
     "line 4: self-loop at node 1"),
    ("edgelist", "0 1\n1 2\n# c\n\n2 1\n",
     "line 5: duplicate edge (1, 2), first seen at line 2"),
    # without a header the largest id sets n, so its line is named
    ("edgelist", "0 1\n# c\n\n1 9000000000000000000\n",
     "line 4: largest id 9000000000000000000 sets the node count; "
     "isolated node 2 (every node needs degree >= 1)"),
    ("edgelist", "0 1\n# c\n\n1 4\n0 4\n4 3\n",
     "line 4: largest id 4 sets the node count; "
     "isolated node 2 (every node needs degree >= 1)"),
    ("matrixmarket", MM + "% c\n3 3 2\n1 2\n% c\n\n0 3\n",
     "line 7: id out of declared range"),
    ("matrixmarket", MM + "% c\n3 3 2\n1 2\n% c\n\n2 4\n",
     "line 7: id out of declared range"),
    ("matrixmarket", MM + "% c\n3 3 2\n1 2\n% c\n\n2 y\n",
     "line 7: expected two 1-based ids"),
    ("matrixmarket", MM + "% c\n3 3 3\n1 2\n% c\n\n2 2\n2 3\n",
     "line 7: self-loop at node 1"),
    ("matrixmarket", MM + "% c\n3 3 3\n1 2\n2 3\n% c\n\n2 1\n",
     "line 8: duplicate edge (0, 1), first seen at line 4"),
    ("matrixmarket", MM + "% c\n3 3 3\n1 2\n% c\n\n2 3\n",
     "entry count 2 does not match declared nnz 3"),
]


# Ids are ASCII -?[0-9]+ separated by spaces or tabs; Python's int() and
# str.split() would take each of these lines.
GRAMMAR_FAULTS = [
    ("edgelist", "0 1\n1 +2\n", "line 2: expected two node ids, got '1 +2'"),
    ("edgelist", "0 1\n1 2_0\n", "line 2: expected two node ids, got '1 2_0'"),
    ("edgelist", "0 1\n1 \uff12\n",
     "line 2: expected two node ids, got '1 \uff12'"),
    ("edgelist", "0 1\n1\x0c2\n", "line 2: expected two node ids, got '1\\x0c2'"),
    ("matrixmarket", MM + "3 3 2\n1 2\n1 +2\n", "line 4: expected two 1-based ids"),
    ("matrixmarket", MM + "3 3 2\n1 2\n1 2_0\n", "line 4: expected two 1-based ids"),
    ("matrixmarket", MM + "3 3 2\n1 2\n1 \uff12\n",
     "line 4: expected two 1-based ids"),
]


@pytest.mark.parametrize("fmt, text, message", SINGLE_FAULTS + GRAMMAR_FAULTS)
def test_single_fault_message(tmp_path, fmt, text, message):
    with pytest.raises(GraphFormatError, match="^%s$" % re.escape(message)):
        load_graph(write(tmp_path, "g.txt", text), fmt=fmt)


@pytest.mark.parametrize("fmt, text, message", [
    ("edgelist", "0 1\n1 99999999999999999999\n",
     "line 2: expected two node ids, got '1 99999999999999999999'"),
    ("matrixmarket", MM + "3 3 2\n1 2\n2 99999999999999999999\n",
     "line 4: expected two 1-based ids"),
], ids=["edgelist", "matrixmarket"])
def test_id_beyond_int64_is_malformed(tmp_path, fmt, text, message):
    test_single_fault_message(tmp_path, fmt, text, message)


def _reference_edgelist(lines):
    """The edge-list reader as a loop over text lines (no error cases)."""
    ids, at = array("q"), array("q")
    declared_n = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#") or line.startswith("%"):
            body = line.lstrip("#%").strip()
            if body.lower().startswith("nodes:"):
                declared_n = int(body.split(":", 1)[1])
            continue
        i, j = map(int, line.split())
        ids.extend((i, j))
        at.append(lineno)
    edges = np.frombuffer(ids, dtype=np.int64).reshape(-1, 2)
    top = int(np.argmax(edges)) // 2
    if declared_n is None:
        return int(edges[top].max()) + 1, edges, at, top
    return declared_n, edges, at, None


def _reference_matrixmarket(lines):
    """The MatrixMarket reader as a loop over text lines (no error cases)."""
    it = iter(enumerate(lines, start=1))
    next(it)  # the banner
    for lineno, raw in it:
        line = raw.strip()
        if line and not line.startswith("%"):
            n, _, _ = map(int, line.split())
            break
    ids, at = array("q"), array("q")
    for lineno, raw in it:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        i, j = map(int, line.split())
        ids.extend((i - 1, j - 1))
        at.append(lineno)
    return n, np.frombuffer(ids, dtype=np.int64).reshape(-1, 2), at, None


def _render(graph, fmt, rng):
    """The graph's edges shuffled and randomly oriented, and the file text
    that lists them: blanks or tabs between and around the ids, comment and
    blank lines in between, '\n' or '\r\n' line ends, and sometimes a
    node-count header or no final line end."""
    e = np.asarray(graph.edges)[rng.permutation(graph.num_edges)]
    flip = rng.random(len(e)) < 0.5
    e[flip] = e[flip][:, ::-1]
    base = 1 if fmt == "matrixmarket" else 0

    def blanks(options):
        return options[rng.integers(len(options))]

    lines = ["%s%d%s%d%s" % (blanks(["", " ", "\t", " \t"]), i + base,
                              blanks([" ", "\t", "  ", "\t "]), j + base,
                              blanks(["", " ", "\t"]))
             for i, j in e]
    comments = ["% between", " \t% 1 2", "", " ", "\t"]
    if fmt == "edgelist":
        comments += ["# between", "\t# 3 4", "#", "#% 0 1"]
    for k in sorted(rng.choice(len(lines) + 1, size=5), reverse=True):
        lines.insert(k, blanks(comments))
    if fmt == "matrixmarket":
        lines = [MM.strip(), "% c", "%d %d %d" % (graph.n, graph.n, len(e))] + lines
    elif rng.random() < 0.3:
        lines.insert(0, "# nodes: %d" % graph.n)
    text = "".join(line + blanks(["\n", "\r\n"]) for line in lines)
    if rng.random() < 0.3:
        text = text.rstrip("\r\n")
    return e, text


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(GRAPH_KINDS), seed=st.integers(0, 2**31 - 1),
       fmt=st.sampled_from(["edgelist", "matrixmarket"]))
def test_loaded_graph_matches_constructed_graph(kind, seed, fmt):
    graph = random_graph_instance(kind, {}, seed).graph
    edges, text = _render(graph, fmt, np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_bytes(text.encode())
        loaded = load_graph(str(path), fmt=fmt)
        reference = (_reference_edgelist if fmt == "edgelist"
                     else _reference_matrixmarket)
        with open(path) as fh:
            n, pairs, at, top = reference(fh)
    parse = (graph_io._parse_edgelist if fmt == "edgelist"
             else graph_io._parse_matrixmarket)
    got = parse(text.encode())
    assert got[0] == n and got[3] == top
    assert got[1].dtype == np.int64 and got[1].tobytes() == pairs.tobytes()
    assert got[2].tolist() == at.tolist()
    direct = Graph(graph.n, edges)
    assert loaded.n == direct.n
    assert np.array_equal(loaded.edges, direct.edges)
    assert np.array_equal(loaded.degrees, direct.degrees)


def test_load_peak_follows_the_file_size(tmp_path):
    # a 300 x 300 grid; an int64 temporary per byte of the file would cost
    # 8 times the file on its own
    v = np.arange(300 * 300).reshape(300, 300)
    edges = np.concatenate([
        np.stack([v[:, :-1].ravel(), v[:, 1:].ravel()], axis=1),
        np.stack([v[:-1].ravel(), v[1:].ravel()], axis=1)])
    path = tmp_path / "grid.txt"
    path.write_text("".join("%d %d\n" % (i, j) for i, j in edges.tolist()))
    tracemalloc.start()
    try:
        graph = load_graph(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.num_edges == len(edges)
    assert peak <= 13 * path.stat().st_size
