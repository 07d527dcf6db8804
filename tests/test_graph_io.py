"""Edge-list and MatrixMarket parsing, seed-distribution loading."""

import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsepr import Graph, random_graph_instance
from sparsepr.graph_io import GraphFormatError, load_distribution, load_graph
from sparsepr.oracle import GRAPH_KINDS


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
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


@pytest.mark.parametrize("fmt, text, message", SINGLE_FAULTS)
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


def _render(graph, fmt, rng):
    """The graph's edges shuffled and randomly oriented, and the file text
    that lists them with comment and blank lines in between."""
    e = np.asarray(graph.edges)[rng.permutation(graph.num_edges)]
    flip = rng.random(len(e)) < 0.5
    e[flip] = e[flip][:, ::-1]
    base = 1 if fmt == "matrixmarket" else 0
    lines = ["%d %d" % (i + base, j + base) for i, j in e]
    for k in sorted(rng.choice(len(lines) + 1, size=3), reverse=True):
        lines.insert(k, "% between" if rng.random() < 0.5 else "")
    if fmt == "matrixmarket":
        lines = [MM.strip(), "% c", "%d %d %d" % (graph.n, graph.n, len(e))] + lines
    return e, "\n".join(lines) + "\n"


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(GRAPH_KINDS), seed=st.integers(0, 2**31 - 1),
       fmt=st.sampled_from(["edgelist", "matrixmarket"]))
def test_loaded_graph_matches_constructed_graph(kind, seed, fmt):
    graph = random_graph_instance(kind, {}, seed).graph
    edges, text = _render(graph, fmt, np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(text)
        loaded = load_graph(str(path), fmt=fmt)
    direct = Graph(graph.n, edges)
    assert loaded.n == direct.n
    assert np.array_equal(loaded.edges, direct.edges)
    assert np.array_equal(loaded.degrees, direct.degrees)
