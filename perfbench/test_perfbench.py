"""Tests of the benchmark's own parts: the reference checker, the input
generator and the host-speed probe.

    python3 -m pytest perfbench -q
"""

import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    side = 9
    hess = reference.Hessian(side * side, gen.grid_edges(side), alpha=0.1)
    s = np.zeros(side * side)
    s[gen.grid_node(side, (0, 0))] = 1.0
    return reference.solve(hess, 1e-3, s)


def test_reference_passes_its_own_checks(ref):
    assert reference.kkt_violation(ref.hess, ref.b, ref.x) is None
    assert 1 < ref.support.size < ref.hess.n
    reference.check_exact(ref, ref.x, stages=ref.support.size)
    reference.check_certified(ref, ref.x, eps=1e-12)


def test_exact_check_rejects_a_zeroed_support_coordinate(ref):
    x = ref.x.copy()
    x[ref.support[-1]] = 0.0
    with pytest.raises(reference.CheckFailed):
        reference.check_exact(ref, x)


def test_exact_check_rejects_a_wrong_stage_count(ref):
    with pytest.raises(reference.CheckFailed):
        reference.check_exact(ref, ref.x, stages=ref.support.size + 1)


def test_certified_check_rejects_a_zeroed_support_coordinate(ref):
    x = ref.x.copy()
    x[ref.support[np.argmax(ref.x[ref.support])]] = 0.0
    with pytest.raises(reference.CheckFailed):
        reference.check_certified(ref, x, eps=1e-6)


def test_certified_check_rejects_a_gap_above_eps(ref):
    x = ref.x * 0.99
    gap = ref.objective_gap(x)
    assert gap > 0
    reference.check_certified(ref, x, eps=2 * gap)
    with pytest.raises(reference.CheckFailed):
        reference.check_certified(ref, x, eps=gap / 2)


def test_certified_check_rejects_support_outside_the_optimum(ref):
    x = ref.x.copy()
    outside = np.setdiff1d(np.arange(ref.hess.n), ref.support)
    x[outside[0]] = 1e-12
    assert ref.objective_gap(x) < 1e-6
    with pytest.raises(reference.CheckFailed):
        reference.check_certified(ref, x, eps=1e-6)


def test_kkt_rejects_a_point_that_is_not_optimal(ref):
    x = ref.x.copy()
    x[ref.support[0]] *= 1.001
    assert reference.kkt_violation(ref.hess, ref.b, x) is not None


def test_cap_ties_accepts_only_the_rounding_ties(ref):
    # on this grid the four degree-2 corners are far from the support, and
    # alpha*(rho*sqrt(2)) rounds one ulp above (alpha*rho)*sqrt(2)
    cap = 0.1 * 1e-3 * np.sqrt(ref.hess.degrees)
    corners = [0, 8, 72, 80]
    assert list(reference.cap_ties(ref, ref.x, cap, corners)) == corners
    assert reference.cap_ties(ref, ref.x, cap, []).size == 0


@pytest.mark.parametrize("extra", ["far_degree_3", "support"])
def test_cap_ties_rejects_any_other_witness(ref, extra):
    cap = 0.1 * 1e-3 * np.sqrt(ref.hess.degrees)
    node = 1 if extra == "far_degree_3" else int(ref.support[0])
    with pytest.raises(reference.CheckFailed):
        reference.cap_ties(ref, ref.x, cap, [0, 8, node])


def test_cap_ties_rejects_a_lowered_cap(ref):
    cap = 0.999 * 0.1 * 1e-3 * np.sqrt(ref.hess.degrees)
    with pytest.raises(reference.CheckFailed):
        reference.cap_ties(ref, ref.x, cap, [0, 8, 72, 80])


def test_generator_is_reproducible_from_its_seed(tmp_path, monkeypatch):
    assert gen.local_queries(4) == gen.local_queries(4)
    assert gen.local_queries(4) != gen.local_queries(5)
    assert gen.wide_queries(4) == gen.wide_queries(4)
    assert gen.wide_queries(4) != gen.wide_queries(5)
    trees = []
    for name in ("a", "b"):
        monkeypatch.setattr(gen, "CACHE", tmp_path / name)
        gen.generate("wide-support", 4)
        root = tmp_path / name
        trees.append({str(p.relative_to(root)): p.read_bytes()
                      for p in sorted(root.rglob("*")) if p.is_file()})
    assert trees[0] == trees[1]
    assert "graphs-v%d/communities.mtx" % gen.VERSION in trees[0]


def test_generator_rebuilds_missing_files(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "CACHE", tmp_path)
    first = gen.generate("wide-support", 2)
    dist = Path(first["queries"][0]["dist"])
    before = dist.read_bytes()
    os.unlink(Path(first["dir"]) / "manifest.json")
    dist.unlink()
    gen.generate("wide-support", 2)
    assert dist.read_bytes() == before


def test_probe_never_imports_sparsepr():
    tree = ast.parse((HERE / "probe.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported <= {"time", "numpy"}
    # and at run time, even with the program importable
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(HERE), str(HERE.parent / "src")]))
    code = ("import sys, probe; probe.probe_ms(); "
            "print(sorted(m for m in sys.modules if m.startswith('sparsepr')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_probe_allocates_nothing():
    import probe
    probe.probe_ms()
    tracemalloc.start()
    try:
        probe.probe_ms()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096  # a single 500k-element array would be 4 MB
