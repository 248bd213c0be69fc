"""Adaptive Gauss-Kronrod integrator."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import gaprad
from gaprad import IntegrationSpec, adaptive_integrate


def test_constant_is_exact():
    res = adaptive_integrate(lambda x: np.ones_like(x), 0.0, 1.0)
    assert abs(res.value - 1.0) <= 1e-15
    assert res.converged


def test_sine_half_period():
    res = adaptive_integrate(np.sin, 0.0, math.pi)
    assert abs(res.value - 2.0) <= 1e-10


def test_gamma_four():
    res = adaptive_integrate(lambda x: np.exp(-x) * x**3, 0.0, 60.0)
    assert abs(res.value - 6.0) <= 1e-9 * 6.0
    assert res.converged


def test_zero_integrand_converges_immediately():
    res = adaptive_integrate(lambda x: np.zeros_like(x), 0.0, 5.0)
    assert res.value == 0.0
    assert res.error == 0.0
    assert res.converged


def test_initial_edges_are_respected():
    calls = []

    def f(x):
        calls.append(x)
        return np.exp(-x)

    edges = np.array([0.0, 1e-3, 0.1, 1.0])
    res = adaptive_integrate(f, 0.0, 1.0, initial_edges=edges)
    assert abs(res.value - (1 - math.exp(-1))) < 1e-12
    # the very first batch evaluates one 15-point panel per seed interval
    assert len(calls[0]) == 15 * 3


def test_bad_initial_edges_rejected():
    with pytest.raises(ValueError):
        adaptive_integrate(np.exp, 0.0, 1.0, initial_edges=[0.0, 0.5, 0.4, 1.0])
    with pytest.raises(ValueError):
        adaptive_integrate(np.exp, 0.0, 1.0, initial_edges=[0.1, 1.0])


def test_exhaustion_reports_partial_result_and_worst_interval():
    spec = IntegrationSpec(rtol=1e-14, max_subdivisions=3)

    def needle(x):
        return 1.0 / (1e-8 + (x - 0.3141) ** 2)

    res = adaptive_integrate(needle, 0.0, 1.0, spec)
    assert not res.converged
    assert res.worst_interval is not None
    lo, hi = res.worst_interval
    assert 0.0 <= lo < hi <= 1.0
    assert math.isfinite(res.value)


def test_halving_tolerance_moves_less_than_reported_error():
    def lumpy(x):
        return np.sin(40 * x) / (1.02 + np.cos(7 * x))

    coarse = adaptive_integrate(lumpy, 0.0, 3.0, IntegrationSpec(rtol=1e-6))
    fine = adaptive_integrate(lumpy, 0.0, 3.0, IntegrationSpec(rtol=5e-7))
    assert abs(fine.value - coarse.value) <= coarse.error


def test_non_finite_integrand_raises():
    with pytest.raises(ValueError, match="non-finite"):
        adaptive_integrate(lambda x: np.full_like(x, np.inf), 0.0, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        IntegrationSpec(rtol=0.0)
    with pytest.raises(ValueError):
        IntegrationSpec(window=(2.0, 1.0))
    with pytest.raises(ValueError):
        IntegrationSpec(max_subdivisions=-1)
    tight = IntegrationSpec(rtol=1e-6).tighter(10)
    assert tight.rtol == 1e-7


def test_interval_validation():
    with pytest.raises(ValueError):
        adaptive_integrate(np.exp, 1.0, 0.0)


def _never_called(*args):
    raise AssertionError("integrand called")


@pytest.mark.parametrize("a, b", [(-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf),
                                  (math.nan, 1.0)])
def test_limits_must_be_finite(a, b):
    with pytest.raises(ValueError, match=re.escape(f"need finite a < b, got [{a!r}, {b!r}]")):
        adaptive_integrate(_never_called, a, b)


@pytest.mark.parametrize("batch", [0, -1])
def test_batch_must_be_at_least_one(batch):
    with pytest.raises(ValueError, match=f"batch must be >= 1, got {batch}"):
        adaptive_integrate(_never_called, 0.0, 1.0, batch=batch)


def _two_scales(x):
    # a smooth column and a needle column of very different sizes
    return np.stack([np.exp(-x), 1e-6 / (1e-6 + (x - 0.3141) ** 2)], axis=1)


def test_vector_integrand_meets_each_tolerance():
    spec = IntegrationSpec(rtol=1e-9)
    res = adaptive_integrate(_two_scales, 0.0, 1.0, spec)
    assert res.converged
    assert res.value.shape == res.error.shape == (2,)
    exact = np.array([1 - math.exp(-1),
                      1e-3 * (math.atan(0.6859 / 1e-3) + math.atan(0.3141 / 1e-3))])
    for c in range(2):
        # each component alone reaches its own relative tolerance
        assert abs(res.value[c] - exact[c]) <= 1e-8 * exact[c]
        assert res.error[c] <= 1e-7 * exact[c]
        alone = adaptive_integrate(lambda x: _two_scales(x)[:, c], 0.0, 1.0, spec)
        assert abs(res.value[c] - alone.value) <= 1e-8 * exact[c]


def test_swapping_components_swaps_results_bitwise():
    def needles(x):
        return np.stack([1.0 / (1e-4 + (x - 0.3141) ** 2),
                         1e3 / (1e-6 + (x - 0.7777) ** 2)], axis=1)

    # on these seeds 7 panels exceed their share of rtol 1e-12 (the second
    # call of a generous budget bisects them), more than the short budget of
    # 2 bisections, so the worst-first cut decides which are split
    edges = np.linspace(0.0, 1.0, 33)
    assert _first_split(needles, edges, 1e-12) == 7
    for s in (IntegrationSpec(rtol=1e-12, max_subdivisions=1), IntegrationSpec(rtol=1e-10)):
        a = adaptive_integrate(needles, 0.0, 1.0, s, initial_edges=edges)
        b = adaptive_integrate(lambda x: needles(x)[:, ::-1], 0.0, 1.0, s,
                               initial_edges=edges)
        assert np.array_equal(a.value, b.value[::-1])
        assert np.array_equal(a.error, b.error[::-1])
        assert a.neval == b.neval and a.converged == b.converged
        assert a.worst_interval == b.worst_interval


def test_single_component_matches_scalar_call():
    def lumpy(x):
        return np.sin(40 * x) / (1.02 + np.cos(7 * x))

    edges = [0.0, 0.5, 3.0]
    for spec in (IntegrationSpec(rtol=1e-8), IntegrationSpec(rtol=1e-12, max_subdivisions=5)):
        scalar = adaptive_integrate(lumpy, 0.0, 3.0, spec, initial_edges=edges)
        column = adaptive_integrate(lambda x: lumpy(x)[:, None], 0.0, 3.0, spec,
                                    initial_edges=edges)
        assert isinstance(scalar.value, float) and isinstance(scalar.error, float)
        assert column.value.shape == (1,)
        assert column.value[0] == scalar.value and column.error[0] == scalar.error
        assert column.neval == scalar.neval
        assert column.converged == scalar.converged
        assert column.worst_interval == scalar.worst_interval


def _first_split(f, edges, rtol):
    """Seed panels over their share of the tolerance: the first sweep of a
    generous budget bisects each of them in the second integrand call."""
    calls = []
    adaptive_integrate(lambda x: calls.append(len(x)) or f(x), edges[0], edges[-1],
                       IntegrationSpec(rtol=rtol, max_subdivisions=100), initial_edges=edges)
    assert calls[0] == 15 * (len(edges) - 1) and calls[1] % 30 == 0
    return calls[1] // 30


def test_short_budget_bisects_worst_panels_first():
    # 5 of the 8 seed panels exceed their share of rtol 1e-15 on this
    # needle; a budget of 3 bisections is spent on the worst of them in one
    # sweep, then it stops
    def needle(x):
        return 1.0 / (1e-4 + (x - 0.3141) ** 2)

    seeds = np.linspace(0.0, 1.0, 9)
    assert _first_split(needle, seeds, 1e-15) == 5
    spec = IntegrationSpec(rtol=1e-15, max_subdivisions=3)
    res = adaptive_integrate(needle, 0.0, 1.0, spec, initial_edges=seeds)
    assert not res.converged
    assert res.neval == 15 * 8 + 30 * 3
    lo, hi = res.worst_interval
    assert lo <= 0.3141 <= hi
    # two components share the budget: 3 bisections each
    vec = adaptive_integrate(lambda x: np.stack([needle(x), needle(x)], axis=1),
                             0.0, 1.0, spec, initial_edges=seeds)
    assert vec.neval == 15 * 8 + 30 * 6 and not vec.converged


def _peaks(x, row):
    # row r has a peak of width 10^-(r % 4 + 1) at a row-dependent place
    centre = 0.13 + 0.017 * row
    width = 10.0 ** -(row % 4 + 1.0)
    return np.stack([width / ((x - centre) ** 2 + width ** 2), np.cos(7 * x + row)], axis=1)


def test_batch_rows_are_bitwise_their_single_integrals():
    # 50 seed panels per row do not divide the 96-panel call chunks, so
    # rows straddle chunks; the narrowest peaks run out of budget
    edges = np.linspace(0.0, 1.0, 51)
    spec = IntegrationSpec(rtol=1e-10, max_subdivisions=4)
    floors = np.linspace(1e-14, 1e-13, 12)
    res = adaptive_integrate(_peaks, 0.0, 1.0, spec, initial_edges=edges,
                             abs_floor=floors, batch=12)
    assert res.value.shape == res.error.shape == (12, 2)
    assert len(res.rows) == 12
    assert isinstance(res.neval, int) and isinstance(res.converged, bool)
    assert res.neval == sum(r.neval for r in res.rows)
    assert res.converged == all(r.converged for r in res.rows)
    assert 0 < sum(r.converged for r in res.rows) < 12
    for r in range(12):
        alone = adaptive_integrate(lambda x, r=r: _peaks(x, np.full(len(x), r)), 0.0, 1.0,
                                   spec, initial_edges=edges, abs_floor=floors[r])
        mine = res.rows[r]
        assert mine.value.tobytes() == alone.value.tobytes()
        assert mine.error.tobytes() == alone.error.tobytes()
        assert res.value[r].tobytes() == alone.value.tobytes()
        assert (mine.converged, mine.worst_interval, mine.neval) == \
            (alone.converged, alone.worst_interval, alone.neval)


def test_batch_result_is_independent_of_its_companions():
    # the same row inside different batches gives the same bits
    edges = np.linspace(0.0, 1.0, 9)
    spec = IntegrationSpec(rtol=1e-11)
    full = adaptive_integrate(_peaks, 0.0, 1.0, spec, initial_edges=edges, batch=7)
    for keep in ([3], [3, 6], [0, 3]):
        rows = np.array(keep)
        sub = adaptive_integrate(lambda x, i: _peaks(x, rows[i]), 0.0, 1.0, spec,
                                 initial_edges=edges, batch=len(keep))
        assert sub.value[keep.index(3)].tobytes() == full.value[3].tobytes()
        assert sub.rows[keep.index(3)].neval == full.rows[3].neval


@pytest.mark.parametrize("rtol", [1e-10, 1e-12, 1e-13])
def test_many_panel_oscillation_within_reported_error(rtol):
    # e^-x cos(60x) on [0, 10]: about 95 periods, so hundreds of panels
    # contribute to the reported sum
    exact = (1.0 + math.exp(-10.0) * (60.0 * math.sin(600.0) - math.cos(600.0))) / 3601.0
    res = adaptive_integrate(lambda x: np.exp(-x) * np.cos(60.0 * x), 0.0, 10.0,
                             IntegrationSpec(rtol=rtol))
    assert res.converged
    assert (res.neval + 15) // 30 >= 190      # panels: neval = 30 * panels - 15
    assert abs(res.value - exact) <= res.error + 1e-13 * abs(exact)
    assert isinstance(res.value, float) and isinstance(res.error, float)


@pytest.mark.parametrize("window", [(0.0, 1e15), (-1e13, 1e15), (1e13, math.inf),
                                    (math.nan, 1e15)])
def test_window_must_be_positive_and_finite(window):
    with pytest.raises(ValueError, match=r"0 < lo < hi < inf, got window="):
        IntegrationSpec(window=window)


def _qk15(f, lo, hi):
    """K15, G7 and resasc of one panel, from the rule's nodes and weights."""
    from gaprad.quadrature import _WG, _WK, _XK
    half = 0.5 * (hi - lo)
    fx = f(0.5 * (hi + lo) + half * _XK)
    k15, g7 = half * (_WK @ fx), half * (_WG @ fx)
    resasc = half * (_WK @ np.abs(fx - k15 / (2.0 * half)))
    return k15, g7, resasc


@pytest.mark.parametrize("f, lo, hi, panels", [
    pytest.param(np.exp, 0.0, 1.0, 1, id="exp-0.0-1.0"),
    pytest.param(np.exp, 0.0, 8.0, 1, id="exp-0.0-8.0"),
    pytest.param(lambda x: np.sin(40 * x), 0.0, 3.0, 1, id="<lambda>-0.0-3.0"),
    # three integrand calls of 96, 96 and 8 panels, one rule over all 200
    pytest.param(lambda x: np.sin(1000 * x), 0.0, 3.0, 200, id="200-panels")])
def test_panel_error_is_qk15s(f, lo, hi, panels):
    # no bisection: the reported error is the sum of QUADPACK's panel
    # estimates, and per_panel keeps the bare Kronrod-Gauss differences
    edges = np.linspace(lo, hi, panels + 1)
    k15, g7, resasc = np.transpose([_qk15(f, a, b) for a, b in zip(edges[:-1], edges[1:])])
    spec = IntegrationSpec(max_subdivisions=0)
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    res = adaptive_integrate(counted, lo, hi, spec, initial_edges=edges)
    assert calls == ([15 * 96, 15 * 96, 15 * 8] if panels == 200 else [15])
    # the 200 panel values cancel: rounding is relative to the sum of their sizes
    assert res.value == pytest.approx(k15.sum(), rel=1e-15, abs=1e-15 * np.abs(k15).sum())
    assert res.error == pytest.approx(
        np.sum(resasc * np.minimum(1.0, (200.0 * abs(k15 - g7) / resasc) ** 1.5)), rel=1e-12)
    bare = adaptive_integrate(f, lo, hi, spec, initial_edges=edges, per_panel=True)
    assert bare.value == res.value
    assert bare.error == pytest.approx(np.sum(abs(k15 - g7)), rel=1e-12)


@pytest.mark.parametrize("rtol", [1e-6, 1e-9, 1e-12])
def test_summed_error_meets_the_tolerance(rtol):
    # a converged integral holds the sum of its panel errors, not each
    # panel alone, to rtol * |value|; the per-panel test does not
    def f(x):
        return np.exp(-x) * np.cos(60.0 * x)

    edges = np.linspace(0.0, 10.0, 65)
    res = adaptive_integrate(f, 0.0, 10.0, IntegrationSpec(rtol=rtol), initial_edges=edges)
    assert res.converged and res.error <= rtol * abs(res.value)
    exact = (1.0 + math.exp(-10.0) * (60.0 * math.sin(600.0) - math.cos(600.0))) / 3601.0
    # besides the error, rounding: a few ulps of the integral of |f|, about 0.64
    assert abs(res.value - exact) <= res.error + 1e-16
    loose = adaptive_integrate(f, 0.0, 10.0, IntegrationSpec(rtol=rtol), initial_edges=edges,
                               per_panel=True)
    assert loose.converged and loose.error > 5.0 * rtol * abs(loose.value)


def _ragged_edges(rows):
    # row r: 3 + r uneven seed panels on [0, 1]
    return [np.concatenate([[0.0], np.sort(np.random.default_rng(r).uniform(0.05, 0.95, 2 + r)),
                            [1.0]]) for r in range(rows)]


def test_ragged_batch_rows_are_bitwise_their_single_integrals():
    edges = _ragged_edges(9)
    spec = IntegrationSpec(rtol=1e-10, max_subdivisions=6)
    res = adaptive_integrate(_peaks, 0.0, 1.0, spec, initial_edges=edges, batch=9)
    assert 0 < sum(r.converged for r in res.rows) < 9
    for r in range(9):
        alone = adaptive_integrate(lambda x, r=r: _peaks(x, np.full(len(x), r)), 0.0, 1.0,
                                   spec, initial_edges=edges[r])
        mine = res.rows[r]
        assert mine.value.tobytes() == alone.value.tobytes()
        assert mine.error.tobytes() == alone.error.tobytes()
        assert (mine.converged, mine.worst_interval, mine.neval) == \
            (alone.converged, alone.worst_interval, alone.neval)
    # every seed panel costs 15 points, every bisection 30
    seeds = adaptive_integrate(_peaks, 0.0, 1.0, IntegrationSpec(max_subdivisions=0),
                               initial_edges=edges, batch=9)
    assert [r.neval for r in seeds.rows] == [15 * (3 + r) for r in range(9)]


def test_ragged_edges_need_one_array_per_row():
    with pytest.raises(ValueError, match="need one edge array per row, got 2 for 3 rows"):
        adaptive_integrate(_never_called, 0.0, 1.0, initial_edges=_ragged_edges(2), batch=3)
    with pytest.raises(ValueError, match="initial_edges must increase strictly"):
        adaptive_integrate(_never_called, 0.0, 1.0, batch=2,
                           initial_edges=[[0.0, 1.0], [0.0, 0.5, 0.5, 1.0]])


def test_panel_floors_are_summed_over_the_panels():
    # a pure-noise integrand: the sum of its panel errors passes a floor
    # just above it and no floor below it, though each panel's error is a
    # sixteenth of either
    def noise(x):
        return 1e-12 * np.sin(1e7 * x)

    edges = np.linspace(0.0, 1.0, 17)
    spec = IntegrationSpec(rtol=1e-12, max_subdivisions=0)
    err = adaptive_integrate(noise, 0.0, 1.0, spec, initial_edges=edges).error
    ok = adaptive_integrate(noise, 0.0, 1.0, spec, initial_edges=edges, abs_floor=1.01 * err)
    assert ok.converged and ok.neval == 15 * 16
    short = adaptive_integrate(noise, 0.0, 1.0, spec, initial_edges=edges,
                               abs_floor=0.99 * err)
    assert not short.converged


@pytest.mark.parametrize("kwargs, message", [
    ({"abs_floor": math.nan}, "abs_floor must be >= 0, one number or one per row (1), got nan"),
    ({"abs_floor": -1e-12}, "abs_floor must be >= 0"),
    ({"abs_floor": lambda lo, hi, row: hi - lo}, "abs_floor must be >= 0"),
    ({"abs_floor": np.ones(3), "batch": 2}, "one per row (2), got array"),
    ({"abs_floor": [[1e-12]]}, "abs_floor must be >= 0"),
    ({"batch": 2.5}, "batch must be an integer, got 2.5"),
], ids=["nan", "negative", "callable", "wrong-length", "2-d", "float-batch"])
def test_bad_floor_or_batch_is_refused_by_name(kwargs, message):
    # a NaN floor once made every tolerance NaN, and no panel was split
    with pytest.raises(ValueError, match=re.escape(message)):
        adaptive_integrate(_never_called, 0.0, 1.0, **kwargs)
    ok = adaptive_integrate(lambda x, row: x, 0.0, 1.0, abs_floor=np.full(2, 1e-12),
                            batch=np.int64(2))
    assert ok.converged and len(ok.rows) == 2


@pytest.mark.parametrize("kwargs, message", [
    ({"max_subdivisions": math.inf}, "max_subdivisions must be an integer, got inf"),
    ({"max_subdivisions": math.nan}, "max_subdivisions must be an integer, got nan"),
    ({"max_subdivisions": 2.5}, "max_subdivisions must be an integer, got 2.5"),
    ({"max_subdivisions": -1}, "max_subdivisions must be >= 0"),
    ({"window": (1, 2, 3)}, "window must be a (lo, hi) pair, got (1, 2, 3)"),
    ({"window": 1e14}, "window must be a (lo, hi) pair, got 100000000000000.0"),
], ids=["inf", "nan", "fraction", "negative", "triple", "scalar"])
def test_spec_refuses_non_integer_budgets_and_non_pair_windows(kwargs, message):
    # an infinite budget never ran out and a NaN one never split a panel
    with pytest.raises(ValueError, match=re.escape(message)):
        IntegrationSpec(**kwargs)
    assert IntegrationSpec(max_subdivisions=np.int64(5)).max_subdivisions == 5


@pytest.mark.parametrize("floor", [math.inf, np.array([1e-12, math.inf])],
                         ids=["scalar", "one-row"])
def test_an_infinite_floor_is_refused_by_name(floor):
    # an infinite floor passed 1/sqrt(x) on its seed panel: 1.9543, converged
    with pytest.raises(ValueError, match=re.escape("abs_floor must be finite, got ")):
        adaptive_integrate(lambda x, row: 1.0 / np.sqrt(x), 0.0, 1.0, abs_floor=floor,
                           batch=np.size(floor))
    with pytest.raises(ValueError, match=re.escape("abs_floor must be finite, got inf")):
        IntegrationSpec(abs_floor=math.inf)


def test_batch_integrand_receives_whole_panels():
    # the gap kernel views each call as (panels, 15) with one row per panel
    calls = []

    def f(x, row):
        calls.append((x.copy(), row.copy()))
        return _peaks(x, row)

    res = adaptive_integrate(f, 0.0, 1.0, IntegrationSpec(rtol=1e-10),
                             initial_edges=_ragged_edges(9), batch=9)
    assert res.converged and len(calls) > 2 and max(len(x) for x, _ in calls) <= 96 * 15
    for x, row in calls:
        assert len(x) % 15 == 0
        panels, rows = x.reshape(-1, 15), row.reshape(-1, 15)
        assert (rows == rows[:, :1]).all()
        assert (np.diff(panels, axis=1) > 0.0).all()


def test_only_quadrature_reads_the_node_table():
    # _NODES, the panel size, is the contract other modules may use; the
    # Kronrod and Gauss tables stay behind the one integrator
    for path in Path(gaprad.__file__).parent.glob("*.py"):
        if path.name == "quadrature.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"_XK", "_WK", "_WG"}, path.name


def _module_names(tree):
    """The module-level names a module defines: defs, classes, assignment
    targets and imports (not from __future__), without dunders."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                              and node.module != "__future__"):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def test_every_module_level_name_is_exported_or_read():
    # a name no module reads and no __all__ exports is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(gaprad.__file__).parent.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level > 0:
                read |= {alias.name for alias in node.names}
    dead = {}
    for name, tree in trees.items():
        exported = {node.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
                    for node in ast.walk(stmt.value) if isinstance(node, ast.Constant)}
        unused = _module_names(tree) - exported - read
        if unused:
            dead[name] = sorted(unused)
    assert dead == {}


@pytest.mark.parametrize("kwargs, message", [
    (dict(rtol=0.0), "rtol must be positive, got 0.0"),
    (dict(rtol=math.nan), "rtol must be positive, got nan"),
    (dict(abs_floor=-1e-300), "abs_floor must be >= 0, got -1e-300"),
    (dict(abs_floor=math.inf), "abs_floor must be finite, got inf"),
    (dict(max_subdivisions=2.5), "max_subdivisions must be an integer, got 2.5"),
    (dict(max_subdivisions=-1), "max_subdivisions must be >= 0"),
    (dict(window=(1.0, 2.0, 3.0)), "window must be a (lo, hi) pair, got (1.0, 2.0, 3.0)"),
    (dict(window=(2.0, 1.0)),
     "frequency window must satisfy 0 < lo < hi < inf, got window=(2.0, 1.0)"),
], ids=["rtol-zero", "rtol-nan", "abs_floor-negative", "abs_floor-inf",
        "max_subdivisions-float", "max_subdivisions-negative", "window-triple",
        "window-reversed"])
def test_spec_refusals_name_their_cause(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IntegrationSpec(**kwargs)
