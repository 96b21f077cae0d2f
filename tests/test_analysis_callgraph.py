"""Call-graph construction and effect inference (ISSUE 9 tentpole).

Synthetic-package tests pin the resolution layers (imports, relative
imports, self-dispatch, callable references) and the fixed point;
real-package spot checks pin the facts the interprocedural rules rely
on -- above all that every ``run_sharded`` worker in ``src/repro``
stays transitively shard-pure.
"""

from pathlib import Path

import pytest

from repro.analysis import SHARD_IMPURE_EFFECTS, analyze_effects, build_callgraph
from repro.analysis.effects import READS_WALLCLOCK
from repro.analysis.runner import collect_files, load_module


def _build(tmp_path, files):
    modules = []
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    for path in collect_files([tmp_path]):
        module, error = load_module(path, tmp_path)
        assert error is None, error
        modules.append(module)
    return build_callgraph(modules)


class TestGraphConstruction:
    def test_cross_module_from_import_resolves(self, tmp_path):
        graph = _build(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/util.py": ("import time\n"
                            "def helper():\n"
                            "    return time.time()\n"),
            "pkg/work.py": ("from .util import helper\n"
                            "def outer():\n"
                            "    return helper()\n"),
        })
        assert "pkg.util.helper" in graph.nodes
        assert "pkg.util.helper" in graph.edges["pkg.work.outer"]

    def test_self_method_dispatch_resolves(self, tmp_path):
        graph = _build(tmp_path, {
            "mod.py": ("class Router:\n"
                       "    def route(self):\n"
                       "        return self._walk()\n"
                       "    def _walk(self):\n"
                       "        return []\n"),
        })
        assert "mod.Router._walk" in graph.edges["mod.Router.route"]

    def test_annotated_parameter_dispatch_resolves(self, tmp_path):
        graph = _build(tmp_path, {
            "top.py": ("class Grid:\n"
                       "    def bump(self):\n"
                       "        return 1\n"),
            "use.py": ("from top import Grid\n"
                       "def poke(grid: Grid):\n"
                       "    return grid.bump()\n"),
        })
        assert "top.Grid.bump" in graph.edges["use.poke"]

    def test_constructor_call_links_init(self, tmp_path):
        graph = _build(tmp_path, {
            "mod.py": ("class Thing:\n"
                       "    def __init__(self):\n"
                       "        self.x = 1\n"
                       "def make():\n"
                       "    return Thing()\n"),
        })
        assert "mod.Thing.__init__" in graph.edges["mod.make"]

    def test_callable_argument_contributes_reference_edge(self, tmp_path):
        graph = _build(tmp_path, {
            "mod.py": ("def worker(x):\n"
                       "    return x\n"
                       "def dispatch(run, items):\n"
                       "    return run(worker, items)\n"),
        })
        assert "mod.worker" in graph.edges["mod.dispatch"]

    def test_nested_function_is_its_own_node(self, tmp_path):
        graph = _build(tmp_path, {
            "mod.py": ("import time\n"
                       "def outer():\n"
                       "    def inner():\n"
                       "        return time.time()\n"
                       "    return inner()\n"),
        })
        assert "mod.outer.inner" in graph.nodes
        assert "mod.outer.inner" in graph.edges["mod.outer"]


class TestEffectInference:
    def test_wallclock_propagates_two_hops(self, tmp_path):
        graph = _build(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/util.py": ("import time\n"
                            "def leaf():\n"
                            "    return time.time()\n"),
            "pkg/mid.py": ("from .util import leaf\n"
                           "def step():\n"
                           "    return leaf()\n"),
            "pkg/top.py": ("from .mid import step\n"
                           "def trial():\n"
                           "    return step()\n"),
        })
        effects = analyze_effects(graph)
        assert READS_WALLCLOCK in effects.effects_of("pkg.top.trial")
        # Only the leaf carries the *direct* effect.
        assert READS_WALLCLOCK not in effects.direct["pkg.top.trial"]
        path, occurrence = effects.chain("pkg.top.trial",
                                         READS_WALLCLOCK)
        assert path == ["pkg.top.trial", "pkg.mid.step",
                        "pkg.util.leaf"]
        assert occurrence is not None
        assert "time.time" in occurrence.detail

    def test_suppressed_source_does_not_poison_callers(self, tmp_path):
        graph = _build(tmp_path, {
            "pkg/util.py": (
                "import time\n"
                "def leaf():\n"
                "    return time.time()  "
                "# repro: ignore[wallclock-time] -- calibration only\n"),
            "pkg/top.py": ("from pkg.util import leaf\n"
                           "def trial():\n"
                           "    return leaf()\n"),
        })
        effects = analyze_effects(graph)
        assert READS_WALLCLOCK not in effects.effects_of("pkg.top.trial")

    def test_cache_named_globals_are_exempt(self, tmp_path):
        graph = _build(tmp_path, {
            "mod.py": ("_CACHE = {}\n"
                       "_LOG = []\n"
                       "def memoized(k):\n"
                       "    _CACHE[k] = k\n"
                       "def leaky(k):\n"
                       "    _LOG.append(k)\n"),
        })
        effects = analyze_effects(graph)
        assert not effects.effects_of("mod.memoized")
        assert "mutates-module-global" in effects.effects_of("mod.leaky")


class TestRealPackage:
    @pytest.fixture
    def analysis(self, package_analysis):
        project = package_analysis.project
        return project.callgraph(), project.effects()

    def test_every_shipped_shard_worker_is_pure(self, analysis):
        # The acceptance invariant behind the shard-purity rule: the
        # workers the experiments actually dispatch stay transitively
        # free of wall-clock, unseeded-RNG, and global-mutation
        # effects (justified exceptions are waived at their source).
        _, effects = analysis
        workers = [
            "repro.experiments.sensitivity._sensitivity_cell",
            "repro.experiments.sensitivity._scaling_cell",
            "repro.experiments.signaling._sweep_point",
            "repro.experiments.chaos_availability._chaos_trial",
            "repro.scenarios.engine._scenario_trial",
        ]
        for worker in workers:
            assert worker in effects.summary, worker
            impure = effects.effects_of(worker) & SHARD_IMPURE_EFFECTS
            assert not impure, f"{worker}: {sorted(impure)}"

    def test_graph_covers_the_package(self, analysis):
        graph, _ = analysis
        assert len(graph.nodes) > 800
        resolved_edges = sum(len(v) for v in graph.edges.values())
        assert resolved_edges > 1000
