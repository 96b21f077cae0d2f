"""Every module and every definition under ``src/repro`` runs from a root.

The roots are what a user or a measurement actually runs: the CLI
(``repro.cli`` and ``python -m repro``, whose report sections import
every paper artifact's module), ``examples/``, ``bench/`` and the lint
rule modules that ``registry.RULE_MODULES`` loads by name.  From them the walk follows
``import`` / ``from ... import`` statements (function-local ones too),
resolved by a relative-aware import map.

A name imported from a package ``__init__`` credits the submodule that
defines it, not every submodule the ``__init__`` re-exports; otherwise
one ``from repro.fiveg import SignalingBus`` would keep every codec in
``fiveg/`` alive.  A plain ``import repro.x.y`` binds only ``repro``
and so credits only the package; roots write ``from repro.x import y``.

Modules have no allowlist: a module that only ``tests/`` imports is
shelfware, and goes.  Each module is its own test id, so a failure
names the module.

Definitions (top-level functions and classes, and the methods of
top-level classes) are censused over the same import map.  A
definition is live when a live piece of code names it outside its own
body: a bare name resolved through the import map, an attribute of
that name on anything (``obj.method``, ``module.func``), or, in a root
file, a string (``bench/layers.py`` names its boundaries that way).
Module-level code of every reached module is live, and so is the body
of every live definition; a method lives only inside a live class.
Dunders, ``ast.NodeVisitor`` ``visit_*`` methods and ``@register``ed
rule classes are called by protocol, not by name.  Everything else
that only ``tests/`` (or other dead code) calls is either on
:data:`ALLOWLIST` with one of :data:`REASONS`, or it goes.  "Public
API" is not a reason: everything in an ``__all__`` would qualify.
As with modules, the census is one test id per module, so a failure
names the module that holds the dead definition.
"""

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

import pytest

from repro.analysis.registry import RULE_MODULES
from repro.analysis.runner import collect_files, load_module

REPO_ROOT = Path(__file__).resolve().parents[1]
ROOT_MODULES = ("repro.cli", "repro.__main__") + RULE_MODULES
ROOT_DIRS = ("examples", "bench")

#: The only reasons a definition no root reaches may stay.
REASONS = ("oracle:", "paper claim:", "ROADMAP input:")

#: Unreached definitions that stay, each with the reason it stays.
ALLOWLIST: Dict[str, str] = {
    "repro.crypto.access_tree.satisfies":
        "oracle: test_crypto_abe's test_decryption_iff_satisfaction holds "
        "abe.decrypt's share recovery to it on generated attribute sets",
    "repro.crypto.group.is_probable_prime":
        "oracle: test_group_params_moving_areas proves the committed "
        "SCHNORR_GROUP and SHARE_PRIME prime with it",
    "repro.faults.failures.GilbertElliottChannel.steady_state_bad_fraction":
        "oracle: test_workload_faults's test_gilbert_elliott_bursty "
        "holds the Fig. 13b FER series to the chain's stationary law",
    "repro.fiveg.procedures.ProcedureRunner.initial_registration":
        "ROADMAP input: item 5 runs the stateful C1 for the Option 3/4 "
        "baseline through it",
    "repro.geo.cells.GeospatialCellGrid.analytic_cell_area_km2":
        "ROADMAP input: item 2(a) cross-checks the exact Table 3 cell "
        "areas against it",
    "repro.geo.cells.GeospatialCellGrid.crossing_rate_per_user":
        "paper claim: test_geo_cells's test_pedestrian_crossings_are_rare "
        "pins S4.3's rare UE-driven cell crossings (Table 3 cell sizes) "
        "through it",
    "repro.orbits.constellation.Constellation.plane_slot":
        "oracle: test_orbits_constellation's test_neighbors_are_adjacent "
        "and test_snapshot_graph_differential's oracle_graph hold "
        "grid_neighbor_table's rows to (plane, slot) indexing",
    "repro.orbits.constellation.Constellation.sat_index":
        "oracle: the same two tests name each table row's expected "
        "neighbours as sat_index(plane, slot +- 1) / (plane +- 1, slot)",
    "repro.runtime.cohort.UECohortEngine.predicted_events_per_ue_s":
        "oracle: test_runtime_cohort's test_event_rate_matches_prediction "
        "holds the sampled event rate of UECohortEngine.run to it",
    "repro.topology.grid.GridTopology.isl_neighbors":
        "oracle: test_reference_walk's _ParentWalk and "
        "test_snapshot_equivalence's _ScalarRouter deflect over it, the "
        "per-satellite form of the edge mask the walks read",
}


def _load(path: Path):
    module, error = load_module(path, REPO_ROOT)
    assert error is None, error
    return module


def module_name(relpath: str) -> str:
    """Dotted module path of a (posix) relative file path.

    ``src/repro/experiments/cpu.py`` -> ``repro.experiments.cpu``;
    package ``__init__.py`` files name the package itself.
    """
    parts = relpath[:-3].split("/")
    if parts[0] == "src":
        parts = parts[1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imports(module) -> Dict[str, str]:
    """Local name -> absolute dotted origin, relative-aware."""
    modname = module_name(module.relpath)
    parts = modname.split(".")
    package = parts if module.relpath.endswith("__init__.py") \
        else parts[:-1]
    imports: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                imports[alias.asname or top] = \
                    alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                anchor = package[:len(package) - (node.level - 1)] \
                    if node.level - 1 <= len(package) else []
                base = ".".join(anchor + (node.module.split(".")
                                          if node.module else []))
            for alias in node.names:
                imports[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name)
    return imports


def _toplevel_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


class ImportMap:
    """The ``src/repro`` modules, their imports and package re-exports."""

    def __init__(self) -> None:
        self.src: Dict[str, Any] = {}
        for path in collect_files([REPO_ROOT / "src" / "repro"]):
            module = _load(path)
            self.src[module_name(module.relpath)] = module
        self.imports: Dict[str, Dict[str, str]] = {
            name: _imports(module) for name, module in self.src.items()}
        self.packages = {name for name, module in self.src.items()
                         if module.relpath.endswith("__init__.py")}
        self.defined = {name: _toplevel_names(self.src[name].tree)
                        for name in self.packages}

    def forward(self, origin: str) -> Optional[str]:
        """The origin a package re-export of ``origin`` points at."""
        package, _, attr = origin.rpartition(".")
        if package in self.packages and attr not in self.defined[package]:
            return self.imports[package].get(attr)
        return None

    def resolve(self, origin: str) -> str:
        """``origin`` with every package re-export followed."""
        seen = set()
        while origin not in seen:
            seen.add(origin)
            forwarded = self.forward(origin)
            if forwarded is None:
                break
            origin = forwarded
        return origin


def reached_modules(graph: ImportMap) -> Set[str]:
    """Dotted names of the ``src/repro`` modules the roots import."""
    reached: Set[str] = set()

    def reach_module(name: str) -> None:
        parts = name.split(".")
        for depth in range(1, len(parts)):
            reached.add(".".join(parts[:depth]))   # parent __init__s
        if name in reached:
            return
        reached.add(name)
        if name not in graph.packages:
            for origin in graph.imports[name].values():
                reach(origin)

    def reach(origin: str) -> None:
        if origin in graph.src:
            reach_module(origin)
            return
        package = origin.rpartition(".")[0]
        if package not in graph.src:
            return  # stdlib, third party, or a root's own sibling
        reach_module(package)
        forwarded = graph.forward(origin)
        if forwarded is not None:
            reach(forwarded)

    for name in ROOT_MODULES:
        reach_module(name)
    for directory in ROOT_DIRS:
        for path in collect_files([REPO_ROOT / directory]):
            for origin in _imports(_load(path)).values():
                reach(origin)
    return reached


# -- definitions ----------------------------------------------------------------

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class Region:
    """The names one stretch of code uses.

    ``quals`` are the definitions its bare names resolve to; ``attrs``
    are attribute names (and, in root files, identifier strings), which
    credit every definition of that name.
    """

    quals: Set[str] = field(default_factory=set)
    attrs: Set[str] = field(default_factory=set)


@dataclass
class Definition:
    qualname: str
    name: str
    node: Any
    owner: Optional[str]   # qualname of the enclosing class
    region: Region

    @property
    def module(self) -> str:
        return (self.owner or self.qualname).rpartition(".")[0]

    @property
    def lines(self) -> int:
        first = min([self.node.lineno]
                    + [d.lineno for d in self.node.decorator_list])
        return self.node.end_lineno - first + 1


def _scan(nodes, module: str, imports: Dict[str, str], graph: ImportMap,
          owner: Optional[str] = None, strings: bool = False) -> Region:
    """The names ``nodes`` use.

    A bare name credits ``<module>.<name>``, ``<owner>.<name>`` (so a
    class body reaches its own methods by name) and its import-map
    origin.
    """
    region = Region()
    prefixes = [module] if owner is None else [module, owner]
    stack = list(nodes)
    while stack:
        node = stack.pop()
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name) \
                and not isinstance(node.ctx, ast.Store):
            region.quals.update(f"{prefix}.{node.id}" for prefix in prefixes)
            if node.id in imports:
                region.quals.add(graph.resolve(imports[node.id]))
        elif isinstance(node, ast.Attribute) \
                and not isinstance(node.ctx, ast.Store):
            region.attrs.add(node.attr)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            region.attrs.update(
                part for part in node.value.replace(":", ".").split(".")
                if part.isidentifier())
    return region


def _is_protocol(definition: Definition) -> bool:
    name = definition.name
    if name.startswith("__") and name.endswith("__"):
        return True
    if definition.owner is not None and name.startswith("visit_"):
        return True
    return isinstance(definition.node, ast.ClassDef) and any(
        isinstance(d, ast.Name) and d.id == "register"
        for d in definition.node.decorator_list)


@dataclass
class Census:
    definitions: Dict[str, Definition]
    live: Set[str]

    def unreached(self) -> List[Definition]:
        """Dead definitions whose enclosing class (if any) is live."""
        return [d for d in self.definitions.values()
                if d.qualname not in self.live
                and (d.owner is None or d.owner in self.live)]


def definition_census(graph: ImportMap, reached: Set[str],
                      allowlist: Dict[str, str]) -> Census:
    """Least fixed point of "named from live code", seeded by the roots."""
    definitions: Dict[str, Definition] = {}
    roots: List[Region] = []

    def define(qual, node, owner, region):
        definitions[qual] = Definition(qual, node.name, node, owner, region)

    for name in sorted(reached & set(graph.src)):
        imports = graph.imports[name]
        rest = []
        for node in graph.src[name].tree.body:
            if isinstance(node, _FUNCTIONS):
                define(f"{name}.{node.name}", node, None,
                       _scan([node], name, imports, graph))
            elif isinstance(node, ast.ClassDef):
                qual = f"{name}.{node.name}"
                methods = [s for s in node.body
                           if isinstance(s, _FUNCTIONS)]
                define(qual, node, None, _scan(
                    [s for s in node.body if s not in methods]
                    + node.bases + node.keywords + node.decorator_list,
                    name, imports, graph, owner=qual))
                for sub in methods:
                    define(f"{qual}.{sub.name}", sub, qual,
                           _scan([sub], name, imports, graph))
            else:
                rest.append(node)
        roots.append(_scan(rest, name, imports, graph))
    for directory in ROOT_DIRS:
        for path in collect_files([REPO_ROOT / directory]):
            module = _load(path)
            roots.append(_scan([module.tree], module_name(module.relpath),
                               _imports(module), graph, strings=True))

    live: Set[str] = set()
    quals: Set[str] = set()
    attrs: Set[str] = set()
    for region in roots:
        quals |= region.quals
        attrs |= region.attrs
    changed = True
    while changed:
        changed = False
        for definition in definitions.values():
            if definition.qualname in live or (
                    definition.owner is not None
                    and definition.owner not in live):
                continue
            if (definition.qualname in quals or definition.name in attrs
                    or definition.qualname in allowlist
                    or _is_protocol(definition)):
                live.add(definition.qualname)
                quals |= definition.region.quals
                attrs |= definition.region.attrs
                changed = True
    return Census(definitions, live)


SRC_MODULES = [module_name(path.relative_to(REPO_ROOT).as_posix())
               for path in collect_files([REPO_ROOT / "src" / "repro"])]


@pytest.fixture(scope="module")
def graph() -> ImportMap:
    return ImportMap()


@pytest.fixture(scope="module")
def reached(graph) -> Set[str]:
    return reached_modules(graph)


@pytest.fixture(scope="module")
def census(graph, reached) -> Census:
    return definition_census(graph, reached, ALLOWLIST)


@pytest.mark.parametrize("name", SRC_MODULES)
def test_module_is_reached_from_a_root(name, reached):
    assert name in reached, (
        f"{name} is imported by no command, example, bench workload "
        f"or lint rule; only tests/ use it")


@pytest.mark.parametrize("name", SRC_MODULES)
def test_definitions_are_reached_or_allowlisted(name, census):
    dead = [d for d in census.unreached() if d.module == name]
    assert not dead, (
        f"{name}: named by no command, example, bench workload or lint rule "
        "(only by tests/ or by other dead code); delete it, or "
        "allowlist it with one of " + ", ".join(REASONS) + ":\n"
        + "\n".join(f"  {d.qualname} ({d.lines} lines)" for d in dead))


@pytest.mark.parametrize("qualname", sorted(ALLOWLIST))
def test_allowlist_entry_is_needed_and_justified(qualname, graph,
                                                 reached, census):
    assert ALLOWLIST[qualname].startswith(REASONS), (
        f"{qualname}: the reason must start with one of {REASONS}")
    assert qualname in census.definitions, (
        f"{qualname} no longer exists; drop its allowlist entry")
    without = {k: v for k, v in ALLOWLIST.items() if k != qualname}
    assert qualname not in definition_census(graph, reached,
                                              without).live, (
        f"{qualname} is now reached from a root; drop its allowlist "
        f"entry")
