"""Every module and function under ``src/repro`` runs from a root.

The census is *executed*, not read: a fresh interpreter installs
``sys.setprofile`` (and ``threading.setprofile``) before anything
imports ``repro``, runs roots in-process, and writes down every
``src/repro`` code object that ran.  Import-time calls (a dataclass
``__post_init__`` on a module-level constant) count, because the hook
is in place before the first import.  Each root runs once; the roots
are dealt out to :data:`LANES` such interpreters that run side by
side, and the census is the union of what they ran.

The roots are what a user or a measurement runs:

* every command line the docs show in a fenced block (``python -m
  repro ...`` in README, EXPERIMENTS and DESIGN), with the flags shown
  -- :data:`CLI_ROOTS`, held to the docs by
  ``test_cli_roots_are_the_documented_command_lines``.  A root that
  shards (``--workers 2``) sets ``REPRO_PLANNER=sharded`` so the pool
  runs on a 1-core host; ``--update`` writes into a scratch golden
  directory;
* every script in ``examples/``;
* one ``smoke=True`` job of each ``bench/workloads.py`` workload
  (``run``, ``check``, ``finish``, ``extra_layer_metrics``).

The subprocess builds its environment from scratch
(``PYTHONHASHSEED=0``, no ``REPRO_*``), so the verdict is the same in
every CI job: the sharded-runtime matrix, the chaos job and the
``REPRO_NO_CKERNEL=1`` legs.

A definition is every ``def`` at any depth (methods, properties and
nested functions included) plus every module.  A code object's first
line is its first decorator's line, so that is the line a definition
is matched on.  A nested def of an unexecuted function, and every
function of an unexecuted module, is reported through its parent.

A definition no root runs is deleted, gets a documented root, or is
held in exactly one of these places:

* :data:`ALLOWLIST`, with one of :data:`REASONS` ("public API" is not
  one: everything in an ``__all__`` would qualify);
* :data:`ERROR_PATHS`: runs only when something fails (a lint finding,
  a drifted golden, a refused local establishment), held by the
  tier-1 test named beside it; the census runs that test under the
  hook too and fails unless the definition ran in it;
* :data:`POOL_ONLY`: runs only inside a pool worker, where the hook
  does not reach, held by the tier-1 test named beside it (the census
  runs it, so a renamed or failing test shows);
* held by ``bench/``: a ``bench/layers.py`` ``BOUNDARIES`` target
  (``bench/tests/test_trace.py`` installs every one) or a function a
  ``bench/*.py`` file imports by name.

The hook also records arguments.  An *option* is a parameter whose
default is a literal (:func:`_literal`: a number, a negative one too,
a string, bytes, ``None``, a bool, or a tuple of those).  For each
executed definition with options, the hook notes whether any root
call bound a value that is *set*: one that neither ``is`` the default
nor has its type and compares equal (:func:`_is_default`; a numpy
scalar or array is therefore always set, so the census may miss a
knob but never condemns one in use).  It reads the callee's frame at
its call event, where the locals are exactly the arguments, and only
for the code objects of such definitions, until each of their options
has been seen set.  An option no root sets is deleted (every call
passes nothing or the default: the value becomes a literal in the
body), loses only its default (a ``src/`` caller passes a computed
value, so every caller states it), or is held in :data:`OPTION_HOLDS`
with one of :data:`REASONS` or :data:`SETTING`, unless a ``bench/*.py``
call passes it by keyword.

Three test ids per module: one fails when no root imports the module
at all, one names the module and lists each unexecuted definition in
it, and one lists the options no root sets.
"""

import ast
import contextlib
import importlib
import inspect
import json
import os
import runpy
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")
#: Census interpreters run side by side (the roots' union is the same
#: for any count; two halve the wall time on a 2-core host).
LANES = 2

#: ``(resolved file, first line, co_name)`` of code objects that ran.
Ran = Set[Tuple[str, int, str]]
#: ``(resolved file, first line, co_name, option)`` of watched options
#: some call set (:func:`_is_default` said no).
Bound = Set[Tuple[str, int, str, str]]
#: ``(kind, target, env)``: a command line, a script, a bench workload
#: or a list of test ids, run in-process by the census subprocess.
Root = Tuple[str, object, Dict[str, str]]

#: Every ``python -m repro`` line of a fenced block in :data:`DOCS`.
CLI_ROOTS = (
    "repro list",
    "repro report",
    "repro report --output report.md",
    "repro report --check",
    "repro table4",
    "repro lint",
    "repro emulate --ues 20 --duration 600",
    "repro emulate --cohorts 128",
    "repro loadpoint --ues 1000000",
    "repro chaos --trials 2 --workers 2 --output chaos.json",
    "repro metrics --trials 4 --workers 2 --output metrics.json",
    "repro metrics --experiment cohort --ues 20000 --output m.json",
    "repro trace --output trace.jsonl",
    "repro trace --ues 24 --horizon 3600 --output trace.jsonl",
    "repro scenario list",
    "repro scenario run urban-hotspot",
    "repro scenario run urban-hotspot --update",
    "repro scenario check --all",
)

#: The only reasons a definition no root runs may stay.
REASONS = ("oracle:", "paper claim:", "ROADMAP input:")

#: Unexecuted definitions that stay, each with the reason it stays.
ALLOWLIST: Dict[str, str] = {
    "repro.crypto.access_tree.satisfies":
        "oracle: test_crypto_abe's test_decryption_iff_satisfaction holds "
        "abe.decrypt's share recovery to it on generated attribute sets",
    "repro.faults.failures.GilbertElliottChannel.steady_state_bad_fraction":
        "oracle: test_workload_faults's test_gilbert_elliott_bursty "
        "holds the Fig. 13b FER series to the chain's stationary law",
    "repro.fiveg.procedures.ProcedureRunner.initial_registration":
        "ROADMAP input: item 3, which now decides C1-C3, runs the "
        "stateful C1 for the Option 3/4 baseline through it",
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
    "repro.orbits.propagator.OrbitState.raan_ecef":
        "oracle: test_snapshot_equivalence's "
        "test_snapshot_arrays_bit_match_scalar_state holds the snapshot's "
        "raan_ecef array to it bit for bit, and its _ScalarRouter walks "
        "on it",
    "repro.orbits.constellation.Constellation.sat_index":
        "oracle: the same two tests name each table row's expected "
        "neighbours as sat_index(plane, slot +- 1) / (plane +- 1, slot)",
    "repro.runtime.cohort.UECohortEngine.predicted_events_per_ue_s":
        "oracle: test_runtime_cohort's test_event_rate_matches_prediction "
        "holds the sampled event rate of UECohortEngine.run to it",
    "repro.topology.batch_routing.BatchRouteResult.result":
        "oracle: the differential suites (test_batch_routing, "
        "test_reference_walk) hold each packet of a wave to "
        "GeospatialRouter.route through it",
    "repro.topology.grid.GridTopology.isl_neighbors":
        "oracle: test_reference_walk's _ParentWalk and "
        "test_snapshot_equivalence's _ScalarRouter deflect over it, the "
        "fault-set form of the edge mask the walks read",
}

#: Definitions that run only on a failure path -> the test driving it.
ERROR_PATHS: Dict[str, str] = {
    "repro.analysis.core.Finding.sort_key":
        "tests/test_analysis_cli.py::TestExitCodes"
        "::test_findings_exit_nonzero",
    "repro.core.spacecore.SpaceCoreSystem._legacy_fallback":
        "tests/test_core_spacecore.py::TestLocalizedEstablishment"
        "::test_fallback_repairs_a_garbled_replica",
    "repro.fiveg.identifiers.GutiAllocator.release":
        "tests/test_core_spacecore.py::TestLocalizedEstablishment"
        "::test_fallback_repairs_a_garbled_replica",
    "repro.scenarios.golden.diff_lines":
        "tests/test_cli.py::TestReportCommands"
        "::test_check_fails_on_drift_with_a_diff",
}

#: The reason an option no root sets may stay: a deployment setting
#: (worker count, a path, ``argv``), named with the variable or flag
#: behind it.
SETTING = "setting:"

#: ``qualname(option)`` of options no root sets that stay, with why.
OPTION_HOLDS: Dict[str, str] = {
    "repro.cli.main(argv)":
        "setting: the command line, sys.argv when unset",
    "repro.core.spacecore.SpaceCoreSystem.deliver_downlink(t)":
        "paper claim: test_scenario_day_in_the_life relays the Fig. 16b "
        "downlink at t = 100 s and, around a jammed hole, at t = 700 s, "
        "after the constellation has moved",
    "repro.core.spacecore.SpaceCoreSystem.serving_satellite_of(t)":
        "paper claim: test_scenario_day_in_the_life takes the Fig. 16b "
        "ingress and the hijacked satellite at t = 100, 700 and 1000 s",
    "repro.experiments.availability.gateway_reachability(seed)":
        "oracle: test_snapshot_graph_differential's "
        "test_consumers_keep_their_networkx_numbers holds it to networkx "
        "on the failure sets of seeds 0 and 1",
    "repro.experiments.cpu.fig7_cpu_breakdown(workers)":
        "setting: REPRO_WORKERS when unset",
    "repro.experiments.cpu.fig8_latency_sweep(workers)":
        "setting: REPRO_WORKERS when unset",
    "repro.experiments.observability.cohort_observability(workers)":
        "setting: repro metrics --experiment cohort --workers, else "
        "REPRO_WORKERS",
    "repro.experiments.sensitivity.constellation_scaling(workers)":
        "setting: REPRO_WORKERS when unset",
    "repro.experiments.sensitivity.sensitivity_sweep(workers)":
        "setting: REPRO_WORKERS when unset",
    "repro.experiments.report.generate_report(fast)":
        "setting: repro report --full",
    "repro.experiments.report.render_section(fast)":
        "setting: repro report --full, through generate_report",
    "repro.scenarios.golden.check_scenario(workers)":
        "setting: repro scenario check --workers, else REPRO_WORKERS",
}

#: Definitions that run only inside a pool worker -> the test driving it.
POOL_ONLY: Dict[str, str] = {
    "repro.runtime.parallel._init_worker":
        "tests/test_runtime_parallel.py::TestRunSharded"
        "::test_workers_never_nest",
    "repro.runtime.parallel._run_batch":
        "tests/test_runtime_parallel.py::TestRunSharded"
        "::test_workers_never_nest",
}


# -- the census subprocess ------------------------------------------------------

def _run_module(name: str, argv: List[str]) -> int:
    """``python -m <name> <argv>`` in this process; its exit code."""
    saved = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_module(name, run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        return exit_.code or 0
    finally:
        sys.argv = saved
    return 0


def _run_root(kind: str, target, env: Dict[str, str]) -> None:
    """Run one root in this process; raise unless it succeeds."""
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    try:
        # A test run keeps its report, so a failure shows in the log.
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(
                    sys.stdout if kind == "tests" else sink):
            if kind == "cli":
                failure = _run_module("repro", target)
            elif kind == "tests":
                failure = pytest.main(["-q", "-p", "no:cacheprovider",
                                       *target])
            elif kind == "script":
                runpy.run_path(target, run_name="__main__")
                failure = 0
            else:
                from bench.workloads import WORKLOADS
                workload = WORKLOADS[target](0, True)
                workload.check(workload.run())
                failure = (workload.finish()
                           + workload.extra_layer_metrics(1.0)[1])
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    if failure:
        raise SystemExit(f"root {kind} {target!r} failed: {failure!r}")


def _is_default(value, default) -> bool:
    """``value`` is the default object, or one of its type equal to it
    (a numpy scalar or array is never a literal's type, so it is set)."""
    if value is default:
        return True
    if type(value) is not type(default):
        return False
    try:
        return bool(value == default)
    except ValueError:   # a tuple holding an array
        return False


def _census_child(spec_path: str) -> None:
    """Record every code object under ``spec["record"]`` that each
    phase's roots run, and each watched option a call set, one record
    per phase."""
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    watched = {(file, line, name): {option: ast.literal_eval(default)
                                    for option, default in options}
               for file, line, name, options in spec["watch"]}
    codes: Dict[int, object] = {}
    # id(code) -> {option: default} of its watched options still unset
    # (None for code with no watched option); one lookup per call.
    unset: Dict[int, Optional[Dict[str, object]]] = {}
    bound: Bound = set()

    def record(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        left = unset.get(id(code), codes)
        if left is codes:   # first call of this code object
            codes[id(code)] = code
            options = watched.get(
                (code.co_filename, code.co_firstlineno, code.co_name))
            left = unset[id(code)] = dict(options) if options else None
        if left:
            # At the call event the callee's locals are its arguments.
            arguments = frame.f_locals
            for option, default in list(left.items()):
                if not _is_default(arguments.get(option, default), default):
                    del left[option]
                    bound.add((code.co_filename, code.co_firstlineno,
                               code.co_name, option))

    threading.setprofile(record)
    sys.setprofile(record)
    phases = []
    for roots in spec["phases"]:
        codes.clear()
        unset.clear()
        bound.clear()
        for kind, target, env in roots:
            _run_root(kind, target, env)
        phases.append({"ran": sorted({
            (code.co_filename, code.co_firstlineno, code.co_name)
            for code in list(codes.values())
            if code.co_filename.startswith(spec["record"])}),
            "bound": sorted(bound)})
    sys.setprofile(None)
    threading.setprofile(None)
    Path(spec["output"]).write_text(json.dumps(phases), encoding="utf-8")


def executed(record: Path, phases: Sequence[Sequence[Root]],
             workdir: Path, watch: Sequence["Definition"]
             ) -> List[Tuple[Ran, Bound]]:
    """Per phase, ``(file, first line, name)`` of each code object
    under ``record`` that its roots ran, and which options of the
    ``watch`` definitions a call set."""
    spec = workdir / "census-spec.json"
    output = workdir / "census-ran.json"
    spec.write_text(json.dumps({
        "record": str(record), "phases": phases, "output": str(output),
        "watch": [[*d.key, list(d.options)] for d in watch if d.options]}),
        encoding="utf-8")
    env = {key: os.environ[key] for key in ("PATH", "HOME", "TMPDIR")
           if key in os.environ}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(spec)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-4000:]
    return [({(str(Path(path).resolve()), line, name)
              for path, line, name in phase["ran"]},
             {(str(Path(path).resolve()), line, name, option)
              for path, line, name, option in phase["bound"]})
            for phase in json.loads(output.read_text(encoding="utf-8"))]


# -- the definitions ------------------------------------------------------------

@dataclass(frozen=True)
class Definition:
    """One ``def`` (or one module) and the code object it compiles to."""

    qualname: str
    module: str
    key: Tuple[str, int, str]   # (resolved file, first line, co_name)
    lines: int
    parent: Optional[str]       # enclosing function, or the module
    #: ``(parameter, default's source)`` of each parameter whose
    #: default is a literal.
    options: Tuple[Tuple[str, str], ...] = ()


#: The types of a literal default besides a tuple (a bool is an int).
LITERALS = (int, float, complex, str, bytes, type(None))


def _literal(node: ast.AST) -> bool:
    """``node`` is a literal: a number (a negative one too), a string,
    bytes, ``None``, a bool, or a tuple of literals."""
    if isinstance(node, ast.Tuple):
        return all(_literal(element) for element in node.elts)
    try:
        return isinstance(ast.literal_eval(node), LITERALS)
    except (ValueError, TypeError):   # a name, a call, a list, ...
        return False


def _options(node: ast.AST) -> Tuple[Tuple[str, str], ...]:
    """The options of a ``def``: its parameters with a literal default."""
    args = node.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):],
                     args.defaults)) + list(zip(args.kwonlyargs,
                                                args.kw_defaults))
    return tuple((arg.arg, ast.unparse(default)) for arg, default in pairs
                 if default is not None and _literal(default))


def definitions(root: Path, package: str) -> Dict[str, Definition]:
    """Every module and ``def`` under ``root``, keyed by qualname."""
    found: Dict[str, Definition] = {}
    for path in sorted(root.rglob("*.py")):
        parts = (package,) + path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(parts)
        source = path.read_text(encoding="utf-8")
        file = str(path.resolve())
        found[module] = Definition(module, module, (file, 1, "<module>"),
                                   len(source.splitlines()), None)

        def visit(node, prefix: str, parent: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [
                        d.lineno for d in child.decorator_list])
                    qual = f"{prefix}.{child.name}"
                    if qual in found:   # a property setter, a redefinition
                        qual = f"{qual}@{first}"
                    found[qual] = Definition(
                        qual, module, (file, first, child.name),
                        child.end_lineno - first + 1, parent,
                        _options(child))
                    visit(child, qual, qual)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}", parent)
                else:
                    visit(child, prefix, parent)

        visit(ast.parse(source), module, module)
    return found


def unexecuted(found: Dict[str, Definition],
               ran: Ran) -> List[Definition]:
    """Definitions that never ran and whose parent did."""
    return [d for d in found.values() if d.key not in ran and (
        d.parent is None or found[d.parent].key in ran)]


# -- what bench/ holds ----------------------------------------------------------

def _code_key(obj) -> Optional[Tuple[str, int, str]]:
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        obj = obj.fget
    code = getattr(inspect.unwrap(obj), "__code__", None)
    if code is None:
        return None
    return (str(Path(code.co_filename).resolve()), code.co_firstlineno,
            code.co_name)


def bench_held() -> Ran:
    """Every ``BOUNDARIES`` target, and every function ``bench/`` imports."""
    from bench.layers import BOUNDARIES
    held = set()
    for boundary in BOUNDARIES:
        owner = importlib.import_module(boundary.module)
        if boundary.cls is not None:
            held.add(_code_key(
                getattr(owner, boundary.cls).__dict__[boundary.attr]))
        else:
            held.add(_code_key(getattr(owner, boundary.attr)))
    for path in sorted((REPO_ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").split(".")[0] == "repro":
                module = importlib.import_module(node.module)
                held.update(_code_key(getattr(module, alias.name))
                            for alias in node.names)
    held.discard(None)
    return held


def _callee(definition: Definition) -> str:
    """The name a call of ``definition`` spells: a constructor call
    names the class."""
    parts = definition.qualname.split(".")
    return parts[-2] if parts[-1] == "__init__" else parts[-1]


def bench_passed() -> Set[Tuple[str, str]]:
    """``(callee, keyword)`` of every keyword a ``bench/*.py`` call passes."""
    passed = set()
    for path in sorted((REPO_ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "attr", getattr(func, "id", None))
                passed.update((callee, keyword.arg)
                              for keyword in node.keywords if keyword.arg)
    return passed


# -- the census -----------------------------------------------------------------

def _documented_command_lines() -> Set[str]:
    lines = set()
    for name in DOCS:
        fenced = False
        for line in (REPO_ROOT / name).read_text(
                encoding="utf-8").splitlines():
            if line.startswith("```"):
                fenced = not fenced
            elif fenced and line.startswith("python -m repro "):
                command = line.split("#")[0].split()[2:]
                lines.add(" ".join(command))
    return lines


def roots() -> List[Root]:
    from bench.workloads import WORKLOADS
    every: List[Root] = []
    for line in CLI_ROOTS:
        argv = line.split()[1:]
        env = {}
        if "--workers" in argv:
            env["REPRO_PLANNER"] = "sharded"
        if "--update" in argv:
            env["REPRO_SCENARIO_GOLDEN_DIR"] = "goldens"
        every.append(("cli", argv, env))
    every += [("script", str(path), {})
              for path in sorted((REPO_ROOT / "examples").glob("*.py"))]
    return every + [("bench", name, {}) for name in sorted(WORKLOADS)]


@dataclass
class Census:
    found: Dict[str, Definition]
    ran: Ran            # by the roots
    bound: Bound        # options the roots set
    by_tests: Ran       # by the tests ERROR_PATHS and POOL_ONLY name
    held: Ran           # by bench/
    passed: Set[Tuple[str, str]]    # keywords bench/ passes

    def dead(self) -> List[Definition]:
        listed = set(ALLOWLIST) | set(ERROR_PATHS) | set(POOL_ONLY)
        return [d for d in unexecuted(self.found, self.ran)
                if d.qualname not in listed and d.key not in self.held]

    def never_ran(self, qualname: str) -> bool:
        return any(d.qualname == qualname
                   for d in unexecuted(self.found, self.ran))

    def unset(self) -> Dict[str, Definition]:
        """``qualname(option)`` -> definition, for each option of an
        executed definition that no root set and no bench call passes."""
        return {f"{d.qualname}({option})": d
                for d in self.found.values() if d.key in self.ran
                for option, _ in d.options
                if (*d.key, option) not in self.bound
                and (_callee(d), option) not in self.passed}


SRC_MODULES = sorted(d.module for d in definitions(SRC, "repro").values()
                     if d.parent is None)


@pytest.fixture(scope="module")
def census(tmp_path_factory) -> Census:
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    tests = sorted({str(REPO_ROOT / test_id) for test_id in
                    {**ERROR_PATHS, **POOL_ONLY}.values()})
    every = roots()
    # Each root runs once; alternate roots go to LANES interpreters
    # that run side by side.  The first lane then runs the tests.
    lanes = [[every[lane::LANES]] for lane in range(LANES)]
    lanes[0].append([("tests", tests, {})])
    workdirs = [tmp_path_factory.mktemp("census") for _ in lanes]
    found = definitions(SRC, "repro")
    with ThreadPoolExecutor(LANES) as pool:
        runs = list(pool.map(
            lambda phases, workdir: executed(
                SRC.resolve(), phases, workdir, list(found.values())),
            lanes, workdirs))
    ran = set().union(*(run[0][0] for run in runs))
    bound = set().union(*(run[0][1] for run in runs))
    return Census(found, ran, bound, runs[0][1][0], bench_held(),
                  bench_passed())


def test_cli_roots_are_the_documented_command_lines():
    documented = _documented_command_lines()
    rooted = set(CLI_ROOTS)
    assert rooted == documented, (
        f"in the docs but not a root: {sorted(documented - rooted)}; "
        f"a root the docs do not show: {sorted(rooted - documented)}")


@pytest.mark.parametrize("name", SRC_MODULES)
def test_module_is_reached_from_a_root(name, census):
    assert name not in {d.qualname for d in census.dead()}, (
        f"{name}: imported by no documented command, example or bench "
        "workload; delete it or give it a documented root")


@pytest.mark.parametrize("name", SRC_MODULES)
def test_definitions_run_from_a_root(name, census):
    dead = [d for d in census.dead()
            if d.module == name and d.qualname != name]
    assert not dead, (
        f"{name}: run by no documented command, example or bench "
        "workload; delete it, give it a documented root, or hold it "
        "(ALLOWLIST with one of " + ", ".join(REASONS)
        + ", ERROR_PATHS, POOL_ONLY):\n"
        + "\n".join(f"  {d.qualname} ({d.lines} lines)" for d in dead))


@pytest.mark.parametrize("qualname", sorted(ALLOWLIST))
def test_allowlist_entry_is_needed_and_justified(qualname, census):
    assert ALLOWLIST[qualname].startswith(REASONS), (
        f"{qualname}: the reason must start with one of {REASONS}")
    assert qualname in census.found, (
        f"{qualname} no longer exists; drop its allowlist entry")
    assert census.never_ran(qualname), (
        f"{qualname} now runs from a root; drop its allowlist entry")


def test_allowlist_stays_short():
    assert len(ALLOWLIST) < 15


@pytest.mark.parametrize("qualname", sorted({**ERROR_PATHS, **POOL_ONLY}))
def test_held_definition_runs_only_off_the_roots(qualname, census):
    """Its test passed in the census run (a missing test id fails the
    run); a failure-path definition must also have run under it."""
    assert qualname in census.found, (
        f"{qualname} no longer exists; drop its entry")
    assert census.never_ran(qualname), (
        f"{qualname} now runs from a root; drop its entry")
    if qualname in ERROR_PATHS:
        assert census.found[qualname].key in census.by_tests, (
            f"{ERROR_PATHS[qualname]} does not run {qualname}")


@pytest.mark.parametrize("name", SRC_MODULES)
def test_options_set_from_a_root(name, census):
    unset = sorted(option for option, d in census.unset().items()
                   if d.module == name and option not in OPTION_HOLDS)
    assert not unset, (
        f"{name}: no documented command, example or bench workload sets "
        "these options; make each the value every root uses, or hold "
        "it (OPTION_HOLDS with one of "
        + ", ".join(REASONS + (SETTING,)) + "):\n"
        + "\n".join(f"  {option}" for option in unset))


@pytest.mark.parametrize("option", sorted(OPTION_HOLDS))
def test_option_hold_is_needed_and_justified(option, census):
    assert OPTION_HOLDS[option].startswith(REASONS + (SETTING,)), (
        f"{option}: the reason must start with one of "
        f"{REASONS + (SETTING,)}")
    assert option in census.unset(), (
        f"{option} is gone or now set from a root; drop its hold")


def test_option_holds_stay_short():
    assert len(OPTION_HOLDS) <= 15


# -- the bookkeeping, on a module small enough to read --------------------------

SYNTHETIC = '''\
import functools
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    x: int

    def __post_init__(self):
        assert self.x >= 0

    @property
    def double(self):
        return 2 * self.x

    @property
    def triple(self):
        return 3 * self.x

    def unused(self):
        return -self.x

    def moved(self, dx=None, clamp=True):
        return self.x + (dx or 0) if clamp else -self.x


ORIGIN = Point(0)


@functools.lru_cache(maxsize=None)
def cached(n, negate=False):
    def inner(k):
        return k + 1
    return -inner(n) if negate else inner(n)


@functools.lru_cache(maxsize=None)
def never(n):
    def inner(k):
        return k - 1
    return inner(n)


def outer():
    def nested():
        return 1
    return 0


def scale(x, factor=None, exact=False):
    return x * (factor or 1)


def grow(x, rate=1.5, shift=0, unit="km", bounds=(0, 1), floor=-1.0):
    return (x * rate + shift, unit, bounds, floor)


def pace(x, step=1.5):
    return x * step
'''


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory) -> Census:
    workdir = tmp_path_factory.mktemp("synthetic")
    package = workdir / "synth"
    package.mkdir()
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "shapes.py").write_text(SYNTHETIC, encoding="utf-8")
    (package / "unused.py").write_text("def f():\n    return 1\n",
                                       encoding="utf-8")
    root = workdir / "root.py"
    root.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(workdir)!r})\n"
        "import numpy\n"
        "from synth.shapes import Point, cached, grow, outer, pace, scale\n"
        "assert Point(2).double == 4\n"
        "assert Point(2).moved(clamp=False) == -2\n"
        "assert cached(1) == 2\n"
        "assert cached(1, negate=True) == -2\n"
        "assert outer() == 0\n"
        "assert scale(2, factor=3, exact=False) == 6\n"
        "grow(2, float('1.5'), floor=-1.0)\n"
        "grow(2, 1.5, 3)\n"
        "grow(2, unit='m', bounds=(0, 2))\n"
        "pace(2, numpy.float64(1.5))\n", encoding="utf-8")
    found = definitions(package, "synth")
    (ran, bound), = executed(package.resolve(),
                             [[("script", str(root), {})]], workdir,
                             list(found.values()))
    return Census(found, ran, bound, set(), set(), set())


@pytest.mark.parametrize("qualname,reached", [
    ("synth.shapes.Point.__post_init__", True),   # import time
    ("synth.shapes.Point.double", True),          # property: decorator line
    ("synth.shapes.Point.triple", False),
    ("synth.shapes.Point.unused", False),
    ("synth.shapes.cached", True),                # decorated: decorator line
    ("synth.shapes.cached.inner", True),
    ("synth.shapes.never", False),
    ("synth.shapes.outer", True),
    ("synth.shapes.outer.nested", False),
    ("synth.unused", False),                      # never imported
    ("synth.shapes", True),
])
def test_census_bookkeeping(qualname, reached, synthetic):
    assert synthetic.never_ran(qualname) != reached


def test_unexecuted_parent_hides_its_children(synthetic):
    assert not synthetic.never_ran("synth.shapes.never.inner")
    assert not synthetic.never_ran("synth.unused.f")


@pytest.mark.parametrize("option,set_by_root", [
    ("synth.shapes.scale(factor)", True),       # a None option, set
    ("synth.shapes.scale(exact)", False),       # passed, at its default
    ("synth.shapes.Point.moved(clamp)", True),  # a bool option, on a method
    ("synth.shapes.Point.moved(dx)", False),
    ("synth.shapes.cached(negate)", True),      # on a decorated def
    ("synth.shapes.grow(rate)", False),         # an equal float, built at run
    ("synth.shapes.grow(floor)", False),        # a negative default, equal
    ("synth.shapes.grow(shift)", True),         # an int, passed positionally
    ("synth.shapes.grow(unit)", True),          # a str default, another str
    ("synth.shapes.grow(bounds)", True),        # a tuple default, another
    ("synth.shapes.pace(step)", True),          # a numpy scalar, even if equal
])
def test_option_census_bookkeeping(option, set_by_root, synthetic):
    assert (option not in synthetic.unset()) == set_by_root


@pytest.mark.parametrize("default,watched", [
    ("1.5", True), ("-1", True), ("'km'", True), ("b'k'", True),
    ("None", True), ("True", True), ("(0, (1.5, 'a'))", True),
    ("[1]", False), ("(0, [1])", False), ("{}", False),
    ("Plmn(460, 0)", False), ("FIG8_RATES", False), ("-x", False),
])
def test_literal_default_is_an_option(default, watched):
    """Literals, tuples of them and negative numbers are options;
    containers, calls and names are not."""
    node = ast.parse(f"def f(x, y={default}):\n    pass\n").body[0]
    assert _options(node) == ((("y", default),) if watched else ())


if __name__ == "__main__":
    _census_child(sys.argv[1])
