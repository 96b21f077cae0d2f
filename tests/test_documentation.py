"""Documentation gates: doc comments, and docs that name only what runs.

Deliverable (e) requires doc comments on every public item; this test
walks the entire package and fails on any undocumented public module,
class, function, or method.

The prose docs are held to the code too: every ``REPRO_*`` variable
they name is read by ``src/``, a bench script or a CI workflow, every
backticked ``repro.x.y`` name they cite imports, and every backticked
CamelCase or UPPER_SNAKE name is defined or imported in ``src/``,
``bench/`` or ``tests/``, a builtin, or an environment variable.
"""

import ast
import builtins
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The prose docs the gates read.
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "examples/README.md")

_ENV_VAR = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
_DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")
#: A CamelCase (``NextHopTable``) or UPPER_SNAKE (``RELAY_MAX_HOPS``)
#: name inside a backticked span.
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_CODE_NAME = re.compile(r"\b(?:[A-Z][a-z0-9]+[A-Z][A-Za-z0-9]*"
                        r"|[A-Z][A-Z0-9]*_[A-Z0-9_]*[A-Z0-9])\b")
#: A variable a CI workflow sets (``  CHAOS_SEED: ...``).
_CI_ENV = re.compile(r"^\s+([A-Z][A-Z0-9_]+):", re.MULTILINE)


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        yield importlib.import_module(info.name)


ALL_MODULES = list(_iter_modules())


@pytest.mark.parametrize("module", ALL_MODULES,
                         ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), \
        f"{module.__name__} lacks a module docstring"


@pytest.mark.parametrize("module", ALL_MODULES,
                         ids=lambda m: m.__name__)
def test_public_items_documented(module):
    undocumented = []
    for name, item in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(item) or inspect.isfunction(item)):
            continue
        if getattr(item, "__module__", None) != module.__name__:
            continue  # re-export; documented at its definition site
        if not (item.__doc__ and item.__doc__.strip()):
            undocumented.append(name)
        if inspect.isclass(item):
            for member_name, member in vars(item).items():
                if member_name.startswith("_"):
                    continue
                if not inspect.isfunction(member):
                    continue
                if not (member.__doc__ and member.__doc__.strip()):
                    undocumented.append(f"{name}.{member_name}")
    assert not undocumented, (
        f"{module.__name__} has undocumented public items: "
        f"{sorted(undocumented)}")


def test_package_inventory_nontrivial():
    """The walk really covers the whole library."""
    names = {m.__name__ for m in ALL_MODULES}
    for expected in ("repro.core.spacecore", "repro.fiveg.procedures",
                     "repro.topology.routing", "repro.crypto.abe",
                     "repro.experiments.signaling"):
        assert expected in names
    assert len(names) > 50


def _doc_matches(pattern):
    return sorted({match for doc in DOCS
                   for match in pattern.findall(
                       (REPO_ROOT / doc).read_text(encoding="utf-8"))})


@pytest.fixture(scope="module")
def code_env_vars():
    """``REPRO_*`` names in non-docstring literals of src/ and bench/*.py."""
    paths = sorted((REPO_ROOT / "src").rglob("*.py")) \
        + sorted((REPO_ROOT / "bench").glob("*.py"))
    strings = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef,
                                           ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and node.body
                      and isinstance(node.body[0], ast.Expr)
                      and isinstance(node.body[0].value, ast.Constant)}
        strings.update(node.value for node in ast.walk(tree)
                       if isinstance(node, ast.Constant)
                       and isinstance(node.value, str)
                       and id(node) not in docstrings)
    return {name for text in strings for name in _ENV_VAR.findall(text)}


@pytest.fixture(scope="module")
def workflows():
    return "".join(path.read_text(encoding="utf-8") for path in
                   (REPO_ROOT / ".github" / "workflows").glob("*.yml"))


@pytest.mark.parametrize("name", _doc_matches(_ENV_VAR))
def test_documented_env_var_is_read(name, code_env_vars, workflows):
    assert name in code_env_vars or name in _ENV_VAR.findall(workflows), (
        f"{name} is documented but nothing in src/, bench/*.py or CI "
        f"reads it")


def _code_names():
    """Backticked CamelCase / UPPER_SNAKE names of the prose docs, each
    with the ``doc:line`` it first appears at."""
    names = {}
    for doc in DOCS:
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for span in _CODE_SPAN.findall(line):
                for name in _CODE_NAME.findall(span):
                    names.setdefault(name, f"{doc}:{lineno}")
    return sorted(names.items())


@pytest.fixture(scope="module")
def defined_names():
    """Every class, function, assigned or imported name in src/,
    bench/ and tests/."""
    names = set()
    for root in ("src", "bench", "tests"):
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.alias):
                    names.add(node.asname or node.name.split(".")[-1])
    return names


@pytest.mark.parametrize("name,where", _code_names())
def test_documented_code_name_exists(name, where, defined_names,
                                     code_env_vars, workflows):
    """A doc that names a class or constant the code no longer has
    describes a design that is gone."""
    assert (name in defined_names or hasattr(builtins, name)
            or name in code_env_vars or name in _CI_ENV.findall(workflows)
            or name in _ENV_VAR.findall(workflows)), (
        f"{where} names `{name}`, which nothing in src/, bench/ or tests/ "
        f"defines or imports, and which is no builtin or read env var")


@pytest.mark.parametrize("dotted", _doc_matches(_DOTTED))
def test_documented_repro_name_imports(dotted):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            assert hasattr(target, attr), f"{dotted} does not resolve"
            target = getattr(target, attr)
        return
    pytest.fail(f"{dotted} does not import")


#: A backticked kebab-case name (``stateful-nf``, ``urban-hotspot``).
_KEBAB = re.compile(r"`([a-z][a-z0-9]*(?:-[a-z][a-z0-9]*)+)`")
#: A rule count in prose ("Its three rules").
_RULE_COUNT = re.compile(r"\b(one|two|three|four|five|six|seven|eight|"
                         r"nine|ten|eleven|twelve) (?:lint )?rules\b")
_COUNT_WORDS = ("zero one two three four five six seven eight nine ten "
                "eleven twelve").split()


def _kebab_names():
    """Backticked kebab-case names of README.md and DESIGN.md, each
    with the ``doc:line`` it first appears at."""
    names = {}
    for doc in ("README.md", "DESIGN.md"):
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for name in _KEBAB.findall(line):
                names.setdefault(name, f"{doc}:{lineno}")
    return sorted(names.items())


@pytest.fixture(scope="module")
def rule_ids():
    from repro.analysis import all_rules
    return {rule.id for rule in all_rules()}


@pytest.fixture(scope="module")
def other_kebab_names(workflows):
    """Kebab-case names that are not lint rules: catalog scenarios,
    paper-claim ids, CI jobs, and the analyzer's parse-error id."""
    from repro.analysis.runner import PARSE_ERROR_RULE
    from repro.scenarios import scenario_names
    claims = re.findall(r'@claim\("([^"]+)"\)', (
        REPO_ROOT / "tests" / "test_paper_claims.py").read_text())
    jobs = re.findall(r"^  ([a-z][a-z0-9-]*):$", workflows, re.MULTILINE)
    return set(scenario_names()) | set(claims) | set(jobs) | {
        PARSE_ERROR_RULE}


@pytest.mark.parametrize("name,where", _kebab_names())
def test_documented_rule_id_is_registered(name, where, rule_ids,
                                          other_kebab_names):
    """A doc that names a lint rule the registry no longer has
    describes a check that no longer runs."""
    assert name in rule_ids or name in other_kebab_names, (
        f"{where} names `{name}`, which is no registered lint rule, "
        f"catalog scenario, paper claim or CI job")


def test_every_rule_has_a_catalogue_entry_and_the_count_holds(rule_ids):
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert {rule_id for rule_id in rule_ids
            if f"| `{rule_id}` |" not in design} == set(), (
        "DESIGN.md's rule catalogue lacks these registered rules")
    for doc in ("README.md", "DESIGN.md"):
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        for word in _RULE_COUNT.findall(text):
            assert _COUNT_WORDS.index(word) == len(rule_ids), (
                f"{doc} says {word} rules; {len(rule_ids)} are registered")
