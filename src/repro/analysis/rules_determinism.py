"""Determinism rules: seeded randomness and simulated time only.

The sharded parallel runtime (PR 3) promises bit-identical output
whether an experiment runs serially or on sixteen workers.  That
promise dies the moment any code path

* draws from the *module-level* ``random`` / ``numpy.random`` state
  (worker processes each have their own, differently-warmed copy),
* derives a seed or cache key through the builtin ``hash()`` (salted
  per process via ``PYTHONHASHSEED`` -- the exact bug ``seed_for``
  was introduced to fix), or
* reads the wall clock inside simulated code (``sim/``, ``runtime/``,
  ``experiments/``, ``fiveg/``, ``core/``, ``faults/`` and ``obs/``
  must run on the Simulator's clock; wall-clock reads make reruns
  diverge).  Since ISSUE 5 this includes ``time.perf_counter`` and
  ``time.monotonic``: the SBI mesh was stamping handler latency with
  ``perf_counter`` and feeding it into the recorded artifacts, which
  is exactly the feeding-wall-time-into-the-computation bug.  Timing
  a benchmark is still fine -- ``bench/`` and the CLI front end are
  outside the rule's scope.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from .core import (
    Finding,
    ModuleInfo,
    ProjectContext,
    Rule,
    call_name,
    tail_name,
)
from .registry import register

#: ``random.<fn>`` draws on shared module state; any use is a finding.
STDLIB_SAMPLERS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "paretovariate",
    "triangular", "vonmisesvariate", "weibullvariate", "getrandbits",
    "randbytes", "seed",
})

#: Legacy ``numpy.random.<fn>`` draws on the global numpy state.
NUMPY_SAMPLERS = frozenset({
    "random", "rand", "randn", "randint", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "poisson", "normal",
    "uniform", "exponential", "binomial", "geometric", "gamma", "beta",
    "standard_normal", "multinomial", "seed",
})

#: Constructors that are fine *seeded* but findings bare.
SEEDABLE_CONSTRUCTORS = frozenset({
    "random.Random", "random.SystemRandom",
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.RandomState", "numpy.random.SeedSequence",
})

#: Call targets that consume a seed; ``hash()`` flowing into one is
#: the PYTHONHASHSEED reproducibility bug.
SEED_SINK_TAILS = frozenset({
    "Random", "RandomState", "default_rng", "SeedSequence", "seed",
    "seed_for",
})

#: Wall-clock reads that must not appear in simulated code.  The
#: monotonic timers are included: their *values* are as process-local
#: and non-reproducible as ``time.time()``, and once one lands in a
#: metric or artifact (the ISSUE 5 SBI bug) determinism is gone.
WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

_SEEDY = ("seed", "key", "rng")


def _name_is_seedy(name: str) -> bool:
    lowered = name.lower()
    return any(word in lowered for word in _SEEDY)


@register
class UnseededRngRule(Rule):
    """Flag draws from shared RNG state and unseeded RNG construction."""

    id = "unseeded-rng"
    family = "determinism"
    description = ("module-level random/np.random draws and unseeded "
                   "RNG constructors break cross-shard reproducibility")

    def check(self, module: ModuleInfo,
              project: ProjectContext) -> Iterable[Finding]:
        """Yield every global-state draw and bare RNG construction."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, module)
            if name is None:
                continue
            if name in SEEDABLE_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    yield module.finding(
                        self.id, node,
                        f"{name}() constructed without a seed; pass a "
                        f"seed (derive per-shard seeds via seed_for)")
                continue
            root, _, rest = name.partition(".")
            fn = tail_name(name)
            if root == "random" and rest and fn in STDLIB_SAMPLERS:
                yield module.finding(
                    self.id, node,
                    f"{name}() draws from the process-global random "
                    f"state; use a seeded random.Random instance")
            elif (name.startswith("numpy.random.")
                  and fn in NUMPY_SAMPLERS):
                yield module.finding(
                    self.id, node,
                    f"{name}() draws from the global numpy RNG; use "
                    f"np.random.default_rng(seed_for(...)) instead")


@register
class HashSeedRule(Rule):
    """Flag builtin ``hash()`` feeding seed or key derivation."""

    id = "hash-seed"
    family = "determinism"
    description = ("builtin hash() is salted per process "
                   "(PYTHONHASHSEED); deriving seeds/keys from it "
                   "breaks cross-process determinism -- use "
                   "runtime.parallel.seed_for")

    def check(self, module: ModuleInfo,
              project: ProjectContext) -> Iterable[Finding]:
        """Yield every ``hash()`` call that flows into a seed or key."""
        hash_calls = self._builtin_hash_calls(module)
        if not hash_calls:
            return
        flagged: Set[int] = set()
        for node in ast.walk(module.tree):
            # hash() assigned to a seed/key-named variable.
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                if node.value is None:
                    continue
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if not any(_name_is_seedy(n) for n in names):
                    continue
                for call in self._contained(node.value, hash_calls):
                    flagged.add(id(call))
                    yield module.finding(
                        self.id, call,
                        f"hash() result bound to {names[0]!r}: salted "
                        f"per process; use seed_for/hashlib")
            # hash() passed (possibly through arithmetic) to a seed sink.
            elif isinstance(node, ast.Call):
                if tail_name(call_name(node, module)) not in SEED_SINK_TAILS:
                    continue
                for argument in list(node.args) + [
                        kw.value for kw in node.keywords]:
                    for call in self._contained(argument, hash_calls):
                        if id(call) in flagged:
                            continue
                        flagged.add(id(call))
                        yield module.finding(
                            self.id, call,
                            "hash() used in a seed derivation: salted "
                            "per process; use seed_for/hashlib")
        # hash() anywhere inside a function whose name says seed/key.
        for func_name, call in self._calls_in_seedy_functions(module):
            if id(call) not in flagged:
                flagged.add(id(call))
                yield module.finding(
                    self.id, call,
                    f"hash() inside {func_name}(): salted per process; "
                    f"use seed_for/hashlib for stable derivation")

    @staticmethod
    def _builtin_hash_calls(module: ModuleInfo) -> Set[int]:
        calls: Set[int] = set()
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                calls.add(id(node))
        return calls

    @staticmethod
    def _contained(node: ast.expr, hash_calls: Set[int]
                   ) -> List[ast.Call]:
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Call) and id(n) in hash_calls]

    @staticmethod
    def _calls_in_seedy_functions(module: ModuleInfo
                                  ) -> List[tuple]:
        out: List[tuple] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if not _name_is_seedy(node.name):
                continue
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id == "hash"):
                    out.append((node.name, inner))
        return out


@register
class WallclockRule(Rule):
    """Flag wall-clock reads inside simulated code."""

    id = "wallclock-time"
    family = "determinism"
    description = ("time.time()/perf_counter()/datetime.now() inside "
                   "simulated code makes reruns diverge; use the "
                   "Simulator clock, an injectable clock, or pass "
                   "timestamps in")
    scope = ("sim/", "runtime/", "experiments/", "fiveg/", "core/",
             "faults/", "obs/")

    def check(self, module: ModuleInfo,
              project: ProjectContext) -> Iterable[Finding]:
        """Yield every wall-clock read in scoped (simulated) code."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, module)
            if name in WALLCLOCK_CALLS:
                yield module.finding(
                    self.id, node,
                    f"{name}() reads the wall clock inside simulated "
                    f"code; use Simulator.now or an explicit t")
