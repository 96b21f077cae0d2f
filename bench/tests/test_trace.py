"""Span self-time arithmetic and boundary patching, on synthetic input."""

import sys
import types

import pytest

from bench import layers, trace
from bench.trace import Boundary, Tracer


class FakeClock:
    """Each reading is scripted, so span times are exact."""

    def __init__(self, readings):
        self._readings = iter(readings)

    def __call__(self):
        return next(self._readings)


def _nested_trace():
    """job[0,10] > a[1,7] > (b[2,4], c[4,5]);  job > d[8,9.5]."""
    tracer = Tracer(clock=FakeClock([0, 1, 2, 4, 4, 5, 7, 8, 9.5, 10]))
    b = tracer.wrap("b", "inner", lambda: None)
    c = tracer.wrap("c", "inner", lambda: None)
    a = tracer.wrap("a", "outer", lambda: (b(), c()))
    d = tracer.wrap("d", "outer", lambda: None)
    with tracer.span("bench.job", "bench"):
        a()
        d()
    return tracer.spans


def test_self_time_is_duration_minus_child_cover():
    spans = _nested_trace()
    assert [s[trace.NAME] for s in spans] == ["bench.job", "a", "b", "c", "d"]
    assert [s[trace.PARENT] for s in spans] == [-1, 0, 1, 1, 0]
    own = dict(zip((s[trace.NAME] for s in spans), trace.self_times(spans)))
    assert own == {"bench.job": 10 - 6 - 1.5, "a": 6 - 2 - 1, "b": 2,
                   "c": 1, "d": 1.5}
    # Self times partition the root span exactly.
    assert sum(own.values()) == 10
    assert trace.self_time_by(spans, trace.LAYER) == {
        "bench": 2.5, "outer": 4.5, "inner": 3}


def test_span_closes_when_the_wrapped_call_raises():
    tracer = Tracer(clock=FakeClock([0, 1, 3, 4]))

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("boom", "layer", boom)
    with pytest.raises(KeyError):
        with tracer.span("bench.job", "bench"):
            wrapped()
    assert tracer.spans[1][trace.START:trace.END + 1] == [1, 3]
    assert tracer.spans[0][trace.END] == 4


def test_job_spans_rebases_parents():
    tracer = Tracer(clock=FakeClock(range(100)))
    leaf = tracer.wrap("leaf", "layer", lambda: None)
    for job in range(3):
        tracer.job = job
        with tracer.span("bench.job", "bench"):
            leaf()
            leaf()
    second = trace.job_spans(tracer.spans, 1)
    assert [s[trace.PARENT] for s in second] == [-1, 0, 0]
    assert {s[trace.JOB] for s in second} == {1}
    assert trace.job_spans(tracer.spans, 7) == []


def test_span_metrics_untraced_share_and_retries():
    clock = FakeClock([0, 1, 2, 3, 4, 5, 6, 7, 8, 10])
    tracer = Tracer(clock=clock)
    attempt = tracer.wrap("core.attempt", "core", lambda: None)
    procedure = tracer.wrap("core.recover", "core",
                            lambda: (attempt(), attempt(), attempt()))
    with tracer.span("bench.job", "bench"):
        procedure()
    metrics = layers.span_metrics(tracer.spans)
    assert metrics["core.procedures"] == 1
    assert metrics["core.retries"] == 2           # three attempts, one op
    assert metrics["core.self_s"] == 7            # recover [1,8] covers all
    assert metrics["bench.traced_job_s"] == 10
    assert metrics["bench.untraced_share"] == pytest.approx(0.3)
    assert metrics["core.recover_p50_ms"] == 7000.0


@pytest.fixture
def fake_package():
    """``fakepkg.impl`` defines f and C.m; ``fakepkg.user`` did
    ``from fakepkg.impl import f as alias``."""
    impl = types.ModuleType("fakepkg.impl")
    exec("def f(x):\n    return x + 1\n\n"
         "class C:\n    def m(self, x):\n        return f(x) * 2\n",
         impl.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.alias = impl.f
    user.call = lambda x: user.alias(x)
    outsider = types.ModuleType("otherpkg.mod")
    outsider.f = impl.f
    modules = {"fakepkg": types.ModuleType("fakepkg"),
               "fakepkg.impl": impl, "fakepkg.user": user,
               "otherpkg.mod": outsider}
    sys.modules.update(modules)
    yield impl, user, outsider
    for name in modules:
        del sys.modules[name]


def test_install_patches_every_binding_and_uninstall_restores(fake_package):
    impl, user, outsider = fake_package
    original = impl.f
    tracer = Tracer()
    patches = trace.install(tracer, [
        Boundary("layer", "f", "fakepkg.impl", "f"),
        Boundary("layer", "C.m", "fakepkg.impl", "m", "C"),
    ], package="fakepkg")
    assert impl.f is not original
    assert user.alias is impl.f         # the from-import binding, aliased
    assert outsider.f is original       # other packages are left alone
    assert user.call(1) == 2
    assert impl.C().m(1) == 4           # method span, f span nested in it
    assert trace.counts_by_name(tracer.spans) == {"f": 2, "C.m": 1}
    assert tracer.spans[2][trace.PARENT] == 1
    trace.uninstall(patches)
    assert impl.f is original and user.alias is original
    assert impl.C.__dict__["m"].__name__ == "m"
    impl.C().m(1)
    assert len(tracer.spans) == 3       # nothing recorded after uninstall


def test_every_boundary_resolves_in_the_program():
    """A renamed method or module must fail here, not as a silent
    zero in the layer table."""
    tracer = Tracer()
    patches = trace.install(tracer, layers.BOUNDARIES)
    try:
        assert len(patches) >= len(layers.BOUNDARIES)
    finally:
        trace.uninstall(patches)
