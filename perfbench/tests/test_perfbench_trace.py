"""Self-time subtraction, call counting and patching of the layer
tracer, driven by hand-made clock readings."""

import threading
import types

from perfbench import layertrace, spans
from perfbench.layertrace import Patcher, Tracer


class FakeClock:
    """A clock that only moves when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_tracer():
    cpu, wall = FakeClock(), FakeClock()
    return Tracer(cpu_clock=cpu, wall_clock=wall), cpu, wall


class TestSelfTime:
    def test_child_time_is_subtracted_from_parent(self):
        tracer, cpu, wall = make_tracer()

        def inner():
            cpu.advance(3.0)
            wall.advance(3.0)

        inner_t = tracer.traced("inner", inner, "b")

        def outer():
            cpu.advance(1.0)
            inner_t()
            cpu.advance(2.0)
            wall.advance(10.0)      # parked: wall moves, CPU does not

        tracer.traced("outer", outer, "a")()
        st = tracer.stats()
        assert st["outer"].self_cpu == 3.0
        assert st["outer"].cpu == 6.0
        assert st["outer"].wall == 13.0
        assert st["outer"].waited == 7.0
        assert st["inner"].self_cpu == 3.0
        assert tracer.layer_self() == {"a": 3.0, "b": 3.0}

    def test_self_times_sum_to_root_time(self):
        tracer, cpu, _ = make_tracer()
        leaf = tracer.traced("leaf", lambda: cpu.advance(0.25), "c")

        def mid():
            cpu.advance(0.5)
            leaf()
            leaf()

        mid_t = tracer.traced("mid", mid, "b")

        def root():
            mid_t()
            cpu.advance(1.0)
            mid_t()

        tracer.traced("root", root, "a")()
        st = tracer.stats()
        assert sum(s.self_cpu for s in st.values()) == st["root"].cpu == 3.0
        assert st["leaf"].calls == 4 and st["mid"].calls == 2

    def test_same_label_nesting_is_one_entry(self):
        tracer, cpu, _ = make_tracer()

        def rec(n):
            cpu.advance(1.0)
            if n:
                rec_t(n - 1)

        rec_t = tracer.traced("layer", rec, "a")
        rec_t(3)
        st = tracer.stats()["layer"]
        assert st.calls == 1
        assert st.self_cpu == 4.0

    def test_exception_still_closes_the_span(self):
        tracer, cpu, _ = make_tracer()

        def boom():
            cpu.advance(2.0)
            raise KeyError("x")

        boom_t = tracer.traced("boom", boom, "a")
        try:
            tracer.traced("outer", lambda: boom_t(), "a")()
        except KeyError:
            pass
        st = tracer.stats()
        assert st["boom"].self_cpu == 2.0
        assert st["outer"].self_cpu == 0.0

    def test_counts(self):
        tracer, _, _ = make_tracer()
        post = tracer.traced("post", lambda n: n, "net",
                             count=lambda a, k, r: (("words", r),))
        post(3)
        post(4)
        assert tracer.stats()["post"].counts == {"words": 7}

    def test_threads_keep_separate_stacks(self):
        tracer = Tracer()
        gate = threading.Barrier(2)

        def work():
            gate.wait()

        work_t = tracer.traced("work", work, "a")
        threads = [threading.Thread(target=work_t) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert tracer.stats()["work"].calls == 2


class TestPatcher:
    def test_function_rebound_everywhere_and_restored(self):
        home = types.ModuleType("repro._perfbench_home")
        user = types.ModuleType("perfbench._perfbench_user")

        def select(x):
            return x + 1

        home.select = select
        user.select = select        # "from .home import select"
        import sys
        sys.modules[home.__name__] = home
        sys.modules[user.__name__] = user
        try:
            tracer = Tracer()
            with Patcher(tracer) as patch:
                patch.function(home, "select", "sparse.select")
                assert home.select is user.select is not select
                assert user.select(1) == 2
            assert home.select is select and user.select is select
            assert tracer.stats()["sparse.select"].calls == 1
        finally:
            del sys.modules[home.__name__], sys.modules[user.__name__]

    def test_method_restored(self):
        class Engine:
            def step(self):
                return 5

        original = Engine.__dict__["step"]
        tracer = Tracer()
        with Patcher(tracer) as patch:
            patch.method(Engine, "step", "engine.step")
            assert Engine().step() == 5
        assert Engine.__dict__["step"] is original
        assert tracer.stats()["engine.step"].calls == 1


def test_layer_of_module_takes_the_longest_prefix():
    assert layertrace.layer_of_module("repro.train.rankbatch") == "rankbatch"
    assert layertrace.layer_of_module("repro.train.trainer") == "trainer"
    assert layertrace.layer_of_module("repro.comm.fused") == "fused"
    assert layertrace.layer_of_module("repro.allreduce.oktopk") == \
        "allreduce"
    assert layertrace.layer_of_module("json") == "other"


def test_liveness_reads_calls_and_prefixes():
    hit, idle = layertrace.SpanStat(), layertrace.SpanStat()
    hit.calls = 2
    stats = {"network.post": idle, "fused.exec.allreduce": hit,
             "collectives": hit}
    out = spans.liveness(stats, ("collectives", "fused.exec.*", "nn"),
                         ("network.post", "fused.exec.*"))
    assert out == {"live:collectives": True, "live:fused.exec.*": True,
                   "live:nn": False, "bypassed:network.post": True,
                   "bypassed:fused.exec.*": False}
