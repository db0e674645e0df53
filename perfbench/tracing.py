"""Span tracer for the benchmark's traced run.

The tracer wraps znav's public functions as the calling module sees
them (``znav.cli.integrate`` is patched separately from
``znav.integrate.integrate``) and records one span per call: name,
start, end, parent span, job id and thread.  The geodesic right-hand
side is called tens of thousands of times per job, so it gets no span
of its own: the rhs returned by ``make_rhs`` is wrapped to add its call
count and time to the innermost open span of its thread, and the
Lagrangian and wind-component wrappers add their call counts the same
way.  Spans stay in memory until the run ends; nothing is written while
jobs run.

Fan members run on integrate_family's worker threads.  Each thread
keeps its own span stack; a worker with an empty stack parents its
spans to the innermost span of the thread that created the tracer
(one job runs at a time, so that is the job's integrate_family span).
"""
import contextlib
import functools
import itertools
import resource
import sys
import threading
import time

# (module, attribute, span name): public functions as their callers see them.
SPANNED = (
    ("znav.integrate", "integrate", "integrate"),
    ("znav.cli", "integrate", "integrate"),
    ("znav.integrate", "integrate_family", "integrate_family"),
    ("znav.cli", "integrate_family", "integrate_family"),
    ("znav.cli", "control_channel", "control_channel"),
    ("znav.cli", "write_csv", "write_csv"),
    ("znav.cli", "write_svg", "write_svg"),
    ("znav.cli", "indicatrix", "indicatrix"),
    ("znav.cli", "main", "cli"),
)
RHS_FACTORIES = (
    ("znav.integrate", "make_rhs"),
    ("znav.cli", "make_rhs"),
    ("znav.spray", "make_rhs"),
)
LAGRANGIAN = ("znav.spray", "lagrangian")

_INTEGRATION = ("integrate", "integrate_family")
# Spans subtracted from a CLI call to leave the CLI's own time.
_CLI_LAYERS = frozenset(
    ("integrate", "integrate_family", "control_channel", "write_csv", "write_svg",
     "indicatrix")
)


def _cpu_s() -> float:
    """CPU seconds of this process (all threads) and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Span:
    __slots__ = (
        "id", "name", "job", "parent", "thread", "start", "end", "cpu",
        "rhs_calls", "rhs_s", "lagrangian_calls", "wind_evals",
        "sim_t", "samples", "records", "bytes",
    )

    def __init__(self, span_id, name, job, parent, thread):
        self.id = span_id
        self.name = name
        self.job = job
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.cpu = 0.0
        self.rhs_calls = self.lagrangian_calls = self.wind_evals = 0
        self.rhs_s = self.sim_t = 0.0
        self.samples = self.records = self.bytes = 0

    @property
    def wall(self) -> float:
        return self.end - self.start


def _covered(start: float, end: float, spans) -> float:
    """Length of [start, end] covered by the union of the spans' intervals."""
    total, reach = 0.0, start
    for sp in sorted(spans, key=lambda s: s.start):
        lo, hi = max(sp.start, reach), min(sp.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """Records spans and counts; ``install`` patches znav, ``uninstall`` restores it.

    With ``count_calls`` the Lagrangian is wrapped as well, and the
    workload wraps its wind through ``count_wind``.  Those wrappers add
    about two hundred Python calls to each numeric-route rhs, so the
    benchmark counts with one tracer and times with another that leaves
    them out.
    """

    def __init__(self, count_calls: bool):
        self.count_calls = count_calls
        self.spans: list[Span] = []
        self.job_id = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _top(self) -> Span:
        stack = self._stack()
        # counts made outside any span go to a throwaway span
        return stack[-1] if stack else Span(-1, "orphan", None, None, None)

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sp = Span(next(self._ids), name, self.job_id,
                  parent.id if parent else None, threading.get_ident())
        stack.append(sp)
        if name in _INTEGRATION:
            sp.cpu = _cpu_s()
        sp.start = time.perf_counter()
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        if sp.name in _INTEGRATION:
            sp.cpu = _cpu_s() - sp.cpu
        self._stack().pop()
        self.spans.append(sp)

    @contextlib.contextmanager
    def job(self, job_id: int):
        self.job_id = job_id
        sp = self.open("job")
        try:
            yield
        finally:
            self.close(sp)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if name == "integrate":
                    sp.sim_t = result.samples[-1][0]
                    sp.samples = len(result.samples)
                elif name == "control_channel":
                    sp.records = len(result)
                elif name in ("write_csv", "write_svg"):
                    sp.bytes = result
                return result
            finally:
                tracer.close(sp)

        return traced

    def _rhs_factory(self, make_rhs):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(make_rhs)
        def traced_make_rhs(*args, **kwargs):
            rhs = make_rhs(*args, **kwargs)

            def traced_rhs(phi, theta, u, v):
                t0 = clock()
                try:
                    return rhs(phi, theta, u, v)
                finally:
                    sp = tracer._top()
                    sp.rhs_calls += 1
                    sp.rhs_s += clock() - t0

            return traced_rhs

        return traced_make_rhs

    def _counted_lagrangian(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._top().lagrangian_calls += 1
            return fn(*args, **kwargs)

        return counted

    def count_wind(self, components):
        """Wrap a wind component function so each evaluation is counted."""
        tracer = self

        @functools.wraps(components)
        def counted(phi, theta):
            tracer._top().wind_evals += 1
            return components(phi, theta)

        return counted

    def _patch(self, module: str, attr: str, wrap) -> None:
        mod = sys.modules.get(module)
        fn = getattr(mod, attr, None) if mod is not None else None
        if fn is not None:
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrap(fn))

    def install(self) -> None:
        for module, attr, name in SPANNED:
            self._patch(module, attr, functools.partial(self._spanned, name))
        for module, attr in RHS_FACTORIES:
            self._patch(module, attr, self._rhs_factory)
        if self.count_calls:
            self._patch(*LAGRANGIAN, self._counted_lagrangian)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------

    def fan_workers(self) -> int:
        """Most distinct threads that ran integrate inside one integrate_family."""
        families = {sp.id for sp in self.spans if sp.name == "integrate_family"}
        threads: dict[int, set] = {}
        for sp in self.spans:
            if sp.name == "integrate" and sp.parent in families:
                threads.setdefault(sp.parent, set()).add(sp.thread)
        return max((len(t) for t in threads.values()), default=0)

    def _jobs(self):
        spans = [sp for sp in self.spans if sp.job is not None]
        return spans, len({sp.job for sp in spans})

    def count_metrics(self) -> dict[str, float]:
        """Exact per-layer counts, per job or per rhs call; they depend only on the inputs."""
        spans, n = self._jobs()
        integ = _named(spans, "integrate")
        rhs = _total(spans, "rhs_calls")
        return {
            "spray.rhs_calls": _ratio(rhs, n),
            "randers.lagrangian_calls_per_rhs": _ratio(
                _total(integ, "lagrangian_calls"), rhs),
            "wind.evals_per_rhs": _ratio(_total(integ, "wind_evals"), rhs),
            "integrate.rhs_per_sim_t": _ratio(rhs, _total(integ, "sim_t")),
            "integrate.samples": _ratio(_total(integ, "samples"), n),
            "control.records": _ratio(
                _total(_named(spans, "control_channel"), "records"), n),
            "export.csv_bytes": _ratio(_total(_named(spans, "write_csv"), "bytes"), n),
            "export.svg_bytes": _ratio(_total(_named(spans, "write_svg"), "bytes"), n),
        }

    def time_metrics(self) -> dict[str, float]:
        """Per-layer times per job, and the rhs cost and share of integration."""
        spans, n = self._jobs()
        integ = _named(spans, "integrate")
        integ_wall = _total(integ, "wall")
        rhs_s = _total(spans, "rhs_s")

        by_id = {sp.id: sp for sp in spans}
        top_level = [
            sp for sp in spans
            if sp.name == "integrate_family"
            or (sp.name == "integrate"
                and getattr(by_id.get(sp.parent), "name", "") != "integrate_family")
        ]

        cli_self = 0.0
        for cli in _named(spans, "cli"):
            inner = [sp for sp in spans if sp.job == cli.job and sp.name in _CLI_LAYERS]
            cli_self += cli.wall - _covered(cli.start, cli.end, inner)

        def per_job(name):
            return _ratio(_total(_named(spans, name), "wall"), n)

        return {
            "spray.rhs_us": 1e6 * _ratio(rhs_s, _total(spans, "rhs_calls")),
            "spray.rhs_share": _ratio(rhs_s, integ_wall),
            "integrate.self_s": _ratio(integ_wall - _total(integ, "rhs_s"), n),
            "integrate.fan_parallelism": _ratio(
                _total(top_level, "cpu"), _total(top_level, "wall")),
            "control.channel_s": per_job("control_channel"),
            "export.csv_s": per_job("write_csv"),
            "export.svg_s": per_job("write_svg"),
            "cli.self_s": _ratio(cli_self, n),
        }


def _named(spans, name):
    return [sp for sp in spans if sp.name == name]


def _total(spans, attr):
    return sum(getattr(sp, attr) for sp in spans)


def _ratio(num, den):
    return num / den if den else 0.0
