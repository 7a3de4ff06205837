"""In-memory span recorder for the traced run.

The tracer measures bayesim from outside: it rebinds public functions on
their modules (``bayesim.machine.infer_stochastic`` and so on) to wrappers
that record a span per call.  The package looks these names up at call
time (``machine.run_filter`` calls its module global ``infer_stochastic``,
``runner`` calls ``machine.infer_logarithmic``), so calls made inside the
package are caught too.  Nothing under ``src/`` is changed.

A span is (name, start, end, parent span, pass id).  A pass is one call of
a ``runner.eval_*`` function, i.e. one pass over a test split; spans inside
it carry its id.  Self time is a span's duration minus the durations of its
child spans (children run sequentially inside their parent, so the sum of
their durations is the time they cover).

Random draws are counted by handing ``stochastic.run_stochastic`` a
``numpy.random.Generator`` subclass that shares the caller's bit generator,
so the sampled numbers are exactly those of an untraced run.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module of the bayesim package, attribute, span name)
LAYER_FUNCTIONS = (
    ("tasks", "generate", "tasks.generate"),
    ("modelkit", "train_model", "modelkit.train_model"),
    ("modelkit", "bin_observations", "modelkit.bin_observations"),
    ("modelkit", "compile_model", "modelkit.compile_model"),
    ("modelkit", "oracle_infer", "modelkit.oracle"),
    ("modelkit", "oracle_filter", "modelkit.oracle"),
    ("logprob", "encode_array", "logprob.encode_array"),
    ("stochastic", "run_stochastic", "stochastic.run_stochastic"),
    ("machine", "infer_stochastic", "machine.infer_stochastic"),
    ("machine", "infer_logarithmic", "machine.infer_logarithmic"),
    ("machine", "run_filter", "machine.run_filter"),
    ("machine", "inject_errors", "machine.inject_errors"),
    ("energy", "count_events", "energy.count_events"),
    ("runner", "eval_stochastic", "runner.eval_stochastic"),
    ("runner", "eval_log", "runner.eval_log"),
    ("runner", "eval_oracle", "runner.eval_oracle"),
)
PASS_SPANS = frozenset({"runner.eval_stochastic", "runner.eval_log", "runner.eval_oracle"})

# every variate-producing method, not only the ones run_stochastic calls today,
# so that a new sampler is counted without editing the benchmark
_VARIATE_METHODS = ("integers", "random", "uniform", "choice", "binomial", "multinomial",
                    "geometric", "normal", "standard_normal", "exponential", "permutation")


class CountingGenerator(np.random.Generator):
    """A Generator on an existing bit generator that counts what it returns.

    Array results count as bitstream draws, scalar results as tie-break
    draws.  Sharing the bit generator keeps the caller's stream exact.
    """

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.array_draws = 0
        self.scalar_draws = 0


def _counting(method_name):
    base = getattr(np.random.Generator, method_name)

    def method(self, *args, **kwargs):
        out = base(self, *args, **kwargs)
        if np.ndim(out):
            self.array_draws += int(np.size(out))
        else:
            self.scalar_draws += 1
        return out

    method.__name__ = method_name
    return method


for _m in _VARIATE_METHODS:
    setattr(CountingGenerator, _m, _counting(_m))


class Tracer:
    """Spans and counters for one traced run; install() / uninstall() wrap
    and restore the layer functions."""

    def __init__(self):
        self.t0 = time.perf_counter_ns()
        # one entry per span, in compact arrays: a full traced run holds ~1e6 spans
        self.span_names: list = []  # distinct names; name_id indexes this
        self._name_ix: dict = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.pass_id = array("q")
        self.counts = Counter()
        self._stack: list = []
        self._passes = 0
        self._pass = -1
        self._pass_owner = -1
        self._saved: list = []

    # ---- spans ----

    def _enter(self, name: str) -> int:
        i = len(self.name_id)
        if name in PASS_SPANS and self._pass < 0:
            self._passes += 1
            self._pass = self._passes
            self._pass_owner = i
        k = self._name_ix.get(name)
        if k is None:
            k = self._name_ix[name] = len(self.span_names)
            self.span_names.append(name)
        self.name_id.append(k)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_id.append(self._pass)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _exit(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()
        if i == self._pass_owner:
            self._pass = self._pass_owner = -1

    @contextmanager
    def span(self, name: str):
        i = self._enter(name)
        try:
            yield
        finally:
            self._exit(i)

    def _wrap(self, fn, name: str):
        enter, leave = self._enter, self._exit
        if name == "stochastic.run_stochastic":
            return self._wrap_sampler(fn, name)
        after = {
            "machine.infer_stochastic": self._after_infer_stochastic,
            "machine.infer_logarithmic": self._after_infer_log,
            "logprob.encode_array": self._after_encode,
        }.get(name)

        def wrapper(*args, **kwargs):
            i = enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(i)
            if after is not None:
                after(out)
            return out

        return wrapper

    def _wrap_sampler(self, fn, name: str):
        enter, leave, counts = self._enter, self._exit, self.counts
        params = inspect.signature(fn).parameters
        names = tuple(params)
        defaults = {k: p.default for k, p in params.items() if p.default is not p.empty}

        def wrapper(*args, **kwargs):
            arg = {**defaults, **dict(zip(names, args)), **kwargs}
            gen = CountingGenerator(np.random.default_rng(arg["seed"]).bit_generator)
            arg["seed"] = gen
            blocks = arg["image"].blocks
            per_cycle = len(blocks) * (blocks[0].shape[0] if arg["rng_mode"] == "per_cell" else 1)
            i = enter(name)
            try:
                out = fn(**arg)
            finally:
                leave(i)
            counts["stochastic.draws"] += gen.array_draws
            counts["stochastic.tie_draws"] += gen.scalar_draws
            counts["stochastic.cycles_drawn"] += gen.array_draws // per_cycle
            return out

        return wrapper

    def _after_infer_stochastic(self, res) -> None:
        self.counts["presentations.stochastic"] += 1
        self.counts["stochastic.cycles_used"] += int(res.cycles_used)

    def _after_infer_log(self, res) -> None:
        self.counts["presentations.logarithmic"] += 1

    def _after_encode(self, codes) -> None:
        self.counts["logprob.codes_encoded"] += int(np.size(codes))

    def install(self) -> None:
        for mod_name, attr, name in LAYER_FUNCTIONS:
            mod = importlib.import_module(f"bayesim.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    # ---- read-out ----

    def mark(self) -> tuple:
        return len(self.name_id), Counter(self.counts)

    def counts_between(self, a: tuple, b: tuple) -> dict:
        """Counters and span call counts accumulated between two marks."""
        out = Counter(b[1])
        out.subtract(a[1])
        ids = np.frombuffer(self.name_id, dtype=np.int32)[a[0]:b[0]]
        for k, n in enumerate(np.bincount(ids, minlength=len(self.span_names))):
            out[self.span_names[k] + ".calls"] += int(n)
        return {k: v for k, v in out.items() if v}

    def aggregate(self) -> dict:
        """Per span name: calls, total ns and self ns."""
        if not self.name_id:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        selfdur = dur - child.astype(np.int64)
        n = len(self.span_names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        own = np.bincount(ids, weights=selfdur, minlength=n)
        return {name: {"calls": int(calls[k]), "total_ns": int(total[k]), "self_ns": int(own[k])}
                for k, name in enumerate(self.span_names)}

    def save(self, path) -> None:
        """Write every span; times are ns since the tracer was made."""
        np.savez_compressed(
            path,
            span_names=np.asarray(self.span_names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64) - self.t0,
            end_ns=np.frombuffer(self.end, dtype=np.int64) - self.t0,
            parent=np.frombuffer(self.parent, dtype=np.int64),
            pass_id=np.frombuffer(self.pass_id, dtype=np.int64),
        )
