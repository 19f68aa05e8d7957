"""Timing spans around the package's public functions, installed from outside.

The package has no tracing of its own, so the benchmark wraps every public
module-level function of every graphfair module and rebinds each wrapper
wherever the original is bound.  A name imported with `from .x import f`
lives in several module namespaces (`recognize` in blockcactus,
multipartite, splitgraph and cli, for instance), and calls made through a
module attribute (`oracle.pmms(...)`) look the name up in the defining
module, so every binding site has to be replaced or calls slip past
untimed.  install() checks that no module still binds an original and
uninstall() that no module still binds a wrapper.

Calls that bypass module namespaces (a function stored in a list, or a
private helper) are not spanned; their time counts as self time of the
nearest spanned caller.
"""

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "graphfair"


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    max_s: float = 0.0
    hits: int = 0
    self_s_by_phase: dict = field(default_factory=dict)


class Tracer:
    """Aggregated spans: per function calls, self time and longest call.

    Self time is span time minus the time of directly nested spans.  A call
    to `oracle.pmms` or `oracle.mms` counts as a hit when it returns an
    object that an earlier call of the same operation already returned;
    new_operation() starts a fresh operation.
    """

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.phase = "other"
        self.peel_picks = 0
        self.peel_agents = 0
        self._stack: list[float] = []
        self._returned: dict[int, object] = {}
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        self._sites: list[tuple[object, str, str]] = []

    def _modules(self):
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _targets(self) -> dict[str, object]:
        found = {}
        for mod in self._modules():
            short = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    found[f"{short}.{name}"] = obj
        return found

    def _wrap(self, label: str, fn):
        stats = self.stats.setdefault(label, SpanStats())
        stack = self._stack
        counts_hits = label in ("oracle.pmms", "oracle.mms")
        counts_peel = label == "reduction.peel_heavy_vertices"
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.self_s += own
                stats.max_s = max(stats.max_s, elapsed)
                stats.self_s_by_phase[self.phase] = (
                    stats.self_s_by_phase.get(self.phase, 0.0) + own
                )
            if counts_hits:
                if id(result) in self._returned:
                    stats.hits += 1
                else:
                    self._returned[id(result)] = result
            if counts_peel:
                self.peel_picks += len(result.heavy)
                self.peel_agents += args[0].n
            return result

        return span

    def new_operation(self) -> None:
        self._returned.clear()

    def install(self) -> list[tuple[str, str]]:
        """Rebind every public function to its span; return (module, name) sites."""
        if self._sites:
            raise RuntimeError("tracer is already installed")
        if not self._originals:
            self._originals = self._targets()
            self._wrappers = {
                label: self._wrap(label, fn) for label, fn in self._originals.items()
            }
        by_id = {id(fn): label for label, fn in self._originals.items()}
        for mod in self._modules():
            for name, obj in list(vars(mod).items()):
                label = by_id.get(id(obj))
                if label is not None:
                    setattr(mod, name, self._wrappers[label])
                    self._sites.append((mod, name, label))
        self._check(self._originals.values(), "still binds the untraced")
        return [(mod.__name__, name) for mod, name, _ in self._sites]

    def uninstall(self) -> None:
        for mod, name, label in self._sites:
            setattr(mod, name, self._originals[label])
        self._sites = []
        self._check(self._wrappers.values(), "still binds the traced")

    def _check(self, functions, what: str) -> None:
        ids = {id(fn) for fn in functions}
        for mod in self._modules():
            for name, obj in vars(mod).items():
                if id(obj) in ids:
                    raise RuntimeError(f"{mod.__name__}.{name} {what} function")
