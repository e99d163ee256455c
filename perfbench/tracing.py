"""Per-layer spans and counters for unilp, installed from outside the package.

`Tracer.install()` replaces each traced public function or method with a
wrapper that records a span (calls, self time) or bumps a counter, at every
unilp module or class attribute that is bound to it, so names imported with
`from .x import y` (or under an alias) are traced too. `uninstall()` puts the
original objects back. Spans nest strictly (one thread), so a span's self
time is its duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import sys
import time

# (object path, span name). Heuristic spans are split by kind:
# heuristics.score_batch.<kind>.
SPANS = (
    ("graphs.sample_nonedges", "graphs.sample_nonedges"),
    ("graphs.count_simple_paths", "graphs.count_simple_paths"),
    ("graphs.Graph.edge_set", "graphs.edge_set"),
    ("graphs.Graph.without_edge", "graphs.without_edge"),
    ("heuristics.score_batch", "heuristics.score_batch"),
    ("labeling.labeled_subgraph", "labeling.labeled_subgraph"),
    ("training.LinkDataset.subgraph", "training.LinkDataset.subgraph"),
    ("training.sample_context_pairs", "training.sample_context_pairs"),
    ("training.build_context", "training.build_context"),
    ("training.pretrain", "training.pretrain"),
    ("model.encode_subgraphs", "model.encode_subgraphs"),
    ("model.attention_scores", "model.attention_scores"),
    ("model.contextualize", "model.contextualize"),
    ("model.predict", "model.predict"),
    ("model.batch_loss", "model.batch_loss"),
    ("autodiff.Tape.backward", "autodiff.backward"),
    ("autodiff.step", "autodiff.step"),
    ("autodiff.load_checkpoint", "autodiff.load_checkpoint"),
    ("evaluation.score_pairs", "evaluation.score_pairs"),
    ("evaluation.verify_connectivity_pattern", "evaluation.verify_connectivity_pattern"),
    ("evaluation.evaluate_model", "evaluation.evaluate_model"),
    ("cli.main", "cli.main"),
)

_CACHE_SPAN = "training.LinkDataset.subgraph"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = {}    # span name -> [calls, self seconds]
        self.counts = {}   # counter name -> int
        self._stack = []   # open spans: [name, seconds covered by children]
        self._undo = []    # (owner, attribute, original object)

    def reset(self):
        self.spans = {}
        self.counts = {}

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- patching ----------------------------------------------------------

    def _resolve(self, path):
        module_name, *attrs = path.split(".")
        owner = sys.modules[f"{self.package}.{module_name}"]
        for attr in attrs[:-1]:
            owner = getattr(owner, attr)
        return owner, attrs[-1]

    def _rebind(self, old, new, owner=None):
        """Point every binding of `old` (in unilp modules, or in one class's
        dict when owner is given) at `new`."""
        owners = [owner] if owner is not None else [
            mod for name, mod in sorted(sys.modules.items())
            if name == self.package or name.startswith(self.package + ".")
        ]
        for target in owners:
            for attr, value in list(vars(target).items()):
                if value is old:
                    setattr(target, attr, new)
                    self._undo.append((target, attr, old))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for path, span_name in SPANS:
            owner, attr = self._resolve(path)
            original = getattr(owner, attr)
            if span_name == "heuristics.score_batch":
                namer = lambda args, kwargs, n=span_name: f"{n}.{args[0].kind}"
            else:
                namer = lambda args, kwargs, n=span_name: n
            wrapper = self._span_wrapper(original, namer)
            self._rebind(original, wrapper, owner if isinstance(owner, type) else None)
        tape = sys.modules[f"{self.package}.autodiff"].Tape
        for attr, value in list(vars(tape).items()):
            if callable(value) and not attr.startswith("_") and attr != "backward":
                self._rebind(value, self._op_counter(value), tape)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, namer):
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            name = namer(args, kwargs)
            if name == "labeling.labeled_subgraph" and stack and stack[-1][0] == _CACHE_SPAN:
                tracer.count("training.subgraph_cache.extractions")
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = tracer.spans.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed - frame[1]
            if name == "labeling.labeled_subgraph":
                tracer.count("labeling.nodes", result.n)
            elif name == "model.encode_subgraphs":
                tracer.count("model.encode_subgraphs.subgraphs", len(args[2]))
            return result

        return traced

    def _op_counter(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.count("autodiff.tape.ops")
            return fn(*args, **kwargs)

        return counted

    # -- results ---------------------------------------------------------------

    def calls(self, name) -> int:
        return self.spans.get(name, [0, 0.0])[0]

    def self_s(self, name) -> float:
        return self.spans.get(name, [0, 0.0])[1]

    def repeatable_counts(self) -> dict:
        """Every call count and counter; these must repeat exactly for a
        fixed amount of seeded work."""
        out = {f"{name}.calls": entry[0] for name, entry in self.spans.items()}
        out.update(self.counts)
        return out
