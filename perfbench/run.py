#!/usr/bin/env python3
"""unilp benchmark: three closed-loop workloads, one client each, jobs=1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a unilp checkout; the package is imported from ./src.
Every input is generated from --seed. Each workload is set up at least
SETUPS times and for at least SETUP_SECONDS (the median is `setup_s`),
sends one untimed warm-up request, then sends requests one after another
until the next one would end past --seconds. Every output is checked; an
operation that raises or fails a check is counted in `failed`. Requests for
the same seed (pretrain-icl and eval-icl-cold use each seed twice;
verify-baselines repeats each block of anchors) must agree bit for bit.

--trace 0 prints the end-to-end metrics. --trace 1 runs a fixed number of
requests three times: with per-layer spans from tracing.py, untraced, and
traced again. It prints the per-layer metrics of the last pass and the
tracing overhead (traced minus untraced median latency); the call counts of
the two traced passes must be equal.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every check
passed. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

# Every workload is one client on one core. OpenBLAS would otherwise start a
# second thread that spins on the other core, which made requests slower and
# noisier on a 2-core machine; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tracing import SPANS, Tracer  # noqa: E402  (perfbench/ is sys.path[0])

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 11
# a set-up takes 5-120 ms; repeating it for a second samples more than one
# moment of the host's changing speed
SETUP_SECONDS = 1.0

# the criterion-5 acceptance config (C5_CONFIG and C5_TRAIN in
# tests/test_acceptance.py), minus seed and max_epochs
C5_MODEL = dict(hidden_dim=48, attention_dim=48, embed_dim=48, encoder_layers=2,
                mlp_layers=2, mlp_hidden=48, heads=4)
C5_TRAIN = dict(context_k=20, eval_context_size=40, batch_size=32, lr=1e-2,
                patience=15, per_graph_cap=600, hits_k=3)


class CheckFailed(Exception):
    pass


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def digest(*parts) -> str:
    """Short SHA-256 over bytes, arrays (their raw bytes) and anything else
    by repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = part.tobytes()
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def load_unilp():
    if not (SRC / "unilp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no unilp sources at {SRC / 'unilp'}")
    sys.path.insert(0, str(SRC))
    import unilp
    from unilp import autodiff, cli, evaluation, graphs, heuristics, model, training

    if Path(unilp.__file__).resolve().parent != SRC / "unilp":
        raise SystemExit(f"perfbench: imported unilp from {unilp.__file__}, not {SRC}")
    return argparse.Namespace(autodiff=autodiff, cli=cli, evaluation=evaluation, graphs=graphs,
                              heuristics=heuristics, model=model, training=training)


def torus(u, kind, side):
    return u.graphs.generate_lattice(u.graphs.LatticeSpec(kind=kind, rows=side, cols=side, torus=True))


# ---------------------------------------------------------------------------
# workloads. Each has setup() -> (inputs, digest) and request(inputs, r) ->
# (key, digest); requests with equal keys must return equal digests.


class PretrainICL:
    """`pretrain` for one epoch (below patience, so early stopping never
    shortens it) at the criterion-5 config on the 10x10 grid and triangular
    tori. The datasets live for the whole run, so after the warm-up request
    every epoch runs on a warm subgraph cache, as all but the first epoch of
    a real pretraining run do."""

    name = "pretrain-icl"
    trace_requests = 2  # a cold and a warm epoch
    expected_calls = (
        "training.pretrain", "training.sample_context_pairs", "training.build_context",
        "graphs.sample_nonedges", "graphs.edge_set", "labeling.labeled_subgraph",
        "model.encode_subgraphs", "model.batch_loss", "model.attention_scores",
        "model.contextualize", "model.predict", "autodiff.backward", "autodiff.step",
        "evaluation.score_pairs",
    )
    expected_counts = ("autodiff.tape.ops",)

    def __init__(self, u, seed, workdir):
        self.u, self.seed = u, seed
        self.model_config = u.model.ModelConfig(**C5_MODEL)
        self.samples = []  # (training queries, seconds in pretrain) per request

    def setup(self):
        g = self.u.graphs
        splits = {
            name: g.split_edges(torus(self.u, kind, 10), (0.7, 0.1, 0.2),
                                g.derive_seed_int(self.seed, "perfbench", "split", name))
            for name, kind in (("grid", "grid"), ("tri", "triangular"))
        }
        t = self.u.training
        return [t.LinkDataset(name=name, split=split) for name, split in splits.items()], \
            digest(*(s.to_json_dict() for s in splits.values()))

    def request(self, datasets, r):
        train_config = self.u.training.TrainConfig(
            seed=self.u.graphs.derive_seed_int(self.seed, "perfbench", "train", r // 2),
            max_epochs=1, **C5_TRAIN,
        )
        start = time.perf_counter()
        params, record = self.u.training.pretrain(datasets, datasets, self.model_config, train_config)
        elapsed = time.perf_counter() - start
        check(not record.diverged, f"pretraining diverged at epoch {record.stopped_epoch}")
        check(len(record.epochs) == 1, f"ran {len(record.epochs)} epochs, expected 1")
        check(all(math.isfinite(loss) for _, loss, _ in record.epochs), "non-finite epoch loss")
        values = [params[name].values for name in sorted(params)]
        check(all(np.isfinite(v).all() for v in values), "non-finite trained parameter")
        # training queries: every observed edge and as many non-edges, capped
        queries = sum(min(2 * len(ds.split.observed), train_config.per_graph_cap) for ds in datasets)
        self.samples.append((queries, elapsed))
        return r // 2, digest(*values)

    def report(self, latencies):
        queries, seconds = (sum(column) for column in zip(*self.samples))
        return [
            ("epoch_s", statistics.median(latencies), "s", f"median over {len(latencies)} epochs"),
            ("train_queries_per_s", queries / seconds, "1/s", f"{self.samples[0][0]} queries per epoch"),
        ]


class EvalICLCold:
    """In-process `unilp eval` (default context of 400) on the 20x20 grid and
    triangular splits with a criterion-5-config checkpoint. One request is
    one seed evaluated on both graphs; every CLI call starts with a cold
    subgraph cache."""

    name = "eval-icl-cold"
    trace_requests = 3
    expected_calls = (
        "cli.main", "evaluation.evaluate_model", "evaluation.score_pairs",
        "autodiff.load_checkpoint", "labeling.labeled_subgraph", "model.encode_subgraphs",
        "model.attention_scores", "model.contextualize", "model.predict",
        "training.sample_context_pairs", "training.build_context", "graphs.sample_nonedges",
    )
    expected_counts = ("autodiff.tape.ops",)

    def __init__(self, u, seed, workdir):
        self.u, self.seed, self.workdir = u, seed, Path(workdir)
        self.samples = []  # (pairs, seconds in score_pairs) per request
        self.captured = []
        # record what the CLI's score_pairs returns, and the time it takes
        original = u.evaluation.score_pairs

        def capturing(*args, **kwargs):
            start = time.perf_counter()
            scores = original(*args, **kwargs)
            self.captured.append((scores, time.perf_counter() - start))
            return scores

        u.evaluation.score_pairs = capturing

    def setup(self):
        g, m = self.u.graphs, self.u.model
        files = {"checkpoint": self.workdir / "checkpoint.json"}
        test_pairs = {}
        for name, kind in (("grid", "grid"), ("tri", "triangular")):
            split = g.split_edges(torus(self.u, kind, 20), (0.7, 0.1, 0.2),
                                  g.derive_seed_int(self.seed, "perfbench", "split", name))
            files[name] = self.workdir / f"{name}.split.json"
            split.save(files[name])
            test_pairs[name] = len(split.test_pos) + len(split.test_neg)
        config = m.ModelConfig(**C5_MODEL)
        init_seed = g.derive_seed_int(self.seed, "perfbench", "init")
        self.u.autodiff.save_checkpoint(files["checkpoint"], {"model": config.to_dict(), "seed": 0},
                                        m.init_params(config, init_seed))
        return (files, test_pairs), digest(*(p.read_bytes() for p in files.values()))

    def request(self, inputs, r, jobs=1):
        files, test_pairs = inputs
        eval_seed = self.u.graphs.derive_seed_int(self.seed, "perfbench", "eval", r // 2) % 2**31
        outputs = []
        pairs, score_s = 0, 0.0
        for name in ("grid", "tri"):
            report = self.workdir / f"{name}.report.json"
            self.captured.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.u.cli.main([
                    "eval", "--checkpoint", str(files["checkpoint"]), "--split", str(files[name]),
                    "--name", name, "--seeds", str(eval_seed), "--jobs", str(jobs),
                    "--json", str(report),
                ])
            check(code == 0, f"unilp eval on {name} exited with code {code}")
            check(len(self.captured) == 1, f"expected one score_pairs call, saw {len(self.captured)}")
            scores, seconds = self.captured[0]
            check(len(scores) == test_pairs[name], f"{name}: {len(scores)} scores for the test slice")
            check(bool(((scores > 0) & (scores < 1)).all()), f"{name}: probability outside (0, 1)")
            hits = [row["value"] for row in json.loads(report.read_text())["rows"]]
            check(len(hits) == 1 and all(0.0 <= h <= 1.0 for h in hits), f"{name}: hits {hits}")
            pairs += len(scores)
            score_s += seconds
            outputs += [scores, hits]
        self.samples.append((pairs, score_s))
        return r // 2, digest(*outputs)

    def report(self, latencies):
        n = len(latencies)
        pairs, seconds = (sum(column) for column in zip(*self.samples))
        rate = pairs / seconds
        lines = [("eval_request_s.p50", statistics.median(latencies), "s", f"n={n}")]
        # the highest percentile with at least ten samples beyond it
        if n > 10:
            nn = math.floor(100 * (1 - 10 / n))
            value = statistics.quantiles(latencies, n=100, method="inclusive")[nn - 1]
            lines.append((f"eval_request_s.p{nn}", value, "s", f"n={n}"))
        else:
            lines.append(("eval_request_s.pNN", float("nan"), "s", f"n={n}: fewer than 11 samples"))
        lines.append(("score_pairs_per_s", rate, "1/s",
                      f"{self.samples[0][0]} pairs per request, over time in score_pairs"))
        return lines


class VerifyBaselines:
    """verify_connectivity_pattern and the six heuristics on the 12x12 grid
    and triangular tori, node ids relabelled by a seeded permutation. One
    request takes the next block of BLOCK anchor nodes (in a seeded order)
    on both tori: the verifier once per anchor, over the pairs from it to
    every other node, and the heuristics over those same pairs. The tori
    are vertex-transitive, so every single anchor gives the whole graph's
    exact rationals, and every block costs the same. All blocks together
    cover every unordered pair twice, once from each end; blocks repeat
    after n / BLOCK requests and must repeat their outputs."""

    name = "verify-baselines"
    trace_requests = 12
    expected_calls = (
        "evaluation.verify_connectivity_pattern", "graphs.without_edge",
        "graphs.count_simple_paths",
    ) + tuple(f"heuristics.score_batch.{kind}" for kind in ("cn", "aa", "ra", "pa", "sp", "katz"))
    expected_counts = ()
    patterns = {"grid": {2: Fraction(0), 3: Fraction(1, 4)},
                "tri": {2: Fraction(1, 3), 3: Fraction(1, 6)}}
    BLOCK = 2  # anchors per torus per request (about 0.2 s); divides 144

    def __init__(self, u, seed, workdir):
        self.u, self.seed = u, seed
        self.samples = []  # (pairs, verifier seconds, heuristic seconds) per request

    def setup(self):
        g = self.u.graphs
        inputs = {}
        for name, kind in (("grid", "grid"), ("tri", "triangular")):
            base = torus(self.u, kind, 12)
            perm = g.derive_rng(self.seed, "perfbench", "relabel", name).permutation(base.n).tolist()
            graph = g.Graph.from_edges(base.n, [(perm[a], perm[b]) for a, b in base.edge_array().tolist()])
            order = g.derive_rng(self.seed, "perfbench", "anchor-order", name).permutation(graph.n).tolist()
            blocks = []
            for i in range(0, graph.n, self.BLOCK):
                anchors = order[i:i + self.BLOCK]
                blocks.append((anchors, [(a, b) for a in anchors for b in range(graph.n) if b != a]))
            inputs[name] = (graph, blocks)
        return inputs, digest(*(graph.indices for graph, _ in inputs.values()),
                              *(blocks for _, blocks in inputs.values()))

    def request(self, inputs, r):
        h = self.u.heuristics
        outputs = []
        n_pairs, verify_s, heuristic_s = 0, 0.0, 0.0
        for name, (graph, blocks) in inputs.items():
            anchors, pairs = blocks[r % len(blocks)]
            start = time.perf_counter()
            patterns = [self.u.evaluation.verify_connectivity_pattern(graph, anchors=[a]) for a in anchors]
            mid = time.perf_counter()
            scores = {kind: h.score_batch(h.Heuristic(kind), graph, pairs) for kind in h.KINDS}
            end = time.perf_counter()
            verify_s += mid - start
            heuristic_s += end - mid
            for a, pattern in zip(anchors, patterns):
                check(pattern == self.patterns[name], f"{name}: pattern {pattern} from anchor {a}")
            for kind, values in scores.items():
                check(np.isfinite(values).all(), f"{name}: non-finite {kind} score")
            if name == "grid":
                edges = set(map(tuple, graph.edge_array().tolist()))
                cn_on_edges = [s for (a, b), s in zip(pairs, scores["cn"]) if (min(a, b), max(a, b)) in edges]
                degrees = sum(graph.degree(a) for a in anchors)
                check(len(cn_on_edges) == degrees and not any(cn_on_edges),
                      "grid: CN is not 0 on every edge")
            n_pairs += len(pairs)
            outputs += [repr(patterns)] + [scores[kind] for kind in h.KINDS]
        self.samples.append((n_pairs, verify_s, heuristic_s))
        return r % len(blocks), digest(*outputs)

    def report(self, latencies):
        pairs, verify_s, heuristic_s = (sum(column) for column in zip(*self.samples))
        note = f"{self.samples[0][0]} pairs per request"
        return [
            ("pairs_per_s", pairs / (verify_s + heuristic_s), "1/s", note + ", through the verifier and all six heuristics"),
            ("verify_pairs_per_s", pairs / verify_s, "1/s", note),
            ("heuristic_pairs_per_s", pairs / heuristic_s, "1/s", note + ", through all six heuristics"),
        ]


WORKLOADS = {w.name: w for w in (PretrainICL, EvalICLCold, VerifyBaselines)}


# ---------------------------------------------------------------------------
# running a workload


class Ops:
    """Operations attempted and failed; a failure is an exception or a failed
    output or reproducibility check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def run(self, what, fn):
        """Run fn() -> (key, digest); returns True when it succeeded."""
        self.attempted += 1
        try:
            key, value = fn()
            seen = self.digests.setdefault(key, value)
            check(seen == value, f"digest {value} differs from {seen} for the same seed")
            return True
        except Exception as exc:  # a failed operation is counted, and the loop goes on
            self.failed += 1
            print(f"FAILED {what}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return False


def run_requests(workload, inputs, ops, seconds=None, count=None):
    """Closed loop with one client. With count, run exactly that many
    requests; otherwise run at least two, and stop before a request that
    would end past `seconds`. Returns the latencies of the successful ones."""
    latencies = []
    start = time.perf_counter()
    last = 0.0
    r = 0
    while True:
        if count is not None:
            if r >= count:
                break
        elif r >= 2 and time.perf_counter() - start + last > seconds:
            break
        t0 = time.perf_counter()
        ok = ops.run(f"{workload.name} request {r}", lambda: workload.request(inputs, r))
        last = time.perf_counter() - t0
        if ok:
            latencies.append(last)
        r += 1
    return latencies


def set_up(workload, ops):
    times, digests, inputs = [], set(), None
    while len(times) < SETUPS or sum(times) < SETUP_SECONDS:
        start = time.perf_counter()
        inputs, value = workload.setup()
        times.append(time.perf_counter() - start)
        digests.add(value)

    def same_inputs():
        check(len(digests) == 1, f"{len(times)} set-ups gave {len(digests)} different inputs")
        return "setup", digests.pop()

    ops.run(f"{workload.name} set-up", same_inputs)
    return inputs, statistics.median(times)


def trace_run(u, workload, ops):
    count = workload.trace_requests
    tracer = Tracer("unilp")

    # every pass starts from freshly set-up inputs (cold caches), so that
    # the two traced passes do the same work
    def traced_pass():
        inputs, _ = workload.setup()
        tracer.reset()
        tracer.install()
        try:
            latencies = run_requests(workload, inputs, ops, count=count)
        finally:
            tracer.uninstall()
        return latencies, tracer.repeatable_counts()

    # the untraced pass runs between the traced ones, so that both sides of
    # the overhead are measured after the same warm-up
    _, first = traced_pass()
    untraced = run_requests(workload, workload.setup()[0], ops, count=count)
    traced, second = traced_pass()

    def counts_repeat():
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        check(not diff, f"counts differ between two traced passes: {diff}")
        missing = [n for n in workload.expected_calls if not tracer.calls(n)]
        missing += [n for n in workload.expected_counts if not tracer.counts.get(n)]
        check(not missing, f"traced wrappers recorded no calls: {missing}")
        return "trace counts", digest(sorted(second.items()))

    ops.run(f"{workload.name} trace checks", counts_repeat)

    metrics = {}
    names = [name for _, name in SPANS if name != "heuristics.score_batch"]
    names += [f"heuristics.score_batch.{kind}" for kind in u.heuristics.KINDS]
    for name in names:
        metrics[f"{name}.calls"] = (tracer.calls(name), "count")
        metrics[f"{name}.self_s"] = (tracer.self_s(name), "s")
    for name in ("labeling.nodes", "model.encode_subgraphs.subgraphs", "autodiff.tape.ops"):
        metrics[name] = (tracer.counts.get(name, 0), "count")
    lookups = tracer.calls("training.LinkDataset.subgraph")
    extractions = tracer.counts.get("training.subgraph_cache.extractions", 0)
    metrics["training.subgraph_cache.hit_ratio"] = (1 - extractions / lookups if lookups else 0.0, "ratio")
    if traced and untraced:
        base = statistics.median(untraced)
        overhead = statistics.median(traced) - base
        print(f"  trace overhead = {overhead:.6g} s per request ({overhead / base:+.1%} "
              f"of the untraced median {base:.6g} s)")
    else:
        overhead = 0.0
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    u = load_unilp()

    ops = Ops()
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](u, args.seed, workdir)
        inputs, setup_s = set_up(workload, ops)
        # first-call costs (lazy imports, allocator growth, pretrain-icl's cold
        # subgraph cache) are paid once per process, not per request; the
        # warm-up output is still checked
        ops.run(f"{args.workload} warm-up", lambda: workload.request(inputs, 0))
        if isinstance(workload, EvalICLCold):
            # one untimed eval with two workers must equal --jobs 1 bit for bit
            ops.run("eval-icl-cold --jobs 2", lambda: workload.request(inputs, 0, jobs=2))
        print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, jobs=1")
        if args.trace:
            metrics = trace_run(u, workload, ops)
        else:
            workload.samples.clear()
            latencies = run_requests(workload, inputs, ops, seconds=args.seconds)
            lines = workload.report(latencies) if latencies else []
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "request_s.p50": (statistics.median(latencies) if latencies else 0.0, "s"),
            }
            for name, value, unit, note in lines:
                print(f"  {name} = {value:.6g} {unit}  ({note})")
    print(f"  failed_ratio = {ops.failed}/{ops.attempted} = {ops.failed / ops.attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for key, value in sorted(ops.digests.items(), key=str):
        print(f"digest {key}: {value}")
    correct = ops.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": ops.attempted, "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
