"""Command-line entry points.

Every experiment in the package is reachable from here: data generation and
splitting, heuristic baselines, pretraining/finetuning, evaluation with
context perturbations, the context-size sweep, the exact connectivity
pattern check, the transfer probe, and a gradient self-test.

Exit codes: 0 success, 1 bad configuration, 2 bad data, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import sys
from dataclasses import fields as dataclass_fields

import numpy as np

from .autodiff import load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, NumericError
from .evaluation import (
    PERTURB_KINDS,
    EvalReport,
    context_size_sweep,
    evaluate_model,
    hits_at_k,
    pattern_stats,
)
from .graphs import (
    DataSplit,
    Graph,
    LatticeSpec,
    SbmSpec,
    generate_lattice,
    generate_sbm,
    load_edge_list,
    save_edge_list,
    split_edges,
    write_json_atomic,
)
from .heuristics import KINDS as HEURISTIC_KINDS, Heuristic, score_batch
from .labeling import labeled_subgraph
from .model import GRADCHECK_CONFIG, MODE_NO_CONTEXT, ModelConfig, model_gradient_check
from .training import LinkDataset, TrainConfig, finetune, pretrain, transfer_probe

log = logging.getLogger("unilp")

GRADCHECK_THRESHOLD = 1e-4


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)
    instead of calling sys.exit(2)."""

    def error(self, message):
        raise ConfigError(message)


def _int_list(text: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}")


def _config_digest(doc) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}")


def _make_config(cls, doc: dict, what: str):
    known = {f.name for f in dataclass_fields(cls)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown {what} option(s): {', '.join(unknown)}")
    return cls(**doc)


# ---------------------------------------------------------------------------
# dataset specs (shared by pretrain and transfer-probe configs)


def _graph_from_spec(spec: dict) -> Graph:
    if "path" in spec:
        return load_edge_list(spec["path"])
    kind = spec.get("kind")
    if kind in ("grid", "triangular"):
        return generate_lattice(LatticeSpec(
            kind=kind, rows=int(spec["rows"]), cols=int(spec["cols"]),
            torus=bool(spec.get("torus", False)),
        ))
    if kind == "sbm":
        return generate_sbm(
            SbmSpec(block_sizes=spec["blocks"], p_in=spec["p_in"], p_out=spec["p_out"]),
            seed=int(spec.get("graph_seed", 0)),
        )
    raise ConfigError(f"dataset spec needs 'path', 'split', or a known 'kind': {spec}")


def _dataset_from_spec(spec: dict, default_seed: int) -> LinkDataset:
    name = spec.get("name")
    if not name:
        raise ConfigError(f"dataset spec is missing 'name': {spec}")
    if "split" in spec:
        return LinkDataset(name=name, split=DataSplit.load(spec["split"]))
    g = _graph_from_spec(spec)
    fractions = tuple(spec.get("fractions", (0.7, 0.1, 0.2)))
    return LinkDataset.from_graph(name, g, fractions, int(spec.get("split_seed", default_seed)))


def _split_dataset(args) -> LinkDataset:
    name = getattr(args, "name", None) or str(args.split)
    return LinkDataset(name=name, split=DataSplit.load(args.split))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_generate(args):
    if args.kind == "sbm":
        if not args.blocks:
            raise ConfigError("--blocks is required for sbm graphs")
        spec = SbmSpec(block_sizes=_int_list(args.blocks), p_in=args.p_in, p_out=args.p_out)
        g = generate_sbm(spec, args.seed)
        header = f"sbm blocks={args.blocks} p_in={args.p_in} p_out={args.p_out} seed={args.seed}"
    else:
        spec = LatticeSpec(kind=args.kind, rows=args.rows, cols=args.cols, torus=args.torus)
        g = generate_lattice(spec)
        header = f"{args.kind} {args.rows}x{args.cols} torus={args.torus}"
    save_edge_list(args.out, g, header=header)
    print(f"wrote {g.n} nodes / {g.edge_count} edges to {args.out}")
    return 0


def _cmd_split(args):
    g = load_edge_list(args.edges)
    fractions = tuple(_float_list(args.fractions))
    split = split_edges(g, fractions, args.seed)
    split.save(args.out)
    print(
        f"wrote split to {args.out}: {len(split.observed)} observed, "
        f"{len(split.valid_pos)} valid, {len(split.test_pos)} test"
    )
    return 0


def _cmd_heuristic(args):
    ds = _split_dataset(args)
    h = Heuristic(kind=args.kind, katz_beta=args.katz_beta, katz_len=args.katz_len)
    if args.hits_k < 1:
        raise ConfigError("hits_k must be >= 1")
    pos, neg = list(ds.split.test_pos), list(ds.split.test_neg)
    if not pos or not neg:
        raise DataError("split has an empty test slice")
    scores = score_batch(h, ds.observed, pos + neg)
    k_eff = min(args.hits_k, len(neg))
    value = hits_at_k(scores[: len(pos)], scores[len(pos):], k_eff)
    print(f"{args.kind} hits@{k_eff} {value:.6f}")
    if args.out:
        report = EvalReport(experiment="heuristic", config={"kind": args.kind})
        report.add(ds.name, args.kind, 0, 0.0, None, 0, 0, f"hits@{k_eff}", value)
        report.save_csv(args.out)
    return 0


def _cmd_label(args):
    g = load_edge_list(args.edges)
    sub = labeled_subgraph(g, (args.u, args.v), args.radius)
    config = ModelConfig(radius=args.radius)
    vocab = config.vocab
    print(f"subgraph around ({args.u}, {args.v}): {sub.n} nodes, "
          f"{len(sub.local_edges())} edges, radius {args.radius}")
    for i, node in enumerate(sub.nodes):
        label = sub.labels[i]
        print(f"node {node}: label {label} index {vocab.index(label)}")
    return 0


def _load_run_config(path):
    doc = _load_json(path)
    seed = int(doc.get("seed", 0))
    model_config = ModelConfig.from_dict(doc.get("model", {}))
    train_doc = dict(doc.get("train", {}))
    train_doc.setdefault("seed", seed)
    train_config = _make_config(TrainConfig, train_doc, "train")
    log.info("config %s digest %s seed %d", path, _config_digest(doc), seed)
    return doc, seed, model_config, train_config


def _cmd_pretrain(args):
    doc, seed, model_config, train_config = _load_run_config(args.config)
    specs = doc.get("datasets")
    if not specs:
        raise ConfigError("config needs a non-empty 'datasets' list")
    train_datasets, val_datasets = [], []
    for spec in specs:
        role = spec.get("role", "both")
        if role not in ("train", "val", "both"):
            raise ConfigError(f"unknown dataset role {role!r}")
        ds = _dataset_from_spec(spec, seed)
        if role in ("train", "both"):
            train_datasets.append(ds)
        if role in ("val", "both"):
            val_datasets.append(ds)
    params, record = pretrain(train_datasets, val_datasets, model_config, train_config)
    save_checkpoint(args.out, {"model": model_config.to_dict(), "seed": seed}, params)
    if args.trace:
        record.to_csv(args.trace)
    status = "diverged" if record.diverged else "ok"
    print(
        f"pretrained {record.stopped_epoch} epochs ({status}); best epoch "
        f"{record.best_epoch} val {record.best_metric:.6f}; wrote {args.out}"
    )
    return 0


def _load_model_checkpoint(path):
    config_doc, params = load_checkpoint(path)
    return ModelConfig.from_dict(config_doc.get("model", {})), params


def _cmd_finetune(args):
    model_config, params = _load_model_checkpoint(args.checkpoint)
    ds = _split_dataset(args)
    train_config = TrainConfig(
        seed=args.seed, lr=args.lr, batch_size=args.batch_size, context_k=args.context_k
    )
    new_params, losses = finetune(
        params, ds, args.n_links, args.steps, model_config, train_config
    )
    save_checkpoint(args.out, {"model": model_config.to_dict(), "seed": args.seed}, new_params)
    tail = f"final loss {losses[-1]:.6f}" if losses else "no steps taken"
    print(f"finetuned {args.steps} steps on {args.n_links} links; {tail}; wrote {args.out}")
    return 0


def _cmd_eval(args):
    model_config, params = _load_model_checkpoint(args.checkpoint)
    ds = _split_dataset(args)
    report = evaluate_model(
        params, model_config, ds, context_size=args.context_size, ratio=args.ratio,
        seeds=_int_list(args.seeds), perturb=args.perturb, hits_k=args.hits_k,
        jobs=args.jobs,
    )
    for metric, stats in report.summary().items():
        print(f"{metric} mean {stats['mean']:.6f} std {stats['std']:.6f} n {stats['n']}")
    if args.out:
        report.save_csv(args.out)
    if args.json:
        report.save_json(args.json)
    return 0


def _cmd_sweep(args):
    model_config, params = _load_model_checkpoint(args.checkpoint)
    ds = _split_dataset(args)
    report = context_size_sweep(
        params, model_config, ds, sizes=_int_list(args.sizes), ratio=args.ratio,
        seeds=_int_list(args.seeds), hits_k=args.hits_k, jobs=args.jobs,
    )
    trends = report.config.get("trend_spearman", [])
    for row in report.rows:
        print(f"size {row['context_size']} seed {row['seed']} {row['metric']} {row['value']:.6f}")
    if trends:
        print(f"trend spearman mean {float(np.mean(trends)):.4f} over {len(trends)} seed(s)")
    if args.out:
        report.save_csv(args.out)
    if args.json:
        report.save_json(args.json)
    return 0


def _cmd_perturb(args):
    model_config, params = _load_model_checkpoint(args.checkpoint)
    ds = _split_dataset(args)
    seeds = _int_list(args.seeds)
    merged = EvalReport(experiment="perturbation", config={"kind": args.kind})
    for perturb in (None, args.kind):
        report = evaluate_model(
            params, model_config, ds, context_size=args.context_size, ratio=args.ratio,
            seeds=seeds, perturb=perturb, hits_k=args.hits_k, jobs=args.jobs,
        )
        values = [row["value"] for row in report.rows]
        label = perturb or "baseline"
        print(f"{label} mean {float(np.mean(values)):.6f} over {len(values)} run(s)")
        merged.rows.extend(report.rows)
    if args.out:
        merged.save_csv(args.out)
    return 0


def _cmd_verify_pattern(args):
    if args.edges:
        g = load_edge_list(args.edges)
    else:
        if not (args.kind and args.rows and args.cols):
            raise ConfigError("verify-pattern needs --edges or --kind/--rows/--cols")
        g = generate_lattice(LatticeSpec(
            kind=args.kind, rows=args.rows, cols=args.cols, torus=args.torus
        ))
    anchors = _int_list(args.anchors) if args.anchors else None
    stats = pattern_stats(g, anchors=anchors)
    for name, frac, count in (
        ("2-edge path", stats.p_two, stats.n_two),
        ("3-edge path", stats.p_three, stats.n_three),
    ):
        shown = "undefined (no such pairs)" if frac is None else f"{frac} = {float(frac):.6f}"
        print(f"p(link | {name}) = {shown} over {count} pairs")
    if args.out:
        stats.save(args.out)
    return 0


def _cmd_transfer_probe(args):
    doc = _load_json(args.config)
    seeds = [int(s) for s in doc.get("seeds", [0])]
    model_doc = dict(doc.get("model", {}))
    model_doc.setdefault("mode", MODE_NO_CONTEXT)
    model_config = ModelConfig.from_dict(model_doc)
    train_config = _make_config(TrainConfig, dict(doc.get("train", {})), "train")
    fractions = tuple(doc.get("fractions", (0.7, 0.1, 0.2)))
    for key in ("target", "extra"):
        if key not in doc:
            raise ConfigError(f"transfer-probe config needs a {key!r} graph spec")
    log.info("config %s digest %s", args.config, _config_digest(doc))
    target = _graph_from_spec(doc["target"])
    extra = _graph_from_spec(doc["extra"])
    results = []
    for seed in seeds:
        r = transfer_probe(target, extra, model_config, train_config, fractions, seed)
        print(
            f"seed {seed} baseline {r.baseline_hits:.6f} augmented "
            f"{r.augmented_hits:.6f} delta {r.delta:+.6f}"
        )
        results.append(r)
    deltas = [r.delta for r in results]
    mean_delta = float(np.mean(deltas))
    print(f"mean delta {mean_delta:+.6f} over {len(deltas)} seed(s)")
    if args.out:
        write_json_atomic(args.out, {
            "seeds": seeds,
            "mean_delta": mean_delta,
            "runs": [
                {"seed": r.seed, "baseline": r.baseline_hits,
                 "augmented": r.augmented_hits, "delta": r.delta}
                for r in results
            ],
        })
    return 0


def _cmd_gradcheck(args):
    seeds = _int_list(args.seeds)
    if not seeds:
        raise ConfigError("gradcheck needs at least one seed")
    config = GRADCHECK_CONFIG
    if args.mode != config.mode:
        config = ModelConfig.from_dict({**config.to_dict(), "mode": args.mode})
    worst = 0.0
    for seed in seeds:
        err = model_gradient_check(seed, config)
        worst = max(worst, err)
        print(f"seed {seed} max relative error {err:.3e}")
    if worst >= args.threshold:
        raise NumericError(
            f"gradient check failed: {worst:.3e} >= threshold {args.threshold:.1e}"
        )
    print(f"gradient check passed: worst {worst:.3e} < {args.threshold:.1e}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="unilp", description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    # options that several subcommands share, each declared once
    split = _Parser(add_help=False)
    split.add_argument("--split", required=True)
    split.add_argument("--name", default=None)
    checkpoint = _Parser(add_help=False)
    checkpoint.add_argument("--checkpoint", required=True)
    scoring = _Parser(add_help=False)
    scoring.add_argument("--ratio", type=float, default=0.5)
    scoring.add_argument("--seeds", default="0")
    scoring.add_argument("--hits-k", type=int, default=50)
    scoring.add_argument("--jobs", type=int, default=1)
    scoring.add_argument("--out", default=None)
    lattice = _Parser(add_help=False)
    lattice.add_argument("--rows", type=int, default=0)
    lattice.add_argument("--cols", type=int, default=0)
    lattice.add_argument("--torus", action="store_true")

    p = sub.add_parser("generate", parents=[lattice],
                       help="write a synthetic graph as an edge list")
    p.add_argument("--kind", required=True, choices=("grid", "triangular", "sbm"))
    p.add_argument("--blocks", default="", help="comma-separated block sizes (sbm)")
    p.add_argument("--p-in", type=float, default=0.1)
    p.add_argument("--p-out", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("split", help="partition an edge list into a link-prediction split")
    p.add_argument("--edges", required=True)
    p.add_argument("--fractions", default="0.7,0.1,0.2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("heuristic", parents=[split],
                       help="score a split's test slice with a classic heuristic")
    p.add_argument("--kind", required=True, choices=HEURISTIC_KINDS)
    p.add_argument("--katz-beta", type=float, default=0.005)
    p.add_argument("--katz-len", type=int, default=5)
    p.add_argument("--hits-k", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_heuristic)

    p = sub.add_parser("label", help="print the labeled subgraph around a node pair")
    p.add_argument("--edges", required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--radius", type=int, default=1)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("pretrain", help="train a model from a JSON run config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="per-epoch CSV trace")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", parents=[checkpoint, split],
                       help="continue training a checkpoint on one split")
    p.add_argument("--n-links", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--context-k", type=int, default=40)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("eval", parents=[checkpoint, split, scoring],
                       help="held-out metrics for a checkpoint")
    p.add_argument("--context-size", type=int, default=400)
    p.add_argument("--perturb", choices=PERTURB_KINDS, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", parents=[checkpoint, split, scoring],
                       help="metric vs context size on nested contexts")
    p.add_argument("--sizes", required=True, help="comma-separated context sizes")
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("perturb", parents=[checkpoint, split, scoring],
                       help="baseline vs corrupted-context evaluation")
    p.add_argument("--kind", required=True, choices=PERTURB_KINDS)
    p.add_argument("--context-size", type=int, default=400)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("verify-pattern", parents=[lattice],
                       help="exact link rates given 2/3-edge paths")
    p.add_argument("--edges", default=None)
    p.add_argument("--kind", choices=("grid", "triangular"), default=None)
    p.add_argument("--anchors", default=None, help="restrict first endpoints (comma-separated)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_pattern)

    p = sub.add_parser("transfer-probe", help="does an extra training graph help or hurt?")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_transfer_probe)

    p = sub.add_parser("gradcheck", help="compare tape gradients to finite differences")
    p.add_argument("--seeds", default="0")
    p.add_argument("--mode", default=GRADCHECK_CONFIG.mode)
    p.add_argument("--threshold", type=float, default=GRADCHECK_THRESHOLD)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if getattr(args, "verbose", False) else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        if not getattr(args, "command", None):
            parser.print_help()
            return 1
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
