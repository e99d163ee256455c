import json
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from unilp.autodiff import load_checkpoint, save_checkpoint
from unilp.cli import main
from unilp.graphs import DataSplit, load_edge_list
from unilp.model import MODE_NO_CONTEXT, ModelConfig, init_params

SMALL_ICL = ModelConfig(
    hidden_dim=8, attention_dim=8, embed_dim=8,
    encoder_layers=1, mlp_layers=2, mlp_hidden=8,
)
SMALL_PLAIN = replace(SMALL_ICL, mode=MODE_NO_CONTEXT)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: an edge list, a split, and two fresh checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    assert main([
        "generate", "--kind", "triangular", "--rows", "6", "--cols", "6",
        "--torus", "--out", str(root / "tri.edges"),
    ]) == 0
    assert main([
        "split", "--edges", str(root / "tri.edges"), "--seed", "0",
        "--out", str(root / "tri.split.json"),
    ]) == 0
    save_checkpoint(root / "icl.ckpt.json",
                    {"model": SMALL_ICL.to_dict(), "seed": 0},
                    init_params(SMALL_ICL, seed=0))
    save_checkpoint(root / "plain.ckpt.json",
                    {"model": SMALL_PLAIN.to_dict(), "seed": 0},
                    init_params(SMALL_PLAIN, seed=0))
    return root


# ---------------------------------------------------------------------------
# generate / split


def test_generate_lattice(tmp_path, capsys):
    out = tmp_path / "grid.edges"
    assert main(["generate", "--kind", "grid", "--rows", "4", "--cols", "5",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == f"wrote 20 nodes / 31 edges to {out}"
    assert out.read_text().startswith("#")
    g = load_edge_list(out)
    assert (g.n, g.edge_count) == (20, 31)


def test_generate_sbm(tmp_path, capsys):
    out = tmp_path / "sbm.edges"
    assert main(["generate", "--kind", "sbm", "--blocks", "5,5", "--p-in", "1.0",
                 "--p-out", "0.0", "--out", str(out)]) == 0
    assert "wrote 10 nodes / 20 edges" in capsys.readouterr().out
    assert load_edge_list(out).edge_count == 20


def test_generate_validation(tmp_path, capsys):
    out = str(tmp_path / "x.edges")
    assert main(["generate", "--kind", "sbm", "--out", out]) == 1
    assert main(["generate", "--kind", "grid", "--rows", "2", "--cols", "5",
                 "--out", out]) == 1
    assert main(["generate", "--kind", "hex", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_split_counts(ws, tmp_path, capsys):
    out = tmp_path / "split.json"
    assert main(["split", "--edges", str(ws / "tri.edges"), "--seed", "1",
                 "--out", str(out)]) == 0
    assert ": 77 observed, 10 valid, 21 test" in capsys.readouterr().out
    split = DataSplit.load(out)
    assert (len(split.observed), len(split.valid_pos), len(split.test_pos)) == (77, 10, 21)


def test_split_errors(ws, tmp_path):
    out = str(tmp_path / "split.json")
    assert main(["split", "--edges", str(tmp_path / "missing.edges"), "--out", out]) == 2
    assert main(["split", "--edges", str(ws / "tri.edges"), "--fractions", "a,b",
                 "--out", out]) == 1
    assert main(["split", "--edges", str(ws / "tri.edges"), "--fractions", "0.6,0.5,0.2",
                 "--out", out]) == 1


# ---------------------------------------------------------------------------
# heuristic / label


def test_heuristic_command(ws, tmp_path, capsys):
    out = tmp_path / "heuristic.csv"
    assert main(["heuristic", "--kind", "cn", "--split", str(ws / "tri.split.json"),
                 "--name", "tri", "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("cn hits@21 ")
    assert 0.0 <= float(line.split()[-1]) <= 1.0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "experiment,dataset,mode,context_size,ratio,perturb,seed,run,metric,value"
    assert lines[1].startswith("heuristic,tri,cn,")


def test_heuristic_katz_flags(ws, capsys):
    assert main(["heuristic", "--kind", "katz", "--katz-beta", "0.01", "--katz-len", "3",
                 "--split", str(ws / "tri.split.json")]) == 0
    assert capsys.readouterr().out.startswith("katz hits@21 ")


def test_heuristic_rejects_non_finite_katz_beta(ws, capsys):
    assert main(["heuristic", "--kind", "katz", "--katz-beta", "nan",
                 "--split", str(ws / "tri.split.json")]) == 1
    assert capsys.readouterr().err.startswith("error: katz_beta must be a finite real number")


def test_heuristic_rejects_split_with_out_of_range_endpoint(tmp_path, capsys):
    split = tmp_path / "bad.split.json"
    split.write_text(json.dumps({
        "seed": 0, "id_map": list(range(6)), "observed": [[0, 9], [1, 2]],
        "valid_pos": [], "valid_neg": [], "test_pos": [[1, 2]], "test_neg": [[2, 3]],
    }))
    assert main(["heuristic", "--kind", "cn", "--split", str(split)]) == 2
    assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad_pair", [[0, 9], [-1, 3]])
def test_split_with_out_of_range_held_out_pair_is_a_data_error(ws, tmp_path, capsys, bad_pair):
    split = tmp_path / "bad.split.json"
    split.write_text(json.dumps({
        "seed": 0, "id_map": list(range(8)), "observed": [[i, (i + 1) % 8] for i in range(8)],
        "valid_pos": [], "valid_neg": [], "test_pos": [bad_pair], "test_neg": [[1, 3]],
    }))
    assert main(["heuristic", "--kind", "pa", "--split", str(split)]) == 2
    assert "data error:" in capsys.readouterr().err
    assert main(["eval", "--checkpoint", str(ws / "icl.ckpt.json"), "--split", str(split)]) == 2
    assert "data error:" in capsys.readouterr().err


def test_split_with_self_pair_is_a_data_error(tmp_path, capsys):
    split = tmp_path / "bad.split.json"
    split.write_text(json.dumps({
        "seed": 0, "id_map": list(range(6)), "observed": [[0, 1], [1, 2]],
        "valid_pos": [], "valid_neg": [], "test_pos": [[3, 3]], "test_neg": [[2, 4]],
    }))
    assert main(["heuristic", "--kind", "cn", "--split", str(split)]) == 2
    assert "data error:" in capsys.readouterr().err


def test_label_command(ws, capsys):
    assert main(["label", "--edges", str(ws / "tri.edges"), "--u", "0", "--v", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("subgraph around (0, 1):")
    assert "radius 1" in lines[0]
    assert lines[1] == "node 0: label (1, 0) index 1"
    assert lines[2] == "node 1: label (1, 0) index 1"
    assert all(line.startswith("node ") for line in lines[1:])


def test_label_rejects_negative_node_id(ws, capsys):
    assert main(["label", "--edges", str(ws / "tri.edges"), "--u", "-1", "--v", "5"]) == 1
    captured = capsys.readouterr()
    assert "out of range" in captured.err and "node -1" not in captured.out


# ---------------------------------------------------------------------------
# pretrain / finetune


def test_pretrain_command(ws, tmp_path, capsys):
    config = {
        "seed": 0,
        "model": {**SMALL_PLAIN.to_dict()},
        "train": {"max_epochs": 2, "patience": 2, "batch_size": 8, "per_graph_cap": 16,
                  "context_k": 2, "eval_context_size": 3, "hits_k": 3, "lr": 0.01},
        "datasets": [{"name": "tri", "split": str(ws / "tri.split.json"), "role": "both"}],
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    ckpt = tmp_path / "model.ckpt.json"
    trace = tmp_path / "trace.csv"
    assert main(["pretrain", "--config", str(config_path), "--out", str(ckpt),
                 "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pretrained 2 epochs (ok); best epoch ")
    assert f"wrote {ckpt}" in out
    loaded_config, params = load_checkpoint(ckpt)
    assert loaded_config["model"]["mode"] == MODE_NO_CONTEXT
    assert params
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,val_metric"
    assert len(lines) == 3


def test_pretrain_config_errors(ws, tmp_path):
    ckpt = str(tmp_path / "model.ckpt.json")

    def run(doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return main(["pretrain", "--config", str(path), "--out", ckpt])

    base = {"datasets": [{"name": "tri", "split": str(ws / "tri.split.json")}]}
    assert run({**base, "train": {"foo": 1}}) == 1
    assert run({}) == 1
    assert run({"datasets": [{"split": str(ws / "tri.split.json")}]}) == 1
    assert run({**base, "datasets": [{**base["datasets"][0], "role": "test"}]}) == 1
    assert main(["pretrain", "--config", str(tmp_path / "nope.json"), "--out", ckpt]) == 2
    not_json = tmp_path / "not.json"
    not_json.write_text("{")
    assert main(["pretrain", "--config", str(not_json), "--out", ckpt]) == 2


def test_pretrain_rejects_non_integer_config_values(ws, tmp_path):
    ckpt = str(tmp_path / "model.ckpt.json")
    base = {"datasets": [{"name": "tri", "split": str(ws / "tri.split.json")}],
            "model": SMALL_ICL.to_dict(), "train": {"max_epochs": 1, "hits_k": 2}}
    bad = [("model", "max_per_hop", 2.5), ("model", "hidden_dim", 8.5),
           ("train", "batch_size", 2.5), ("train", "context_k", 2.5), ("train", "max_epochs", 1.5),
           ("train", "lr", "0.01"), ("train", "lr", True), ("train", "lr", None),
           ("model", "leaky_slope", "abc"), ("model", "leaky_slope", False),
           ("model", "leaky_slope", None), ("train", "lr", float("nan")),
           ("train", "lr", float("inf")), ("model", "leaky_slope", float("nan")),
           ("model", "leaky_slope", -float("inf")), ("model", "leaky_slope", -0.5),
           ("model", "leaky_slope", 2.0)]
    for section, key, value in bad:
        doc = {**base, section: {**base[section], key: value}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["pretrain", "--config", str(path), "--out", ckpt]) == 1, (section, key)


def test_finetune_command(ws, tmp_path, capsys):
    out = tmp_path / "tuned.ckpt.json"
    assert main(["finetune", "--checkpoint", str(ws / "plain.ckpt.json"),
                 "--split", str(ws / "tri.split.json"), "--n-links", "5",
                 "--steps", "3", "--lr", "0.01", "--batch-size", "5",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("finetuned 3 steps on 5 links; final loss ")
    _, params = load_checkpoint(out)
    assert params
    for lr in ("nan", "inf"):  # a bad config, exit 1, before any step runs
        assert main(["finetune", "--checkpoint", str(ws / "plain.ckpt.json"),
                     "--split", str(ws / "tri.split.json"), "--n-links", "5",
                     "--steps", "3", "--lr", lr, "--out", str(out)]) == 1, lr


def test_finetune_zero_steps(ws, tmp_path, capsys):
    out = tmp_path / "tuned.ckpt.json"
    assert main(["finetune", "--checkpoint", str(ws / "plain.ckpt.json"),
                 "--split", str(ws / "tri.split.json"), "--n-links", "5",
                 "--steps", "0", "--out", str(out)]) == 0
    assert "no steps taken" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# eval / sweep / perturb


def test_eval_command_no_context(ws, tmp_path, capsys):
    csv_out = tmp_path / "eval.csv"
    json_out = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", str(ws / "plain.ckpt.json"),
                 "--split", str(ws / "tri.split.json"), "--name", "tri",
                 "--seeds", "0,1", "--hits-k", "5",
                 "--out", str(csv_out), "--json", str(json_out)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("hits@5 mean ")
    assert line.endswith("n 2")
    rows = csv_out.read_text().strip().splitlines()
    assert len(rows) == 3
    doc = json.loads(json_out.read_text())
    assert doc["experiment"] == "eval"
    assert doc["summary"]["hits@5"]["n"] == 2
    assert [r["dataset"] for r in doc["rows"]] == ["tri", "tri"]


def test_eval_command_icl_perturbed(ws, capsys):
    assert main(["eval", "--checkpoint", str(ws / "icl.ckpt.json"),
                 "--split", str(ws / "tri.split.json"), "--context-size", "6",
                 "--seeds", "0", "--hits-k", "5", "--perturb", "flip_label",
                 "--jobs", "2"]) == 0
    assert capsys.readouterr().out.startswith("hits@5 mean ")


def test_eval_errors(ws, tmp_path):
    split = str(ws / "tri.split.json")
    assert main(["eval", "--checkpoint", str(tmp_path / "missing.json"),
                 "--split", split]) == 2
    assert main(["eval", "--checkpoint", str(ws / "plain.ckpt.json"),
                 "--split", split, "--perturb", "typo"]) == 1
    for ratio in ("1.5", "nan"):
        assert main(["eval", "--checkpoint", str(ws / "plain.ckpt.json"),
                     "--split", split, "--ratio", ratio]) == 1


def test_sweep_command(ws, tmp_path, capsys):
    json_out = tmp_path / "sweep.json"
    assert main(["sweep", "--checkpoint", str(ws / "icl.ckpt.json"),
                 "--split", str(ws / "tri.split.json"), "--name", "tri",
                 "--sizes", "4,2", "--seeds", "0", "--hits-k", "5",
                 "--json", str(json_out)]) == 0
    out = capsys.readouterr().out
    assert "size 2 seed 0 hits@5 " in out
    assert "size 4 seed 0 hits@5 " in out
    assert "trend spearman mean " in out
    doc = json.loads(json_out.read_text())
    assert doc["config"]["sizes"] == [2, 4]
    assert len(doc["config"]["trend_spearman"]) == 1


def test_sweep_rejects_no_context_checkpoint(ws):
    assert main(["sweep", "--checkpoint", str(ws / "plain.ckpt.json"),
                 "--split", str(ws / "tri.split.json"), "--sizes", "2,4"]) == 1


@pytest.mark.parametrize("ratio", ["nan", "1.5"])
def test_sweep_rejects_ratio_outside_unit_interval(ws, capsys, ratio):
    assert main(["sweep", "--checkpoint", str(ws / "icl.ckpt.json"),
                 "--split", str(ws / "tri.split.json"), "--sizes", "4,12",
                 "--ratio", ratio]) == 1
    assert capsys.readouterr().err.startswith("error: ratio must lie in [0, 1]")


def test_perturb_command(ws, tmp_path, capsys):
    out = tmp_path / "perturb.csv"
    assert main(["perturb", "--checkpoint", str(ws / "icl.ckpt.json"),
                 "--split", str(ws / "tri.split.json"), "--name", "tri",
                 "--kind", "random_context", "--context-size", "4",
                 "--seeds", "0", "--hits-k", "5", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "baseline mean " in text
    assert "random_context mean " in text
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[5] == ""
    assert lines[2].split(",")[5] == "random_context"


@pytest.mark.parametrize("command", [
    ["eval", "--context-size", "4"],
    ["sweep", "--sizes", "2,4"],
    ["perturb", "--kind", "flip_label", "--context-size", "4"],
])
def test_scoring_commands_reject_empty_seeds(ws, capsys, command):
    assert main(command + ["--checkpoint", str(ws / "icl.ckpt.json"),
                           "--split", str(ws / "tri.split.json"), "--seeds", ","]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: seeds must name at least one seed")


@pytest.mark.parametrize("command", ["eval", "sweep", "heuristic"])
def test_hits_k_zero_fails_before_scoring(ws, capsys, monkeypatch, command):
    import unilp.cli as cli
    import unilp.evaluation as evaluation

    scored = []
    spy = lambda *args, **kwargs: scored.append(args)  # noqa: E731
    monkeypatch.setattr(evaluation, "score_pairs", spy)
    monkeypatch.setattr(cli, "score_batch", spy)
    args = {
        "eval": ["eval", "--checkpoint", str(ws / "icl.ckpt.json")],
        "sweep": ["sweep", "--sizes", "2,4", "--checkpoint", str(ws / "icl.ckpt.json")],
        "heuristic": ["heuristic", "--kind", "cn"],
    }[command]
    assert main(args + ["--split", str(ws / "tri.split.json"), "--hits-k", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: hits_k must be >= 1")
    assert scored == []


# ---------------------------------------------------------------------------
# verify-pattern / transfer-probe / gradcheck


def test_verify_pattern_grid(tmp_path, capsys):
    out = tmp_path / "pattern.json"
    assert main(["verify-pattern", "--kind", "grid", "--rows", "8", "--cols", "8",
                 "--torus", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p(link | 2-edge path) = 0 = 0.000000 over 256 pairs"
    assert lines[1] == "p(link | 3-edge path) = 1/4 = 0.250000 over 512 pairs"
    doc = json.loads(out.read_text())
    assert doc["p_A3"] == [1, 4]


def test_verify_pattern_from_edges(ws, capsys):
    assert main(["verify-pattern", "--edges", str(ws / "tri.edges"),
                 "--anchors", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "p(link | 2-edge path) = " in out


def test_verify_pattern_requires_input():
    assert main(["verify-pattern"]) == 1


def test_transfer_probe_command(ws, tmp_path, capsys):
    config = {
        "seeds": [5],
        "target": {"kind": "grid", "rows": 6, "cols": 6, "torus": True},
        "extra": {"kind": "sbm", "blocks": [8], "p_in": 0.0, "p_out": 0.0},
        "model": {**SMALL_PLAIN.to_dict()},
        "train": {"seed": 1, "batch_size": 16, "max_epochs": 2, "patience": 2,
                  "per_graph_cap": 30, "context_k": 4, "eval_context_size": 8,
                  "hits_k": 5},
    }
    config_path = tmp_path / "probe.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "probe-result.json"
    assert main(["transfer-probe", "--config", str(config_path), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "seed 5 baseline " in text
    assert "delta +0.000000" in text
    assert "mean delta +0.000000 over 1 seed(s)" in text
    doc = json.loads(out.read_text())
    assert doc["mean_delta"] == 0.0
    assert doc["runs"][0]["seed"] == 5


def test_transfer_probe_config_errors(tmp_path):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"extra": {"kind": "grid", "rows": 3, "cols": 3}}))
    assert main(["transfer-probe", "--config", str(path)]) == 1


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seeds", "0,1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("seed 0 max relative error ")
    assert lines[1].startswith("seed 1 max relative error ")
    assert lines[2].startswith("gradient check passed: worst ")


def test_gradcheck_impossible_threshold(capsys):
    assert main(["gradcheck", "--seeds", "0", "--threshold", "1e-18"]) == 3
    assert "numeric error:" in capsys.readouterr().err


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    # join continuation lines, write each `cat > FILE <<'MARK'` heredoc, and
    # run every `unilp` command in order
    lines = iter(block.replace("\\\n", " ").splitlines())
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in lines:
        if line.startswith("cat > "):
            target, marker = line[len("cat > "):].split(" <<")
            body = []
            for body_line in lines:
                if body_line == marker.strip("'"):
                    break
                body.append(body_line)
            Path(target).write_text("\n".join(body) + "\n")
        elif line.startswith("unilp "):
            assert main(shlex.split(line)[1:]) == 0, line
            ran.append(line.split()[1])
    assert ran == ["generate", "split", "heuristic", "verify-pattern", "pretrain", "eval",
                   "gradcheck"]
    out = capsys.readouterr().out
    assert "p(link | 3-edge path) = 1/4" in out
    assert "pretrained 2 epochs (ok)" in out


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().out


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_repeated_calls_share_one_parser_and_parse_afresh(ws, capsys):
    from unilp.cli import _build_parser

    label = ["label", "--edges", str(ws / "tri.edges"), "--u", "0", "--v", "1"]
    assert main(label) == 0
    first = capsys.readouterr().out
    assert main(label[:-4] + ["--u", "2", "--v", "9", "--radius", "2"]) == 0
    assert "radius 2" in capsys.readouterr().out
    assert main(label[:-2]) == 1  # --v missing: a usage error
    assert "error:" in capsys.readouterr().err
    assert main(["verify-pattern", "--kind", "grid", "--rows", "4", "--cols", "4", "--torus"]) == 0
    assert "p(link | 2-edge path) = 0" in capsys.readouterr().out
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().out
    # no option value of an earlier call carries over
    assert main(label) == 0
    assert capsys.readouterr().out == first
    assert _build_parser() is _build_parser()
