"""The benchmark workloads: the inputs each builds, the command it times
and how that command's outputs are checked.

Every workload is a closed loop with one client: the next command starts
when the previous one has exited. The workload seed goes to synth and
train as --seed; the program sees only the generated inputs.

- train-b200: batch 200 on the default 800-pair corpus with the
  ablation settings of the acceptance tests (lr 1e-2, teacher inverse
  temperature 8, d_e = d_u = 4). The step is math-bound: loss, softmax
  and KL kernels and the teacher targets dominate, and 96% of the
  teacher entries its 100 epochs compute repeat earlier ones.
- train-b32: CLI defaults (batch 32, d_e 32, d_u 16) on the 2k corpus.
  Per-call overhead in forward, backward, Adam and the loop dominates,
  and 73% of its teacher entries are new; it guards a teacher cache that
  wins on train-b200.
- eval-2k: cross-modal eval with the relevance file on the 2k corpus.
  Ranking, the relevance parse and the metric loops dominate; no loss
  code runs.
- synth-2k: the 2k corpus bundle. The write side of dataio and
  synthetic, beside the read side in eval-2k; its relevance sidecar is
  O(N^2 / clusters) bytes.
"""

from __future__ import annotations

import json
import math
import os
import statistics

import numpy as np

import oracle

CORPUS_2K = ("--clusters", "4", "--pairs-per-cluster", "500")
CORPUS_DEFAULT = ()
B200 = ("--batch-size", "200", "--lr", "1e-2", "--teacher-inv-temp", "8",
        "--d-e", "4", "--d-u", "4", "--alpha", "0.5", "--beta", "0.5")
TRAIN_FILES = ("img_base", "txt_base", "img_teacher", "txt_teacher", "pairs")


class SetupFailed(Exception):
    pass


def synth(run, out: str, corpus: tuple) -> dict:
    """Run cusa synth into out; returns its role -> path map."""
    child = run.cli(["synth", "--out", out, *corpus, "--seed", str(run.seed)])
    if child.code != 0:
        raise SetupFailed(f"synth exited {child.code}: {child.stderr[-500:]!r}")
    return json.loads(child.stdout)["payload"]["files"]


def train_argv(files: dict, flags: tuple, seed: int, ckpt: str, log: str) -> list:
    argv = ["train"]
    for role in TRAIN_FILES:
        argv += ["--" + role.replace("_", "-"), files[role]]
    return argv + list(flags) + ["--seed", str(seed), "--out-ckpt", ckpt, "--log", log]


def checkpoint_report(files: dict, ckpt: dict) -> dict:
    """Oracle retrieval report of a checkpoint's embeddings of a corpus."""
    img_ids, img = oracle.read_features(files["img_base"])
    txt_ids, txt = oracle.read_features(files["txt_base"])
    return oracle.cross_modal(oracle.embed(img, ckpt["w_img"]),
                              oracle.embed(txt, ckpt["w_txt"]),
                              oracle.cluster_labels(img_ids, "img"),
                              oracle.cluster_labels(txt_ids, "txt"))


class Workload:
    name = ""
    outputs: tuple = ()  # paths the timed command writes, relative to the run directory

    def setup(self, run) -> dict:
        """Build the inputs with the CLI; returns role -> path."""
        raise NotImplementedError

    def command(self, run, inputs: dict) -> list:
        raise NotImplementedError

    def check(self, run, inputs: dict, stdout: str):
        """(problems, map_at_r) for the first timed command's outputs."""
        raise NotImplementedError

    def io_paths(self, inputs: dict) -> list:
        """Files the timed command reads or writes."""
        raise NotImplementedError


class Train(Workload):
    outputs = ("model.ckpt", "train.log")

    def __init__(self, name, corpus, flags, epochs):
        self.name = name
        self.corpus = corpus
        self.flags = tuple(flags) + ("--epochs", str(epochs))
        self.epochs = epochs

    def setup(self, run):
        return synth(run, "inputs", self.corpus)

    def command(self, run, inputs):
        return train_argv(inputs, self.flags, run.seed, *self.outputs)

    def check(self, run, inputs, stdout):
        problems = []
        report = json.loads(stdout)
        ckpt = oracle.read_checkpoint("model.ckpt")
        with open(inputs["pairs"], encoding="utf-8") as fh:
            n_pairs = sum(1 for _ in fh)
        flags = dict(zip(self.flags[::2], self.flags[1::2]))
        expected = {"batch_size": int(flags.get("--batch-size", 32)), "epochs": self.epochs,
                    "seed": run.seed, "d_e": int(flags.get("--d-e", 32)),
                    "d_u": int(flags.get("--d-u", 16))}
        steps = self.epochs * (n_pairs // expected["batch_size"])
        for key, want in expected.items():
            if ckpt["config"].get(key) != want:
                problems.append(f"checkpoint config {key}={ckpt['config'].get(key)!r}, want {want}")
        if report["payload"]["n_steps"] != steps:
            problems.append(f"report n_steps {report['payload']['n_steps']}, want {steps}")
        with open("train.log", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        if len(records) != 1 + steps:
            problems.append(f"log has {len(records) - 1} step records, want {steps}")
        if not all(math.isfinite(r["l_total"]) for r in records[1:]):
            problems.append("log has a non-finite l_total")
        return problems, oracle.mean_map(checkpoint_report(inputs, ckpt))

    def io_paths(self, inputs):
        return [inputs[role] for role in TRAIN_FILES] + list(self.outputs)


class Eval(Workload):
    name = "eval-2k"
    setup_flags = ("--epochs", "2")

    def setup(self, run):
        files = synth(run, "inputs", CORPUS_2K)
        files["ckpt"] = "inputs/model.ckpt"
        child = run.cli(train_argv(files, self.setup_flags, run.seed, files["ckpt"],
                                   "inputs/train.log"))
        if child.code != 0:
            raise SetupFailed(f"train exited {child.code}: {child.stderr[-500:]!r}")
        return files

    def command(self, run, inputs):
        return ["eval", "--task", "cross", "--ckpt", inputs["ckpt"],
                "--img-base", inputs["img_base"], "--txt-base", inputs["txt_base"],
                "--relevance", inputs["relevance"]]

    def check(self, run, inputs, stdout):
        payload = json.loads(stdout)["payload"]
        expected = checkpoint_report(inputs, oracle.read_checkpoint(inputs["ckpt"]))
        return oracle.compare(payload, expected), oracle.mean_map(payload)

    def io_paths(self, inputs):
        return [inputs[k] for k in ("ckpt", "img_base", "txt_base", "relevance")]


class Synth(Workload):
    name = "synth-2k"
    outputs = ("bundle",)

    def setup(self, run):
        return synth(run, "inputs", CORPUS_2K)

    def command(self, run, inputs):
        return ["synth", "--out", "bundle", *CORPUS_2K, "--seed", str(run.seed)]

    def check(self, run, inputs, stdout):
        files = json.loads(stdout)["payload"]["files"]
        problems = []
        tables = {}
        for role, modality in (("img_base", "img"), ("txt_base", "txt"),
                               ("img_teacher", "img"), ("txt_teacher", "txt")):
            ids, rows = oracle.read_features(files[role])
            labels = oracle.cluster_labels(ids, modality)
            if not np.array_equal(labels, np.arange(len(ids)) // 500) or len(ids) != 2000:
                problems.append(f"{role}: ids are not 4 clusters x 500 in order")
            if not np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-5):
                problems.append(f"{role}: rows are not unit length")
            tables[role] = (ids, rows, labels)
        img_ids, txt_ids = tables["img_base"][0], tables["txt_base"][0]
        with open(files["pairs"], encoding="utf-8") as fh:
            if fh.read() != "".join(f"{i}\t{t}\n" for i, t in zip(img_ids, txt_ids)):
                problems.append("pairs file does not pair row i with row i")
        problems += relevance_problems(files["relevance"], img_ids, txt_ids,
                                       tables["img_base"][2])
        quality = []
        for role in ("img_base", "txt_base"):
            _, rows, labels = tables[role]
            unit = rows / np.linalg.norm(rows, axis=1)[:, None]
            quality.append(oracle.uni_modal(unit, labels)["map_at_r"])
        return problems, statistics.mean(quality)

    def io_paths(self, inputs):
        return [os.path.join("bundle", f) for f in sorted(os.listdir("bundle"))]


def relevance_problems(path, img_ids, txt_ids, labels) -> list:
    """Every id must map to exactly the other ids of its cluster, both modalities."""
    members = {}
    for ids in (img_ids, txt_ids):
        for item_id, label in zip(ids, labels):
            members.setdefault(int(label), set()).add(item_id)
    label_of = {i: int(c) for ids in (img_ids, txt_ids) for i, c in zip(ids, labels)}
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            query, _, blob = line.rstrip("\n").partition("\t")
            if query not in label_of or query in seen:
                return [f"relevance line {lineno}: unexpected query {query!r}"]
            seen.add(query)
            if set(blob.split(",")) != members[label_of[query]] - {query}:
                return [f"relevance line {lineno}: wrong relevant set for {query!r}"]
    if len(seen) != len(label_of):
        return [f"relevance covers {len(seen)} of {len(label_of)} ids"]
    return []


WORKLOADS = {w.name: w for w in (
    Train("train-b200", CORPUS_DEFAULT, B200, epochs=100),
    Train("train-b32", CORPUS_2K, (), epochs=40),
    Eval(),
    Synth(),
)}
