"""Command-line entry point.

Subcommands: synth, train, eval, gradcheck, inspect. Every command
prints one JSON report to stdout with stable, sorted fields; given
identical flags and inputs the bytes are identical run to run. Wall
time goes to stderr so it never perturbs the report.

Exit codes: 0 success, 2 usage, 3 I/O or file format, 4 data
inconsistency, 5 numeric failure, 6 gradient check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, fields

import numpy as np

from . import dataio, gradcheck, metrics, model, synthetic, trainer
from .errors import (
    DataError,
    FormatError,
    InvalidConfig,
    NumericError,
    OutOfRange,
    UsageError,
)
from .losses import loss_from_logits, student_logits
from .mathops import l2_normalize_rows, row_softmax
from .softlabels import build_batch_targets

FORMAT_VERSION = 1

# exit code of each error family; anything else is a bug and propagates
EXIT_CODES = {UsageError: 2, FormatError: 3, OSError: 3, DataError: 4, NumericError: 5}


def _print_report(command: str, config: dict, seed: int, payload: dict) -> None:
    report = {
        "command": command,
        "config": config,
        "seed": seed,
        "payload": payload,
        "format_version": FORMAT_VERSION,
    }
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _config(cls, args):
    """A `cls` config from the parsed flags: every flag stores into the
    field of the same name, and fields without a flag keep their default."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)})


def cmd_synth(args) -> int:
    config = _config(synthetic.SynthConfig, args)
    paths = synthetic.synth_generate(config, args.out)
    payload = {
        "files": paths,
        "n_pairs": config.n_clusters * config.pairs_per_cluster,
    }
    _print_report("synth", asdict(config), config.seed, payload)
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _load_train_data(args) -> trainer.TrainData:
    img_base = dataio.read_features(args.img_base)
    txt_base = dataio.read_features(args.txt_base)
    return trainer.TrainData(
        img_base=img_base, txt_base=txt_base,
        img_teacher=dataio.read_features(args.img_teacher),
        txt_teacher=dataio.read_features(args.txt_teacher),
        pairs=dataio.read_pairs(args.pairs, img_ids=img_base, txt_ids=txt_base))


def cmd_train(args) -> int:
    config = _config(trainer.TrainConfig, args)
    data = _load_train_data(args)
    params, log = trainer.train(data, config)
    dataio.save_checkpoint(args.out_ckpt, params, config.to_dict())
    log.write(args.log)
    payload = {
        "checkpoint": args.out_ckpt,
        "log": args.log,
        "n_steps": len(log.records),
        "final": log.records[-1] if log.records else None,
    }
    _print_report("train", config.to_dict(), args.seed, payload)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _eval_inputs(args, sides) -> list:
    """(ids, embeddings) of each side in `sides` ("img", "txt"): either
    a checkpoint's embeddings of the --*-base features or the --*-emb
    files of already-embedded vectors, whose rows are re-normalized in
    float64 to absorb the 32-bit storage rounding."""
    ckpt = args.ckpt is not None
    if ckpt:
        if args.img_emb is not None or args.txt_emb is not None:
            raise InvalidConfig("pass either --ckpt or --img-emb/--txt-emb, not both")
        params, _ = dataio.load_checkpoint(args.ckpt)
    elif args.usa_branch:
        raise InvalidConfig("--usa-branch requires --ckpt (embeddings are computed)")
    elif args.img_base is not None or args.txt_base is not None:
        raise InvalidConfig("--img-base/--txt-base are read only with --ckpt")
    inputs = []
    for side in sides:
        path = getattr(args, f"{side}_base" if ckpt else f"{side}_emb")
        if path is None:
            raise InvalidConfig(f"--ckpt evaluation needs --{side}-base" if ckpt else
                                f"task needs --{side}-emb (or --ckpt with --{side}-base)")
        table = dataio.read_features(path)
        if ckpt:
            embed = model.embed_images if side == "img" else model.embed_texts
            inputs.append((table.ids, embed(table.features, params, usa_branch=args.usa_branch)))
        else:
            inputs.append((table.ids, l2_normalize_rows(table.features)))
    return inputs


def _eval_config(args) -> dict:
    """The report's config echo: every eval flag, as parsed."""
    return {k: v for k, v in vars(args).items() if k not in ("subcommand", "func")}


def cmd_eval(args) -> int:
    task = args.task
    reads = {"cross": ("img", "txt", "pairs", "relevance"), "img": ("img", "relevance"),
             "sts": ("txt", "pairs")}[task]
    for name in ("img_emb", "img_base", "txt_emb", "txt_base", "pairs", "relevance"):
        if getattr(args, name) is not None and name.split("_")[0] not in reads:
            raise InvalidConfig(f"task {task} does not read --{name.replace('_', '-')}")
    if task == "cross":
        if (args.pairs is None) == (args.relevance is None):
            raise InvalidConfig("task cross needs exactly one of --pairs / --relevance")
        (img_ids, img_emb), (txt_ids, txt_emb) = _eval_inputs(args, ("img", "txt"))
        if args.pairs is not None:
            pairs = dataio.read_pairs(args.pairs, img_ids=set(img_ids), txt_ids=set(txt_ids))
            i2t, t2i = defaultdict(list), defaultdict(list)
            for img, txt in pairs:
                i2t[img].append(txt)
                t2i[txt].append(img)
            rel_i2t, rel_t2i = map(metrics.Relevance.from_mapping, (i2t, t2i))
        else:
            # one id table over both modalities; an id string may name an
            # image and a text at once
            rel_i2t = rel_t2i = dataio.read_relevance(args.relevance,
                                                      known_ids=img_ids + txt_ids)
        payload = metrics.evaluate_cross_modal(img_emb, txt_emb, img_ids, txt_ids,
                                               rel_i2t, rel_t2i)
    elif task == "img":
        if args.relevance is None:
            raise InvalidConfig("task img needs --relevance")
        [(img_ids, img_emb)] = _eval_inputs(args, ("img",))
        rel = dataio.read_relevance(args.relevance)
        payload = metrics.evaluate_uni_modal(img_emb, img_ids, rel)
    else:  # sts
        if args.pairs is None:
            raise InvalidConfig("task sts needs --pairs (id_a, id_b, score)")
        [(txt_ids, txt_emb)] = _eval_inputs(args, ("txt",))
        index = metrics.id_table(txt_ids)
        triples = dataio.read_scored_pairs(args.pairs, ids=index)
        pred = [float(txt_emb[index[a]] @ txt_emb[index[b]]) for a, b, _ in triples]
        gold = [score for _, _, score in triples]
        payload = {"spearman": metrics.spearman(pred, gold), "n_pairs": len(triples)}
    _print_report("eval", _eval_config(args), 0, payload)
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _parse_dims(raw: str):
    parts = raw.split(",")
    if len(parts) != 4:
        raise InvalidConfig(f"--dims needs 4 comma-separated integers, got {raw!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise InvalidConfig(f"--dims needs integers, got {raw!r}") from None
    if any(d < 1 for d in dims):
        raise InvalidConfig(f"--dims entries must be >= 1, got {raw!r}")
    return dims


def cmd_gradcheck(args) -> int:
    dims = _parse_dims(args.dims)
    errors = gradcheck.run(trials=args.trials, base_seed=args.seed, dims=dims)
    failed = gradcheck.failed_components(errors)
    payload = {
        "max_errors": errors,
        "tolerance": gradcheck.TOLERANCE,
        "passed": not failed,
    }
    config = {"seed": args.seed, "trials": args.trials, "dims": list(dims)}
    _print_report("gradcheck", config, args.seed, payload)
    if failed:
        sys.stderr.write("gradcheck failed: " + ", ".join(failed) + "\n")
        return 6
    return 0


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def _parse_batch(raw: str, n_pairs: int):
    try:
        indices = [int(p) for p in raw.split(",")]
    except ValueError:
        raise InvalidConfig(f"--batch needs comma-separated integers, got {raw!r}") from None
    for i in indices:
        if not (0 <= i < n_pairs):
            raise OutOfRange(f"pair index {i} outside [0, {n_pairs})")
    if len(indices) < 2:
        raise InvalidConfig("--batch needs at least 2 indices")
    return indices


def _vectors(ids, emb) -> list:
    return [{"id": i, "vector": [float(v) for v in row]} for i, row in zip(ids, emb)]


def cmd_inspect(args) -> int:
    # the flags shared with train pass the same checks
    config = _config(trainer.TrainConfig, args)
    data = _load_train_data(args)
    indices = _parse_batch(args.batch, len(data.pairs))
    batch = [data.pairs[i] for i in indices]
    base_img, base_txt, teacher = data.aligned(batch)

    if args.ckpt is not None:
        params, _ = dataio.load_checkpoint(args.ckpt)
    else:
        params = model.init_params(config.seed, base_img.shape[1], base_txt.shape[1],
                                   config.d_e, config.d_u)

    outputs = model.forward(base_img, base_txt, params)
    targets = build_batch_targets(teacher, config.teacher_inv_temp)
    s = student_logits(outputs)
    it = outputs.inv_temp
    with np.errstate(all="ignore"):  # an overflow ends as a NumericError
        report, _ = loss_from_logits(s, targets, it, config.alpha, config.beta)
    payload = {
        "batch": indices,
        "p_i2i": targets.p_i2i.tolist(),
        "p_t2t": targets.p_t2t.tolist(),
        "q_i2t": row_softmax(s[0, 0], it).tolist(),
        "q_t2i": row_softmax(s[0, 1], it).tolist(),
        "q_i2i": row_softmax(s[1, 0], it).tolist(),
        "q_t2t": row_softmax(s[1, 1], it).tolist(),
        "loss": asdict(report),
        "embeddings": {
            "images": _vectors([img for img, _ in batch], outputs.img_emb),
            "texts": _vectors([txt for _, txt in batch], outputs.txt_emb),
        },
    }
    _print_report("inspect", {"alpha": args.alpha, "beta": args.beta,
                              "teacher_inv_temp": args.teacher_inv_temp, "ckpt": args.ckpt},
                  args.seed, payload)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_train_files(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pairs", required=True, help="image/text pair file")
    p.add_argument("--img-base", required=True, help="student image features")
    p.add_argument("--txt-base", required=True, help="student text features")
    p.add_argument("--img-teacher", required=True, help="teacher image features")
    p.add_argument("--txt-teacher", required=True, help="teacher text features")


def _add_config_flag(p: argparse.ArgumentParser, flag: str, cls, field: str,
                     help: str | None = None) -> None:
    """`flag` storing into args.<field>, with the type and default of
    that field of the config dataclass `cls`."""
    default = getattr(cls, field)
    p.add_argument(flag, dest=field, type=type(default), default=default, help=help)


def _add_shared_train_flags(p: argparse.ArgumentParser) -> None:
    """The TrainConfig flags that train and inspect share."""
    cfg = trainer.TrainConfig
    _add_config_flag(p, "--alpha", cfg, "alpha", "CSA weight")
    _add_config_flag(p, "--beta", cfg, "beta", "USA weight")
    _add_config_flag(p, "--teacher-inv-temp", cfg, "teacher_inv_temp")
    _add_config_flag(p, "--seed", cfg, "seed", "init seed (train: also the batch order)")
    _add_config_flag(p, "--d-e", cfg, "d_e", "retrieval embedding width")
    _add_config_flag(p, "--d-u", cfg, "d_u", "projector head width")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cusa",
                                     description="soft-label alignment toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a clustered synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    for flag, field, help in (
            ("--clusters", "n_clusters", None),
            ("--pairs-per-cluster", "pairs_per_cluster", None),
            ("--seed", "seed", None),
            ("--noise", "intra_noise", "intra-cluster noise scale"),
            ("--gap", "cross_modal_gap", "fraction of pair noise private to each modality"),
            ("--d-student-img", "d_student_img", None),
            ("--d-student-txt", "d_student_txt", None),
            ("--d-teacher-img", "d_teacher_img", None),
            ("--d-teacher-txt", "d_teacher_txt", None)):
        _add_config_flag(p, flag, synthetic.SynthConfig, field, help)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the projection student")
    _add_train_files(p)
    p.add_argument("--out-ckpt", required=True, help="checkpoint output path")
    p.add_argument("--log", required=True, help="step log output path")
    _add_shared_train_flags(p)
    for flag, field in (("--batch-size", "batch_size"), ("--epochs", "epochs"),
                        ("--lr", "learning_rate"), ("--weight-decay", "weight_decay")):
        _add_config_flag(p, flag, trainer.TrainConfig, field)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate retrieval or similarity metrics")
    p.add_argument("--task", required=True, choices=("cross", "img", "sts"))
    p.add_argument("--ckpt", help="checkpoint; embeds --img-base/--txt-base")
    p.add_argument("--img-emb", help="precomputed image embeddings")
    p.add_argument("--txt-emb", help="precomputed text embeddings")
    p.add_argument("--img-base", help="student image features (with --ckpt)")
    p.add_argument("--txt-base", help="student text features (with --ckpt)")
    p.add_argument("--pairs", help="pair file (cross) or scored pairs (sts)")
    p.add_argument("--relevance", help="multi-positive relevance file")
    p.add_argument("--usa-branch", action="store_true",
                   help="evaluate the projector-head embeddings")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--dims", default=",".join(map(str, gradcheck.DEFAULT_DIMS)),
                   help="d_base_img,d_base_txt,d_e,d_u")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inspect", help="dump P/Q matrices and losses for one batch")
    _add_train_files(p)
    p.add_argument("--batch", required=True, help="comma-separated pair indices")
    p.add_argument("--ckpt", help="checkpoint to inspect (default: fresh init)")
    _add_shared_train_flags(p)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    start = time.perf_counter()
    try:
        code = args.func(args)
    except tuple(EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(exit_code for family, exit_code in EXIT_CODES.items()
                    if isinstance(exc, family))
    sys.stderr.write(f"wall_time_s={time.perf_counter() - start:.3f}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
