"""End-to-end acceptance checks, one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines;
each test prints `[criterion N] name: PASS/FAIL (detail)` before its
assertions fire, so a red run still reports every measured number.

The six criteria:
  1. every analytic gradient matches central finite differences
  2. the loss kernels satisfy their algebraic identities
  3. the retrieval metrics agree exactly with brute-force oracles
  4. RSUM reproduces two frozen reference sums
  5. the soft-label terms move held-out metrics in the right direction
     on the generator's default scenario
  6. fixed seeds give byte-identical artifacts and the binary formats
     round-trip bit-exactly and reject damage with positioned errors
"""

import io
import json
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
import scipy.stats

from cusa import cli, gradcheck
from cusa.dataio import (
    FeatureTable,
    load_checkpoint,
    read_features,
    save_checkpoint,
    write_features,
)
from cusa.errors import BadMagic, TruncatedFile
from cusa.losses import loss_from_logits
from cusa.mathops import l2_normalize_rows, row_softmax
from cusa.metrics import (
    Relevance,
    evaluate_cross_modal,
    evaluate_uni_modal,
    map_at_r,
    r_precision,
    rank_by_similarity,
    recall_at_k,
    rsum,
    spearman,
)
from cusa.model import backward, embed_images, embed_texts, forward, init_params
from cusa.softlabels import TeacherTargets
from cusa.synthetic import SynthConfig, generate
from cusa.trainer import (
    TrainConfig,
    TrainData,
    adam_step,
    init_adam_state,
    make_batches,
    train,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


# ---------------------------------------------------------------- criterion 1


@pytest.mark.slow
def test_criterion_1_gradients_match_finite_differences():
    start = time.perf_counter()
    errors = gradcheck.run(trials=20, base_seed=0)
    elapsed = time.perf_counter() - start
    bad = gradcheck.failed_components(errors, tolerance=1e-4)
    worst = max(errors.values())
    ok = not bad and elapsed < 30.0
    _verdict(1, "analytic gradients vs central differences", ok,
             f"worst error {worst:.3e} across {len(errors)} components, {elapsed:.1f}s")
    assert not bad, f"components over tolerance: {bad}"
    assert elapsed < 30.0, f"gradcheck took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 2


def _small_corpus(seed=11):
    return generate(SynthConfig(n_clusters=3, pairs_per_cluster=8,
                                d_student_img=8, d_student_txt=8,
                                d_teacher_img=10, d_teacher_txt=10,
                                intra_noise=0.15, seed=seed))


def _train_setup(data, alpha, beta):
    cfg = TrainConfig(alpha=alpha, beta=beta, batch_size=8, epochs=3,
                      learning_rate=1e-3, seed=5, d_e=6, d_u=4)
    tdata = TrainData(
        pairs=list(zip(data.img_ids, data.txt_ids)),
        img_base=FeatureTable(data.img_ids, data.img_base),
        txt_base=FeatureTable(data.txt_ids, data.txt_base),
        img_teacher=FeatureTable(data.img_ids, data.img_teacher),
        txt_teacher=FeatureTable(data.txt_ids, data.txt_teacher),
    )
    return tdata, cfg


def test_criterion_2_loss_identities():
    # (a) KL of a distribution against itself vanishes, on the training
    # path: each teacher target is the student's own softmax, so all four
    # per-direction KLs are self-divergences
    kl_self_worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        s = rng.standard_normal((n, n)) * 3.0
        it = 1.0
        targets = TeacherTargets(row_softmax(s, it), row_softmax(s.T, it))
        report, _ = loss_from_logits(s, s, s.T.copy(), targets, it, it, 1.0, 1.0)
        kl_self_worst = max(kl_self_worst, *map(abs, report.per_direction.values()))
    kl_self_ok = kl_self_worst < 1e-12

    # (b) one-hot targets reduce the alignment loss to diagonal
    # cross-entropy, which is the InfoNCE value itself
    one_hot_worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        e_img = l2_normalize_rows(rng.standard_normal((n, 6)))
        e_txt = l2_normalize_rows(rng.standard_normal((n, 6)))
        s = e_img @ e_txt.T
        it = float(rng.uniform(2.0, 30.0))
        eye, zero = np.eye(n), np.zeros((n, n))
        report, _ = loss_from_logits(s, zero, zero, TeacherTargets(eye, eye), it, 1.0,
                                     0.0, 0.0)
        one_hot_worst = max(one_hot_worst, abs(report.l_csa - report.l_original))
    one_hot_ok = one_hot_worst < 1e-9

    # (c) every logged step satisfies the weighted decomposition
    data = _small_corpus()
    tdata, cfg = _train_setup(data, alpha=0.3, beta=0.6)
    _, log = train(tdata, cfg)
    decomp_worst = max(
        abs(r["l_total"] - (r["l_original"] + cfg.alpha * r["l_csa"] + cfg.beta * r["l_usa"]))
        for r in log.records
    )
    decomp_ok = decomp_worst < 1e-12 and len(log.records) == 3 * 3

    # (d) zero weights reproduce the pure-InfoNCE trajectory
    tdata0, cfg0 = _train_setup(data, alpha=0.0, beta=0.0)
    got, _ = train(tdata0, cfg0)
    base_img = tdata0.img_base.take(data.img_ids)
    base_txt = tdata0.txt_base.take(data.txt_ids)
    params = init_params(cfg0.seed, base_img.shape[1], base_txt.shape[1],
                         cfg0.d_e, cfg0.d_u)
    state = init_adam_state(params)
    for epoch in range(cfg0.epochs):
        for idx in make_batches(len(data.img_ids), cfg0.batch_size, cfg0.seed, epoch):
            outputs = forward(base_img[idx], base_txt[idx], params)
            # zero weights, one-hot targets, zero uni-modal logits
            eye, zero = np.eye(len(idx)), np.zeros((len(idx), len(idx)))
            _, lgrads = loss_from_logits(outputs.img_emb @ outputs.txt_emb.T, zero, zero,
                                         TeacherTargets(eye, eye), outputs.inv_temp,
                                         1.0, 0.0, 0.0)
            pgrads = backward(outputs, params, lgrads)
            params, state = adam_step(params, pgrads, state, cfg0)
    zero_worst = max(
        float(np.abs(getattr(got, name) - getattr(params, name)).max())
        for name in ("w_img", "w_txt", "u_img", "u_txt")
    )
    zero_worst = max(zero_worst, abs(got.log_inv_temp - params.log_inv_temp))
    zero_ok = zero_worst < 1e-12

    ok = kl_self_ok and one_hot_ok and decomp_ok and zero_ok
    _verdict(2, "loss identities", ok,
             f"kl_self {kl_self_worst:.1e}, one_hot {one_hot_worst:.1e}, "
             f"decomposition {decomp_worst:.1e}, zero_weight {zero_worst:.1e}")
    assert kl_self_ok
    assert one_hot_ok
    assert decomp_ok
    assert zero_ok


# ---------------------------------------------------------------- criterion 3


def _oracle_order(scores_row, gallery_ids, skip=None):
    pairs = [(g, float(s)) for j, (g, s) in enumerate(zip(gallery_ids, scores_row))
             if j != skip]
    idx = {g: j for j, g in enumerate(gallery_ids)}
    return [g for g, _ in sorted(pairs, key=lambda p: (-p[1], idx[p[0]]))]


def _oracle_recall(orders, query_ids, rel, k):
    hits = sum(1 for q, ids in zip(query_ids, orders)
               if any(g in rel[q] for g in ids[:k]))
    return hits / len(query_ids)


def _oracle_r_precision(orders, query_ids, rel):
    total = 0.0
    for q, ids in zip(query_ids, orders):
        r = sum(1 for g in ids if g in rel[q])
        total += sum(1 for g in ids[:r] if g in rel[q]) / r
    return total / len(query_ids)


def _oracle_map_at_r(orders, query_ids, rel):
    total = 0.0
    for q, ids in zip(query_ids, orders):
        r = sum(1 for g in ids if g in rel[q])
        hits, ap = 0, 0.0
        for rank, g in enumerate(ids[:r], start=1):
            if g in rel[q]:
                hits += 1
                ap += hits / rank
        total += ap / r
    return total / len(query_ids)


def _random_retrieval_instance(rng, square):
    ng = int(rng.integers(3, 21))
    nq = ng if square else int(rng.integers(2, 9))
    sims = rng.standard_normal((nq, ng))
    if rng.integers(0, 2):
        sims = np.round(sims, 1)  # force score ties
    qids = [f"q{i}" for i in range(nq)]
    gids = [f"g{j}" for j in range(ng)]
    if square:
        gids = qids
    rel = {}
    for i, q in enumerate(qids):
        forbidden = {q} if square else set()
        pool = [g for g in gids if g not in forbidden]
        take = int(rng.integers(1, len(pool) + 1))
        rel[q] = set(rng.permutation(pool)[:take])
    return sims, qids, gids, rel


def test_criterion_3_metrics_match_oracles():
    rank_exact = True
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        square = trial % 3 == 0
        sims, qids, gids, rel = _random_retrieval_instance(rng, square)
        ranks = rank_by_similarity(sims, qids, gids, Relevance.from_mapping(rel),
                                   exclude_self=square)
        orders = [_oracle_order(sims[i], gids, skip=i if square else None)
                  for i in range(len(qids))]
        for k in (1, min(5, len(orders[0]))):
            rank_exact &= recall_at_k(ranks, k) == _oracle_recall(orders, qids, rel, k)
        rank_exact &= r_precision(ranks) == _oracle_r_precision(orders, qids, rel)
        rank_exact &= map_at_r(ranks) == _oracle_map_at_r(orders, qids, rel)
        if square:
            emb = l2_normalize_rows(sims + 2.0)
            uni = evaluate_uni_modal(emb, qids, Relevance.from_mapping(rel))
            self_sims = emb @ emb.T
            oracle_orders = [_oracle_order(self_sims[i], qids, skip=i)
                             for i in range(len(qids))]
            rank_exact &= uni["r_at_1"] == 100.0 * _oracle_recall(oracle_orders, qids, rel, 1)

    spearman_worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(4, 40))
        pred = rng.standard_normal(n)
        gold = 0.4 * pred + rng.standard_normal(n)
        if trial % 2:
            pred = np.round(pred, 1)  # tied ranks
            gold = np.round(gold, 1)
        if np.unique(pred).size < 2 or np.unique(gold).size < 2:
            continue
        ours = spearman(pred, gold)
        ranks_p = scipy.stats.rankdata(pred, method="average")
        ranks_g = scipy.stats.rankdata(gold, method="average")
        oracle = float(np.corrcoef(ranks_p, ranks_g)[0, 1])
        spearman_worst = max(spearman_worst, abs(ours - oracle))
    spearman_ok = spearman_worst < 1e-9

    ok = rank_exact and spearman_ok
    _verdict(3, "metric oracle equivalence", ok,
             f"ranking metrics exact over 100 instances: {rank_exact}, "
             f"spearman worst gap {spearman_worst:.1e}")
    assert rank_exact
    assert spearman_ok


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_rsum_reference_sums():
    first = rsum([57.3, 83.1, 90.3, 44.2, 72.7, 82.1])
    second = rsum([83.5, 96.3, 98.5, 66.2, 87.1, 92.2])
    gap1 = abs(first - 429.7)
    gap2 = abs(second - 523.8)
    ok = gap1 < 1e-9 and gap2 < 1e-9
    _verdict(4, "frozen reference sums", ok,
             f"{first!r} vs 429.7, {second!r} vs 523.8")
    assert gap1 < 1e-9
    assert gap2 < 1e-9


# ---------------------------------------------------------------- criterion 5

ARMS = {"base": (0.0, 0.0), "usa": (0.0, 0.5), "csa": (0.5, 0.0), "full": (0.5, 0.5)}


def _heldout_run(seed, alpha, beta):
    """Train one arm on the default scenario, score the held-out quarter."""
    data = generate(SynthConfig(seed=seed))
    ppc = data.config.pairs_per_cluster
    cut = (3 * ppc) // 4
    n = len(data.img_ids)
    train_idx = [i for i in range(n) if i % ppc < cut]
    held_idx = [i for i in range(n) if i % ppc >= cut]

    img_base = FeatureTable(data.img_ids, data.img_base)
    txt_base = FeatureTable(data.txt_ids, data.txt_base)
    tdata = TrainData(
        pairs=[(data.img_ids[i], data.txt_ids[i]) for i in train_idx],
        img_base=img_base,
        txt_base=txt_base,
        img_teacher=FeatureTable(data.img_ids, data.img_teacher),
        txt_teacher=FeatureTable(data.txt_ids, data.txt_teacher),
    )
    cfg = TrainConfig(alpha=alpha, beta=beta, batch_size=200, epochs=300,
                      learning_rate=1e-2, seed=seed, teacher_inv_temp=8.0,
                      d_e=4, d_u=4)
    start = time.perf_counter()
    params, _ = train(tdata, cfg)
    train_s = time.perf_counter() - start

    held_img = [data.img_ids[i] for i in held_idx]
    held_txt = [data.txt_ids[i] for i in held_idx]
    clusters = data.clusters[held_idx]
    img_emb = embed_images(img_base.take(held_img), params)
    txt_emb = embed_texts(txt_base.take(held_txt), params)

    def co_members(ids):
        return Relevance.from_mapping(
            {q: {m for b, m in enumerate(ids) if clusters[b] == clusters[a] and b != a}
             for a, q in enumerate(ids)})

    rel_i2t = {held_img[a]: {held_txt[b] for b in range(len(held_idx))
                             if clusters[b] == clusters[a]}
               for a in range(len(held_idx))}
    rel_t2i = {held_txt[a]: {held_img[b] for b in range(len(held_idx))
                             if clusters[b] == clusters[a]}
               for a in range(len(held_idx))}
    cross = evaluate_cross_modal(img_emb, txt_emb, held_img, held_txt,
                                 Relevance.from_mapping(rel_i2t), Relevance.from_mapping(rel_t2i))
    return {
        "uni_img": evaluate_uni_modal(img_emb, held_img, co_members(held_img))["r_at_1"],
        "uni_txt": evaluate_uni_modal(txt_emb, held_txt, co_members(held_txt))["r_at_1"],
        "map": 0.5 * (cross["i2t"]["map_at_r"] + cross["t2i"]["map_at_r"]),
        "rsum": cross["rsum"],
        "train_s": train_s,
    }


@pytest.mark.slow
def test_criterion_5_ablation_directions():
    seeds = range(5)
    med = {}
    worst_train_s = 0.0
    for arm, (alpha, beta) in ARMS.items():
        rows = [_heldout_run(s, alpha, beta) for s in seeds]
        worst_train_s = max(worst_train_s, max(r["train_s"] for r in rows))
        med[arm] = {key: statistics.median(r[key] for r in rows)
                    for key in ("uni_img", "uni_txt", "map", "rsum")}

    a_img = med["usa"]["uni_img"] - med["base"]["uni_img"]
    a_txt = med["usa"]["uni_txt"] - med["base"]["uni_txt"]
    b_map = med["csa"]["map"] - med["base"]["map"]
    c_uni = (0.5 * (med["full"]["uni_img"] + med["full"]["uni_txt"])
             - 0.5 * (med["base"]["uni_img"] + med["base"]["uni_txt"]))
    c_rsum = med["full"]["rsum"] - med["base"]["rsum"]

    ok = (a_img > 0.0 and a_txt > 0.0 and b_map >= 0.0
          and c_uni >= 5.0 and c_rsum >= 0.0 and worst_train_s <= 60.0)
    _verdict(5, "ablation directions on the default scenario", ok,
             f"uni-only uni R@1 {a_img:+.1f}/{a_txt:+.1f}, "
             f"cross-only mAP@R {b_map:+.4f}, "
             f"full uni {c_uni:+.1f} and rsum {c_rsum:+.1f}, "
             f"worst train {worst_train_s:.1f}s")
    assert a_img > 0.0 and a_txt > 0.0, f"uni-modal arm must lift both sides: {a_img}, {a_txt}"
    assert b_map >= 0.0, f"cross-modal arm must not hurt mAP@R: {b_map}"
    assert c_uni >= 5.0, f"full arm must lift uni R@1 by 5 points: {c_uni}"
    assert c_rsum >= 0.0, f"full arm must not hurt RSUM: {c_rsum}"
    assert worst_train_s <= 60.0


# ---------------------------------------------------------------- criterion 6


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _synth_into(root, seed=3):
    out = root
    out.mkdir(exist_ok=True)
    code, _ = _cli(["synth", "--out", str(out), "--clusters", "3",
                    "--pairs-per-cluster", "4", "--seed", str(seed),
                    "--d-student-img", "6", "--d-student-txt", "6",
                    "--d-teacher-img", "8", "--d-teacher-txt", "8"])
    assert code == 0
    return out


_BUNDLE = ("img_base.feat", "txt_base.feat", "img_teacher.feat",
           "txt_teacher.feat", "pairs.tsv", "relevance.tsv")


def _train_argv(corpus, ckpt, log):
    return ["train",
            "--img-base", str(corpus / "img_base.feat"),
            "--txt-base", str(corpus / "txt_base.feat"),
            "--img-teacher", str(corpus / "img_teacher.feat"),
            "--txt-teacher", str(corpus / "txt_teacher.feat"),
            "--pairs", str(corpus / "pairs.tsv"),
            "--out-ckpt", str(ckpt), "--log", str(log),
            "--batch-size", "4", "--epochs", "2", "--seed", "1",
            "--d-e", "6", "--d-u", "4"]


def test_criterion_6_determinism_and_round_trips(tmp_path):
    # fixed-seed reruns: every artifact byte-identical
    c1 = _synth_into(tmp_path / "a")
    c2 = _synth_into(tmp_path / "b")
    synth_same = all((c1 / f).read_bytes() == (c2 / f).read_bytes() for f in _BUNDLE)

    argv1 = _train_argv(c1, tmp_path / "m1.ckpt", tmp_path / "l1.jsonl")
    code, report1 = _cli(argv1)
    assert code == 0
    ckpt1 = (tmp_path / "m1.ckpt").read_bytes()
    log1 = (tmp_path / "l1.jsonl").read_bytes()
    code, report1b = _cli(argv1)  # same arguments: report string must repeat
    assert code == 0
    code, _ = _cli(_train_argv(c1, tmp_path / "m2.ckpt", tmp_path / "l2.jsonl"))
    assert code == 0
    train_same = (
        report1 == report1b
        and (tmp_path / "m1.ckpt").read_bytes() == ckpt1
        and (tmp_path / "m2.ckpt").read_bytes() == ckpt1
        and (tmp_path / "l1.jsonl").read_bytes() == log1
        and (tmp_path / "l2.jsonl").read_bytes() == log1
    )

    eval_argv = ["eval", "--task", "cross", "--ckpt", str(tmp_path / "m1.ckpt"),
                 "--img-base", str(c1 / "img_base.feat"),
                 "--txt-base", str(c1 / "txt_base.feat"),
                 "--pairs", str(c1 / "pairs.tsv")]
    code, eval1 = _cli(eval_argv)
    assert code == 0
    _, eval2 = _cli(eval_argv)
    eval_same = eval1 == eval2 and json.loads(eval1)["command"] == "eval"

    # bit-exact round trips
    rng = np.random.default_rng(8)
    values = rng.standard_normal((5, 4)).astype(np.float32).astype(np.float64)
    fpath = tmp_path / "rt.feat"
    write_features(fpath, ["r0", "r1", "r2", "r3", "r4"], values)
    table = read_features(fpath)
    fpath2 = tmp_path / "rt2.feat"
    write_features(fpath2, table.ids, table.features)
    feat_same = (table.features.tobytes() == values.astype(np.float32).astype(np.float64).tobytes()
                 and fpath.read_bytes() == fpath2.read_bytes())

    params = init_params(2, 6, 6, 4, 3)
    cpath = tmp_path / "rt.ckpt"
    save_checkpoint(cpath, params, {"seed": 2})
    loaded, cfg_echo = load_checkpoint(cpath)
    cpath2 = tmp_path / "rt2.ckpt"
    save_checkpoint(cpath2, loaded, cfg_echo)
    ckpt_same = (
        all(getattr(loaded, name).tobytes() == getattr(params, name).tobytes()
            for name in ("w_img", "w_txt", "u_img", "u_txt"))
        and loaded.log_inv_temp == params.log_inv_temp
        and cpath.read_bytes() == cpath2.read_bytes()
    )

    # damage is rejected with the failing byte offset
    blob = fpath.read_bytes()
    cut = tmp_path / "cut.feat"
    cut.write_bytes(blob[:21])  # header ends at 20, id length field cut short
    with pytest.raises(TruncatedFile) as feat_err:
        read_features(cut)
    cblob = cpath.read_bytes()
    ccut = tmp_path / "cut.ckpt"
    ccut.write_bytes(cblob[:28])  # temperature float at 25 cut short
    with pytest.raises(TruncatedFile) as ckpt_err:
        load_checkpoint(ccut)
    bad = tmp_path / "bad.feat"
    bad.write_bytes(b"XUSF" + blob[4:])
    with pytest.raises(BadMagic):
        read_features(bad)
    reject_ok = feat_err.value.offset == 20 and ckpt_err.value.offset == 25

    ok = synth_same and train_same and eval_same and feat_same and ckpt_same and reject_ok
    _verdict(6, "determinism and round trips", ok,
             f"synth {synth_same}, train {train_same}, eval {eval_same}, "
             f"features {feat_same}, checkpoint {ckpt_same}, rejection {reject_ok}")
    assert synth_same
    assert train_same
    assert eval_same
    assert feat_same
    assert ckpt_same
    assert reject_ok
