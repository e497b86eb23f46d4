"""Independent checks of cusa outputs.

Nothing here imports cusa. The binary formats are parsed from the
layouts documented in dataio, relevance comes from the cluster label in
every synthetic id, and the rank of a relevant item j for query i is
counted directly:

    rank = #{k : s_ik > s_ij} + #{k < j : s_ik = s_ij}    (0-based)

which is the program's tie rule (descending score, lower gallery index
first). A later rewrite of the program's parser or ranker is therefore
checked by code it did not write.
"""

from __future__ import annotations

import json
import math
import re
import struct

import numpy as np

ID_PATTERN = re.compile(r"^(img|txt)-c(\d+)-p(\d+)$")
RECALL_KS = (1, 5, 10)


def read_features(path):
    """(ids, float64 rows) from a CUSF feature file."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != b"CUSF":
        raise ValueError(f"{path}: bad magic {buf[:4]!r}")
    version, n, d = struct.unpack_from("<IQI", buf, 4)
    if version != 1:
        raise ValueError(f"{path}: version {version}")
    offset = 4 + struct.calcsize("<IQI")
    ids = []
    rows = np.empty((n, d), dtype=np.float64)
    for r in range(n):
        (size,) = struct.unpack_from("<H", buf, offset)
        offset += 2
        ids.append(buf[offset:offset + size].decode("utf-8"))
        offset += size
        rows[r] = np.frombuffer(buf, dtype="<f4", count=d, offset=offset)
        offset += 4 * d
    if offset != len(buf):
        raise ValueError(f"{path}: {len(buf) - offset} trailing bytes")
    return ids, rows


def read_checkpoint(path) -> dict:
    """Parameters and config echo of a CUSC checkpoint."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != b"CUSC":
        raise ValueError(f"{path}: bad magic {buf[:4]!r}")
    version, d_bi, d_bt, d_e, d_u, has_uni = struct.unpack_from("<IIIIIB", buf, 4)
    if version != 1:
        raise ValueError(f"{path}: version {version}")
    offset = 4 + struct.calcsize("<IIIIIB") + 8 * (1 + has_uni)
    out = {}
    for name, shape in (("w_img", (d_bi, d_e)), ("w_txt", (d_bt, d_e)),
                        ("u_img", (d_e, d_u)), ("u_txt", (d_e, d_u))):
        count = shape[0] * shape[1]
        out[name] = np.frombuffer(buf, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += 8 * count
    (size,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    out["config"] = json.loads(buf[offset:offset + size].decode("utf-8"))
    if offset + size != len(buf):
        raise ValueError(f"{path}: trailing bytes after config")
    return out


def cluster_labels(ids, modality: str) -> np.ndarray:
    labels = []
    for item_id in ids:
        m = ID_PATTERN.match(item_id)
        if m is None or m.group(1) != modality:
            raise ValueError(f"{item_id!r} is not a synthetic {modality} id")
        labels.append(int(m.group(2)))
    return np.asarray(labels)


def embed(base: np.ndarray, w: np.ndarray) -> np.ndarray:
    z = base @ w
    return z / np.linalg.norm(z, axis=1)[:, None]


def positive_ranks(sims: np.ndarray, relevant: np.ndarray) -> list:
    """Per query, the ascending 0-based ranks of its relevant items."""
    ascending = np.sort(sims, axis=1)
    n = sims.shape[1]
    out = []
    for row, asc, mask in zip(sims, ascending, relevant):
        cols = np.flatnonzero(mask)
        values = row[cols]
        above = np.searchsorted(asc, values, side="right")
        ranks = n - above
        for t in np.flatnonzero(above - np.searchsorted(asc, values, side="left") > 1):
            j = cols[t]
            ranks[t] += np.count_nonzero(row[:j] == row[j])
        out.append(np.sort(ranks))
    return out


def direction_metrics(ranks: list) -> dict:
    """R@K in percent, R-Precision and mAP@R as fractions, from ranks."""
    n = len(ranks)
    rp, ap = [], []
    for r in ranks:
        big_r = len(r)
        if big_r == 0:
            raise ValueError("query without a relevant item")
        top = r[r < big_r]
        rp.append(len(top) / big_r)
        ap.append(float(np.sum(np.arange(1, len(top) + 1) / (top + 1.0))) / big_r)
    out = {f"r_at_{k}": 100.0 * (sum(1 for r in ranks if r[0] < k) / n) for k in RECALL_KS}
    out["r_precision"] = math.fsum(rp) / n
    out["map_at_r"] = math.fsum(ap) / n
    return out


def cross_modal(img_emb, txt_emb, img_labels, txt_labels) -> dict:
    """Both directions with relevance = same cluster label."""
    sims = img_emb @ txt_emb.T
    same = img_labels[:, None] == txt_labels[None, :]
    i2t = direction_metrics(positive_ranks(sims, same))
    t2i = direction_metrics(positive_ranks(np.ascontiguousarray(sims.T), same.T))
    rsum = sum(d[f"r_at_{k}"] for d in (i2t, t2i) for k in RECALL_KS)
    return {"i2t": i2t, "t2i": t2i, "rsum": rsum}


def uni_modal(emb, labels) -> dict:
    """One modality against itself, the query excluded from its gallery."""
    sims = emb @ emb.T
    np.fill_diagonal(sims, -np.inf)  # ranks below every real item
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    return direction_metrics(positive_ranks(sims, same))


def mean_map(report: dict) -> float:
    return 0.5 * (report["i2t"]["map_at_r"] + report["t2i"]["map_at_r"])


def compare(payload: dict, expected: dict) -> list:
    """Mismatches between a cusa eval payload and the oracle's numbers.

    The program and the oracle add the same terms in a different order,
    so values may differ in the last bits. The 1e-12 tolerance sits
    between that summation error (about 1e-13 here) and the smallest
    change one misplaced relevant item makes on the 2k corpus (about
    4e-12 of mAP@R).
    """
    problems = []
    pairs = [("rsum", payload.get("rsum"), expected["rsum"])]
    for side in ("i2t", "t2i"):
        got = payload.get(side, {})
        want = expected[side]
        for key, value in want.items():
            pairs.append((f"{side}.{key}", got.get(key), value))
        for key in ("r_precision", "map_at_r"):
            pairs.append((f"{side}.{key}_pct", got.get(f"{key}_pct"), 100.0 * want[key]))
    for name, got, want in pairs:
        if not isinstance(got, (int, float)) or not math.isclose(got, want, rel_tol=1e-12,
                                                                  abs_tol=1e-12):
            problems.append(f"{name}: program {got!r}, oracle {want!r}")
    return problems
