"""Synthetic paired-feature corpora with planted false negatives.

Clusters of image/text pairs share a latent centroid per feature space,
so every same-cluster item is a semantic match that one-hot contrastive
training would treat as a negative. Student and teacher spaces are
generated from the same latents, which gives teacher self-similarities
real signal about cluster structure. cross_modal_gap controls how much
of a pair's deviation from its centroid is private to each modality:
at 1.0 the image and text noise are independent, at 0.0 a pair shares
one deviation vector (projected per space). Teachers always get
independent noise, so the gap only shapes what the student sees.

Teacher tables use a quarter of intra_noise. The teachers stand in for
strong frozen encoders, so their within-cluster similarities must be
cleaner than the student inputs; at equal noise, aligning to them would
only feed teacher sampling noise back into the student.

Output of synth_generate is a fixed six-file bundle: two student base
feature tables, two teacher tables, a pairs file, and one co-membership
relevance file covering both modalities (metrics intersect it with the
active gallery, so it serves cross-modal and uni-modal evaluation).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .dataio import replacing, write_features
from .errors import InvalidConfig, too_large_to_allocate
from .mathops import l2_normalize_rows


_SIZE_FIELDS = ("n_clusters", "pairs_per_cluster", "d_student_img", "d_student_txt",
                "d_teacher_img", "d_teacher_txt")


@dataclass
class SynthConfig:
    n_clusters: int = 4
    pairs_per_cluster: int = 200
    d_student_img: int = 32
    d_student_txt: int = 32
    d_teacher_img: int = 64
    d_teacher_txt: int = 64
    intra_noise: float = 0.15
    cross_modal_gap: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 2:
            raise InvalidConfig(f"n_clusters must be >= 2, got {self.n_clusters}")
        if self.pairs_per_cluster < 2:
            raise InvalidConfig(
                f"pairs_per_cluster must be >= 2, got {self.pairs_per_cluster}"
            )
        for name in _SIZE_FIELDS[2:]:
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (0.0 <= self.intra_noise < math.inf):
            raise InvalidConfig(f"intra_noise must be finite and >= 0, got {self.intra_noise}")
        if not (0.0 <= self.cross_modal_gap <= 1.0):
            raise InvalidConfig(
                f"cross_modal_gap must be in [0, 1], got {self.cross_modal_gap}"
            )
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


@dataclass
class SynthData:
    img_ids: list
    txt_ids: list
    img_base: np.ndarray
    txt_base: np.ndarray
    img_teacher: np.ndarray
    txt_teacher: np.ndarray
    clusters: np.ndarray
    config: SynthConfig


def generate(config: SynthConfig) -> SynthData:
    """Draw one corpus. Same config, same bytes, every time."""
    rng = np.random.default_rng(config.seed)
    c = config.n_clusters
    n = c * config.pairs_per_cluster
    dims = tuple(getattr(config, name) for name in _SIZE_FIELDS[2:])
    latent = max(dims)

    sizes = ", ".join(f"{name}={getattr(config, name)}" for name in _SIZE_FIELDS)
    with too_large_to_allocate(InvalidConfig, f"{sizes} give a corpus"):
        z = l2_normalize_rows(rng.standard_normal((c, latent)))
        projections = [rng.normal(0.0, 1.0 / np.sqrt(latent), size=(latent, d)) for d in dims]
        w = rng.standard_normal((n, latent))

        clusters = np.repeat(np.arange(c), config.pairs_per_cluster)
        gap = config.cross_modal_gap
        shared_scale = np.sqrt(1.0 - gap)
        private_scale = np.sqrt(gap)

        # Each space's noise eps is the next draw after w, so it is drawn
        # when its space is built; it and w are released after their last
        # use. The table is built in place as c + s * (a * (w @ P) + b * eps),
        # each sum and product of the same operands as the out-of-place form.
        tables = []
        for space, proj in enumerate(projections):
            centroids = l2_normalize_rows(z @ proj)
            eps = rng.standard_normal((n, dims[space]))
            if space < 2:
                deviation = w @ proj
                deviation *= shared_scale
                eps *= private_scale
                deviation += eps
                scale = config.intra_noise
                if space == 1:
                    del w
            else:
                deviation = eps
                scale = 0.25 * config.intra_noise
            del eps
            with np.errstate(over="ignore"):
                deviation *= scale
                blocks = deviation.reshape(c, config.pairs_per_cluster, -1)  # a view
                blocks += centroids[:, None]  # each cluster's rows get its centroid
            if not np.isfinite(deviation).all():
                raise InvalidConfig(f"intra_noise {config.intra_noise} overflows the features")
            tables.append(l2_normalize_rows(deviation))
            del deviation, blocks

    img_ids = [f"img-c{cl:03d}-p{m:04d}"
               for cl in range(c) for m in range(config.pairs_per_cluster)]
    txt_ids = [f"txt-c{cl:03d}-p{m:04d}"
               for cl in range(c) for m in range(config.pairs_per_cluster)]
    return SynthData(img_ids=img_ids, txt_ids=txt_ids,
                     img_base=tables[0], txt_base=tables[1],
                     img_teacher=tables[2], txt_teacher=tables[3],
                     clusters=clusters, config=config)


def _write_relevance(path, data: SynthData) -> None:
    # every id maps to all other same-cluster ids, both modalities. A
    # cluster's members (its images, then its texts) are joined once, and
    # member j's line is that join with j's own id and one comma cut out
    per_cluster = data.config.pairs_per_cluster
    with open(path, "wb") as fh:
        for first in (0, per_cluster):  # every image query, then every text query
            for lo in range(0, len(data.img_ids), per_cluster):
                members = data.img_ids[lo:lo + per_cluster] + data.txt_ids[lo:lo + per_cluster]
                joined = memoryview(",".join(members).encode("utf-8"))
                # member j is joined[starts[j]:starts[j + 1] - 1]
                starts = [0, *itertools.accumulate(len(m.encode("utf-8")) + 1 for m in members)]
                for j in range(first, first + per_cluster):
                    # the last member has no comma after it: drop the one before it
                    head = joined[:starts[j] - (j == len(members) - 1)]
                    fh.write(b"".join((joined[starts[j]:starts[j + 1] - 1], b"\t",
                                       head, joined[starts[j + 1]:], b"\n")))


def synth_generate(config: SynthConfig, out_dir) -> dict:
    """Generate a corpus and write the six-file bundle into out_dir.

    Returns a name -> path dict with keys img_base, txt_base,
    img_teacher, txt_teacher, pairs, relevance. The six files replace
    their targets only once all six are written (dataio.replacing), so
    a failed write leaves out_dir's previous bundle, or no file, and
    never a mix of two bundles.
    """
    data = generate(config)
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, fname) for name, fname in (
        ("img_base", "img_base.feat"),
        ("txt_base", "txt_base.feat"),
        ("img_teacher", "img_teacher.feat"),
        ("txt_teacher", "txt_teacher.feat"),
        ("pairs", "pairs.tsv"),
        ("relevance", "relevance.tsv"),
    )}
    with replacing(paths.values()) as files:
        files = dict(zip(paths, files))
        write_features(files["img_base"], data.img_ids, data.img_base)
        write_features(files["txt_base"], data.txt_ids, data.txt_base)
        write_features(files["img_teacher"], data.img_ids, data.img_teacher)
        write_features(files["txt_teacher"], data.txt_ids, data.txt_teacher)
        with open(files["pairs"], "wb") as fh:
            fh.write("".join(f"{img}\t{txt}\n"
                             for img, txt in zip(data.img_ids, data.txt_ids)).encode("utf-8"))
        _write_relevance(files["relevance"], data)
    return paths
