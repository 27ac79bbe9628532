"""DFCM and EFCM topic detection: one pipeline, two representations.

`represent`, the only method-specific stage, maps the documents to codes
by the autoencoder (DFCM) or the truncated SVD (EFCM) and returns the map
back to term space. `cluster_topics` runs fuzzy c-means on the codes, maps
the centroids back and ranks their positive-weight terms. `detect` runs both.
"""

from dataclasses import asdict, dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import autoencoder as ae
from . import svd as tsvd
from .errors import DimensionMismatchError, MalformedLineError
from .fcm import FcmConfig, FcmResult, check_cluster_count, fcm_fit, kmeans_init
from .seeding import stage_seed
from .textprep import DocTermMatrix, Vocabulary, load_json, save_json


METHODS = ("dfcm", "efcm")


@dataclass
class PipelineConfig:
    method: str = "dfcm"  # one of METHODS
    p: int = 5
    c: int = 10
    fcm: FcmConfig = None  # its c is set from c, its seed derived from seed
    train: ae.TrainConfig = None  # dfcm only (None for efcm); its seed derived from seed
    top_n: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.p < 1 or self.c < 1 or self.top_n < 1:
            raise ValueError("p, c and top_n must be >= 1")
        fcm_seed = stage_seed(self.seed, "fcm-init")
        self.fcm = replace(self.fcm or FcmConfig(), c=self.c, seed=fcm_seed)
        train = replace(self.train or ae.TrainConfig(), seed=stage_seed(self.seed, "train"))
        self.train = train if self.method == "dfcm" else None  # only DFCM trains


@dataclass
class TopicSet:
    topics: list[list[tuple[str, float]]]  # each topic's (term, weight), weight-descending
    method: str
    config: dict
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        warnings = self.warnings
        if not (self.method in METHODS and isinstance(self.config, dict)
                and isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
            raise TypeError(f"method must be in {METHODS}, config a dict, warnings a str list")
        for i, topic in enumerate(self.topics):  # TC-W2V would pair a repeated term with itself
            seen = set()
            for term, _ in topic:
                if term in seen:
                    raise TypeError(f"topic {i} repeats the term {term!r}")
                seen.add(term)


class Representation(NamedTuple):
    codes: np.ndarray  # (n_docs, p)
    back_map: Callable[[np.ndarray], np.ndarray]  # code-space rows -> term space
    model: ae.AutoencoderModel | None = None  # dfcm only
    train_trace: list[float] | None = None


def extract_top_words(mu: np.ndarray, vocab: Vocabulary, n: int) -> list[tuple[str, float]]:
    """Top-n largest-weight (term, weight) pairs, ties broken by the sorted
    vocabulary's order. Only strictly positive weights qualify."""
    mu = np.asarray(mu).ravel()
    if mu.shape[0] != len(vocab):
        raise DimensionMismatchError(
            f"vector length {mu.shape[0]} != vocabulary size {len(vocab)}"
        )
    keep = np.flatnonzero(mu > 0)
    keep = keep[np.argsort(-mu[keep], kind="stable")[:n]]
    return [(vocab.terms[j], float(mu[j])) for j in keep]


def represent(D: DocTermMatrix, cfg: PipelineConfig) -> Representation:
    """Map the documents to p-dimensional codes: autoencoder (dfcm) or truncated SVD (efcm)."""
    if cfg.method == "efcm":
        decomp = tsvd.truncated_svd(D, cfg.p, seed=stage_seed(cfg.seed, "svd"))
        return Representation(tsvd.project(D, decomp), lambda C: tsvd.back_project(C, decomp))
    model = ae.build_autoencoder(D.n_terms, cfg.p, seed=stage_seed(cfg.seed, "init"))
    ae.greedy_pretrain(D.matrix, model, cfg.train)
    trace = ae.fine_tune(D.matrix, model, cfg.train)
    return Representation(ae.encode(model, D.matrix), lambda C: ae.decode(model, C), model, trace)


def cluster_topics(
    rep: Representation, vocab: Vocabulary, cfg: PipelineConfig
) -> tuple[TopicSet, FcmResult]:
    """Fuzzy c-means on the codes; map the centroids back and rank their positive words."""
    init = kmeans_init(rep.codes, cfg.fcm.c, cfg.fcm.init_runs, cfg.fcm.seed)
    fit = fcm_fit(rep.codes, cfg.fcm, init)
    topics = [extract_top_words(mu, vocab, cfg.top_n) for mu in rep.back_map(fit.centroids)]
    warnings = [f"topic {i}: only {len(words)} strictly positive weights available"
                for i, words in enumerate(topics) if len(words) < cfg.top_n]
    return TopicSet(topics, cfg.method, asdict(cfg), warnings), fit


def detect(
    D: DocTermMatrix, vocab: Vocabulary, cfg: PipelineConfig
) -> tuple[Representation, TopicSet, FcmResult]:
    check_cluster_count(D.n_docs, cfg.c)  # before represent trains anything
    rep = represent(D, cfg)
    return rep, *cluster_topics(rep, vocab, cfg)


def save_topic_set(topic_set: TopicSet, path) -> None:
    payload = {
        "method": topic_set.method,
        "config": topic_set.config,
        "topics": [
            {
                "index": i,  # row of the topic-vector matrix
                "words": [{"term": term, "weight": weight} for term, weight in words],
            }
            for i, words in enumerate(topic_set.topics)
        ],
        "warnings": topic_set.warnings,
    }
    save_json(path, payload)


def load_topic_set(path) -> TopicSet:
    """Topics are read in file order; a topic's position is its index."""

    def word(w):
        if not (isinstance(w["term"], str) and type(w["weight"]) in (int, float)):
            raise MalformedLineError.at(path, f"word {w!r} needs a string term and a number weight")
        return w["term"], w["weight"]

    def listed(value, what):
        if not isinstance(value, list):
            raise MalformedLineError.at(path, f"{what} must be a list, not {type(value).__name__}")
        return value

    def build(payload):
        topics = [[word(w) for w in listed(t["words"], f"topic {i}'s words")]
                  for i, t in enumerate(listed(payload["topics"], "topics"))]
        return TopicSet(topics, payload["method"], payload["config"], payload["warnings"])

    return load_json(path, build)
