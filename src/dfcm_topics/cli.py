"""Command-line front end: vectorize, detect, evaluate, compare."""

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import coherence, textprep, topics
from .autoencoder import TrainConfig, save_checkpoint
from .errors import ConfigError, DfcmError, NonFiniteInputError, NonFiniteLossError
from .fcm import FcmConfig, check_cluster_count
from .seeding import stage_seed

log = logging.getLogger("dfcm_topics")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# Config keys are the dataclass field names, except for these renames.
_RENAMES = {"p": "dim", "c": "clusters", "f": "fuzzifier"}
# detect flags are the config keys, except for these.
_FLAG_RENAMES = {"dropout_rate": "dropout"}
_PATH_FLAGS = ("matrix", "vocabulary", "out_dir")

# Config key -> (section, dataclass field); section "" is the top level. The
# seed comes only from --seed, and fcm.c only from "clusters".
_FIELDS = {
    _RENAMES.get(f.name, f.name): (section, f)
    for section, cls, skip in (
        ("", topics.PipelineConfig, {"fcm", "train"}),
        ("fcm", FcmConfig, {"c"}),
        ("train", TrainConfig, set()),
    )
    for f in dataclasses.fields(cls)
    if f.name not in {"seed", *skip}
}
# Section -> the keys it accepts.
_KEYS = {
    name: {key for key, (section, _) in _FIELDS.items() if section == name}
    for name in ("", "fcm", "train")
}
_KEYS[""] |= {"fcm", "train", "paths", "compare"}
_KEYS["paths"] = {*_PATH_FLAGS, "embeddings"}
_KEYS["compare"] = {"methods", "clusters", "epochs"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def load_run_config(path) -> dict:
    """Read and validate the JSON run configuration, applying defaults.

    The result maps each config key (of any section) to its value, plus
    the "paths" and "compare" sections.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=textprep.reject_non_finite)
    except (OSError, ValueError, RecursionError) as exc:  # bad bytes, JSON or nesting
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    sections = {name: raw.get(name, {}) if name else raw for name in _KEYS}
    for name, section in sections.items():
        where = f"config.{name}".rstrip(".")
        if not isinstance(section, dict):
            raise ConfigError(f"{where} must be a JSON object, got {section!r}")
        unknown = set(section) - _KEYS[name]
        if unknown:
            hint = " (the seed is set only by --seed)" if "seed" in unknown else ""
            raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}{hint}")
    for key, value in sections["paths"].items():
        try:  # os.fsencode rejects a lone surrogate such as "\ud800"
            valid = isinstance(value, str) and value and b"\0" not in os.fsencode(value)
        except UnicodeEncodeError:
            valid = False
        if not valid:
            raise ConfigError(
                f"config.paths.{key} must be a non-empty string naming a file, got {value!r}")
    cfg = {"paths": dict(sections["paths"]), "compare": dict(sections["compare"])}
    for key, (section, f) in _FIELDS.items():
        value = sections[section].get(key, f.default)
        # JSON numbers without a fraction are ints, which a float field takes
        # as they are; type() rather than isinstance() rejects bools.
        if not (type(value) is f.type or f.type is float and type(value) is int):
            where = f"{section}.{key}".lstrip(".")
            raise ConfigError(f"config field '{where}' must be {f.type.__name__}, got {value!r}")
        cfg[key] = value
    for key, items in cfg["compare"].items():
        if key == "methods":
            valid, what = (lambda v: v in topics.METHODS), "/".join(topics.METHODS)
        else:
            valid, what = (lambda v: type(v) is int and v >= 1), "integers >= 1"
        if not (isinstance(items, list) and items and all(map(valid, items))
                and len(set(items)) == len(items)):  # a repeat would redo a cell
            raise ConfigError(f"config.compare.{key} must be a non-empty list of distinct {what}")
    _pipeline_config(cfg, seed=0)
    return cfg


def _pipeline_config(cfg: dict, seed: int) -> topics.PipelineConfig:
    """Build the pipeline dataclasses; raises ConfigError on an invalid value."""
    kwargs = {"": {}, "fcm": {}, "train": {}}
    for key, (section, f) in _FIELDS.items():
        kwargs[section][f.name] = cfg[key]
    try:
        return topics.PipelineConfig(
            **kwargs[""],
            fcm=FcmConfig(**kwargs["fcm"]),
            train=TrainConfig(**kwargs["train"]),  # checked for EFCM runs too
            seed=seed,
        )
    except (ValueError, DfcmError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _apply_overrides(cfg: dict, args) -> dict:
    for key in _FIELDS:
        value = getattr(args, _FLAG_RENAMES.get(key, key))
        if value is not None:
            cfg[key] = value
    for key in _PATH_FLAGS:
        if getattr(args, key) is not None:
            cfg["paths"][key] = getattr(args, key)
    return cfg


def _require_paths(cfg, *keys) -> list:
    """The config paths of keys, resolved before any input is read."""
    for key in keys:
        if not cfg["paths"].get(key):
            raise ConfigError(f"config.paths.{key} is required")
    return [cfg["paths"][key] for key in keys]


def _load_artifacts(vocabulary, matrix):
    vocab = textprep.load_vocabulary(vocabulary)
    dtm = textprep.load_matrix(matrix)
    if dtm.n_terms != len(vocab):
        raise ConfigError(
            f"matrix has {dtm.n_terms} columns but vocabulary has {len(vocab)} terms"
        )
    return vocab, dtm


def cmd_vectorize(args) -> int:
    stopwords = textprep.load_stopwords(args.stopwords) if args.stopwords else set()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab, dtm = textprep.prepare_corpus(args.corpus, stopwords)
    textprep.save_vocabulary(vocab, out / "vocabulary.json")
    textprep.save_matrix(dtm, out / "matrix.txt")
    print(f"documents: {dtm.n_docs}")
    print(f"vocabulary: {len(vocab)} (threshold {vocab.threshold})")
    print(f"nonzeros: {dtm.nnz}")
    return EXIT_OK


def _save_detection(rep, topic_set, fit, pipe_cfg, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    topics.save_topic_set(topic_set, out / "topics.json")
    c, n = fit.memberships.shape
    np.savetxt(
        out / "memberships.txt", fit.memberships, fmt="%.17g", header=f"{c} {n}", comments=""
    )
    textprep.save_json(
        out / "objective_trace.json",
        {
            "objective_trace": fit.objective_trace,
            "iterations": fit.iterations,
            "converged": fit.converged,
        },
    )
    if rep.model is not None:
        save_checkpoint(rep.model, out / "model.bin", pipe_cfg.train, rep.train_trace[-1])


def cmd_detect(args) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    pipe_cfg = _pipeline_config(cfg, args.seed)
    vocabulary, matrix, out_dir = _require_paths(cfg, "vocabulary", "matrix", "out_dir")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab, dtm = _load_artifacts(vocabulary, matrix)
    rep, topic_set, fit = topics.detect(dtm, vocab, pipe_cfg)
    _save_detection(rep, topic_set, fit, pipe_cfg, out)
    for warning in topic_set.warnings:
        log.warning("%s", warning)
    print(f"wrote {out / 'topics.json'} ({len(topic_set.topics)} topics)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    out = Path(args.out) if args.out else Path(args.topics).with_name("coherence.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    topic_set = topics.load_topic_set(args.topics)
    words = {term for topic in topic_set.topics for term, _ in topic}
    vectors = coherence.load_word_vectors(args.embeddings, words)
    report = coherence.evaluate(topic_set, vectors)
    coherence.save_report(report, out)
    print(f"mean TC-W2V: {report.mean_score:.6f} "
          f"({len(report.per_topic)} scored, {len(report.skipped_topics)} skipped)")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = load_run_config(args.config)
    comp = cfg["compare"]
    methods = comp.get("methods", list(topics.METHODS))
    cluster_list = comp.get("clusters", [cfg["clusters"]])
    epoch_list = comp.get("epochs", [cfg["epochs"]])
    vocabulary, matrix, embeddings, out_dir = _require_paths(
        cfg, "vocabulary", "matrix", "embeddings", "out_dir")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab, dtm = _load_artifacts(vocabulary, matrix)
    vectors = coherence.load_word_vectors(embeddings, vocab.terms)  # topic words are terms

    rows = []
    for method in methods:
        for epochs in epoch_list if method == "dfcm" else epoch_list[:1]:  # a DFCM-only axis
            group_seed = stage_seed(args.seed, method, epochs)  # cell = detect --seed group_seed
            group = {**cfg, "method": method, "epochs": epochs}
            rep = failure = None  # frees the last group's codes and model first
            try:
                if any(c <= dtm.n_docs for c in cluster_list):  # other cells fail below, untrained
                    rep = topics.represent(dtm, _pipeline_config(group, group_seed))
            except DfcmError as exc:
                log.error("group (%s, epochs=%s) failed: %s", method, epochs, exc)
                failure = f"error: {exc}"
            for c in cluster_list:
                row = {"method": method, "p": cfg["dim"], "c": c,
                       "epochs": epochs if method == "dfcm" else "",
                       "mean_score": "", "topic_scores": "", "status": failure or "ok"}
                rows.append(row)
                if failure:
                    continue
                try:
                    check_cluster_count(dtm.n_docs, c)  # as detect checks before it trains
                    pipe_cfg = _pipeline_config({**group, "clusters": c}, group_seed)
                    topic_set, fit = topics.cluster_topics(rep, vocab, pipe_cfg)
                    _save_detection(rep, topic_set, fit, pipe_cfg, out / f"{method}_c{c}_e{epochs}")
                    for warning in topic_set.warnings:
                        log.warning("cell (%s, c=%d, epochs=%s): %s", method, c, epochs, warning)
                    report = coherence.evaluate(topic_set, vectors)
                    row["mean_score"] = f"{report.mean_score:.17g}"
                    row["topic_scores"] = ";".join(f"{s:.17g}" for _, s, _ in report.per_topic)
                except DfcmError as exc:
                    log.error("cell (%s, c=%d, epochs=%s) failed: %s", method, c, epochs, exc)
                    row["status"] = f"error: {exc}"

    csv_path = out / "compare.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {csv_path} ({len(rows)} cells)")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="dfcm-topics", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    vec = sub.add_parser("vectorize", help="clean, prune and TF-IDF weight a corpus")
    vec.add_argument("--corpus", required=True, help="JSON-lines corpus file")
    vec.add_argument("--stopwords", help="one-term-per-line stopword file")
    vec.add_argument("--out-dir", required=True)
    vec.set_defaults(func=cmd_vectorize)

    det = sub.add_parser("detect", help="run a topic-detection pipeline")
    det.add_argument("--config", required=True, help="run configuration JSON")
    det.add_argument("--seed", type=int, required=True)
    for key, (section, f) in _FIELDS.items():
        flag, where = _FLAG_RENAMES.get(key, key), f"{section}.{key}".lstrip(".")
        det.add_argument(f"--{flag.replace('_', '-')}", dest=flag, type=f.type,
                         help=f"overrides config {where} (default {f.default})")
    for key in _PATH_FLAGS:
        det.add_argument(f"--{key.replace('_', '-')}", help=f"overrides config paths.{key}")
    det.set_defaults(func=cmd_detect)

    ev = sub.add_parser("evaluate", help="score a topic set with TC-W2V")
    ev.add_argument("--topics", required=True)
    ev.add_argument("--embeddings", required=True)
    ev.add_argument("--out")
    ev.set_defaults(func=cmd_evaluate)

    cmp_ = sub.add_parser("compare", help="sweep methods/topic counts/epochs")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--seed", type=int, required=True)
    cmp_.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except (NonFiniteLossError, NonFiniteInputError) as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except (DfcmError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
