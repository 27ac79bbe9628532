"""Traced run of the dfcm-topics CLI, and the span arithmetic.

Run as a script, this installs timing wrappers on the public functions
that the package resolves through module attributes at call time, runs
``cli.main(argv)`` in this process and writes the spans as JSON:

    python3 perfbench/bench_trace.py SPANS.json -- detect --config run.json --seed 1

Spans stay in memory until ``cli.main`` returns. Each span records its
name (``<layer>.<function>``), start, end, parent index and a few exact
counts taken from the call's arguments. Private helpers (``_forward``,
``_backward``, ``_Optimizer.step``, ``_lloyd``, ``_save_memberships``)
are not wrapped; their time is their caller's self time.
"""

import functools
import importlib
import json
import resource
import sys
import time

# (module, attribute, span name). The span name's prefix is the layer the
# time is charged to, which is the module that defines the function, not
# the module that imported it.
WRAPPED = [
    ("cli", "main", "cli.main"),
    ("cli", "save_checkpoint", "autoencoder.save_checkpoint"),
    ("textprep", "read_corpus_jsonl", "textprep.read_corpus_jsonl"),
    ("textprep", "load_stopwords", "textprep.load_stopwords"),
    ("textprep", "prepare_corpus", "textprep.prepare_corpus"),
    ("textprep", "build_vocabulary", "textprep.build_vocabulary"),
    ("textprep", "vectorize_tfidf", "textprep.vectorize_tfidf"),
    ("textprep", "save_vocabulary", "textprep.save_vocabulary"),
    ("textprep", "save_matrix", "textprep.save_matrix"),
    ("textprep", "load_vocabulary", "textprep.load_vocabulary"),
    ("textprep", "load_matrix", "textprep.load_matrix"),
    ("svd", "truncated_svd", "svd.truncated_svd"),
    ("svd", "project", "svd.project"),
    ("svd", "back_project", "svd.back_project"),
    ("topics", "detect", "topics.detect"),
    ("topics", "save_topic_set", "topics.save_topic_set"),
    ("topics", "kmeans_init", "fcm.kmeans_init"),
    ("topics", "fcm_fit", "fcm.fcm_fit"),
    ("fcm", "update_memberships", "fcm.update_memberships"),
    ("fcm", "update_centroids", "fcm.update_centroids"),
    ("fcm", "objective", "fcm.objective"),
    ("autoencoder", "greedy_pretrain", "autoencoder.greedy_pretrain"),
    ("autoencoder", "pretrain_layer", "autoencoder.pretrain_layer"),
    ("autoencoder", "fine_tune", "autoencoder.fine_tune"),
    ("autoencoder", "encode", "autoencoder.encode"),
    ("autoencoder", "decode", "autoencoder.decode"),
    ("coherence", "load_word_vectors", "coherence.load_word_vectors"),
    ("coherence", "evaluate", "coherence.evaluate"),
    ("coherence", "save_report", "coherence.save_report"),
]

LAYERS = ("textprep", "svd", "fcm", "autoencoder", "topics", "coherence", "cli")


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _dims(layer) -> list[int]:
    return [int(layer.in_dim), int(layer.out_dim)]


def _attrs(name, args, result) -> dict | None:
    """Exact counts read from a call's arguments and result."""
    if name == "autoencoder.pretrain_layer":
        H, enc, _dec, cfg = args[:4]
        return {"n": int(H.shape[0]), "dims": _dims(enc),
                "epochs": cfg.epochs, "batch": cfg.batch_size}
    if name == "autoencoder.greedy_pretrain":
        return {"rss_mb": _max_rss_mb()}
    if name == "autoencoder.fine_tune":
        X, model, cfg = args[:3]
        return {"n": int(X.shape[0]), "layers": [_dims(l) for l in model.layers],
                "epochs": cfg.epochs, "batch": cfg.batch_size}
    if name == "autoencoder.encode":
        model, X = args[:2]
        return {"n": int(X.shape[0]), "layers": [_dims(l) for l in model.encoder_layers]}
    if name == "autoencoder.decode":
        model, C = args[:2]
        return {"n": int(len(C)), "layers": [_dims(l) for l in model.decoder_layers]}
    if name == "svd.truncated_svd":
        from dfcm_topics import svd

        D, p = args[:2]
        n, m = D.matrix.shape
        return {"nnz": int(D.nnz), "p": int(p), "l": min(p + svd.OVERSAMPLE, n, m),
                "power_iters": svd.POWER_ITERS}
    if name == "svd.project":
        D, decomp = args[:2]
        return {"nnz": int(D.nnz), "p": int(decomp.k)}
    if name == "svd.back_project":
        C, decomp = args[:2]
        return {"c": int(len(C)), "p": int(decomp.k), "m": int(decomp.right_vectors.shape[0])}
    if name == "fcm.fcm_fit":
        return {"iterations": int(result.iterations)}
    if name == "textprep.prepare_corpus":
        _vocab, dtm = result
        return {"nnz": int(dtm.nnz), "n_terms": int(dtm.n_terms)}
    if name == "textprep.load_matrix":
        return {"nnz": int(result.nnz), "n_terms": int(result.n_terms)}
    if name == "coherence.load_word_vectors":
        return {"words": len(result)}
    return None


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "start": self.clock(), "end": None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            attrs = _attrs(name, args, result)
            if attrs:
                span["attrs"] = attrs
            return result

        setattr(module, attr, traced)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        intervals = sorted(
            (max(spans[c]["start"], span["start"]), min(spans[c]["end"], span["end"]))
            for c in children.get(i, ())
        )
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out


def layer_self_seconds(spans: list[dict]) -> dict[str, float]:
    """Self time summed per layer (the span name's prefix)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        layer = span["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: bench_trace.py SPANS.json -- <dfcm-topics arguments>", file=sys.stderr)
        return 2
    modules = {mod: importlib.import_module(f"dfcm_topics.{mod}") for mod, _, _ in WRAPPED}
    tracer = Tracer()
    for mod, attr, name in WRAPPED:
        tracer.wrap(modules[mod], attr, name)
    code = 1
    try:
        code = modules["cli"].main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump({"exit_code": code, "max_rss_mb": _max_rss_mb(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
