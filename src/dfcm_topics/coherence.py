"""Topic-coherence scoring: mean pairwise cosine over word embeddings."""

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedLineError, TooFewKnownWordsError, ZeroVectorError
from .textprep import loadtxt_chunk, open_text, save_json

log = logging.getLogger(__name__)
VECTOR_CHUNK = 64  # lines per np.loadtxt call; 1,024 raised efcm-sweep peak RSS ~5 MB


@dataclass
class CoherenceReport:
    per_topic: list[tuple[int, float, int]]  # (topic index, score, words found)
    mean_score: float  # NaN when no topic scored
    skipped_topics: list[int] = field(default_factory=list)


def load_word_vectors(path, words=None) -> dict[str, np.ndarray]:
    """Parse a text embedding file: optional `count dim` header, then
    `count` non-blank `term v1 ... v_dim` lines, every value finite. Duplicate
    terms keep the first occurrence. Every line is parsed and checked, but with
    `words` given only their vectors are kept. Kept vectors are copied out of
    their chunk's block, so no block outlives its chunk.
    """
    vectors: dict[str, np.ndarray] = {}
    seen: set[str] = set()  # every term of the file, kept or not
    words = None if words is None else set(words)
    count = dim = None
    found = 0  # non-blank vector lines, repeated terms included
    with open_text(path) as fh:
        fields = fh.readline().split()
        if len(fields) == 2 and all(p.isdecimal() for p in fields):
            try:
                count, dim = map(int, fields)
            except ValueError as exc:  # more digits than int() accepts
                raise MalformedLineError.at(path, f"bad header ({exc})", 1) from exc
            if not dim:
                raise MalformedLineError.at(path, "embedding dimension is 0", 1)
            lineno = 2
        else:
            fh.seek(0)
            lineno = 1
        while lines := list(itertools.islice(fh, VECTOR_CHUNK)):
            if dim is None or not _take_block(lines, dim, vectors, seen, words):
                dim = _take_lines(path, lines, lineno, dim, vectors, seen, words)
            lineno += len(lines)
            found += sum(not line.isspace() for line in lines)
    if dim is None or not seen:
        raise MalformedLineError.at(path, "embedding file is empty")
    if count is not None and count != found:
        raise MalformedLineError.at(path, f"header says {count} vectors, found {found}")
    return vectors


def _take_block(lines, dim, vectors, seen, words) -> bool:
    """Parse a chunk with numpy's C reader; False if a line is off, a value is
    not finite or a term repeats, for _take_lines to keep the first or name the line."""
    terms = [line.split(maxsplit=1)[0] for line in lines if not line.isspace()]
    block = loadtxt_chunk(lines, np.float64, converters={0: lambda _: 0.0}, ndmin=2)
    unique = len(set(terms)) == len(terms) and seen.isdisjoint(terms)
    if (block is None or block.shape != (len(terms), dim + 1) or not unique
            or not np.isfinite(block).all()):
        return False
    seen.update(terms)
    kept = [i for i, term in enumerate(terms) if words is None or term in words]
    vectors.update(zip([terms[i] for i in kept], block[kept, 1:]))  # a copy: the block is freed
    return True


def _take_lines(path, lines, lineno, dim, vectors, seen, words) -> int:
    """Parse lines one by one from line number lineno; returns dim."""
    for lineno, line in enumerate(lines, start=lineno):
        fields = line.split()
        if not fields:
            continue
        term, values = fields[0], fields[1:]
        if dim is None:
            dim = len(values)
            if not dim:
                raise MalformedLineError.at(path, "embedding dimension is 0", lineno)
        if len(values) != dim:
            raise MalformedLineError.at(path, f"expected {dim} values, got {len(values)}", lineno)
        if term in seen:
            log.warning("duplicate term %r at line %d ignored", term, lineno)
            continue
        try:
            vector = np.array(values, dtype=np.float64)
        except ValueError as exc:
            raise MalformedLineError.at(path, f"non-numeric value ({exc})", lineno) from exc
        if not np.isfinite(vector).all():
            raise MalformedLineError.at(path, "non-finite value", lineno)
        seen.add(term)
        if words is None or term in words:
            vectors[term] = vector
    return dim


def tc_w2v(topic_words: list[str], vectors: dict[str, np.ndarray]) -> tuple[float, int]:
    """Mean pairwise cosine over the topic words found in vectors.

    Returns (score, number of words found). Words missing from vectors
    are skipped; fewer than two known words is an error.
    """
    if not topic_words:
        raise TooFewKnownWordsError("topic has no words")
    known = np.array([vectors[w] for w in topic_words if w in vectors])
    n = len(known)
    if n < 2:
        raise TooFewKnownWordsError(
            f"only {n} of {len(topic_words)} words found in the embedding store"
        )
    norms = np.linalg.norm(known, axis=1)
    if not norms.all():
        raise ZeroVectorError("cosine similarity is undefined for a zero vector")
    unit = known / norms[:, None]
    return float((unit @ unit.T)[np.triu_indices(n, 1)].mean()), n


def evaluate(topic_set, vectors: dict[str, np.ndarray]) -> CoherenceReport:
    """Score every topic's ranked word list; skip unscoreable topics."""
    per_topic = []
    skipped = []
    for idx, topic in enumerate(topic_set.topics):
        try:
            score, found = tc_w2v([term for term, _ in topic], vectors)
        except TooFewKnownWordsError:
            skipped.append(idx)
            continue
        per_topic.append((idx, score, found))
    mean = float(np.mean([s for _, s, _ in per_topic])) if per_topic else float("nan")
    return CoherenceReport(per_topic, mean, skipped)


def save_report(report: CoherenceReport, path) -> None:
    payload = {
        "per_topic": [
            {"topic": i, "score": s, "words_found": n} for i, s, n in report.per_topic
        ],
        "mean_score": report.mean_score if report.per_topic else None,  # JSON has no NaN
        "skipped_topics": report.skipped_topics,
    }
    save_json(path, payload)
