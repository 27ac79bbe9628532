"""Deterministic synthetic inputs for the benchmark.

Everything here is a pure function of (seed, size): the same arguments
give byte-identical files. The corpus follows the planted-topic idea of
``tests/conftest.py`` (document d draws its topic words from set
d % N_TOPICS) and adds a Zipf background, English stopwords and the web
noise that ``clean_text`` strips. The embedding file places each topic's
words near a per-topic direction, gives background words random
directions, and pads with words outside the corpus vocabulary.
"""

import json

import numpy as np

N_TOPICS = 10
TOPIC_SIZE = 30
TOPIC_TOKENS = 10  # topic words per document
N_BACKGROUND = 3000
BACKGROUND_TOKENS = 20  # background words per document
# Zipf-Mandelbrot weights (rank + ZIPF_SHIFT) ** -1: a heavy tail, but no
# single background word outweighs the planted topic words in TF-IDF.
ZIPF_SHIFT = 10
STOPWORDS = ("the", "and", "of", "to", "a", "in", "is", "it", "that", "for", "on", "with")
STOPWORD_TOKENS = 4

EMBED_WORDS = 30_000
EMBED_DIM = 300
TOPIC_NOISE = 0.5  # topic word = direction + TOPIC_NOISE * random unit vector
# Embedding components are written with four decimals. A component is
# stored as an integer k in [-9999, 9999]; k / 10000.0 is the correctly
# rounded double of the printed decimal, so the in-memory vectors equal
# what the program parses from the file.
QUANT = 10_000


def topic_words(t: int) -> list[str]:
    return [f"topic{t}word{j:02d}" for j in range(TOPIC_SIZE)]


def planted_sets() -> list[list[str]]:
    return [topic_words(t) for t in range(N_TOPICS)]


def background_words() -> list[str]:
    return [f"bg{j:04d}" for j in range(N_BACKGROUND)]


def _streams(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def corpus_docs(seed: int, n_docs: int) -> list[dict]:
    """The planted corpus as {"id", "text"} dicts."""
    rng_topic, rng_bg, rng_stop, rng_noise = _streams(seed, 4)
    sets = planted_sets()
    bg = background_words()
    zipf = 1.0 / (np.arange(1, N_BACKGROUND + 1) + ZIPF_SHIFT)
    zipf /= zipf.sum()

    topic_idx = rng_topic.integers(TOPIC_SIZE, size=(n_docs, TOPIC_TOKENS))
    bg_idx = rng_bg.choice(N_BACKGROUND, size=(n_docs, BACKGROUND_TOKENS), p=zipf)
    stop_idx = rng_stop.integers(len(STOPWORDS), size=(n_docs, STOPWORD_TOKENS))
    noise = rng_noise.random((n_docs, 4))
    noise_id = rng_noise.integers(100_000, size=n_docs)

    docs = []
    for d in range(n_docs):
        words = sets[d % N_TOPICS]
        tokens = [words[j] for j in topic_idx[d]]
        tokens += [bg[j] for j in bg_idx[d]]
        tokens += [STOPWORDS[j] for j in stop_idx[d]]
        # Web noise: mentions and URLs are dropped, hashtags lose their
        # '#', letter runs collapse ("sooooo" -> "soo").
        if noise[d, 0] < 0.2:
            tokens.append(f"@user{noise_id[d]}")
        if noise[d, 1] < 0.1:
            tokens.append(f"https://t.co/x{noise_id[d]}")
        if noise[d, 2] < 0.2:
            tokens[0] = "#" + tokens[0]
        if noise[d, 3] < 0.1:
            tokens.append("s" + "o" * (3 + d % 5))
        order = rng_noise.permutation(len(tokens))
        docs.append({"id": f"d{d:06d}", "text": " ".join(tokens[i] for i in order)})
    return docs


def write_corpus(path, seed: int, n_docs: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus_docs(seed, n_docs):
            fh.write(json.dumps(doc) + "\n")


def _unit_rows(rng, n):
    g = rng.standard_normal((n, EMBED_DIM))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _quantize(V: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(V * QUANT), -(QUANT - 1), QUANT - 1).astype(np.int32)


def vocabulary_vectors(seed: int) -> dict[str, np.ndarray]:
    """Embeddings of every topic and background word, as the file holds them."""
    rng_dir, rng_topic, rng_bg, _ = _streams(seed + 1_000_003, 4)
    directions = _unit_rows(rng_dir, N_TOPICS)
    words, rows = [], []
    for t in range(N_TOPICS):
        V = directions[t] + TOPIC_NOISE * _unit_rows(rng_topic, TOPIC_SIZE)
        words += topic_words(t)
        rows.append(V / np.linalg.norm(V, axis=1, keepdims=True))
    words += background_words()
    rows.append(_unit_rows(rng_bg, N_BACKGROUND))
    Q = _quantize(np.vstack(rows))
    return {w: Q[i] / float(QUANT) for i, w in enumerate(words)}


def write_embeddings(path, seed: int) -> None:
    """Text embedding file: `count dim` header, then `term v1 .. v_dim`."""
    vocab = vocabulary_vectors(seed)
    _, _, _, rng_pad = _streams(seed + 1_000_003, 4)
    # Fixed-width fields (" +0.0123") let a row be formatted by indexing
    # a byte table instead of formatting 9M floats one by one.
    table = np.array(
        [list(f" {k / QUANT:+.4f}".encode()) for k in range(-(QUANT - 1), QUANT)],
        dtype=np.uint8,
    )
    width = table.shape[1]
    n_pad = EMBED_WORDS - len(vocab)
    with open(path, "wb") as fh:
        fh.write(f"{EMBED_WORDS} {EMBED_DIM}\n".encode())
        words = list(vocab)
        Q = np.vstack([np.rint(vocab[w] * QUANT) for w in words]).astype(np.int32)
        _write_rows(fh, words, Q, table, width)
        chunk = 2000
        for start in range(0, n_pad, chunk):
            n = min(chunk, n_pad - start)
            words = [f"pad{j:05d}" for j in range(start, start + n)]
            _write_rows(fh, words, _quantize(_unit_rows(rng_pad, n)), table, width)


def _write_rows(fh, words, Q, table, width):
    for start in range(0, len(words), 2000):
        block = table[Q[start : start + 2000] + (QUANT - 1)]
        block = block.reshape(block.shape[0], EMBED_DIM * width)
        for word, row in zip(words[start : start + 2000], block):
            fh.write(word.encode())
            fh.write(row.tobytes())
            fh.write(b"\n")
