"""Seeded inputs, operation lists and expected outputs of the three workloads.

`prepare(name, seed, workdir)` writes the input files into `workdir` and
returns the spec the worker runs: a list of operations, each with what its
output must satisfy.  Everything here runs before timing starts; the
program under test only sees the files and flags.

Why these workloads:

- typing-corpus: the paper's headline pipeline on a 250k-word random-typing
  text (about 152k types but only about 76 distinct frequencies), so
  tokenizing, counting, recoding and fitting dominate while the
  concordance count is nearly free.
- zipf-durations: a natural-language-shaped Zipf-Mandelbrot text with mixed
  case, attached punctuation and a continuous duration per type (750k
  tokens, about 80k types, about 520 frequency-tie groups), so the
  concordance count is a large share.
- rank-laws: the analytic half without a corpus (rank law, lengths, fits,
  sampling, entropy, optimality check); the corpus layer is not used.

The sizes are a quarter of the paper-scale ones (1e6 words, 3e6 tokens,
`figure --imax 1e6`), except `verify_optimality`, which keeps i_max =
20000 and its 26**5-string pool.  A run then repeats its sequence five to
fifteen times instead of two or three, and the medians hold still on a
host whose processor speed drifts by up to a factor of two.
"""

from __future__ import annotations

import hashlib
import string
from collections import Counter
from pathlib import Path

import numpy as np

import oracle

NAMES = ("typing-corpus", "zipf-durations", "rank-laws")

LETTERS = np.array(list(string.ascii_lowercase))

# Full sizes; tests pass smaller ones through `sizes`.
SIZES = {
    "typing-corpus": {"words": 250_000},
    "zipf-durations": {"tokens": 750_000, "vocab": 300_000},
    "rank-laws": {
        "figure_imax": 250_000, "lengths_imax": 50_000, "verify_imax": 20_000,
        "sample_n": 5_000, "entropy_truncation": 25_000,
        "fit_draws": 200_000, "fit_ranks": 20_000,
    },
}

TYPING = {"N": 26, "ps": 0.18}
ZIPF = {"alpha": 1.2, "b": 10.0}  # about 80k types of a 3e5-word vocabulary at 7.5e5 tokens


def derive(seed: int, stream: str) -> int:
    """Independent 32-bit seed for one named stream of a workload seed."""
    key = [int(b) for b in stream.encode()]
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def random_typing_words(N: int, ps: float, seed: int, n_words: int) -> list[str]:
    """Random typing with l_min = 1: a letter, then stop with probability ps.

    This is the stream `optcoding simulate --seed` documents, so the
    `simulate` run and the `analyze` run of one seed describe one corpus.
    """
    rng = np.random.default_rng(seed)
    lengths = rng.geometric(ps, n_words)
    codes = rng.integers(0, N, int(lengths.sum()))
    text = (codes + ord("a")).astype(np.uint8).tobytes().decode("ascii")
    ends = np.cumsum(lengths).tolist()
    starts = [0] + ends[:-1]
    return [text[a:b] for a, b in zip(starts, ends)]


def table_tsv(types, freqs, mags) -> str:
    """The frequency table as `analyze --table-out` documents it."""
    lines = ["type\tfrequency\tmagnitude"]
    lines += [f"{t}\t{f}\t{m!r}" for t, f, m in zip(types, freqs, mags)]
    return "\n".join(lines) + "\n"


def _first_seen_table(tokens) -> tuple[list[str], np.ndarray]:
    """Types by frequency descending, ties by first occurrence, with counts."""
    counts = Counter(tokens)  # keeps first-occurrence order
    types = list(counts)
    freqs = np.fromiter(counts.values(), dtype=np.int64, count=len(types))
    order = np.argsort(-freqs, kind="stable")
    return [types[k] for k in order.tolist()], freqs[order]


def _fit_expect(path: Path, ranks, counts) -> dict:
    np.save(path, np.stack([np.asarray(ranks, np.int64), np.asarray(counts, np.int64)]))
    return {"data": path.name, **oracle.fit_summary(ranks, counts)}


def prepare_typing_corpus(seed: int, workdir: Path, sizes: dict) -> dict:
    n_words = sizes["words"]
    sim_seed = derive(seed, "simulate")
    words = random_typing_words(TYPING["N"], TYPING["ps"], sim_seed, n_words)
    (workdir / "corpus.txt").write_text(" ".join(words) + "\n", encoding="utf-8")
    types, freqs = _first_seen_table(words)
    del words
    mags = [float(len(t)) for t in types]
    summary = oracle.corpus_summary(freqs, mags)
    table_sha = sha256(table_tsv(types, freqs.tolist(), mags))
    fits = _fit_expect(workdir / "corpus_fit.npy", np.arange(1, freqs.size + 1), freqs)
    sim_argv = [
        "simulate", "--N", str(TYPING["N"]), "--ps", str(TYPING["ps"]),
        "--words", str(n_words), "--seed", str(sim_seed),
    ]
    analyze_argv = ["analyze", "--input", "corpus.txt", "--table-out", "table.tsv"]
    return {"ops": [
        {"name": "simulate", "kind": "cli", "argv": sim_argv, "check": "simulate",
         "expect": {**summary, "lengths_are_chars": True}},
        {"name": "analyze", "kind": "cli", "argv": analyze_argv, "check": "analyze",
         "expect": {**summary, "lengths_are_chars": True, "fits": fits,
                    "files": {"table.tsv": table_sha}}},
    ]}


def zipf_durations_inputs(seed: int, n_tokens: int, n_vocab: int):
    """Text, sidecar and the hidden truth: token vocabulary indices and durations."""
    rng = np.random.default_rng(derive(seed, "zipf-durations"))
    # Distinct lowercase words, shorter ones tending to be frequent.
    n_cand = n_vocab + n_vocab // 4 + 100
    lengths = 1 + rng.poisson(5.0, n_cand)
    letters = LETTERS[rng.integers(0, 26, int(lengths.sum()))]
    text = "".join(letters.tolist())
    ends = np.cumsum(lengths).tolist()
    cand = list(dict.fromkeys(text[a:b] for a, b in zip([0] + ends[:-1], ends)))
    if len(cand) < n_vocab:
        raise RuntimeError("too few distinct candidate words")
    cand = cand[:n_vocab]
    key = np.array([len(w) for w in cand]) + rng.normal(0.0, 1.5, n_vocab)
    vocab = np.array(cand, dtype=object)[np.argsort(key, kind="stable")]
    chars = np.array([len(w) for w in vocab], dtype=float)
    durations = 0.04 + 0.06 * chars * np.exp(rng.normal(0.0, 0.3, n_vocab))

    w = (np.arange(1, n_vocab + 1) + ZIPF["b"]) ** -ZIPF["alpha"]
    cdf = np.cumsum(w / w.sum())
    idx = np.minimum(np.searchsorted(cdf, rng.random(n_tokens), side="right"), n_vocab - 1)

    forms = np.stack([
        vocab,
        np.array([v.capitalize() for v in vocab], dtype=object),
        np.array([v.upper() for v in vocab], dtype=object),
    ])
    case = rng.choice(3, n_tokens, p=[0.8, 0.15, 0.05])
    tokens = forms[case, idx]
    suffix = np.array(["", ",", ".", ";", ":", "!", "?"], dtype=object)[
        rng.choice(7, n_tokens, p=[0.85, 0.06, 0.04, 0.015, 0.015, 0.01, 0.01])
    ]
    wrap = rng.random(n_tokens) < 0.03
    prefix = np.where(wrap, '("', "")
    close = np.where(wrap, '")', "")
    tokens = prefix.astype(object) + tokens + close.astype(object) + suffix
    tokens = tokens.tolist()
    per_line = 16
    body = "\n".join(" ".join(tokens[k:k + per_line]) for k in range(0, n_tokens, per_line))
    sidecar = "".join(f"{v}\t{d!r}\n" for v, d in zip(vocab.tolist(), durations.tolist()))
    return body + "\n", sidecar, idx, durations


def prepare_zipf_durations(seed: int, workdir: Path, sizes: dict) -> dict:
    text, sidecar, idx, durations = zipf_durations_inputs(seed, sizes["tokens"], sizes["vocab"])
    (workdir / "text.txt").write_text(text, encoding="utf-8")
    (workdir / "durations.tsv").write_text(sidecar, encoding="utf-8")
    counts = np.bincount(idx, minlength=durations.size)
    seen = counts > 0
    summary = oracle.corpus_summary(counts[seen], durations[seen])
    freqs = np.sort(counts[seen])[::-1]
    fits = _fit_expect(workdir / "text_fit.npy", np.arange(1, freqs.size + 1), freqs)
    argv = ["analyze", "--input", "text.txt", "--lowercase", "--magnitudes", "durations.tsv"]
    return {"ops": [
        {"name": "analyze", "kind": "cli", "argv": argv, "check": "analyze",
         "expect": {**summary, "lengths_are_chars": False, "fits": fits}},
    ]}


def figure_text(N: int, ps: float, imax: int) -> str:
    lengths = oracle.block_lengths(N, 1, imax)
    probs = ps / (1.0 - ps) * ((1.0 - ps) / N) ** lengths
    cells = {}
    for length in np.unique(lengths).tolist():
        block = probs[lengths == length]
        if block.min() != block.max():
            raise RuntimeError("rank law is not constant within a length block")
        cells[length] = str(float(block[0]))
    rows = [f"{i},{cells[l]}" for i, l in enumerate(lengths.tolist(), start=1)]
    return "i,p_i\n" + "\n".join(rows) + "\n"


def lengths_text(N: int, imax: int) -> str:
    rows = [f"{i}\t{l}" for i, l in enumerate(oracle.block_lengths(N, 1, imax).tolist(), 1)]
    return "i\tl_i\n" + "\n".join(rows) + "\n"


def prepare_rank_laws(seed: int, workdir: Path, sizes: dict) -> dict:
    rng = np.random.default_rng(derive(seed, "fit"))
    k = sizes["fit_ranks"]
    w = (np.arange(1, k + 1) + 2.5) ** -1.3
    counts = np.bincount(rng.choice(k, sizes["fit_draws"], p=w / w.sum()), minlength=k)
    ranks = np.flatnonzero(counts) + 1
    rows = [f"{r}\t{c}" for r, c in zip(ranks.tolist(), counts[ranks - 1].tolist())]
    (workdir / "rank_counts.tsv").write_text("rank\tcount\n" + "\n".join(rows) + "\n")
    fits = _fit_expect(workdir / "rank_counts_fit.npy", ranks, counts[ranks - 1])

    sample_seed = derive(seed, "sample")
    u = np.random.default_rng(sample_seed).random(sizes["sample_n"])
    imax = sizes["figure_imax"]
    return {"ops": [
        # First, so its peak-RSS growth is measured from the post-import baseline.
        {"name": "verify_optimality", "kind": "verify_optimality",
         "N": 26, "ps": 0.18, "imax": sizes["verify_imax"], "expect": {}},
        {"name": "figure", "kind": "cli", "check": "digest",
         "argv": ["figure", "--N", "26", "--ps", "0.18", "--imax", str(imax)],
         "expect": {"sha256": sha256(figure_text(26, 0.18, imax))}},
        {"name": "lengths", "kind": "cli", "check": "digest",
         "argv": ["lengths", "--N", "2", "--imax", str(sizes["lengths_imax"])],
         "expect": {"sha256": sha256(lengths_text(2, sizes["lengths_imax"]))}},
        {"name": "fit", "kind": "cli", "check": "fit",
         "argv": ["fit", "--family", "all", "--input", "rank_counts.tsv"],
         "expect": {"fits": fits}},
        {"name": "sample", "kind": "sample", "alpha": 1.05, "seed": sample_seed,
         "n": sizes["sample_n"],
         "expect": {"ranks": oracle.zeta_sample_ranks(1.05, u).tolist()}},
        {"name": "entropy", "kind": "entropy", "alpha": 2.5,
         "truncation": sizes["entropy_truncation"],
         "expect": {"nats": oracle.zeta_entropy(2.5, sizes["entropy_truncation"])}},
    ]}


PREPARE = {
    "typing-corpus": prepare_typing_corpus,
    "zipf-durations": prepare_zipf_durations,
    "rank-laws": prepare_rank_laws,
}


def prepare(name: str, seed: int, workdir: Path, sizes: dict | None = None) -> dict:
    """Write the workload's inputs into workdir; return the worker's spec."""
    return PREPARE[name](seed, Path(workdir), sizes or SIZES[name])
