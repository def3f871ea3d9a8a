"""Command-line surface with deterministic, machine-readable outputs.

Subcommands: codes, lengths, simulate, fit, analyze, figure, oracle.
Exit codes: 0 success, 2 usage error, 3 numeric or domain error, 4 I/O
error.  Identical invocations (same flags and seed) produce byte-identical
artifacts, and no output file is created on any error path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from itertools import chain, islice

import numpy as np

from . import assign, codebook, corpus, maxent, randtype

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

_SEP = {"tsv": "\t", "csv": ","}
_CHUNK = 2**16  # most rows, or words, in one text chunk of an output

# Most rows of `lengths` and `figure` and most words of `simulate`, so that more
# is a domain error, not an out-of-memory kill.  At 10**7 rows in a file, either
# table peaks at 34-41 MB at N = 1, 2, 3 or 26 (x86-64 Linux, Python 3.11).
MAX_SIZE = 10**7


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostic, exit 2
        print(f"{self.prog}: usage error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_output(text: str, fh) -> None:
    fh.write(text)


def _write_outputs(outputs: dict) -> None:
    """Write each output's text chunks to its path, or to stdout for None:
    every file to a temporary file, then all moved into place, then stdout.
    On any error no file of the run is left behind."""
    # one spelling per file, the last: a shared path holds the main output
    files = {os.path.abspath(p): p for p in outputs if p is not None}.values()
    tmps = {path: f"{path}.tmp.{os.getpid()}" for path in files}
    moved = []
    try:
        for path, tmp in tmps.items():
            with open(tmp, "w", encoding="utf-8") as fh:
                for chunk in outputs[path]:
                    _write_output(chunk, fh)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
            moved.append(path)
    except BaseException:  # the chunks are made as they are written
        for path in [*tmps.values(), *moved]:
            if os.path.exists(path):
                os.unlink(path)
        raise
    if None in outputs:
        sys.stdout.writelines(outputs[None])


def _cells(values: np.ndarray):
    """str() of each cell, lazily, once per distinct bit pattern (0.0 == -0.0 prints apart)."""
    bits = values.view(f"u{values.itemsize}")
    _, first, where = np.unique(bits, return_index=True, return_inverse=True)
    cells = list(map(str, values[first].tolist()))  # str(): shortest round-trip floats
    return map(cells.__getitem__, where.tolist())


def _table_text(header: tuple[str, ...], columns, fmt: str):
    """The header line, then one line per row, as text chunks of at most
    _CHUNK rows; `columns` hold the cells as strings."""
    sep = _SEP[fmt]
    rows = map(sep.join, zip(*columns))  # never "": every table has two or more columns
    chunks = iter(lambda: "\n".join([*islice(rows, _CHUNK), ""]), "")
    return chain([f"{sep.join(header)}\n"], chunks)


def _rank_table_text(header: tuple[str, ...], ends: np.ndarray, values: np.ndarray, fmt: str):
    """Rows `i, values[k]` for the ranks i of run k: those after ends[k - 1]
    (from 1 for k = 0) through ends[k], as text chunks of at most _CHUNK rows.
    A run is a length block of a rank law.  Each run's tail is formatted once,
    and a run cut where the rank gains a digit is cut again into chunks of
    fixed-width rows: each a (rows, width) byte array, its digits from divmod
    and its tail broadcast.  repr is str for ints and floats, and a cheaper call."""
    sep, start = _SEP[fmt], 0
    yield f"{sep.join(header)}\n"
    for end, value in zip(ends.tolist(), values.tolist()):
        tail = np.frombuffer(f"{sep}{value!r}\n".encode(), np.uint8)
        while start < end:  # a chunk: ranks start + 1 .. stop, all of d digits
            d = len(str(start + 1))
            stop = min(end, 10**d - 1, start + _CHUNK)
            ranks = np.arange(start + 1, stop + 1, dtype=np.min_scalar_type(stop))
            digits = np.empty((stop - start, d), np.uint8)
            for k in reversed(range(d)):
                np.divmod(ranks, 10, out=(ranks, digits[:, k]))
            rows = np.empty((stop - start, d + tail.size), np.uint8)
            np.bitwise_or(digits, ord("0"), out=rows[:, :d])
            rows[:, d:] = tail
            yield str(rows.data, "ascii")
            start = stop


def _json_text(payload: dict) -> list[str]:
    return [json.dumps(payload, indent=2) + "\n"]


def _fit_json(fit: maxent.FitResult) -> dict:
    return {
        "schema": "fit/1",
        "family": fit.family,
        "params": dict(fit.params),
        "log_likelihood": fit.log_likelihood,
        "n": fit.n,
        "support": list(fit.support),
    }


def _concordance_json(abbrev: corpus.AbbreviationResult | None) -> dict:
    """The tau key block; all None when `simulate` drew a single type."""
    return {k: getattr(abbrev, k) if abbrev else None for k in ("tau", "n_c", "n_d", "z_score")}


def _recoding_json(recoding: corpus.RecodingResult) -> dict:
    return {k: getattr(recoding, k) for k in ("l_actual", "l_optimal", "efficiency_ratio")}


def _check_size(flag: str, value: int, top: int | None = None) -> None:
    top = MAX_SIZE if top is None else top  # looked up per call, so a patched cap applies
    if not 1 <= value <= top:
        raise ValueError(f"{flag} must be in 1..{top}, got {value}")


def _check_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def _check_ps(ps: float) -> None:
    if not 0.0 < ps < 1.0:
        raise ValueError(f"--ps must be strictly between 0 and 1, got {ps!r}")


def _alphabet(text: str) -> codebook.Alphabet:
    if not text or len(set(text)) != len(text):
        raise ValueError(f"--alphabet must be one or more distinct symbols, got {text!r}")
    return codebook.Alphabet.from_string(text)


def _cmd_codes(args) -> dict:
    _check_at_least("--lmin", args.lmin, 0)
    alphabet = _alphabet(args.alphabet)
    sep = _SEP.get(args.format)  # None for json; in a table, such a symbol would split its row
    if sep and any(s == sep or s.splitlines() != [s] for s in alphabet.symbols):
        raise ValueError(
            f"--alphabet must hold no {args.format} separator or line break, got {args.alphabet!r}"
        )
    if args.ranks < 1:
        raise ValueError("--ranks must be >= 1")
    if args.lmin == 0 and not args.allow_empty:
        raise ValueError("--lmin 0 (the empty code string) needs --allow-empty")
    codebook.check_table_size(alphabet.size, args.lmin, args.ranks)
    dist = assign.RankedDistribution(np.full(args.ranks, 1.0 / args.ranks))
    table = codebook.optimal_nonsingular_code(
        dist, alphabet, args.lmin, allow_empty=args.allow_empty
    )
    if args.format == "json":
        return {args.output: _json_text({
            "schema": "codes/1",
            "alphabet": list(alphabet.symbols),
            "codes": list(table.codes),
        })}
    ranks = map(str, range(1, table.size + 1))
    return {args.output: _table_text(("rank", "code"), (ranks, table.codes), args.format)}


def _rank_table(args, column: str, law):
    """The `i, column` table of ranks 1..--imax, `law` taking an array of ranks to their values."""
    n = args.imax
    if codebook.code_length_for_rank(args.N, args.lmin, n) - args.lmin < n - 1:  # blocks < ranks
        ends = np.cumsum(codebook.block_counts(args.N, args.lmin, n))
        return _rank_table_text(("i", column), ends, law(ends), args.format)
    law(np.array([n]))  # every rank its own block: a fault is raised here, before any row is made
    values = (law(np.arange(k + 1, min(k + _CHUNK, n) + 1)).tolist() for k in range(0, n, _CHUNK))
    cells = map(repr, chain.from_iterable(values))
    return _table_text(("i", column), (map(repr, range(1, n + 1)), cells), args.format)


def _cmd_lengths(args) -> dict:
    _check_at_least("--lmin", args.lmin, 0)
    _check_size("--imax", args.imax)
    _check_at_least("--N", args.N, 1)
    law = partial(codebook.code_length_for_rank, args.N, args.lmin)
    return {args.output: _rank_table(args, "l_i", law)}


def _cmd_figure(args) -> dict:
    _check_at_least("--lmin", args.lmin, 0)
    _check_size("--imax", args.imax)
    _check_at_least("--N", args.N, 1)
    _check_ps(args.ps)
    params = randtype.RandomTypingParams(args.N, args.ps, args.lmin)
    return {args.output: _rank_table(args, "p_i", partial(randtype.rank_probability, params))}


def _check_recoding_lmin(lmin: int) -> None:
    """simulate and analyze recode without the empty string: reject l_min < 1
    before any words are drawn or read."""
    if lmin < 1:
        raise ValueError(f"--lmin must be >= 1 (no empty code string), got {lmin}")


def _letter_bias(text: str, n: int) -> np.ndarray:
    """The --bias value: n comma-separated letter probabilities."""
    try:
        bias = np.array([float(x) for x in text.split(",")])
    except ValueError:
        bias = None
    if bias is None or bias.size != n:
        raise ValueError(f"--bias must be {n} comma-separated numbers, got {text!r}")
    if not np.all((bias > 0) & (bias < np.inf)):
        raise ValueError(f"--bias entries must be positive and finite, got {text!r}")
    if abs(float(bias.sum()) - 1.0) > 1e-9:  # RandomTypingParams' tolerance
        raise ValueError(f"--bias must sum to 1, got {text!r}")
    return bias


def _words_text(words: list[str]):
    """The words with one space between each two and a newline after the
    last, as text chunks of at most _CHUNK words."""
    for k in range(0, len(words), _CHUNK):
        yield " ".join(words[k : k + _CHUNK]) + (" " if k + _CHUNK < len(words) else "\n")


def _cmd_simulate(args) -> dict:
    _check_recoding_lmin(args.lmin)
    _check_size("--words", args.words)
    _check_size("--N", args.N, 26)  # the latin letters
    _check_at_least("--seed", args.seed, 0)
    _check_ps(args.ps)
    bias = None if args.bias is None else _letter_bias(args.bias, args.N)
    params = randtype.RandomTypingParams(args.N, args.ps, args.lmin, bias)
    words = randtype.generate(params, args.seed, args.words)
    table = corpus.table_from_tokens(words)
    abbrev = corpus.abbreviation_analysis(table) if table.size >= 2 else None
    recoding = corpus.optimal_recoding(
        table, codebook.Alphabet.latin(args.N), args.lmin
    )
    payload = {
        "schema": "simulate/1",
        "N": args.N,
        "p_s": args.ps,
        "l_min": args.lmin,
        "seed": args.seed,
        "n_words": args.words,
        "n_types": table.size,
        **_concordance_json(abbrev),
        **_recoding_json(recoding),
    }
    side = {} if args.text_out is None else {args.text_out: _words_text(words)}
    return {**side, args.output: _json_text(payload)}


def _cmd_fit(args) -> dict:
    observed = corpus.read_rank_counts(args.input)
    families = maxent.FAMILIES if args.family == "all" else (args.family,)
    results = maxent.fit_ranked(observed, families)
    if len(results) == 1:
        return {args.output: _json_text(_fit_json(results[0]))}
    payload = {"schema": "fit/1", "results": [_fit_json(r) for r in results]}
    return {args.output: _json_text(payload)}


def _cmd_analyze(args) -> dict:
    _check_recoding_lmin(args.lmin)
    alphabet = _alphabet(args.alphabet)
    text = corpus.read_text(args.input)
    magnitudes = (
        corpus.read_magnitudes(args.magnitudes) if args.magnitudes else None
    )
    table = corpus.build_table(
        text,
        lowercase=args.lowercase,
        strip_punctuation=not args.keep_punctuation,
        magnitude="graphemes" if args.graphemes else "chars",
        magnitudes=magnitudes,
    )
    report = corpus.analyze(table, alphabet, args.lmin)
    side = {}
    if args.table_out is not None:
        columns = (table.types, _cells(table.frequencies), _cells(table.magnitudes))
        side[args.table_out] = _table_text(("type", "frequency", "magnitude"), columns, "tsv")
    return {**side, args.output: _json_text({
        "schema": "analysis/1",
        **_concordance_json(report.abbreviation),
        "note": report.abbreviation.note,
        **_recoding_json(report.recoding),
        "fits": [_fit_json(f) for f in report.fits],
        "fit_warning": report.fit_warning,
    })}


def _cmd_oracle(args) -> dict:
    _check_size("--instances", args.instances)
    _check_at_least("--seed", args.seed, 0)
    rng = np.random.default_rng(args.seed)
    costs = [
        assign.CostFunction.identity(),
        assign.CostFunction.power(2.0),
        assign.CostFunction.exponential(float(np.e)),
    ]
    lines = []
    failures = 0
    for k in range(args.instances):
        v = int(rng.integers(2, 8))  # V in 2..7
        pool = int(rng.integers(v, 10))  # pool in V..9
        dist = assign.RankedDistribution.from_weights(rng.random(v) + 1e-3)
        ms = assign.MagnitudeMultiset(rng.uniform(0.1, 10.0, pool))
        g = costs[int(rng.integers(0, len(costs)))]
        opt = assign.optimal_assignment(dist, ms)
        lhs = assign.mean_cost(dist, opt, g)
        rhs = assign.brute_force_minimum(dist, ms, g)
        ok = abs(lhs - rhs) <= 1e-12 and assign.is_optimal(dist, opt, ms)
        if not ok:
            failures += 1
        lines.append(
            f"instance {k:03d} V={v} pool={pool} g={g.kind}: "
            f"{'ok' if ok else f'FAIL sorted={lhs!r} exhaustive={rhs!r}'}"
        )
    lines.append(f"oracle: {args.instances - failures}/{args.instances} ok")
    if failures:
        sys.stdout.write("\n".join(lines) + "\n")
        raise ValueError(f"oracle failed on {failures} of {args.instances} instances")
    return {args.output: ["\n".join(lines) + "\n"]}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="optcoding", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codes", help="optimal non-singular code table")
    p.add_argument("--alphabet", required=True, help="alphabet symbols, e.g. 'ab'")
    p.add_argument("--ranks", type=int, required=True, help="number of ranks V")
    p.add_argument("--lmin", type=int, default=1)
    p.add_argument("--allow-empty", action="store_true",
                   help="permit the empty string (needed for --lmin 0)")
    p.add_argument("--format", choices=("tsv", "csv", "json"), default="tsv")
    p.set_defaults(run=_cmd_codes)

    p = sub.add_parser("lengths", help="length of the i-th string, i = 1..imax")
    p.add_argument("--N", type=int, required=True, help="alphabet size")
    p.add_argument("--lmin", type=int, default=1)
    p.add_argument("--imax", type=int, required=True, help=f"largest rank, at most {MAX_SIZE}")
    p.add_argument("--format", choices=("tsv", "csv"), default="tsv")
    p.set_defaults(run=_cmd_lengths)

    p = sub.add_parser("figure", help="exact rank-probability series of random typing")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--ps", type=float, required=True, help="stop probability in (0,1)")
    p.add_argument("--lmin", type=int, default=1)
    p.add_argument("--imax", type=int, required=True, help=f"largest rank, at most {MAX_SIZE}")
    p.add_argument("--format", choices=("csv", "tsv"), default="csv")
    p.set_defaults(run=_cmd_figure)

    p = sub.add_parser("simulate", help="generate a random-typing corpus and analyze it")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--ps", type=float, required=True)
    p.add_argument("--lmin", type=int, default=1)
    p.add_argument("--words", type=int, required=True, help=f"at most {MAX_SIZE}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bias", help="comma-separated letter probabilities (length N)")
    p.add_argument("--text-out", help="also write the generated corpus here")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("fit", help="maximum-likelihood fit of rank distributions")
    p.add_argument("--input", required=True, help="TSV/CSV of `rank count` rows")
    p.add_argument(
        "--family",
        choices=(*maxent.FAMILIES, "all"),
        default="all",
    )
    p.set_defaults(run=_cmd_fit)

    p = sub.add_parser("analyze", help="corpus pipeline: table, tau, recoding, fits")
    p.add_argument("--input", required=True, help="plain-text corpus file")
    p.add_argument("--magnitudes", help="sidecar TSV `type<TAB>magnitude`")
    p.add_argument("--alphabet", default="abcdefghijklmnopqrstuvwxyz",
                   help="recoding alphabet (default: 26 latin letters)")
    p.add_argument("--lmin", type=int, default=1)
    p.add_argument("--lowercase", action="store_true")
    p.add_argument("--keep-punctuation", action="store_true")
    p.add_argument("--graphemes", action="store_true",
                   help="count grapheme clusters instead of characters")
    p.add_argument("--table-out", help="also write the frequency table TSV here")
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("oracle", help="exhaustive cross-check of the sorted optimum")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_oracle)

    for p in sub.choices.values():  # last, so usage and help list it last
        p.add_argument("--output")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on --help/usage errors
        return int(exc.code or 0)
    try:
        _write_outputs(args.run(args))
    except ValueError as exc:
        print(f"optcoding: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"optcoding: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK
