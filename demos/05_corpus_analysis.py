"""Corpus pipeline: frequency table, abbreviation test, optimal recoding.

Tokenize a text, attach a magnitude to each type (character count here;
durations work via a sidecar), test whether frequent types are short, fit
rank distributions, and measure how much an optimal non-singular recoding
would save.
"""

import optcoding as oc

TEXT = """
the quick brown fox jumps over the lazy dog the fox is quick and the dog
is lazy so the quick fox jumps again and again over the very lazy dog
while a bird watches the fox and the dog from a tree and sings a song
"""

table = oc.build_table(TEXT, lowercase=True)
print(f"{table.total_tokens} tokens, {table.size} types; head of the table:")
for t, f, m in list(zip(table.types, table.frequencies, table.magnitudes))[:6]:
    print(f"   {t:<8} frequency {f}   length {m:.0f}")

result = oc.abbreviation_analysis(table)
print(f"\nKendall tau(frequency, length) = {result.tau:.4f}"
      f"   (n_c = {result.n_c}, n_d = {result.n_d}, z = {result.z_score:.2f})")
print("  ", result.note)

spectrum = oc.frequency_spectrum(table)
print("\nfrequency spectrum (occurrences -> number of types):", spectrum)

report = oc.analyze(table, oc.Alphabet.latin(26), 1)
recoding = report.recoding
print(f"\nmean length now {recoding.l_actual:.4f}; after optimal recoding "
      f"{recoding.l_optimal:.4f}; efficiency ratio {recoding.efficiency_ratio:.4f}")
print("best-fitting rank distribution:", report.fits[0].family,
      {k: round(v, 3) for k, v in report.fits[0].params.items()})
if report.fit_warning:
    print("warning:", report.fit_warning)

print("\nrecoded vocabulary (top 6):")
for rank, code in recoding.code_table.items()[:6]:
    print(f"   {table.types[rank - 1]:<8} -> {code}")
