"""Non-singular code construction and the code-class hierarchy.

Enumerating all strings by length (ties lexicographic) and assigning the
i-th string to the i-th most probable type gives the shortest possible
non-singular code.  Unique decodability is a strictly stronger property:
the classic 6-entry tables below land in three different classes.
"""

import numpy as np

import optcoding as oc

uniform6 = oc.RankedDistribution(np.full(6, 1 / 6))
ab = oc.Alphabet.from_string("ab")

table = oc.optimal_nonsingular_code(uniform6, ab)
print("optimal non-singular table (V = 6, alphabet {a, b}):")
print("rank\tcode")
for rank, code in table.items():
    print(f"{rank}\t{code}")
print()
print("mean code length:", round(oc.mean_code_length(table, uniform6), 4), "(= 5/3)")

print("length of the i-th string, i = 1..14:",
      [oc.code_length_for_rank(2, 1, i) for i in range(1, 15)])

examples = {
    "repeated codes":  oc.CodeTable(("a", "a", "a", "b", "b", "b"), ab),
    "shuffled shortest": oc.CodeTable(("aa", "ab", "a", "b", "ba", "bb"), ab),
    "self-delimiting": oc.CodeTable(("b", "aba", "abb", "aabaa", "aabab", "aabba"), ab),
}
print("\nclassification:")
for name, t in examples.items():
    print(f"  {name:<18} -> {oc.classify(t).label}")

print("\nsegmenting 'baba' with the shuffled table (ambiguous):")
for parse in oc.segmentations("baba", examples["shuffled shortest"], cap=10):
    print("   ranks:", parse)
print("with the self-delimiting table (unique):",
      oc.segmentations("baba", examples["self-delimiting"]))

skewed = oc.RankedDistribution(np.array([0.5, 0.25, 0.125, 0.125]))
lengths = oc.uniquely_decodable_lengths(skewed, 2)
kraft = sum(2.0 ** -k for k in lengths)
print("\nShannon lengths for (1/2, 1/4, 1/8, 1/8):", lengths.tolist(),
      "  Kraft sum:", kraft)
