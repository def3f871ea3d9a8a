"""Child processes that the tests start (`python -m optcoding`, the demos)
import the package from this checkout's `src`, as `pythonpath` in
pyproject.toml makes the test process itself do.

`enumerated_strings` is the reference enumeration that the codebook's
length blocks are checked against; it shares no code with them."""

import itertools
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def enumerated_strings(n: int, l_min: int):
    """Every string of length >= l_min over the symbols 0..n-1, as a tuple of
    symbol indices, in length-then-lexicographic order: `itertools.product`
    lists the strings of each length in lexicographic order, one length
    after the other.  With n = 1 that is one string per length, the symbol
    repeated, built directly: `product` is slow to form long unary tuples."""
    for length in itertools.count(l_min):
        if n == 1:
            yield (0,) * length
        else:
            yield from itertools.product(range(n), repeat=length)
