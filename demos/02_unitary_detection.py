"""Unitarity scores: a norm-only quantity that plateaus exactly at unitaries.

For a contraction u, concatenate u (x) 1_n with a free contraction x, row-wise
and column-wise, and ask how much norm the concatenation saves over x alone.
At a unitary nothing can be saved at any level n, so the infimum sits on a
plateau; any strict contraction leaks through its smallest singular direction.
"""

import numpy as np

from opsyslab import (
    UNITARY_PLATEAU,
    haar_unitary,
    unitarity_score,
    unitary_defect,
    unitary_detect,
)

rng = np.random.default_rng(7)
print(f"plateau constant (the score body is identically 1 at unitaries): {UNITARY_PLATEAU}")

print("\nscores at levels n = 1, 2:")
print(f"{'matrix':<28}{'n=1':>10}{'n=2':>10}{'exact defect':>14}{'verdict':>10}")
samples = [
    ("identity (2x2)", np.eye(2)),
    ("swap e12+e21", np.array([[0, 1], [1, 0]], dtype=complex)),
    ("Haar unitary (2x2)", haar_unitary(rng, 2)),
    ("diag(1, 1/2)", np.diag([1.0, 0.5])),
    ("half identity", 0.5 * np.eye(2)),
    ("random contraction", haar_unitary(rng, 2) @ np.diag([0.9, 0.4]) @ haar_unitary(rng, 2)),
]
for name, m in samples:
    s1 = unitarity_score(m, 1)
    s2 = unitarity_score(m, 2)
    flag = unitary_detect(m, 2)
    print(f"{name:<28}{s1:>10.4f}{s2:>10.4f}{unitary_defect(m):>14.2e}"
          f"{'unitary' if flag else 'not':>10}")

print("\nThe score of a strict contraction drops to about sigma_min^2: the")
print("minimal singular pair of u supplies the norm-saving direction.")
