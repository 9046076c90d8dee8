"""Fixed reference work that gauges the machine's speed at the moment.

The benchmark runs this between CLI runs and reports each CLI run's wall
time as a multiple of the reference runs on either side of it. On a shared
host the speed of the machine drifts by up to 2x within minutes; that drift
slows this work and the CLI alike, so it cancels out of the ratio, while a
change to leibhom moves only the CLI. The work resembles leibhom's hot
loops (exact rational elimination on dict-of-column rows in a fresh
interpreter) and imports nothing from leibhom, so no change to the program
can move it.

    python3 perfbench/refwork.py        # prints the rank, 292
"""

import random
from fractions import Fraction

SIZE = 300
NONZEROS_PER_ROW = 4
SEED = 20240607


def rank(rows):
    """Rank over Q of sparse integer rows ({column: value}), by elimination."""
    pivots = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            col = min(row)
            if col not in pivots:
                inv = 1 / row[col]
                pivots[col] = {c: v * inv for c, v in row.items()}
                break
            f = row[col]
            for c, v in pivots[col].items():
                w = row.get(c, 0) - f * v
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
    return len(pivots)


def main():
    rng = random.Random(SEED)
    rows = [{rng.randrange(SIZE): rng.randrange(-3, 4)
             for _ in range(NONZEROS_PER_ROW)} for _ in range(SIZE)]
    print(rank(rows))


if __name__ == "__main__":
    main()
