"""Helpers and brute-force oracles shared by the test modules.

They live outside conftest.py so that test modules import them by a module
name that no other conftest.py on the test path shadows.
"""

from annosql.meta import ColumnMeta, TableSchema


def make_schema(table_id, cols):
    return TableSchema(table_id, tuple(ColumnMeta(n, t, i) for i, (n, t) in enumerate(cols)))


def levenshtein_oracle(a, b):
    """Independent recursive-with-memo edit distance for cross-checking."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return d(len(a), len(b))


def matching_oracle(adjacency, n_right):
    """Exhaustive maximum-matching cardinality via bitmask recursion."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(i, used):
        if i == len(adjacency):
            return 0
        out = best(i + 1, used)
        for r in adjacency[i]:
            bit = 1 << r
            if not used & bit:
                out = max(out, 1 + best(i + 1, used | bit))
        return out

    return best(0, 0)
