"""The packed-word box scan, kept as a test-only oracle for
tgkz.semigroups._box_points.

Each candidate b + o is one integer holding all of its facet values, W bits
per value with a guard bit on top, and the candidates are visited one at a
time in a Python loop: one add and one mask per floor test.
"""

from itertools import chain, product
from operator import lshift, mul


def _values(rows, v):
    return tuple(sum(map(mul, row, v)) for row in rows)


def box_points(simplex, scales, rows, floor, base, reducers=()):
    """Lattice points b + o of {sum mu_j v_j : 0 <= mu_j < scales[j]} for
    the vectors v_j of `simplex`, yielded one at a time as (b, o) when the
    values rows . (b + o) are >= floor and not >= any floor in `reducers`.

    b runs over `base`, the simplex's _box_base, and o = sum k_j v_j with
    0 <= k_j < scales[j].

    Values are tested packed into one integer, value i in the W-bit field
    at bit i*W, with G the guard bit W-1 of every field.  A box point
    sum c_j v_j (0 <= c_j < scales[j]) has
    |tau_i| < sum_j scales[j] |tau_i(v_j)|; W leaves 2^(W-1) above the
    largest such bound plus the largest |floor entry|, so
    every field of pack(values) + G - pack(f) lies in [1, 2^W) with no
    carry, and its guard bit is set exactly when that value is >= f_i.
    Packing is linear, so pack(rows . x) is x dotted with the packed columns
    of rows, taken once per base point b and once per offset o, and every
    test is one add and one mask.
    """
    m_rows = list(zip(*simplex))
    reach = max((sum(map(mul, scales, map(abs, _values(simplex, row))))
                 for row in rows), default=0)
    width = (reach + max(map(abs, chain(floor, *reducers)), default=0)).bit_length() + 1
    shifts = range(0, width * len(rows), width)

    def pack(values):
        return sum(map(lshift, values, shifts))

    packed = [pack(column) for column in zip(*rows)]  # pack(rows . x) = x . packed
    guard = pack([1 << (width - 1)] * len(rows))
    start = guard - pack(floor)
    cuts = [pack(floor) - pack(f) for f in reducers]
    offsets = [(o, sum(map(mul, o, packed)))
               for o in (_values(m_rows, k) for k in product(*map(range, scales)))]
    for b in base:
        at_b = start + sum(map(mul, b, packed))
        for o, at_o in offsets:
            w = at_b + at_o
            if w & guard == guard:
                for cut in cuts:
                    if (w + cut) & guard == guard:
                        break
                else:
                    yield b, o
