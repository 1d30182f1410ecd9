"""The linear-scan division of the Groebner core, kept as a test oracle.

poly._reduce looks a term's divisors up by its component; this copy of the
division it replaced tries every divisor in index order, so the two must
pick the same divisor at each step and return the same remainder.
"""

from tgkz.poly import _add, _divides, _sub


def linear_reduce(f, divisors, leads, order):
    """Remainder of the term dict f on full division by monic `divisors`
    with leading terms `leads`: a term's coefficient is itself the
    reduction factor, so nothing is divided."""
    key = order.key
    remainder = {}
    work = dict(f)
    while work:
        exp = max(work, key=key)
        coeff = work.pop(exp)
        for idx, lexp in enumerate(leads):
            if _divides(lexp, exp):
                break
        else:
            # popped terms strictly decrease, so exp is new to the remainder
            remainder[exp] = coeff
            continue
        shift = _sub(exp, lexp)
        for gexp, gc in divisors[idx].items():
            if gexp == lexp:
                continue
            tgt = _add(gexp, shift)
            c = coeff * gc
            if tgt in work:
                work[tgt] = work[tgt] - c
                if not work[tgt]:
                    del work[tgt]
            else:
                # reductions only produce terms below exp, so tgt cannot be
                # banked in the remainder yet
                work[tgt] = -c
    return remainder
