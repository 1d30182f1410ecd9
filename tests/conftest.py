import random

import pytest

from tgkz.cones import PointConfig, check_hypotheses, is_pointed
from tgkz.lattice import AbelianGroup


def make_config(orders, cols):
    """cols: list of (torsion tuple, free tuple)."""
    group = AbelianGroup(tuple(orders), len(cols[0][1]))
    return PointConfig(group, tuple(group.element(t, f) for t, f in cols))


def random_battery(seed, count):
    """Small pointed spanning configs: d <= 2, at most three columns of
    height-one or short free parts, torsion (), 2, 3, 4, 2x2 or 6, and about
    half of those with torsion carry one extra unit column (free part 0)."""
    rng = random.Random(seed)
    battery = []
    while len(battery) < count:
        orders = rng.choice([(), (2,), (3,), (4,), (2, 2), (6,)])
        d = rng.randint(1, 2)
        cols = [(tuple(rng.randrange(o) for o in orders),
                 (rng.randint(1, 3),) if d == 1 else (1, rng.randint(0, 3)))
                for _ in range(rng.randint(d, d + 1))]
        if orders and rng.random() < 0.5:
            unit = (rng.randrange(1, orders[0]),) + tuple(rng.randrange(o) for o in orders[1:])
            cols.insert(rng.randrange(len(cols) + 1), (unit, (0,) * d))
        config = make_config(list(orders), cols)
        if is_pointed(config) and check_hypotheses(config).spans:
            battery.append(config)
    return battery


def square_prism(orders):
    """Height-1 points of the unit square and of the corners of [0,4]^2;
    with torsion, the columns alternate between the two classes mod 2."""
    points = [(0, 0), (1, 0), (0, 1), (4, 0), (0, 4), (4, 4)]
    torsion = [((i % 2,) if orders else ()) for i in range(len(points))]
    return make_config(orders, [(t, (1,) + p)
                                for t, p in zip(torsion, points)])


@pytest.fixture
def split_line():
    # Z/2 + Z with the single column (1 mod 2, 1)
    return make_config([2], [((1,), (1,))])


@pytest.fixture
def mod4_line():
    # Z/4 + Z with columns (1 mod 4, 1) and (1 mod 4, 2)
    return make_config([4], [((1,), (1,)), ((1,), (2,))])


@pytest.fixture
def plane_segment():
    # torsion-free: columns (1,0), (1,1), (1,2)
    return make_config([], [((), (1, 0)), ((), (1, 1)), ((), (1, 2))])


@pytest.fixture
def even_pair():
    # torsion-free: columns (1,0), (1,2); K-interior needs both box layers
    return make_config([], [((), (1, 0)), ((), (1, 2))])


@pytest.fixture
def battery(split_line, mod4_line, plane_segment):
    """Configs satisfying all standing hypotheses (even_pair does not span)."""
    return [split_line, mod4_line, plane_segment]
