import random

import pytest

from rainbowconn.rng import mt_continuation, stream


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63 + 5])
@pytest.mark.parametrize("before", [0, 1, 623, 700])
def test_mt_continuation_gives_the_next_draws(seed, before):
    # 623 and 700 prior draws leave the twister mid-block (pos != 624)
    r = random.Random(seed)
    for _ in range(before):
        r.random()
    bulk = mt_continuation(r)
    drawn = bulk.random(5).tolist() + bulk.random(1000).tolist()
    assert drawn == [r.random() for _ in range(1005)]


def test_mt_continuation_leaves_the_stream_alone():
    r = stream(3, "gnp")
    mt_continuation(r).random(10)
    assert r.random() == stream(3, "gnp").random()
