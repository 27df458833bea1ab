import random

import numpy as np
import pytest

from rainbowconn.rng import derive_seed, mt_continuation, stream
from rainbowconn.verify import sample_pairs


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


@pytest.mark.parametrize("seed", [random.Random(0), True, 1.0, "1", np.int64(1), None],
                         ids=["Random", "bool", "float", "str", "int64", "None"])
def test_derive_seed_refuses_a_seed_that_is_not_an_int(seed):
    # a random.Random's text holds its address, so as a key it named a
    # different stream in every process; every stream and sampled pair
    # draw passes its seed through here
    with pytest.raises(TypeError, match="seed must be an int"):
        derive_seed(seed, "pairs")
    with pytest.raises(TypeError, match="seed must be an int"):
        sample_pairs(100, 5, seed)

