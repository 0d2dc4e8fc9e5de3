import numpy as np
import pytest

from bcn_ruijsenaars.errors import InvalidInput
from bcn_ruijsenaars.model import check_separation, make_params
from bcn_ruijsenaars.sampling import random_admissible_point

# draws at alpha 0.6, x 1.2, y 0.8 with the default arguments; a change
# here changes every seeded `bcn` run that samples its points
FIXED_DRAWS = [
    (2, 3, [-1.0527579736156012, -1.6574033314255026],
     [-1.8929632932132208, -0.5162392978075951]),
    (2, 11, [-0.0028885502395401552, -1.4857191889232015],
     [-0.6377329893219388, 2.961334297709639]),
    (8, 5, [2.995600531913001, 2.400166097505043, 1.526732858756164,
            0.5290081290541191, -0.18707886590996609, -1.1006668867108784,
            -1.6244776391713356, -2.8483695133435805],
     [-0.9008341852897788, 1.6741915691703337, -2.07235953252931,
      -0.2962087915229592, -2.6950870010081847, -2.0120384909730706,
      2.5098053417757757, 1.6504488748615596]),
]


@pytest.mark.parametrize("n,seed,q,p", FIXED_DRAWS)
def test_fixed_seed_draws(n, seed, q, p):
    params = make_params(0.6, 1.2, 0.8, n)
    pt = random_admissible_point(np.random.default_rng(seed), params)
    assert pt.q.tolist() == q
    assert pt.p.tolist() == p
    assert check_separation(pt, params).ok


def test_margin_factor_below_one_rejected():
    with pytest.raises(InvalidInput):
        random_admissible_point(np.random.default_rng(0), make_params(0.6, 1.2, 0.8, 2),
                                margin_factor=0.9)
