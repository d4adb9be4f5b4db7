import numpy as np
import pytest

from finop import GridSpec
from finop.sampling import random_operator, random_step_function, random_vector


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def rand_op(rng, N, M, p, num_terms=3):
    return random_operator(rng, GridSpec(N, M, p), num_terms)


def rand_step(rng, N, M, p):
    return random_step_function(rng, GridSpec(N, M, p))


def rand_vec(rng, N, M, p):
    return random_vector(rng, GridSpec(N, M, p))


def perm_matrix(P):
    """Dense K x K 0/1 oracle of a CellPermutation: (Pm u)[forward[k]] = u[k]."""
    Pm = np.zeros((P.size, P.size))
    Pm[P.forward, np.arange(P.size)] = 1.0
    return Pm
