import math

import pytest

from bergpoly import IntMatrix, prepare

import families

HARTOGS = ((1, -1), (0, 1))
WORKED = ((2, -1), (0, 1))


@pytest.fixture(scope="session")
def hartogs_vm():
    return prepare(IntMatrix(HARTOGS))


@pytest.fixture(scope="session")
def worked_vm():
    return prepare(IntMatrix(WORKED))


@pytest.fixture(scope="session")
def family_2x2():
    return families.valid_2x2_family()


@pytest.fixture(scope="session")
def family_3x3():
    return families.valid_3x3_family()


@pytest.fixture(scope="session")
def sweep_family(family_2x2, family_3x3):
    return family_2x2 + families.subsample(family_3x3, 400)


def sample_interior_point(vm, form, rng, min_den=1e-9, tries=60):
    """Random interior point of the domain, bounded away from the
    denominator zero sets: moduli are pushed through the covering map
    (|z| = |w|^adjB row-wise) from a band, with rejection until every
    squared-denominator binomial stays above min_den at t = |z|^2."""
    n = vm.n
    adj_rows = [list(r) for r in vm.adj.rows]
    for band in ((0.5, 0.7), (0.6, 0.8), (0.65, 0.85)):
        for _ in range(tries):
            w = [rng.uniform(*band) for _ in range(n)]
            z_mod = [
                math.prod(w[i] ** adj_rows[j][i] for i in range(n)) for j in range(n)
            ]
            t = [m * m for m in z_mod]
            if all(abs(f.evaluate(t)) >= min_den for f in form.factors):
                ph = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
                return [
                    m * complex(math.cos(a), math.sin(a)) for m, a in zip(z_mod, ph)
                ]
    return None
