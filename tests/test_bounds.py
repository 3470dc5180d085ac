import pytest

from maxplus import dm_bound, wielandt_bound


@pytest.mark.parametrize("n,expected", [(1, 0), (2, 2), (3, 5), (5, 17), (8, 50)])
def test_wielandt_values(n, expected):
    assert wielandt_bound(n) == expected


@pytest.mark.parametrize("g,n,expected", [(2, 2, 2), (3, 12, 42), (2, 5, 11), (3, 5, 14)])
def test_dm_values(g, n, expected):
    assert dm_bound(g, n) == expected


def test_dm_equals_wielandt_at_g_n_minus_one():
    for n in range(2, 13):
        assert dm_bound(n - 1, n) == wielandt_bound(n)


def test_domain_errors():
    with pytest.raises(ValueError):
        wielandt_bound(0)
    with pytest.raises(ValueError):
        dm_bound(0, 3)
    with pytest.raises(ValueError):
        dm_bound(4, 3)


def test_dm_monotone_in_g():
    for n in range(2, 13):
        values = [dm_bound(g, n) for g in range(1, n + 1)]
        assert values == sorted(values)
        if n > 2:
            assert len(set(values)) == len(values)


def test_exhaustive_table_against_formula():
    for n in range(1, 13):
        for g in range(1, n + 1):
            assert dm_bound(g, n) == g * (n - 2) + n
            assert wielandt_bound(n) == (0 if n == 1 else (n - 1) ** 2 + 1)
