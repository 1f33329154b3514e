"""Every size a caller gives goes through ``linalg.check_count``.

A float, a bool or a count under its least value is refused with one
``ValueError`` naming it, before any work; a numpy integer is a count.
"""

import numpy as np
import pytest

from qdoubling import (
    CriticalSpec,
    GeneralPencil,
    Permutation,
    SfqPencil,
    default_tau,
    gen_bse_like,
    gen_critical,
    gen_random_split,
    gen_solved_sfq,
    jordan_power,
)
from qdoubling.linalg import check_count

EYE = np.eye(3)


def sfq_pencil(m, n):
    return SfqPencil(m=m, n=n, E=np.eye(1), F=np.eye(2), X=np.zeros((2, 1)),
                     Y=np.zeros((1, 2)), Q1=Permutation.identity(3),
                     Q2=Permutation.identity(3))


# (what is refused, the size it names and its least value)
REFUSED = {
    "general_pencil_float": (lambda: GeneralPencil(EYE, EYE, 1.5, 1.5), "m", 1),
    "general_pencil_bool": (lambda: GeneralPencil(EYE, EYE, True, 2), "m", 1),
    "general_pencil_zero": (lambda: GeneralPencil(EYE, EYE, 0, 3), "m", 1),
    "sfq_pencil_float": (lambda: sfq_pencil(1.0, 2), "m", 1),
    "sfq_pencil_bool": (lambda: sfq_pencil(1, True), "n", 1),
    "critical_spec_float": (lambda: CriticalSpec(1.5, 1, ((1, 1.0),), .3, .3), "m_prime", 0),
    "critical_spec_negative": (lambda: CriticalSpec(1, -1, ((1, 1.0),), .3, .3), "n_prime", 0),
    "critical_block_bool": (lambda: gen_critical(CriticalSpec(1, 1, ((True, 1.0),), .3, .3), 0),
                            "block size", 1),
    "critical_block_zero": (lambda: CriticalSpec(1, 1, ((0, 1.0),), .3, .3), "block size", 1),
    "default_tau_bool": (lambda: default_tau(True, True), "m", 1),
    "default_tau_zero": (lambda: default_tau(3, 0), "n", 1),
    "random_split_float": (lambda: gen_random_split(2.5, 3, 8.0, 1e-2, 0), "m", 1),
    "random_split_zero": (lambda: gen_random_split(3, 0, 8.0, 1e-2, 0), "n", 1),
    "bse_like_float": (lambda: gen_bse_like(2.5, 2.0, 0), "n", 1),
    "solved_sfq_float": (lambda: gen_solved_sfq(2.5, 3, .5, .5, 0), "m", 1),
    "solved_sfq_zero": (lambda: gen_solved_sfq(3, 0, .5, .5, 0), "n", 1),
    "jordan_power_bool": (lambda: jordan_power(True, 1.0, 1), "p", 1),
    "jordan_power_negative_i": (lambda: jordan_power(2, 1.0, -1), "i", 0),
    "jordan_power_float_i": (lambda: jordan_power(2, 1.0, 1.0), "i", 0),
}


@pytest.mark.parametrize("case", REFUSED.values(), ids=REFUSED.keys())
def test_every_entry_point_refuses_a_bad_size(case):
    build, name, least = case
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least {least}, got "):
        build()


@pytest.mark.parametrize("value", [1.0, 2.5, True, False, "2", None, 0, -3])
def test_check_count_refuses(value):
    with pytest.raises(ValueError) as info:
        check_count(value, "size")
    assert str(info.value) == f"size must be an integer of at least 1, got {value!r}"


@pytest.mark.parametrize("value", [0, 5, np.int64(0), np.intp(7), np.uint8(2)])
def test_check_count_accepts_integers_from_least(value):
    check_count(value, "size", least=0)


def test_numpy_integer_sizes_are_accepted():
    two, three = np.int64(2), np.int64(3)
    assert GeneralPencil(np.eye(5), np.eye(5), two, three).size == 5
    assert sfq_pencil(np.int64(1), two).size == 3
    assert default_tau(two, three) == default_tau(2, 3)
    assert CriticalSpec(np.int64(0), two, ((two, 1.0),), .3, .3).m == 2
    np.testing.assert_array_equal(gen_random_split(two, three, 8.0, 1e-2, 0).pencil.A,
                                  gen_random_split(2, 3, 8.0, 1e-2, 0).pencil.A)
    np.testing.assert_array_equal(gen_bse_like(two, 2.0, 0).pencil.A,
                                  gen_bse_like(2, 2.0, 0).pencil.A)
    np.testing.assert_array_equal(gen_solved_sfq(two, three, .5, .5, 0).pencil.X,
                                  gen_solved_sfq(2, 3, .5, .5, 0).pencil.X)


def test_numpy_integer_jordan_power_does_not_wrap():
    # 2 ** np.int64(64) is 0 in int64
    np.testing.assert_array_equal(jordan_power(np.int64(2), 1.0, np.int64(64)),
                                  jordan_power(2, 1.0, 64))
    np.testing.assert_array_equal(jordan_power(2, 1.0, 64), [[1, 2.0 ** 64], [0, 1]])
