import pytest

from abext.errors import BudgetExceeded
from abext.abgroup import FinGenAb
from abext.homext import ExtClass, realize
from abext.oracle import (
    ConcreteGroup,
    enumerate_homs,
    ext_count_by_cocycles,
    ext_representatives_by_cocycles,
    ses_equivalent_bruteforce,
)
from test_homext import split_sequence

Z2 = FinGenAb(0, (2,))
Z3 = FinGenAb(0, (3,))
Z4 = FinGenAb(0, (4,))
Z6 = FinGenAb(0, (6,))

cZ2 = ConcreteGroup.from_group(Z2)
cZ3 = ConcreteGroup.from_group(Z3)
cZ4 = ConcreteGroup.from_group(Z4)
cZ6 = ConcreteGroup.from_group(Z6)


def test_concrete_group_basics():
    assert cZ6.order == 6
    assert len(cZ6.elements()) == 6
    assert cZ4.element_order((2,)) == 2
    assert cZ4.element_order((1,)) == 4
    assert cZ4.add((3,), (2,)) == (1,)


def test_enumerate_homs_examples():
    assert len(enumerate_homs(cZ4, cZ6)) == 2
    # generator of Z4 must land in the 2-torsion {0, 3} of Z6
    images = sorted(h.gen_images[0] for h in enumerate_homs(cZ4, cZ6))
    assert images == [(0,), (3,)]
    assert len(enumerate_homs(cZ2, cZ3)) == 1
    assert len(enumerate_homs(ConcreteGroup((5,)), ConcreteGroup((5,)))) == 5


def test_homs_are_homomorphisms():
    for h in enumerate_homs(cZ4, cZ6):
        for x in cZ4.elements():
            for y in cZ4.elements():
                assert h(cZ4.add(x, y)) == cZ6.add(h(x), h(y))


def test_ext_by_cocycles_examples():
    assert ext_count_by_cocycles(cZ2, cZ2) == 2
    assert ext_count_by_cocycles(cZ2, cZ3) == 1
    assert ext_count_by_cocycles(cZ4, cZ2) == 2


def test_ext_representatives_tiny():
    reps = ext_representatives_by_cocycles(cZ2, cZ2)
    assert len(reps) == 2
    reps = ext_representatives_by_cocycles(cZ2, cZ3)
    assert len(reps) == 1


def test_representatives_budget():
    big = ConcreteGroup((12,))
    with pytest.raises(BudgetExceeded):
        ext_representatives_by_cocycles(big, ConcreteGroup((12,)))


def test_ses_equivalent_bruteforce_examples():
    s = realize(ExtClass(Z2, Z2, (1,)))
    sp = split_sequence(Z2, Z2)
    assert ses_equivalent_bruteforce(s, s)
    assert not ses_equivalent_bruteforce(s, sp)  # middles Z4 vs Z2^2
    s2 = realize(ExtClass(Z2, Z2, (1,)))
    assert ses_equivalent_bruteforce(s, s2)
