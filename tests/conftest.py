"""Shared session fixtures: the three fully built example geometries."""

import pytest

from grafclifford.bilinear import admissible_pairings, standard_pairing
from grafclifford.exterior import Signature
from grafclifford.matrixrep import build_rep

SIG12 = Signature(1, 2)
SIG90 = Signature(9, 0)
SIG04 = Signature(0, 4)


@pytest.fixture(scope="session")
def rep12():
    return build_rep(SIG12)


@pytest.fixture(scope="session")
def pr12(rep12):
    return standard_pairing(rep12)


@pytest.fixture(scope="session")
def pairings12(rep12):
    return admissible_pairings(rep12)


@pytest.fixture(scope="session")
def rep90():
    return build_rep(SIG90)


@pytest.fixture(scope="session")
def pr90(rep90):
    return standard_pairing(rep90)


@pytest.fixture(scope="session")
def rep04():
    return build_rep(SIG04)


@pytest.fixture(scope="session")
def pr04(rep04):
    return standard_pairing(rep04)
