import pytest
from hypothesis import HealthCheck, settings

from spatialqkd.alphabet import build_hex_alphabet
from spatialqkd.model import GaussianModel
from spatialqkd.optics import Geometry

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def geometry():
    return Geometry()


@pytest.fixture(scope="session")
def alphabet37():
    return build_hex_alphabet(3, 200e-6)


@pytest.fixture(scope="session")
def model37(alphabet37, geometry):
    model = GaussianModel(alphabet=alphabet37, geometry=geometry)
    model.probability_table()
    return model


@pytest.fixture(scope="session")
def probs37(model37):
    return model37.source()
