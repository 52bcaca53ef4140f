import pytest

from macc import LiftedInstance, NetworkConfig, make_scheme, verify_privacy_exact


@pytest.fixture(scope="session")
def example1_full_report():
    """The full engine's report on lifted example1 (N=2, 1-bit subfiles, offsets (1, 2)).

    The enumeration covers 2,097,152 states; every test that reads it shares one run.
    """
    cfg = NetworkConfig(3, 2, 2, 3, 3)
    return verify_privacy_exact(LiftedInstance(make_scheme("example1"), cfg, (1, 2)), engine="full")
