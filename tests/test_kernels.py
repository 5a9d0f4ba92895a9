"""The kernel module exposes one implementation and names it."""

from polyscat import _kernels


def test_active_impl_reported():
    assert _kernels.IMPL == "numpy"
