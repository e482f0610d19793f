import sys
import tracemalloc

import numpy as np
import pytest

from sigma2lab import forms, profiles, torus


@pytest.fixture(scope="session")
def geom2():
    return torus.TorusGeometry(2, 16)


@pytest.fixture(scope="session")
def geom3():
    return torus.TorusGeometry(3, 8)


@pytest.fixture()
def rng():
    return np.random.default_rng(20_240_817)


@pytest.fixture(scope="session")
def problem2(geom2):
    """Generic n=2 problem with nonzero data, mid-continuation."""
    f = profiles.f_profile(geom2, 0.3)
    mu = profiles.mu_profile(geom2, 0.5)
    return forms.ProblemData(geom2, alpha=0.8, f=f, mu=mu, A=0.15, t=0.7)


@pytest.fixture(scope="session")
def problem3(geom3):
    f = profiles.f_profile(geom3, 0.3)
    mu = profiles.mu_profile(geom3, 0.5)
    return forms.ProblemData(geom3, alpha=0.6, f=f, mu=mu, A=0.2, t=0.9)


@pytest.fixture(scope="session")
def trivial2(geom2):
    """t = 0 problem whose exact solution is the constant -log A."""
    zero = np.zeros(geom2.shape)
    return forms.ProblemData(geom2, alpha=1.0, f=zero, mu=zero, A=0.05, t=0.0)


@pytest.fixture()
def patch_everywhere(monkeypatch):
    """patch(real, fake) replaces `real` under every name a sigma2lab module
    binds it to, so calls through `from ... import` see the fake too."""
    def patch(real, fake):
        for name, mod in list(sys.modules.items()):
            if name.startswith("sigma2lab"):
                for attr, val in list(vars(mod).items()):
                    if val is real:
                        monkeypatch.setattr(mod, attr, fake)
    return patch


@pytest.fixture()
def traced_peak():
    """traced_peak(fn, *args): the tracemalloc peak of fn(*args) above the
    memory in use on entry, in bytes."""
    def peak(fn, *args):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
    return peak
