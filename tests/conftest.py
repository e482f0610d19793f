import sys

import numpy as np
import pytest

from sigma2lab import forms, profiles, torus


@pytest.fixture(scope="session")
def geom2():
    return torus.make_geometry(2, 16)


@pytest.fixture(scope="session")
def geom3():
    return torus.make_geometry(3, 8)


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
    zero = torus.constant_field(geom2, 0.0)
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
