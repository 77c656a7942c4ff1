import contextlib
import pathlib
import signal
import sys
import weakref

import pytest

# allow running the tests from a fresh checkout without installing
_src = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_src) not in sys.path:
    sys.path.insert(0, str(_src))


class Overrun(Exception):
    """Raised inside a test body that runs past its time limit."""


@pytest.fixture
def time_limit():
    """``with time_limit(seconds): ...`` fails the test instead of hanging."""
    @contextlib.contextmanager
    def limit(seconds):
        def overrun(signum, frame):
            raise Overrun(f"still running after {seconds} s")
        old = signal.signal(signal.SIGALRM, overrun)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
    return limit


@pytest.fixture
def fresh_series(monkeypatch):
    """The built-in genus series expanded from nothing within the test: empty
    expansions and an empty ``genus_series`` cache, emptied again afterwards,
    so no later test reads a series object made here.  The table of live
    models is empty too, as for ``poisoned_todd``: a model computes its kept
    classes from the series made here, and none outlives the test."""
    from fractions import Fraction

    from hirzebruch import bundles, spaces
    monkeypatch.setattr(spaces, "_live", weakref.WeakValueDictionary())
    monkeypatch.setattr(bundles, "_EXPANSIONS", {})
    monkeypatch.setattr(bundles, "_TODD", [Fraction(1)])
    bundles.genus_series.cache_clear()
    yield bundles._EXPANSIONS
    bundles.genus_series.cache_clear()


@pytest.fixture
def poisoned_todd(monkeypatch):
    """``poisoned_todd(orders=None)`` patches ``bundles.genus_series`` so that
    the Todd series, at every order or only at ``orders``, has its x
    coefficient raised by 1, one series object per (kind, order), and returns
    the dict of the series it hands out.  A kept class is computed once, so a
    patch reaches only models built after it: the table of live models is
    swapped for an empty one too, and no poisoned class outlives the test."""
    from hirzebruch import bundles, spaces
    from hirzebruch.rings import LaurentY

    def poison(orders=None):
        real, made = bundles.genus_series, {}

        def poisoned(kind, order):
            if (kind, order) not in made:
                series = real(kind, order)
                if kind == "todd" and (orders is None or order in orders):
                    coeffs = list(series.coeffs)
                    coeffs[1] = coeffs[1] + LaurentY({0: 1})
                    series = bundles.ChernRootSeries(kind, coeffs, order)
                made[kind, order] = series
            return made[kind, order]

        monkeypatch.setattr(bundles, "genus_series", poisoned)
        monkeypatch.setattr(spaces, "_live", weakref.WeakValueDictionary())
        return made
    return poison
