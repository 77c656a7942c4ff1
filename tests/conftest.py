import contextlib
import pathlib
import signal
import sys

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
    so no later test reads a series object made here."""
    from fractions import Fraction

    from hirzebruch import bundles
    monkeypatch.setattr(bundles, "_EXPANSIONS", {})
    monkeypatch.setattr(bundles, "_TODD", [Fraction(1)])
    bundles.genus_series.cache_clear()
    yield bundles._EXPANSIONS
    bundles.genus_series.cache_clear()
