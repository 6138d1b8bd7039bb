"""Shared fixtures."""

import pytest

import radns.cli
import radns.spectral


@pytest.fixture(scope="session", autouse=True)
def stable_heap():
    """The CLI's heap policy for the whole session, so that runs made in
    process (the reference fixtures) allocate as a CLI run does."""
    radns.cli._stable_heap()


@pytest.fixture
def transform_counter(monkeypatch):
    """Count the 1-D transforms issued through radns.spectral's dst and rfft
    (the last makes one sine/cosine pair per row; dst calls numpy's rfft
    directly, so a sine-only sum counts once).

    A call on an array of shape (..., n) along the last axis makes
    size / n one-dimensional transforms.  Returns a one-entry list holding
    the running count.
    """
    count = [0]

    def counting(fn):
        def wrapper(x, *args, **kwargs):
            axis = kwargs.get("axis", -1)
            count[0] += x.size // x.shape[axis] if x.ndim else 1
            return fn(x, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(radns.spectral, "dst", counting(radns.spectral.dst))
    monkeypatch.setattr(radns.spectral, "rfft", counting(radns.spectral.rfft))
    return count
