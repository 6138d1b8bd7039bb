"""Shared fixtures."""

import pytest

import radns.spectral


@pytest.fixture
def transform_counter(monkeypatch):
    """Count the 1-D transforms issued through radns.spectral's dst and dct.

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
    monkeypatch.setattr(radns.spectral, "dct", counting(radns.spectral.dct))
    return count
