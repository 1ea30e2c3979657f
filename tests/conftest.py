import multiprocessing
import os

import pytest

from gbmpatch import data


@pytest.fixture
def pools(monkeypatch):
    """The start method of every process pool made during the test."""
    made = []
    real = multiprocessing.get_context

    def spy(method=None):
        made.append(method)
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return made


@pytest.fixture
def pooled(monkeypatch, pools):
    """Two CPUs and no size floor, so every ``generate_synthetic`` forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(data, "_POOL_MIN_PIXELS", 0)
    return pools


@pytest.fixture
def settled(monkeypatch):
    """Count every dataset file as settled, however fresh, so the first
    load of a just-written dataset writes its pixel cache."""
    monkeypatch.setattr(data, "_SETTLE_NS", -10 ** 9)
