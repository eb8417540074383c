"""Fixtures shared by the test modules."""

import functools

import pytest

from kgbound import verify


_run_verify = verify.run_verify


@functools.cache
def _verify_rows(model: str, mode: str) -> tuple:
    return tuple(_run_verify(model, mode))


@pytest.fixture
def verify_once(monkeypatch):
    """`verify.run_verify` with its rows computed once per (model, mode) per
    test session, so the tests that print the standard `verify` reports (CSV
    and JSON, through `cli.main`) share three runs of the checks."""
    monkeypatch.setattr(verify, "run_verify",
                        lambda model, mode="corrected": list(_verify_rows(model, mode)))
