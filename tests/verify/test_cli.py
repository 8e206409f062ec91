"""The ``repro.verify`` CLI edge: executor selection."""

import re

import pytest

from repro.ops import EXECUTORS, get_executor, set_executor
from repro.verify.__main__ import main

pytestmark = pytest.mark.verify

MESSAGE = "choose one of ('reference', 'vectorized')"


def test_two_executors():
    assert EXECUTORS == ("reference", "vectorized")


def test_set_executor_rejects_compiled():
    with pytest.raises(ValueError, match=re.escape(MESSAGE)):
        set_executor("compiled")
    assert get_executor() == "vectorized"


def test_flag_rejects_compiled(capsys):
    assert main(["--executor", "compiled"]) == 2
    assert MESSAGE in capsys.readouterr().err
    assert get_executor() == "vectorized"


def test_env_rejects_compiled(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "compiled")
    assert main([]) == 2
    assert MESSAGE in capsys.readouterr().err
    assert get_executor() == "vectorized"
