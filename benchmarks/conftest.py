"""Make the benchmarks directory importable (for the _util helpers)."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Under ``-v``, close the run with the registry table and per-phase
    wall-clock that ``python -m repro.report -v`` prints."""
    # Note: pyproject's ``addopts = "-q"`` offsets pytest's verbosity
    # counter, so detect the flag itself.
    if any(a in ("-v", "-vv", "--verbose") for a in sys.argv):
        from repro.machines.metrics import global_wall_phases
        from repro.report.__main__ import _diagnostics
        from repro.trace.registry import REGISTRY

        terminalreporter.ensure_newline()
        _diagnostics(REGISTRY.counter_values(), global_wall_phases())
