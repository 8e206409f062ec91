"""Tests for the repro.report harness and its CLI."""

import re

import pytest

from repro.report import EXPERIMENTS, run, run_all
from repro.report import ablations, figures, section6, table1
from repro.report.__main__ import main as cli_main


class TestRegistry:
    def test_expected_experiments_present(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4",
            "figures", "section6", "ablations", "architectures",
            "validation",
        }

    def test_every_module_has_title_and_tables(self):
        for mod in EXPERIMENTS.values():
            assert isinstance(mod.TITLE, str) and mod.TITLE
            assert callable(mod.tables)

    def test_run_rejects_unknown(self):
        with pytest.raises(KeyError):
            run("table99", out=lambda s: None)


class TestGenerators:
    """Structure checks on the cheap generators (full sweeps are the
    benchmarks' job)."""

    def test_topology_rows_structure(self):
        rows = figures.topology_rows(sizes=[16, 64])
        assert len(rows) == 2
        assert rows[0][1] == rows[0][2]  # diameter formula

    def test_locality_rows_small(self):
        rows = figures.locality_rows(n=16)
        assert {r[0] for r in rows} == {
            "row-major", "shuffled-row-major", "snake-like", "proximity"
        }

    def test_tangent_lines_attain_bound(self):
        from repro import PolynomialFamily, envelope_serial
        env = envelope_serial(figures.tangent_lines(8), PolynomialFamily(1))
        assert len(env) == 8

    def test_partial_family_has_gaps(self):
        fns = figures.partial_family(4, 2, seed=0)
        assert len(fns) == 4
        assert any(len(f.transition_times()) > 0 for f in fns)

    def test_table1_run_op_unknown(self):
        from repro.machines import mesh_machine
        import numpy as np
        with pytest.raises(ValueError):
            table1.run_op(mesh_machine(4), "teleport", 4,
                          np.random.default_rng(0))

    def test_ablation_small_sweeps(self):
        rows = ablations.sort_cost_by_scheme(sizes=[16, 64])
        assert len(rows) == 4
        rec = ablations.recursion_rows(sizes=[4, 8])
        assert rec[-1][0] == "fit"
        # Insertion never beats recursion.
        for row in rec[:-1]:
            assert float(row[2]) >= float(row[1])

    def test_section6_curves_deterministic(self):
        a = section6.curves(8, seed=1)
        b = section6.curves(8, seed=1)
        assert all(x == y for x, y in zip(a, b))


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "ablations" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_single_experiment_prints_table(self, capsys):
        # ablations with the default sizes takes ~10 s; use figures' cheap
        # sub-generator through run() on the smallest registered module.
        # The CLI contract itself is what we check here.
        assert cli_main(["ablations"]) == 0
        out = capsys.readouterr().out
        assert "Ablation" in out and "===" in out

    def test_verbose_with_jobs_reports_worker_counters(self, capsys):
        # The experiments run in two worker processes; the parent's own
        # registry stays idle, so the table must come from the workers.
        # Earlier tests may have warmed the experiment's curve family,
        # which forked workers would inherit: start it cold.
        ablations.FAMILY.cache_clear()
        assert cli_main(["-v", "-j", "2", "ablations", "validation"]) == 0
        out = capsys.readouterr().out
        (line,) = [ln for ln in out.splitlines()
                   if ln.strip().startswith("crossing_cache ")]
        assert int(re.search(r"misses=(\d+)", line).group(1)) > 0
        assert re.search(r"^wall-clock by phase: .*cross=", out, re.M)

    def test_verbose_sums_the_envelope_kernel_counters_over_jobs(self, capsys):
        # Envelope trees count their columnar forest levels and the
        # combines walked one by one below MIN_RECORDS; --jobs sums what
        # each worker counted.
        def counts(argv):
            assert cli_main(argv) == 0
            out = capsys.readouterr().out
            (line,) = [ln for ln in out.splitlines()
                       if ln.strip().startswith("envelope ")]
            return {k: int(v) for k, v in re.findall(
                r"(levels_columnar|combines_walked)=(\d+)", line)}

        one = counts(["-v", "figures"])
        assert one["levels_columnar"] > 0 and one["combines_walked"] > 0
        two = counts(["-v", "-j", "2", "figures", "figures"])
        assert two == {k: 2 * v for k, v in one.items()}
