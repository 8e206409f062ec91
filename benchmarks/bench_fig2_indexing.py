"""Figure 2 — the four mesh indexing schemes.

Locality metrics per scheme, plus the hop cost of the full bitonic sorting
network under each — why shuffled-row-major buys the ``Theta(sqrt n)``
Thompson–Kung sort while proximity order's strengths are string adjacency
and recursive decomposability.  Generation in :mod:`repro.report.figures`.
"""

import pytest

from repro.machines.indexing import SCHEMES

from _util import rendered


def test_fig2_report(benchmark):
    tables = benchmark.pedantic(rendered, args=("figures",),
                                rounds=1, iterations=1)
    by = {r[0]: r for r in tables[2][2]}      # Figure 2
    # The two properties the paper states for proximity order.
    assert by["proximity"][1] == "1.000" and by["proximity"][3] == "yes"
    # Snake is adjacent but not decomposable; row-major is neither.
    assert by["snake-like"][2] == 1 and by["snake-like"][3] == "no"
    assert by["row-major"][3] == "no"
    # Bitonic-partner locality is shuffled-row-major's specialty — the
    # reason the Thompson–Kung sort uses it.
    assert by["shuffled-row-major"][4] < by["row-major"][4]
    assert by["shuffled-row-major"][4] < by["snake-like"][4]
    assert by["shuffled-row-major"][4] < by["proximity"][4]

    fits = {r[0]: float(r[2].split("^")[1].split(" ")[0])
            for r in tables[3][2]}              # bitonic hop scaling
    assert fits["shuffled-row-major"] < 0.7   # ~sqrt(n)
    assert fits["row-major"] > fits["shuffled-row-major"]


@pytest.mark.parametrize("name", list(SCHEMES))
def test_fig2_scheme_construction(benchmark, name):
    benchmark(lambda: SCHEMES[name](4096).all_coords())
