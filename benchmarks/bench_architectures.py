"""Section 1 closing remark — CCC and shuffle-exchange implementations.

The paper conjectures its algorithms transfer to cube-connected cycles and
shuffle-exchange networks.  Everything in :mod:`repro.ops` is a normal
algorithm, so both networks emulate the hypercube with constant slowdown;
this bench measures envelope construction on all four distributed networks
and asserts the log-class trio stays within constant factors while the
mesh remains the sqrt-class outlier.  Generation in
:mod:`repro.report.architectures`.
"""

from _util import rendered


def test_architectures_report(benchmark):
    rows = benchmark.pedantic(rendered, args=("architectures",),
                              rounds=1, iterations=1)[0][2]
    by = {r[0]: r for r in rows}
    # The log-class machines agree in shape...
    for name in ("hypercube", "cube-connected cycles", "shuffle-exchange"):
        p = float(by[name][2].split("^")[1])
        assert p < 1.8, f"{name}: log exponent {p}"
    # ...and the emulations stay within their constant factors of the cube.
    ccc = float(by["cube-connected cycles"][3].split("x")[0])
    se = float(by["shuffle-exchange"][3].split("x")[0])
    assert 1.0 < ccc < 3.5
    assert 1.0 < se < 2.5
    assert se < ccc  # factor 2 vs factor 3 emulation
    # The mesh at the largest size costs more than any log-class network...
    # for large enough n; at n=4096 it already exceeds the bare hypercube.
    assert float(by["mesh"][1]) > float(by["hypercube"][1])
