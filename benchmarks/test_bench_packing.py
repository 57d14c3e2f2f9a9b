"""E4 — cache-packing algorithm cost (the paper's Θ(n log n) claim).

This is the one genuinely wall-clock benchmark: pytest-benchmark times
the packing algorithm itself.  The scaling test decides sub-quadratic
against quadratic twice, each time on a comparison whose two outcomes
lie far apart: the work ``pack`` does per object, counted, and the wall
time over an eightfold span of n.
"""

import pytest

from repro.bench.figures import packing_complexity
from repro.bench.report import save_report
from repro.core import packing
from repro.core.object_table import CtObject
from repro.core.packing import CacheBudget, make_budgets, pack

#: 16 budgets of 1 MiB hold 4,680 of the objects below, so both sizes
#: leave most objects unplaced: every later object probes every budget.
SMALL, LARGE = 8000, 64000
N_BUDGETS = 16


def _objects(n):
    objs = []
    for index in range(n):
        obj = CtObject(f"o{index}", index * 4096,
                       2048 + (index % 7) * 512)
        obj.heat = float((index * 2654435761) % 1000)
        objs.append(obj)
    return objs


def _counted_pack(n):
    """Pack ``n`` objects, counting budget probes plus sort-key calls;
    returns (calls, objects left unplaced)."""
    calls = 0
    fits, key = CacheBudget.fits, packing._key_heat_desc

    def counted_fits(budget, size):
        nonlocal calls
        calls += 1
        return fits(budget, size)

    def counted_key(obj):
        nonlocal calls
        calls += 1
        return key(obj)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CacheBudget, "fits", counted_fits)
        patch.setattr(packing, "_key_heat_desc", counted_key)
        result = pack(_objects(n), make_budgets(1 << 20, N_BUDGETS))
    return calls, len(result.unplaced)


def test_pack_wall_clock(benchmark):
    objs = _objects(4000)

    def run():
        return pack(objs, make_budgets(1 << 20, N_BUDGETS))

    result = benchmark(run)
    assert len(result.placed) + len(result.unplaced) == 4000


def test_packing_scaling(benchmark, once, capsys):
    # Counted work: one sort key plus at most one cluster-home probe and
    # N_BUDGETS first-fit probes per object, whatever n is (measured:
    # 12.6 at 8k, 16.5 at 64k).  A step that re-sorts or rescans the
    # objects per placement costs thousands per object.
    for n in (SMALL, LARGE):
        calls, unplaced = _counted_pack(n)
        assert unplaced > 0, f"n={n} does not saturate the budgets"
        assert calls <= n * (N_BUDGETS + 2), (
            f"pack does {calls / n:.1f} probes and key calls per object "
            f"at n={n}")

    result = once(benchmark, packing_complexity, ns=(SMALL, LARGE),
                  repeats=3)
    save_report(result.name, result.report)
    with capsys.disabled():
        print()
        print(result.report)
    # Wall time over 8x the objects: n log n predicts 9.9x (9.0-16.1x
    # measured in 40 runs), a quadratic algorithm 64x; the bound is half
    # of that.
    small, large = result.details["seconds"]
    assert large < small * 32.0, (
        f"packing scaling looks super-linearithmic: {small:.4f} s at "
        f"n={SMALL}, {large:.4f} s at n={LARGE}")
