"""Every experiment of ``repro.bench`` keeps the paper's qualitative shape.

One test per entry of the registry: run it through the CLI (sweep, table,
shape verdict) at the profile ``REPRO_BENCH_PROFILE`` selects and require
exit status 0.  A failure means a qualitative result was lost, not an
absolute number; the printed table and the verdict line are in the
captured output.  CI runs this file at the smoke profile (job ``shapes``).
"""

import pytest

from repro.bench.__main__ import main
from repro.bench.experiments import EXPERIMENTS, bench_profile

#: Shapes that do not appear at the smoke profile's 8 warehouses, with the
#: series measured there.  Strict: the day the model moves one of them
#: (ROADMAP 4c / 7b) the job turns red until its line is deleted.
LOST_AT_SMOKE = {
    "table3": "1 / 2 / 4 commit managers: 333k / 229k / 105k TpmC, aborts "
              "38% / 56% / 64% -- the paper is flat; at 8 warehouses "
              "snapshot staleness is amplified by contention",
    "fig11": "SB 355k TpmC > TB 333k at 4 PNs -- the paper has TB on top",
    "fig9": "shardable RF1 peak: VoltDB-like 173k TpmC < Tell 290k -- the "
            "paper has VoltDB ahead on its home turf",
}


def _experiments():
    smoke = bench_profile().name == "smoke"
    for name in EXPERIMENTS:
        marks = [pytest.mark.xfail(smoke, reason=LOST_AT_SMOKE[name],
                                   strict=True)
                 ] if name in LOST_AT_SMOKE else []
        yield pytest.param(name, marks=marks)


@pytest.mark.parametrize("name", _experiments())
def test_shape(name):
    assert main([name]) == 0
