"""The committed ``results/`` CSVs are what the report computes at HEAD.

The benchmarks under ``benchmarks/`` write the report's tables to
``results/`` at the committed configuration (seed 20220224, scale 0.25);
``make results`` regenerates them.  This gate runs the pipeline once at
that configuration and requires every table the report returns, written
with :func:`~repro.tables.io.write_csv`, to equal its committed
``results/<stem>.csv`` byte for byte, so a change that moves a published
table fails here until ``results/`` is re-baselined in the same change.
"""

from pathlib import Path

from repro.runtime.run import EXIT_OK, run_pipeline
from repro.synth.generator import GeneratorConfig
from repro.tables.io import write_csv

RESULTS = Path(__file__).resolve().parents[2] / "results"

#: The configuration the committed results/ files were written at.
COMMITTED = GeneratorConfig(seed=20220224, scale=0.25)

#: Paper tables and figures (Tables 1-6, Figures 2-9) plus the route-churn
#: and event-study extensions: the CSVs the report and results/ share.
N_SHARED_CSVS = 21


def test_committed_csvs_match_the_report(tmp_path):
    run = run_pipeline(COMMITTED, checkpoint_dir=None)
    assert run.exit_code == EXIT_OK, run.render()
    assert len(run.tables) == N_SHARED_CSVS, sorted(run.tables)
    stale = []
    for stem, table in run.tables.items():
        written = tmp_path / f"{stem}.csv"
        write_csv(table, str(written))
        if written.read_bytes() != (RESULTS / f"{stem}.csv").read_bytes():
            stale.append(stem)
    assert not stale, (
        f"results/ differs from the report at HEAD for {stale}; "
        "re-baseline with `make results`"
    )
