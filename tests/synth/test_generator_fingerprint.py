"""Pinned outputs: the generated tables and the churn replay, by fingerprint.

``test_same_seed_same_dataset`` compares two runs of the same code, so a
change that alters every run alike passes it.  These constants pin the
lineage fingerprints (:func:`repro.obs.lineage.fingerprint_table`: column
names, order and every cell) of the default seed at scale 0.02, so any
change to a single generated value fails here.  Caches and other pure
speed-ups must leave them alone.

Re-baselining on purpose -- a change that is meant to alter the data, such
as a new RNG draw order or a new model term -- goes like this: print the new
values with::

    PYTHONPATH=src python -c "
    from repro.obs.lineage import fingerprint_table as fp
    from repro.analysis.routing_churn import daily_route_churn
    from repro.synth import DatasetGenerator, GeneratorConfig
    ds = DatasetGenerator(GeneratorConfig(seed=20220224, scale=0.02)).generate()
    print(fp(ds.ndt)['fingerprint'], fp(ds.traces)['fingerprint'],
          fp(daily_route_churn(ds))['fingerprint'])"

paste them below, and regenerate the committed ``results/`` in the same
change, saying so in its description.
"""

import pytest

from repro.analysis.routing_churn import daily_route_churn
from repro.obs.lineage import fingerprint_table
from repro.synth import DatasetGenerator, GeneratorConfig

SEED = 20220224
SCALE = 0.02

#: (fingerprint, rows) per output.
PINNED = {
    "ndt": ("2006b31f92ea008d", 2141),
    "traces": ("3f94ad1c6cde4328", 2141),
    "churn": ("34c028aa8a3c4c8f", 107),
}
PINNED_UNROUTABLE = 36


@pytest.fixture(scope="module")
def dataset():
    return DatasetGenerator(GeneratorConfig(seed=SEED, scale=SCALE)).generate()


@pytest.mark.parametrize("name", ["ndt", "traces"])
def test_generated_table_pinned(dataset, name):
    fp = fingerprint_table(getattr(dataset, name))
    assert (fp["fingerprint"], fp["n_rows"]) == PINNED[name]


def test_unroutable_count_pinned(dataset):
    assert dataset.n_unroutable == PINNED_UNROUTABLE


def test_route_churn_pinned(dataset):
    fp = fingerprint_table(daily_route_churn(dataset))
    assert (fp["fingerprint"], fp["n_rows"]) == PINNED["churn"]
