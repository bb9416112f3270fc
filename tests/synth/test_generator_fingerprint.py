"""Pinned outputs: the generated tables and the route churn, by fingerprint.

``test_same_seed_same_dataset`` compares two runs of the same code, so a
change that alters every run alike passes it.  These constants pin the
lineage fingerprints (:func:`repro.obs.lineage.fingerprint_table`: column
names, order and every cell) of the default seed at scale 0.02, so any
change to a single generated value fails here.  ``BRANCHES`` pins the same
outputs for another seed and for each ablation switch, which take code
paths the default run does not (no war, no rerouting, uniform damage, no
2021 baseline).  Caches and other pure speed-ups must leave them alone.
The churn is the day-over-day diff of ``Dataset.route_log()``, the routes
the generator's own router had in effect, so it is pinned with the tables;
``test_route_log_agrees_with_traces`` checks that log against every 2022
traceroute of the same run.

Re-baselining on purpose -- a change that is meant to alter the data, such
as a new RNG draw order or a new model term -- goes like this: print the new
values with::

    PYTHONPATH=src python -c "
    from repro.obs.lineage import fingerprint_table as fp
    from repro.analysis.routing_churn import daily_route_churn
    from repro.synth import DatasetGenerator, GeneratorConfig
    ds = DatasetGenerator(GeneratorConfig(seed=20220224, scale=0.02)).generate()
    print(fp(ds.ndt)['fingerprint'], fp(ds.traces)['fingerprint'],
          fp(daily_route_churn(ds))['fingerprint'], ds.n_unroutable)"

paste them below (``BRANCHES`` the same way, with each configuration's
overrides), and regenerate the committed ``results/`` in the same
change, saying so in its description.
"""

import pytest

from repro.analysis.routing_churn import daily_route_churn
from repro.obs.lineage import fingerprint_table
from repro.synth import DatasetGenerator, GeneratorConfig
from repro.tables.schema import Cols

SEED = 20220224
SCALE = 0.02

#: (fingerprint, rows) per output.
PINNED = {
    "ndt": ("2006b31f92ea008d", 2141),
    "traces": ("3f94ad1c6cde4328", 2141),
    "churn": ("34c028aa8a3c4c8f", 107),
}
PINNED_UNROUTABLE = 36

#: Per branch: the config overrides, (fingerprint, rows) per output, and
#: the unroutable count.
BRANCHES = {
    "seed_1": (
        {"seed": 1},
        {
            "ndt": ("070f2a4e3131c094", 2130),
            "traces": ("38d9ea826a03a88a", 2130),
            "churn": ("d382d5c886fbe4e6", 107),
        },
        26,
    ),
    "no_war": (
        {"war_enabled": False},
        {
            "ndt": ("31b652433dbf20e9", 2153),
            "traces": ("ad7241dba20e96b1", 2153),
            "churn": ("af0a61f08c569623", 107),
        },
        0,
    ),
    "no_rerouting": (
        {"rerouting_enabled": False},
        {
            "ndt": ("bc9cf9e36d5ad9ec", 2177),
            "traces": ("5587702e9ae0444b", 2177),
            "churn": ("af0a61f08c569623", 107),
        },
        0,
    ),
    "uniform_damage": (
        {"regional_damage": False},
        {
            "ndt": ("e740f80f6bbceef5", 2153),
            "traces": ("90d9ca53273ac643", 2153),
            "churn": ("245b1fc6e0d3582c", 107),
        },
        24,
    ),
    "no_2021": (
        {"include_2021": False},
        {
            "ndt": ("0cc6d7bb88e7e21e", 1360),
            "traces": ("f49e4603d7235e8d", 1360),
            "churn": ("34c028aa8a3c4c8f", 107),
        },
        36,
    ),
}


#: Every pinned configuration's overrides, the default run's included.
CONFIGS = {"default": {}, **{name: spec[0] for name, spec in BRANCHES.items()}}


@pytest.fixture(scope="module")
def generated():
    """Each configuration's dataset, generated once for this module."""
    datasets = {}

    def get(name):
        if name not in datasets:
            config = GeneratorConfig(**{"seed": SEED, "scale": SCALE, **CONFIGS[name]})
            datasets[name] = DatasetGenerator(config).generate()
        return datasets[name]

    return get


@pytest.fixture(scope="module")
def dataset(generated):
    return generated("default")


@pytest.mark.parametrize("name", ["ndt", "traces"])
def test_generated_table_pinned(dataset, name):
    fp = fingerprint_table(getattr(dataset, name))
    assert (fp["fingerprint"], fp["n_rows"]) == PINNED[name]


def test_unroutable_count_pinned(dataset):
    assert dataset.n_unroutable == PINNED_UNROUTABLE


def test_route_churn_pinned(dataset):
    fp = fingerprint_table(daily_route_churn(dataset))
    assert (fp["fingerprint"], fp["n_rows"]) == PINNED["churn"]


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_branch_pinned(generated, branch):
    _overrides, pinned, unroutable = BRANCHES[branch]
    ds = generated(branch)
    outputs = {"ndt": ds.ndt, "traces": ds.traces, "churn": daily_route_churn(ds)}
    got = {}
    for name, table in outputs.items():
        fp = fingerprint_table(table)
        got[name] = (fp["fingerprint"], fp["n_rows"])
    assert got == pinned
    assert ds.n_unroutable == unroutable


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_route_log_agrees_with_traces(generated, name):
    """Each 2022 trace took the logged route of its (day, AS, site)."""
    ds = generated(name)
    log = ds.route_log()
    topo = ds.topology
    n_pairs = len(topo.eyeball_asns()) * len(topo.mlab_sites)
    assert log.n_rows == 108 * n_pairs
    logged = {
        (day, asn, site): as_path
        for day, asn, site, as_path in zip(
            log[Cols.DAY].to_list(),
            log[Cols.ASN].to_list(),
            log[Cols.SITE].to_list(),
            log[Cols.AS_PATH].to_list(),
        )
    }
    assert len(logged) == log.n_rows
    assert ds.ndt[Cols.TEST_ID].to_list() == ds.traces[Cols.TEST_ID].to_list()
    n_checked = 0
    for year, day, asn, site, as_path in zip(
        ds.ndt[Cols.YEAR].to_list(),
        ds.ndt[Cols.DAY].to_list(),
        ds.ndt[Cols.ASN].to_list(),
        ds.ndt[Cols.SITE].to_list(),
        ds.traces[Cols.AS_PATH].to_list(),
    ):
        if year != 2022:
            continue
        route = logged[(day, asn, site)]
        assert route is not None, (day, asn, site)
        assert route == as_path, (day, asn, site)
        n_checked += 1
    assert n_checked > 1000
