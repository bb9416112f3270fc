"""End-to-end synthetic dataset generation.

One :class:`DatasetGenerator` run produces the two tables the paper's
pipeline consumes — NDT download rows (``ndt.unified_download``) and
traceroute rows (``ndt.scamper1``) — for the 2022 study window and the 2021
baseline window, from a single seed.

Per-test flow:

1. the workload decides how many tests each (city, AS) pair runs each day;
2. the client pool draws a (heavy-tailed) client address; the load balancer
   assigns its sticky M-Lab site;
3. the sticky router resolves the AS route in effect that day, given link
   outages from the damage process and link quality (war damage + the
   Figure-6 degradation schedules);
4. metric moments are interpolated between calibrated prewar and wartime
   targets by that day's damage severity, the route's own conditions are
   added, and the bulk-transfer model draws (tput, minRTT, loss);
5. the geo database (with its missing/mislabeled blocks) labels the client;
   the scamper sidecar emits the traceroute record.

What is drawn per test, and in what order, is the contract that keeps a
seed's tables byte-identical: the client, a new client's site and the
traceroute jitter on ``tests-{year}``, the RTT, loss and throughput on
``tcp``, and the protocol on ``protocol``.  Everything else is resolved
once per key and looked up: metric parameters per (city, AS, ramp,
drifted), route conditions per (route, day), geo labels per client,
dotted-quad strings per address, protocol labels per (version, CCA) and
``as_path`` strings per hop-AS sequence.  Below the generator, their
owners memoize routes per (pair, routing epoch), edge severity per (city,
day) and link quality per (link, day).  Each test appends one value to every column list of both tables;
the row checks of :class:`~repro.ndt.measurement.NdtMeasurement` run where
their values are decided (labels per client, protocol per pair, metrics
once over the finished columns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.conflict.damage import EdgeDamageModel, LinkDamageProcess, LinkOutageSchedule
from repro.conflict.events import EventKind
from repro.conflict.intensity import IntensityModel
from repro.geo.geodb import GeoDatabase
from repro.mlab.loadbalancer import LoadBalancer
from repro.mlab.sites import Site, SiteRegistry
from repro.ndt.clientpool import ClientPool
from repro.ndt.measurement import (
    NDT_SCHEMA,
    check_geo_labels,
    check_metric_columns,
    check_protocol,
)
from repro.ndt.protocol import Cca, NdtVersion, ProtocolModel
from repro.ndt.tcpmodel import BulkTransferModel, MetricParams, PathConditions
from repro.netbase.ipaddr import IPv4Address
from repro.synth.calibration import (
    AsCalibration,
    Calibration,
    CityCalibration,
    MetricMoments,
    default_calibration,
)
from repro.synth.workload import Workload
from repro.tables.schema import Cols, DType, Field, Schema
from repro.tables.table import Table
from repro.topology.bgp import AsPath, RouteSelector, StickyRouter
from repro.topology.builder import Topology, build_default_topology
from repro.topology.quality import LinkQualityModel
from repro.traceroute import pathrecord
from repro.traceroute.scamper import ScamperSidecar
from repro.util.errors import DataError
from repro.util.rng import RngHub
from repro.util.timeutil import Day, DayGrid, Period

__all__ = ["Dataset", "DatasetGenerator", "GeneratorConfig", "TRACE_SCHEMA"]

#: Column layout of the traceroute table (``ndt.scamper1`` analogue).
TRACE_SCHEMA = Schema(
    [
        Field(Cols.TEST_ID, DType.INT),
        Field(Cols.DAY, DType.INT),
        Field(Cols.YEAR, DType.INT),
        Field(Cols.CLIENT_IP, DType.STR),
        Field(Cols.SERVER_IP, DType.STR),
        Field(Cols.PATH, DType.STR),
        Field(Cols.AS_PATH, DType.STR),
        Field(Cols.N_HOPS, DType.INT),
    ]
)

#: Extra one-way latency a fully degraded link adds (ms).
_LINK_RTT_PENALTY_MS = 10.0
#: Loss a fully degraded link adds.
_LINK_LOSS_PENALTY = 0.02
#: Throughput multiplier on a national-outage day (Figure 2c's ~50% dip).
_OUTAGE_TPUT_FACTOR = 0.55
#: Ramp clip: day severity may exceed the wartime average by this factor.
_RAMP_CAP = 1.25


class _DottedQuads(dict):
    """Address value -> dotted-quad string, formatted once per address."""

    def __missing__(self, value: int) -> str:
        text = self[value] = IPv4Address(value).dotted()
        return text


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic dataset (defaults reproduce the paper)."""

    seed: int = 20220224
    scale: float = 1.0  # global test-volume multiplier
    include_2021: bool = True
    volume_2021: float = 0.55  # NDT usage was lower in 2021
    # Natural half-to-half drift in the baseline year (lognormal sigmas).
    # The paper's Table-3 baseline row shows sizeable "peacetime"
    # fluctuations (worst RTT +110%, counts -37%): user populations and
    # routing change even without a war.  Zero sigmas give a sterile,
    # perfectly stationary baseline.
    baseline_rtt_drift: float = 0.40
    baseline_tput_drift: float = 0.12
    baseline_loss_drift: float = 0.15
    baseline_count_drift: float = 0.25
    missing_rate: float = 0.117  # tests without geo labels (paper: 11.7%)
    mislabel_rate: float = 0.05
    scamper_epoch_days_2021: int = 160  # IP-level routing churn, 2021
    scamper_epoch_days_2022: int = 85  # churnier early 2022 (cyberattacks)
    bgp_epoch_days: int = 14  # AS-route re-evaluation cadence
    client_pool_size: int = 300
    zipf_a: float = 1.2
    war_enabled: bool = True  # ablation: no war at all
    rerouting_enabled: bool = True  # ablation: no outages / no route shifts
    regional_damage: bool = True  # ablation: uniform intensity across zones

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.volume_2021 <= 0:
            raise ValueError(f"volume_2021 must be positive, got {self.volume_2021}")


@dataclass
class Dataset:
    """Generated tables plus the objects needed to interpret them.

    ``router`` and ``outages`` are the run's own routing state: the router
    that routed every generated test, and the link-outage schedule that
    gave it each day's down links.
    """

    ndt: Table
    traces: Table
    topology: Topology
    geodb: GeoDatabase
    config: GeneratorConfig
    calibration: Calibration
    router: StickyRouter
    outages: LinkOutageSchedule
    n_unroutable: int = 0
    periods: Dict[str, Period] = field(default_factory=dict)

    def route_log(self) -> Table:
        """The route in effect for every (day, eyeball AS, M-Lab site) of 2022.

        What a BGP collector would log over the study window's 2022 days
        (prewar start through wartime end), resolved by :attr:`router` with
        each day's down links from :attr:`outages`, so a tested pair-day logs
        the route its traceroute took.  Rows run day-major over sorted
        eyeball ASNs x sorted site ASNs.  ``as_path`` reads server -> client,
        as in the traces table, and is null when the pair is partitioned.
        The log is built on each call; generation does not pay for it.
        """
        topo = self.topology
        eyeballs = sorted(topo.eyeball_asns())
        sites = [(asn, topo.mlab_sites[asn].code) for asn in sorted(topo.mlab_sites)]
        as_paths: Dict[Tuple[int, ...], str] = {}
        data: Dict[str, List[object]] = {
            Cols.DAY: [], Cols.ASN: [], Cols.SITE: [], Cols.AS_PATH: []
        }
        add_day = data[Cols.DAY].append
        add_asn = data[Cols.ASN].append
        add_site = data[Cols.SITE].append
        add_as_path = data[Cols.AS_PATH].append
        grid = DayGrid(self.periods["prewar"].start, self.periods["wartime"].end)
        for day in grid.days():
            down = self.outages.down_links(day)
            for asn in eyeballs:
                for site_asn, code in sites:
                    path = self.router.route(asn, site_asn, day.ordinal, down)
                    as_path = None
                    if path is not None:
                        as_path = as_paths.get(path.asns)
                        if as_path is None:
                            as_path = as_paths[path.asns] = pathrecord.join(
                                str(a) for a in reversed(path.asns)
                            )
                    add_day(day.ordinal)
                    add_asn(asn)
                    add_site(code)
                    add_as_path(as_path)
        return Table.from_dict(
            data,
            {Cols.DAY: DType.INT, Cols.ASN: DType.INT, Cols.SITE: DType.STR,
             Cols.AS_PATH: DType.STR},
        )


def study_periods() -> Dict[str, Period]:
    """The paper's four 54-day windows."""
    return {
        "baseline_janfeb": Period.of("baseline Jan-Feb, 2021", "2021-01-01", "2021-02-23"),
        "baseline_febapr": Period.of("baseline Feb-Apr, 2021", "2021-02-24", "2021-04-18"),
        "prewar": Period.of("prewar, 2022", "2022-01-01", "2022-02-23"),
        "wartime": Period.of("wartime, 2022", "2022-02-24", "2022-04-18"),
    }


class _UniformIntensity(IntensityModel):
    """Ablation: war intensity identical in every zone (no regional signal)."""

    def zone_intensity(self, zone, day) -> float:
        if Day.of(day) < self.invasion_day:
            return 0.0
        return 0.5

    def city_intensity(self, city_name, day) -> float:
        return self.zone_intensity(None, day)


class _PeaceIntensity(IntensityModel):
    """Ablation: the war never happens."""

    def zone_intensity(self, zone, day) -> float:
        return 0.0

    def city_intensity(self, city_name, day) -> float:
        return 0.0


def _uniformize_war_targets(calibration: Calibration) -> Calibration:
    """The UNIFORM_DAMAGE ablation's calibration.

    Every city's (and AS's) wartime metric targets become its *prewar*
    targets scaled by the count-weighted national wartime/prewar ratios —
    damage of the same national magnitude, spread evenly, with no regional
    structure.  Counts keep their real wartime values (population movement
    is a separate phenomenon from metric damage).
    """
    pre_total = 0.0
    pre_sums = np.zeros(3)
    war_total = 0.0
    war_sums = np.zeros(3)
    for name in calibration.city_names():
        c = calibration.city(name)
        pre_total += c.prewar.count
        pre_sums += c.prewar.count * np.array(
            [c.prewar.tput_mean, c.prewar.rtt_mean, c.prewar.loss_mean]
        )
        war_total += c.wartime.count
        war_sums += c.wartime.count * np.array(
            [c.wartime.tput_mean, c.wartime.rtt_mean, c.wartime.loss_mean]
        )
    ratios = (war_sums / war_total) / (pre_sums / pre_total)

    def scale(pre: MetricMoments, war: MetricMoments) -> MetricMoments:
        return MetricMoments(
            tput_mean=pre.tput_mean * ratios[0],
            tput_std=pre.tput_std * ratios[0],
            rtt_mean=pre.rtt_mean * ratios[1],
            rtt_std=pre.rtt_std * ratios[1],
            loss_mean=min(0.9, pre.loss_mean * ratios[2]),
            count=war.count,
        )

    cities = [
        CityCalibration(name, calibration.city(name).prewar,
                        scale(calibration.city(name).prewar,
                              calibration.city(name).wartime))
        for name in calibration.city_names()
    ]
    ases = []
    for asn in calibration.calibrated_asns():
        a = calibration.asys(asn)
        ases.append(
            AsCalibration(asn, a.name, a.prewar, scale(a.prewar, a.wartime))
        )
    return Calibration(cities, ases)


class DatasetGenerator:
    """Runs the full simulation for one configuration."""

    def __init__(
        self,
        config: GeneratorConfig = GeneratorConfig(),
        topology: Optional[Topology] = None,
        calibration: Optional[Calibration] = None,
    ):
        self.config = config
        self.topology = topology if topology is not None else build_default_topology()
        base_calibration = (
            calibration if calibration is not None else default_calibration()
        )
        if not config.regional_damage:
            base_calibration = _uniformize_war_targets(base_calibration)
        self.calibration = base_calibration
        self._hub = RngHub(config.seed)

    # -- model assembly ---------------------------------------------------------
    def _city_factors(self) -> Dict[Tuple[str, str], Tuple[float, float, float]]:
        """Per-(city, period) multipliers relative to the national average.

        Table 5 publishes per-AS moments pooled over each AS's whole
        footprint; a Kyivstar test in Kherson should still look like
        Kherson.  Scaling AS-level targets by the city's deviation from the
        (count-weighted) national mean preserves both marginals
        approximately: nationwide ASes keep their Table-5 means, cities
        keep their Table-4 profile.
        """
        factors: Dict[Tuple[str, str], Tuple[float, float, float]] = {}
        for period in ("prewar", "wartime"):
            total = 0.0
            sums = np.zeros(3)
            for city in self.calibration.city_names():
                m = getattr(self.calibration.city(city), period)
                total += m.count
                sums += m.count * np.array([m.tput_mean, m.rtt_mean, m.loss_mean])
            national = sums / total
            for city in self.calibration.city_names():
                m = getattr(self.calibration.city(city), period)
                raw = np.array([m.tput_mean, m.rtt_mean, m.loss_mean]) / national
                clipped = np.clip(raw, 0.25, 4.0)
                factors[(city, period)] = tuple(float(v) for v in clipped)
        return factors

    @staticmethod
    def _scale_moments(m: MetricMoments, factor: Tuple[float, float, float]) -> MetricMoments:
        f_tput, f_rtt, f_loss = factor
        return MetricMoments(
            tput_mean=m.tput_mean * f_tput,
            tput_std=m.tput_std * f_tput,
            rtt_mean=m.rtt_mean * f_rtt,
            rtt_std=m.rtt_std * f_rtt,
            loss_mean=min(0.9, m.loss_mean * f_loss),
            count=m.count,
        )

    def _make_intensity(self) -> IntensityModel:
        gaz = self.topology.gazetteer
        if not self.config.war_enabled:
            return _PeaceIntensity(gaz, timeline=[])
        if not self.config.regional_damage:
            return _UniformIntensity(gaz)
        return IntensityModel(gaz)

    def _mean_war_severity(
        self, edge: EdgeDamageModel, wartime: Period
    ) -> Dict[str, float]:
        out = {}
        for city in self.topology.gazetteer.city_names():
            sevs = [edge.severity(city, d) for d in wartime.days()]
            out[city] = float(np.mean(sevs))
        return out

    def _interpolate(
        self, base: MetricMoments, target: MetricMoments, ramp: float
    ) -> MetricParams:
        def mix(a: float, b: float) -> float:
            return a + (b - a) * ramp

        # Cap the coefficient of variation at 3: a few Table-5 stds are
        # dominated by extreme outliers (e.g. Kyivstar's 185 ms RTT std) and
        # a literal lognormal with that spread drowns every downstream
        # comparison in tail noise the real per-test data does not have.
        tput_mean = max(0.05, mix(base.tput_mean, target.tput_mean))
        rtt_mean = max(0.05, mix(base.rtt_mean, target.rtt_mean))
        return MetricParams(
            tput_mean_mbps=tput_mean,
            tput_std_mbps=min(max(0.05, mix(base.tput_std, target.tput_std)),
                              3.0 * tput_mean),
            rtt_mean_ms=rtt_mean,
            rtt_std_ms=min(max(0.05, mix(base.rtt_std, target.rtt_std)),
                           3.0 * rtt_mean),
            loss_mean=float(np.clip(mix(base.loss_mean, target.loss_mean), 0.0, 0.95)),
        )

    # -- the run ------------------------------------------------------------------
    def generate(self) -> Dataset:
        cfg = self.config
        topo = self.topology
        periods = study_periods()
        intensity = self._make_intensity()

        edge = EdgeDamageModel(intensity, self._hub.stream("edge-damage"))
        quality = LinkQualityModel(
            edge if (cfg.war_enabled and cfg.rerouting_enabled) else None,
            topo.degradation_schedules
            if (cfg.war_enabled and cfg.rerouting_enabled)
            else [],
        )
        selector = RouteSelector(topo.graph, quality.quality)
        router = StickyRouter(
            selector, seed=cfg.seed, epoch_days=cfg.bgp_epoch_days
        )

        war_grid = DayGrid(periods["wartime"].start, periods["wartime"].end)
        if cfg.war_enabled and cfg.rerouting_enabled:
            outages = LinkDamageProcess(intensity).simulate(
                topo.war_sensitive_links(), war_grid, self._hub.stream("outages")
            )
        else:
            outages = LinkOutageSchedule(grid=war_grid, _states={})

        geodb = GeoDatabase.build(
            [(prefix, city) for prefix, _asn, city in topo.iplayer.client_blocks()],
            topo.gazetteer,
            self._hub.stream("geodb"),
            missing_rate=cfg.missing_rate,
            mislabel_rate=cfg.mislabel_rate,
        )
        pool = ClientPool(
            topo.iplayer, pool_size=cfg.client_pool_size, zipf_a=cfg.zipf_a
        )
        sites = SiteRegistry.from_topology(topo)
        balancer = LoadBalancer(sites, topo.gazetteer)
        tcp = BulkTransferModel(self._hub.stream("tcp"))
        protocol_model = ProtocolModel()
        protocol_rng = self._hub.stream("protocol")
        mean_war_sev = self._mean_war_severity(edge, periods["wartime"])
        city_factors = self._city_factors()

        # Baseline-year natural drift: each AS/city gets a fixed factor per
        # metric applied to the second half of 2021, plus a test-volume
        # factor (the paper's non-trivial Table-3 baseline fluctuations).
        drift_rng = self._hub.stream("baseline-drift")

        def drift_factor(sigma: float) -> float:
            # Mean-one lognormal: per-entity drift without a systematic
            # national shift (Figure 2's baseline panel stays flat).
            return float(drift_rng.lognormal(-0.5 * sigma * sigma, sigma))

        metric_drift: Dict[Tuple[str, object], Tuple[float, float, float]] = {}
        count_drift: Dict[int, float] = {}
        for asn in sorted(topo.eyeball_asns()):
            metric_drift[("as", asn)] = (
                drift_factor(cfg.baseline_tput_drift),
                drift_factor(cfg.baseline_rtt_drift),
                drift_factor(cfg.baseline_loss_drift),
            )
            count_drift[asn] = drift_factor(cfg.baseline_count_drift)
        for city_name in topo.gazetteer.city_names():
            metric_drift[("city", city_name)] = (
                drift_factor(cfg.baseline_tput_drift),
                drift_factor(cfg.baseline_rtt_drift),
                drift_factor(cfg.baseline_loss_drift),
            )

        def apply_drift(params: MetricParams, key: Tuple[str, object]) -> MetricParams:
            f_tput, f_rtt, f_loss = metric_drift[key]
            return MetricParams(
                tput_mean_mbps=params.tput_mean_mbps * f_tput,
                tput_std_mbps=params.tput_std_mbps * f_tput,
                rtt_mean_ms=params.rtt_mean_ms * f_rtt,
                rtt_std_ms=params.rtt_std_ms * f_rtt,
                loss_mean=min(0.9, params.loss_mean * f_loss),
            )

        def metric_params(
            city: str, asn: int, ramp: float, drifted: bool
        ) -> MetricParams:
            as_cal = self.calibration.asys(asn)
            if as_cal is not None:
                params = self._interpolate(
                    self._scale_moments(as_cal.prewar, city_factors[(city, "prewar")]),
                    self._scale_moments(as_cal.wartime, city_factors[(city, "wartime")]),
                    ramp,
                )
            else:
                city_cal = self.calibration.city(city)
                params = self._interpolate(city_cal.prewar, city_cal.wartime, ramp)
            if drifted:
                key = ("as", asn) if as_cal is not None else ("city", city)
                params = apply_drift(params, key)
            return params

        # A cell's parameters are a function of (city, AS, ramp, drifted), so
        # every cell of a pair before the war (ramp 0) shares one.
        cell_params: Dict[Tuple[str, int, float, bool], MetricParams] = {}

        # Best healthy route RTT per (src, dst): the baseline that detours
        # are measured against.
        best_rtt_cache: Dict[Tuple[int, int], float] = {}

        def best_path_rtt(src: int, dst: int) -> float:
            key = (src, dst)
            if key not in best_rtt_cache:
                candidates = selector.candidates(src, dst, frozenset())
                best_rtt_cache[key] = (
                    sum(l.base_rtt_ms for l in candidates[0].links(topo.graph))
                    if candidates
                    else 0.0
                )
            return best_rtt_cache[key]

        def route_conditions(
            path: AsPath, day_ordinal: int, tput_factor: float
        ) -> PathConditions:
            """What a route adds to its tests' metrics on a day.

            Only untagged links add a penalty, and their quality never reads
            edge severity, so the result is a function of (path, day) and one
            value serves every test on that route that day.
            """
            links = selector.links(path)
            path_rtt = sum(l.base_rtt_ms for l in links)
            extra_rtt = max(0.0, path_rtt - best_path_rtt(path.asns[0], path.asns[-1]))
            extra_loss = 0.0
            for link in links:
                # City-tagged (access) links influence routing but add no
                # metric penalty: the calibrated city/AS targets already
                # embody edge damage.  Untagged links with *performance-
                # affecting* schedules (the AS6663 congestion) do contribute
                # — the Figure-6 signal.  Routing-only withdrawals (Cogent)
                # never do.
                if link.city is not None:
                    continue
                q = quality.performance_quality(link, day_ordinal)
                extra_rtt += (1.0 - q) * _LINK_RTT_PENALTY_MS
                extra_loss += (1.0 - q) * _LINK_LOSS_PENALTY
            return PathConditions(
                extra_rtt_ms=extra_rtt,
                extra_loss=min(1.0, extra_loss),
                tput_factor=tput_factor,
            )

        outage_days = {
            e.day.ordinal
            for e in intensity.events_of_kind(EventKind.OUTAGE)
        }

        # Values that depend only on a key the run has already seen are
        # resolved once per key, for this run only: address value -> dotted
        # quad (clients, servers, routers), client -> geo labels, (version,
        # CCA) -> protocol labels, hop ASes -> ``as_path`` string.
        dotted = _DottedQuads()
        geo_labels: Dict[int, Tuple[Optional[str], Optional[str]]] = {}
        protocol_labels: Dict[Tuple[NdtVersion, Cca], Tuple[str, str]] = {}
        as_path_keys: Dict[Tuple[int, ...], str] = {}

        def client_geo_labels(client_ip: IPv4Address) -> Tuple[Optional[str], Optional[str]]:
            label = geodb.lookup(client_ip)
            labels = (label.city, label.oblast) if label else (None, None)
            check_geo_labels(*labels)
            return labels

        # Columnar accumulation: one list per schema column, appended in
        # lockstep, handed to Table.from_dict at the end.  Every routable
        # test is one row of each table, in the same order, so the columns
        # the two tables share are one list each.
        ndt_data: Dict[str, List[object]] = {n: [] for n in NDT_SCHEMA.names}
        trace_data: Dict[str, List[object]] = {
            n: ndt_data[n] if n in ndt_data else [] for n in TRACE_SCHEMA.names
        }
        add_test_id = ndt_data[Cols.TEST_ID].append
        add_day = ndt_data[Cols.DAY].append
        add_date = ndt_data[Cols.DATE].append
        add_year = ndt_data[Cols.YEAR].append
        add_city = ndt_data[Cols.CITY].append
        add_oblast = ndt_data[Cols.OBLAST].append
        add_city_true = ndt_data[Cols.CITY_TRUE].append
        add_asn = ndt_data[Cols.ASN].append
        add_client_ip = ndt_data[Cols.CLIENT_IP].append
        add_site = ndt_data[Cols.SITE].append
        add_server_ip = ndt_data[Cols.SERVER_IP].append
        add_protocol = ndt_data[Cols.PROTOCOL].append
        add_cca = ndt_data[Cols.CCA].append
        add_tput = ndt_data[Cols.TPUT].append
        add_rtt = ndt_data[Cols.MIN_RTT].append
        add_loss = ndt_data[Cols.LOSS_RATE].append
        add_path = trace_data[Cols.PATH].append
        add_as_path = trace_data[Cols.AS_PATH].append
        add_n_hops = trace_data[Cols.N_HOPS].append
        n_unroutable = 0
        test_id = 0

        year_specs = []
        if cfg.include_2021:
            year_specs.append(
                (periods["baseline_janfeb"], periods["baseline_febapr"], False,
                 cfg.volume_2021, cfg.scamper_epoch_days_2021)
            )
        year_specs.append(
            (periods["prewar"], periods["wartime"], cfg.war_enabled,
             1.0, cfg.scamper_epoch_days_2022)
        )

        for first_half, second_half, wartime, volume, scamper_epoch in year_specs:
            year = first_half.start.date().year
            # Natural drift belongs to the true baseline year only; a
            # war-disabled 2022 (the NO_WAR control) stays stationary.
            drifting = year == 2021
            sidecar = ScamperSidecar(topo, epoch_days=scamper_epoch)
            workload = Workload(
                topo,
                self.calibration,
                intensity,
                first_half,
                second_half,
                wartime=wartime,
                volume_factor=volume * cfg.scale,
                second_half_count_drift=count_drift if drifting else None,
            )
            wl_rng = self._hub.stream(f"workload-{year}")
            test_rng = self._hub.stream(f"tests-{year}")

            for day, counts in workload.daily_counts(wl_rng):
                day_ordinal = day.ordinal
                date = day.iso()
                day_year = day.date().year
                in_war = wartime and intensity.is_wartime(day)
                down = outages.down_links(day)
                tput_factor = (
                    _OUTAGE_TPUT_FACTOR
                    if (in_war and day_ordinal in outage_days)
                    else 1.0
                )
                drifted = drifting and second_half.contains(day)
                day_conditions: Dict[Tuple[int, ...], PathConditions] = {}

                for (city, asn), n_tests in sorted(counts.items()):
                    sev = edge.severity(city, day) if in_war else 0.0
                    ramp = 0.0
                    if in_war and mean_war_sev[city] > 0:
                        ramp = min(_RAMP_CAP, sev / mean_war_sev[city])
                    params_key = (city, asn, ramp, drifted)
                    params = cell_params.get(params_key)
                    if params is None:
                        params = cell_params[params_key] = metric_params(*params_key)

                    # Per test: the draws on tests-{year} (client, a new
                    # client's site, traceroute jitter, in that order), on
                    # tcp and on protocol, plus the edge-damage wobbles a
                    # route's first look at a (city, day) draws; everything
                    # else is a lookup.
                    for _ in range(n_tests):
                        test_id += 1
                        client_ip = pool.sample(asn, city, test_rng)
                        site: Site = balancer.assign(client_ip.value, city, test_rng)
                        path: Optional[AsPath] = router.route(
                            asn, site.asn, day_ordinal, down
                        )
                        if path is None:
                            n_unroutable += 1
                            continue
                        conditions = day_conditions.get(path.asns)
                        if conditions is None:
                            conditions = day_conditions[path.asns] = route_conditions(
                                path, day_ordinal, tput_factor
                            )
                        tput, rtt, loss = tcp.measure(params, conditions)
                        labels = geo_labels.get(client_ip.value)
                        if labels is None:
                            labels = geo_labels[client_ip.value] = client_geo_labels(
                                client_ip
                            )
                        version_cca = protocol_model.sample(year, protocol_rng)
                        protocol = protocol_labels.get(version_cca)
                        if protocol is None:
                            version, cca = version_cca
                            protocol = protocol_labels[version_cca] = (
                                version.value,
                                cca.value,
                            )
                            check_protocol(*protocol)
                        record = sidecar.trace(
                            test_id,
                            client_ip,
                            site.server_ip,
                            path.asns,
                            day_ordinal,
                            test_rng,
                        )
                        as_path = as_path_keys.get(record.hop_asns)
                        if as_path is None:
                            as_path = as_path_keys[record.hop_asns] = record.as_path_key

                        add_test_id(test_id)
                        add_day(day_ordinal)
                        add_date(date)
                        add_year(day_year)
                        add_city(labels[0])
                        add_oblast(labels[1])
                        add_city_true(city)
                        add_asn(asn)
                        add_client_ip(dotted[client_ip.value])
                        add_site(site.code)
                        add_server_ip(dotted[site.server_ip.value])
                        add_protocol(protocol[0])
                        add_cca(protocol[1])
                        add_tput(tput)
                        add_rtt(rtt)
                        add_loss(loss)
                        # The record's path_key, from the memoized hop strings.
                        add_path(pathrecord.join([dotted[ip.value] for ip in record.hop_ips]))
                        add_as_path(as_path)
                        add_n_hops(len(record.hop_ips))

        ndt_dtypes = {f.name: f.dtype for f in NDT_SCHEMA.fields}
        trace_dtypes = {f.name: f.dtype for f in TRACE_SCHEMA.fields}
        if not ndt_data[Cols.TEST_ID]:
            raise DataError("generator produced no routable tests")
        check_metric_columns(
            ndt_data[Cols.TEST_ID],
            ndt_data[Cols.TPUT],
            ndt_data[Cols.MIN_RTT],
            ndt_data[Cols.LOSS_RATE],
        )
        return Dataset(
            ndt=Table.from_dict(ndt_data, ndt_dtypes),
            traces=Table.from_dict(trace_data, trace_dtypes),
            topology=topo,
            geodb=geodb,
            config=cfg,
            calibration=self.calibration,
            router=router,
            outages=outages,
            n_unroutable=n_unroutable,
            periods=periods,
        )
