"""Tests for traceroute records, the path text format, and border crossings."""

import pytest

from repro.netbase import ASRegistry, ASRole, AutonomousSystem, IPv4Address
from repro.traceroute import TracerouteRecord, border_crossing
from repro.traceroute.pathrecord import (
    hop_count,
    join,
    parse_as_path,
    parse_hops,
    split,
)
from repro.util.errors import DataError


def A(text):
    return IPv4Address.parse(text)


def make_record(hop_asns=(64499, 6939, 199995, 15895, 15895)):
    n = len(hop_asns)
    hops = [A(f"10.0.{i}.1") for i in range(n)]
    return TracerouteRecord(
        test_id=1,
        client_ip=hops[-1],
        server_ip=hops[0],
        hop_ips=tuple(hops),
        hop_asns=tuple(hop_asns),
    )


@pytest.fixture
def registry():
    reg = ASRegistry()
    reg.register(AutonomousSystem(64499, "M-Lab ams01", "NL", ASRole.MLAB))
    reg.register(AutonomousSystem(6939, "Hurricane Electric", "US", ASRole.BORDER))
    reg.register(AutonomousSystem(199995, "UA-Transit", "UA", ASRole.REGIONAL))
    reg.register(AutonomousSystem(15895, "Kyivstar", "UA", ASRole.EYEBALL))
    return reg


class TestRecord:
    def test_connection_key_is_client_server_pair(self):
        r = make_record()
        assert r.connection_key == (r.client_ip.value, r.server_ip.value)

    def test_path_key_is_ip_sequence(self):
        r = make_record()
        assert r.path_key == "|".join(ip.dotted() for ip in r.hop_ips)

    def test_as_path_collapses_consecutive(self):
        r = make_record((64499, 6939, 199995, 15895, 15895))
        assert r.as_path == (64499, 6939, 199995, 15895)

    def test_n_hops(self):
        assert make_record().n_hops == 5

    def test_to_row_flattens(self):
        row = make_record().to_row()
        assert row["test_id"] == 1
        assert row["as_path"] == "64499|6939|199995|15895"
        assert row["n_hops"] == 5
        assert "|" in row["path"]

    def test_validation_alignment(self):
        with pytest.raises(ValueError):
            TracerouteRecord(
                test_id=1,
                client_ip=A("10.0.0.2"),
                server_ip=A("10.0.0.1"),
                hop_ips=(A("10.0.0.1"), A("10.0.0.2")),
                hop_asns=(1,),
            )

    def test_validation_endpoints(self):
        with pytest.raises(ValueError, match="first hop"):
            TracerouteRecord(
                test_id=1,
                client_ip=A("10.0.0.2"),
                server_ip=A("10.0.0.9"),
                hop_ips=(A("10.0.0.1"), A("10.0.0.2")),
                hop_asns=(1, 2),
            )
        with pytest.raises(ValueError, match="last hop"):
            TracerouteRecord(
                test_id=1,
                client_ip=A("10.0.0.9"),
                server_ip=A("10.0.0.1"),
                hop_ips=(A("10.0.0.1"), A("10.0.0.2")),
                hop_asns=(1, 2),
            )

    def test_validation_min_hops(self):
        with pytest.raises(ValueError):
            TracerouteRecord(
                test_id=1,
                client_ip=A("10.0.0.1"),
                server_ip=A("10.0.0.1"),
                hop_ips=(A("10.0.0.1"),),
                hop_asns=(1,),
            )


class TestBorderCrossing:
    def test_finds_entry_into_ukraine(self, registry):
        r = make_record((64499, 6939, 199995, 15895, 15895))
        assert border_crossing(r.as_path, registry) == (6939, 199995)

    def test_first_crossing_reported(self, registry):
        # Even if the path touches several UA ASes, the first entry counts.
        r = make_record((64499, 6939, 199995, 15895, 15895))
        crossing = border_crossing(r.as_path, registry)
        assert crossing[1] == 199995

    def test_no_crossing_when_all_foreign(self, registry):
        r = make_record((64499, 6939, 6939, 6939, 6939))
        assert border_crossing(r.as_path, registry) is None

    def test_unknown_as_returns_none(self, registry):
        r = make_record((64499, 4242, 199995, 15895, 15895))
        assert border_crossing(r.as_path, registry) is None


class TestParseAsPath:
    def test_roundtrip(self):
        assert parse_as_path("64499|6939|199995|15895") == (64499, 6939, 199995, 15895)

    def test_single(self):
        assert parse_as_path("42") == (42,)

    def test_malformed(self):
        with pytest.raises(DataError):
            parse_as_path("a|b")
        with pytest.raises(DataError):
            parse_as_path("")


class TestPathText:
    def test_record_keys_parse_back(self):
        r = make_record()
        assert parse_hops(r.path_key) == tuple(ip.value for ip in r.hop_ips)
        assert parse_as_path(r.as_path_key) == r.as_path

    def test_join_split_roundtrip(self):
        parts = ["10.0.0.1", "192.0.2.7", "100.64.0.2"]
        assert split(join(parts)) == parts
        assert parse_hops(join(parts)) == tuple(A(p).value for p in parts)

    @pytest.mark.parametrize(
        "text", ["", None, "10.0.0.1", "10.0.0.1|10.0.0.2", "a|b|c|d", "|", "a||b"]
    )
    def test_hop_count_is_split_length(self, text):
        assert hop_count(text) == len(split(text))

    def test_empty_text_has_no_parts(self):
        assert split("") == [] and split(None) == []
        assert hop_count("") == 0 and hop_count(None) == 0

    @pytest.mark.parametrize(
        "text", ["", None, "10.0.0.1|10.0.0", "10.0.0.1||10.0.0.2", "10.0.0.256"]
    )
    def test_malformed_hops_raise_data_error(self, text):
        with pytest.raises(DataError):
            parse_hops(text)

    def test_memo_parses_each_hop_once(self):
        memo = {}
        first = parse_hops("10.0.0.1|10.0.0.2", memo)
        assert memo == {"10.0.0.1": first[0], "10.0.0.2": first[1]}
        memo["10.0.0.2"] = 7  # a memo hit is trusted, not re-parsed
        assert parse_hops("10.0.0.2|10.0.0.1", memo) == (7, first[0])
