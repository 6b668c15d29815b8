"""Shared fixtures: the benchmark gas, network and scenario."""

import pytest

import gasnetsim as gn
from casekit import NET_JSON, SCN_JSON

BENCHMARK_GAS = dict(specific_gas_constant=530.0, temperature=276.25,
                     compressibility=1.0, isentropic_exponent=1.4)


@pytest.fixture(scope="session")
def gas():
    return gn.GasProperties(**BENCHMARK_GAS)


@pytest.fixture()
def benchmark_spec():
    return gn.parse_network(NET_JSON)


@pytest.fixture()
def benchmark_scenario(benchmark_spec):
    return gn.parse_scenario(SCN_JSON, benchmark_spec)
