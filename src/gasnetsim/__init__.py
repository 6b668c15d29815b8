"""Transient simulation of gas pipeline networks with compressor stations.

Pipes are discretized on a staggered grid into semi-discrete
port-Hamiltonian form, compressor stations couple pipe pairs through one
of four jump-condition models, and the network incidence structure closes
the system into a DAE solved by implicit-midpoint stepping with a damped
Newton inner iteration.
"""

from .compressor import Assumption, Framework, station_power
from .errors import (ConfigurationError, FactorizationError, FormatError,
                     GasnetError, InfeasibleFlowError, NonconvergenceError,
                     StateError)
from .formats import (Scenario, parse_network, parse_scenario, read_timeseries,
                      run_report, serialize_network, write_timeseries)
from .gas import GasProperties
from .network import (CompressorStation, GlobalSystem, NetworkSpec, Node,
                      NodeKind, PipeEdge, ValidationReport, assemble,
                      fuse_compressors, validate_topology)
from .pipe import PipeSpec, steady_pipe_oracle
from .timeloop import (NewtonResult, SolverConfig, TimeSeries, bind_inputs,
                       newton_solve, simulate, steady_state, step_midpoint)

__version__ = "0.1.0"

__all__ = [
    "Assumption", "CompressorStation", "ConfigurationError",
    "FactorizationError", "FormatError", "Framework", "GasnetError",
    "GasProperties", "GlobalSystem", "InfeasibleFlowError", "NetworkSpec",
    "NewtonResult", "Node", "NodeKind", "NonconvergenceError", "PipeEdge",
    "PipeSpec", "Scenario", "SolverConfig", "StateError", "TimeSeries",
    "ValidationReport", "assemble", "bind_inputs", "fuse_compressors",
    "newton_solve", "parse_network", "parse_scenario", "read_timeseries",
    "run_report", "serialize_network", "simulate", "station_power",
    "steady_pipe_oracle", "steady_state", "step_midpoint", "validate_topology",
    "write_timeseries",
]
