"""Shared fixtures: toy architectures and layers used across test modules."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.arch import (
    Architecture,
    ComputeAction,
    ComputeLevel,
    Conversion,
    ConverterStage,
    Domain,
    SpatialFanout,
    StorageLevel,
)
from repro.energy import ComponentSpec, build_table
from repro.workloads import ConvLayer, DataSpace
from repro.workloads.dims import Dim

W, I, O = DataSpace.WEIGHTS, DataSpace.INPUTS, DataSpace.OUTPUTS


@pytest.fixture(autouse=True)
def no_leaked_processes_or_threads():
    """Fail any test that leaves a child process or a non-daemon thread
    alive: a leaked pool worker or pool thread is how a later shutdown
    hangs.  Children and threads get the same 2.5 s grace to exit as
    the worker-pool tests' orphan check."""
    children = {process.pid for process in multiprocessing.active_children()}
    threads = {thread for thread in threading.enumerate()
               if not thread.daemon}
    yield
    deadline = time.monotonic() + 2.5
    while True:
        leaked = [process for process in multiprocessing.active_children()
                  if process.pid not in children]
        leaked += [thread for thread in threading.enumerate()
                   if not thread.daemon and thread not in threads]
        if not leaked or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    if leaked:
        pytest.fail(f"test left running: {leaked}")


@pytest.fixture
def two_level_arch() -> Architecture:
    """DRAM -> buffer -> 4-wide PE array (input multicast) -> MAC."""
    return Architecture(
        name="two-level",
        nodes=(
            StorageLevel(name="DRAM", component="dram", domain=Domain.DE,
                         dataspaces={W, I, O}),
            StorageLevel(name="GB", component="sram", domain=Domain.DE,
                         capacity_bits=1e9, dataspaces={W, I, O}),
            SpatialFanout(name="pe", size=4, allowed_dims={Dim.M},
                          multicast={I}),
            ComputeLevel(name="mac", component="mac", domain=Domain.DE),
        ),
    )


@pytest.fixture
def flat_arch() -> Architecture:
    """DRAM -> buffer -> MAC, no spatial parallelism."""
    return Architecture(
        name="flat",
        nodes=(
            StorageLevel(name="DRAM", component="dram", domain=Domain.DE,
                         dataspaces={W, I, O}),
            StorageLevel(name="GB", component="sram", domain=Domain.DE,
                         capacity_bits=1e9, dataspaces={W, I, O}),
            ComputeLevel(name="mac", component="mac", domain=Domain.DE),
        ),
    )


@pytest.fixture
def converter_arch() -> Architecture:
    """A single analog stage with converters on all three dataspaces."""
    return Architecture(
        name="converter-arch",
        nodes=(
            StorageLevel(name="DRAM", component="dram", domain=Domain.DE,
                         dataspaces={W, I, O}),
            StorageLevel(name="GB", component="sram", domain=Domain.DE,
                         capacity_bits=1e9, dataspaces={W, I, O}),
            ConverterStage(name="WDAC", component="dac_w",
                           conversion=Conversion(Domain.DE, Domain.AE),
                           dataspaces={W}),
            ConverterStage(name="IDAC", component="dac_i",
                           conversion=Conversion(Domain.DE, Domain.AE),
                           dataspaces={I}),
            SpatialFanout(name="array", size=8, allowed_dims={Dim.M},
                          multicast={I}),
            ConverterStage(name="ADC", component="adc_o",
                           conversion=Conversion(Domain.AE, Domain.DE),
                           dataspaces={O}),
            ComputeLevel(name="mac", component="mac", domain=Domain.AE),
        ),
    )


@pytest.fixture
def toy_energy_table():
    return build_table([
        ComponentSpec("dram", "dram", {}),
        ComponentSpec("sram", "sram", {"capacity_bits": 1e6}),
        ComponentSpec("mac", "multiplier", {}),
        ComponentSpec("dac_w", "dac", {"energy_pj_at_8bit": 0.5}),
        ComponentSpec("dac_i", "dac", {"energy_pj_at_8bit": 0.5}),
        ComponentSpec("adc_o", "adc", {"fom_fj_per_step": 10.0}),
    ])


@pytest.fixture
def small_conv() -> ConvLayer:
    return ConvLayer(name="small", m=4, c=2, p=2, q=2)


@pytest.fixture
def medium_conv() -> ConvLayer:
    return ConvLayer(name="medium", m=16, c=8, p=8, q=8, r=3, s=3)
