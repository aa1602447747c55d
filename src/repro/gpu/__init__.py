"""Simulated GPU substrate: specs, devices, streams, launch overheads."""

from repro.gpu.device import Device, ExecTask, OutOfMemoryError, waterfill
from repro.gpu.host import HostThread
from repro.gpu.launch import GraphMemoryModel, LaunchModel
from repro.gpu.specs import (
    A100,
    GB,
    GiB,
    H100,
    H200,
    H200_NVL,
    L40S,
    SPECS_BY_NAME,
    TFLOPS,
    GPUSpec,
    decode_partition_options,
)
from repro.gpu.stream import Stream

__all__ = [
    "A100",
    "Device",
    "ExecTask",
    "GB",
    "GiB",
    "GPUSpec",
    "GraphMemoryModel",
    "H100",
    "H200",
    "H200_NVL",
    "HostThread",
    "L40S",
    "LaunchModel",
    "OutOfMemoryError",
    "SPECS_BY_NAME",
    "Stream",
    "TFLOPS",
    "decode_partition_options",
    "waterfill",
]
