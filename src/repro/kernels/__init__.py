"""Assembly kernels: SpMV and SpMSpV, baseline and accelerator-assisted,
and the programmable HHT's helper-core firmware."""

from .firmware import (
    FIRMWARES,
    firmware_spmv_bitvector,
    firmware_spmv_coo,
    firmware_spmv_csr,
    firmware_spmv_smash,
)
from .loops import (
    SUPPORTED_FORMATS,
    partition_rows,
    program_hht,
    program_ssr,
    programmable_consumer,
    spmspv_accel,
    spmspv_kernel,
    spmspv_multicore_kernel,
    spmv_kernel,
    spmv_multicore_kernel,
)

__all__ = [
    "FIRMWARES",
    "firmware_spmv_bitvector",
    "firmware_spmv_coo",
    "firmware_spmv_csr",
    "firmware_spmv_smash",
    "SUPPORTED_FORMATS",
    "partition_rows",
    "program_hht",
    "program_ssr",
    "programmable_consumer",
    "spmspv_accel",
    "spmspv_kernel",
    "spmspv_multicore_kernel",
    "spmv_kernel",
    "spmv_multicore_kernel",
]
