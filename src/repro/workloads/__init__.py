"""Synthetic SPEC95int-like workloads (the paper's benchmark substitute).

The paper traces seven integer SPEC95 programs through SimpleScalar.  Those
binaries and inputs are not redistributable, so this package provides seven
synthetic workloads — one per SPEC95int benchmark — written against the
:mod:`repro.isa` program builder.  Each mimics the dominant kernels of its
namesake (hashing for compress, IR walking and jump-table dispatch for gcc,
board evaluation for go, DCT-style block transforms for ijpeg, a
fetch/decode/execute loop for m88ksim, string hashing and bytecode dispatch
for perl, cons-cell recursion and garbage collection for xlisp), so the
per-category instruction mixes and the classes of value sequences the
predictors see match the behaviour the paper reports.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": ("Workload", "WorkloadRun"),
        "compress": ("CompressWorkload",),
        "gcc": ("GccWorkload",),
        "go": ("GoWorkload",),
        "ijpeg": ("IjpegWorkload",),
        "m88ksim": ("M88ksimWorkload",),
        "perl": ("PerlWorkload",),
        "xlisp": ("XlispWorkload",),
        "suite": ("SUITE", "BENCHMARK_ORDER", "get_workload", "available_workloads", "run_suite"),
    },
)
