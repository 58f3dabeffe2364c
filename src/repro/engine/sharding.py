"""Placeholder for the removed intra-trace sharding module; defines no names.

Every (trace, predictor) pair runs as one ``simulate`` unit over the whole
trace (:func:`repro.engine.scheduler.simulate_phase`).  This file exists
only because ``perfbench/layers.py`` imports ``repro.engine.sharding``;
the benchmark change that drops that import deletes this file.
"""
