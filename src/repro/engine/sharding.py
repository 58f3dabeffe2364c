"""Placeholder for the removed intra-trace sharding module; defines no names.

Every (trace, predictor) pair is simulated over the whole trace, one
trace per dispatched unit (:func:`repro.engine.scheduler.simulate_phase`).  This file exists
only because ``perfbench/layers.py`` imports ``repro.engine.sharding``;
the benchmark change that drops that import deletes this file.
"""
