"""Shared machinery for the experiment runners.

The paper's evaluation runs every benchmark trace through each of the
three partial orders with both clock data structures, with and without
the analysis component (Table 2, Figures 6 and 7), and separately
measures data-structure work (Figures 8 and 9) and scalability
(Figure 10).  :class:`ExperimentConfig` captures the knobs shared by all
of these (suite scale, repetitions, which partial orders to include) and
:class:`SuiteRunner` caches the generated traces and the per-trace
measurements so that several experiment runners can share one sweep.

The sweep itself goes through :mod:`repro.api` sessions: for every
(trace, order) pair the VC and TC cells share **one** event walk per
repetition (:func:`~repro.obs.timing.compare_clocks_session`), and
the work cells likewise (:func:`~repro.metrics.work.measure_work`).
With ``ExperimentConfig(workers=N)`` the per-trace measurements
additionally fan out across ``N`` worker processes — each worker
regenerates its profile's trace from the (picklable) config and runs the
full order sweep for it, so the parent never materializes those traces.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..analysis import ANALYSIS_CLASSES
from ..analysis.engine import PartialOrderAnalysis
from ..gen.suite import BenchmarkProfile, default_suite
from ..obs.timing import SpeedupSample, compare_clocks_session
from ..metrics.work import WorkMeasurement, measure_work
from ..trace.stats import TraceStatistics, compute_statistics
from ..trace.trace import Trace

#: The partial orders of the evaluation, in the order the paper lists them.
DEFAULT_ORDERS = ("MAZ", "SHB", "HB")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Shared knobs for the experiment runners.

    Attributes
    ----------
    scale:
        Multiplier applied to the suite's per-profile event counts.  The
        default of 1.0 gives a laptop-friendly run; larger values stress
        the data structures more (the paper's traces are several orders
        of magnitude longer).
    repetitions:
        Timing repetitions per measurement (the paper uses 3).
    orders:
        Which partial orders to include.
    max_profiles:
        Optional cap on the number of suite profiles (for quick runs).
    families:
        Optional family filter for the suite.
    workers:
        Number of worker processes for the per-trace sweep (1 = in
        process, the default).  Opt-in: timing numbers from parallel
        workers share cores, so use >1 for functional sweeps and work
        counting rather than publication-grade timings.
    server:
        Optional ``host:port`` of a running ``repro serve`` instance.
        When set, :meth:`SuiteRunner.sweep` ships every suite trace to
        that server and collects the (trace × order × clock) cells from
        its results store instead of fanning out in-process — the
        service-mode counterpart of ``workers``.
    """

    scale: float = 1.0
    repetitions: int = 3
    orders: Sequence[str] = DEFAULT_ORDERS
    max_profiles: Optional[int] = None
    families: Optional[Sequence[str]] = None
    workers: int = 1
    server: Optional[str] = None

    def analysis_classes(self) -> List[Type[PartialOrderAnalysis]]:
        """The analysis classes selected by :attr:`orders`."""
        classes: List[Type[PartialOrderAnalysis]] = []
        for order in self.orders:
            normalized = order.upper()
            if normalized not in ANALYSIS_CLASSES:
                raise ValueError(f"unknown partial order {order!r}")
            classes.append(ANALYSIS_CLASSES[normalized])
        return classes


def _profile_speedups(
    profile: BenchmarkProfile,
    orders: Sequence[str],
    with_analysis: bool,
    repetitions: int,
) -> List[SpeedupSample]:
    """One worker's share of the timing sweep: regenerate a trace, run its cells.

    Module-level so it pickles for :mod:`multiprocessing`; only builtin
    and frozen-dataclass values cross the process boundary.
    """
    trace = profile.generate()
    return [
        compare_clocks_session(
            trace,
            ANALYSIS_CLASSES[order.upper()],
            with_analysis=with_analysis,
            repetitions=repetitions,
        )
        for order in orders
    ]


def _profile_work(profile: BenchmarkProfile, orders: Sequence[str]) -> List[WorkMeasurement]:
    """One worker's share of the work sweep (same pickling contract)."""
    trace = profile.generate()
    return [measure_work(trace, ANALYSIS_CLASSES[order.upper()]) for order in orders]


class SuiteRunner:
    """Generates the benchmark suite once and caches per-trace measurements."""

    def __init__(self, config: ExperimentConfig = ExperimentConfig()) -> None:
        self.config = config
        self._profiles: Optional[List[BenchmarkProfile]] = None
        self._traces: Dict[str, Trace] = {}
        self._speedups: Dict[Tuple[str, str, bool], SpeedupSample] = {}
        self._work: Dict[Tuple[str, str], WorkMeasurement] = {}

    # -- suite materialization -------------------------------------------------------

    @property
    def profiles(self) -> List[BenchmarkProfile]:
        """The benchmark profiles selected by the configuration."""
        if self._profiles is None:
            self._profiles = default_suite(
                scale=self.config.scale,
                families=self.config.families,
                max_profiles=self.config.max_profiles,
            )
        return self._profiles

    def trace(self, profile: BenchmarkProfile) -> Trace:
        """The (cached) trace of one profile."""
        cached = self._traces.get(profile.name)
        if cached is None:
            cached = profile.generate()
            self._traces[profile.name] = cached
        return cached

    def traces(self) -> List[Trace]:
        """All traces of the suite, generated lazily and cached."""
        return [self.trace(profile) for profile in self.profiles]

    # -- per-trace measurements ---------------------------------------------------------

    def statistics(self) -> List[TraceStatistics]:
        """Per-trace statistics (Table 3 rows)."""
        return [compute_statistics(trace) for trace in self.traces()]

    def speedup(
        self,
        trace: Trace,
        analysis_class: Type[PartialOrderAnalysis],
        with_analysis: bool,
    ) -> SpeedupSample:
        """The (cached) VC-vs-TC timing comparison for one configuration.

        Both clock cells share one *batched* session walk per
        repetition: the trace streams through ``Session.feed_batch``,
        and each cell's time is its attributed share of every batch.
        """
        key = (trace.name, analysis_class.PARTIAL_ORDER, with_analysis)
        cached = self._speedups.get(key)
        if cached is None:
            cached = compare_clocks_session(
                trace,
                analysis_class,
                with_analysis=with_analysis,
                repetitions=self.config.repetitions,
            )
            self._speedups[key] = cached
        return cached

    def speedups(self, with_analysis: bool) -> List[SpeedupSample]:
        """Timing comparisons for every (trace, partial order) pair.

        With ``config.workers > 1`` the uncached profiles fan out across
        worker processes, one full order sweep per profile per task; the
        results land in the same cache the sequential path uses.
        """
        orders = [cls.PARTIAL_ORDER for cls in self.config.analysis_classes()]
        if self.config.workers > 1:
            # Ship only the missing (profile, order) cells to the workers,
            # so partially-cached profiles are not re-timed (or their
            # traces regenerated) for cells the cache already holds.
            tasks = []
            for profile in self.profiles:
                missing = [
                    order
                    for order in orders
                    if (profile.name, order, with_analysis) not in self._speedups
                ]
                if missing:
                    tasks.append((profile, missing, with_analysis, self.config.repetitions))
            if tasks:
                with multiprocessing.Pool(self.config.workers) as pool:
                    per_profile = pool.starmap(_profile_speedups, tasks)
                for samples in per_profile:
                    for sample in samples:
                        key = (sample.trace_name, sample.partial_order, with_analysis)
                        self._speedups[key] = sample
        samples_out: List[SpeedupSample] = []
        for profile in self.profiles:
            for order in orders:
                key = (profile.name, order, with_analysis)
                cached = self._speedups.get(key)
                if cached is None:
                    cached = self.speedup(
                        self.trace(profile), ANALYSIS_CLASSES[order], with_analysis
                    )
                samples_out.append(cached)
        return samples_out

    def work_measurement(
        self, trace: Trace, analysis_class: Type[PartialOrderAnalysis]
    ) -> WorkMeasurement:
        """The (cached) work metrics of one (trace, partial order) pair."""
        key = (trace.name, analysis_class.PARTIAL_ORDER)
        cached = self._work.get(key)
        if cached is None:
            cached = measure_work(trace, analysis_class)
            self._work[key] = cached
        return cached

    def work_measurements(
        self, orders: Optional[Sequence[str]] = None
    ) -> List[WorkMeasurement]:
        """Work metrics for every trace and the selected partial orders.

        Fans out across ``config.workers`` processes like
        :meth:`speedups`, regenerating traces in the workers and filling
        the same per-(trace, order) cache.
        """
        selected = list(orders) if orders is not None else list(self.config.orders)
        if self.config.workers > 1:
            tasks = []
            for profile in self.profiles:
                missing = [
                    order
                    for order in selected
                    if (profile.name, order.upper()) not in self._work
                ]
                if missing:
                    tasks.append((profile, missing))
            if tasks:
                with multiprocessing.Pool(self.config.workers) as pool:
                    per_profile = pool.starmap(_profile_work, tasks)
                for measurements in per_profile:
                    for measurement in measurements:
                        key = (measurement.trace_name, measurement.partial_order)
                        self._work[key] = measurement
        classes = [ANALYSIS_CLASSES[name.upper()] for name in selected]
        measurements_out: List[WorkMeasurement] = []
        for profile in self.profiles:
            for analysis_class in classes:
                key = (profile.name, analysis_class.PARTIAL_ORDER)
                cached = self._work.get(key)
                if cached is None:
                    cached = self.work_measurement(self.trace(profile), analysis_class)
                measurements_out.append(cached)
        return measurements_out

    # -- the whole sweep, machine-readable ----------------------------------------------

    def remote_sweep(self, address: str) -> Dict[str, object]:
        """Run the detection sweep on a running ``repro serve`` instance.

        Every suite profile's trace is submitted to the server (ingested
        content-addressed into its corpus) with one
        ``<order>+<clock>+detect`` spec per (order × clock) cell; the
        call then blocks until the server's job queue drains and reads
        the cells back from its results store.  Worker-process timings
        (``elapsed_ns``) ride along per cell, but the headline output is
        the functional matrix: per-trace, per-spec race counts computed
        by a shared remote worker fleet instead of in-process fan-out.
        """
        from ..api.registry import CLOCKS
        from ..serve.client import ServeClient

        specs = [
            f"{order.lower()}+{clock.lower()}+detect"
            for order in self.config.orders
            for clock in CLOCKS.names()
        ]
        cells: List[Dict[str, object]] = []
        with ServeClient.connect(address) as client:
            digests: Dict[str, str] = {}
            job_ids: List[str] = []
            for profile in self.profiles:
                response = client.submit_trace(
                    self.trace(profile), specs, name=profile.name, tags=("sweep",)
                )
                digests[profile.name] = str(response["digest"])
                job_ids.extend(str(job) for job in response["jobs"])
            # Wait on exactly the cells this sweep queued — a shared
            # server's other workload must not stall the sweep's clock.
            client.wait_for_jobs(job_ids, timeout=600.0)
            for profile in self.profiles:
                digest = digests[profile.name]
                results = client.results(digest)
                for spec in specs:
                    payload = results.get(spec)
                    cells.append(
                        {
                            "trace": profile.name,
                            "digest": digest,
                            "spec": spec,
                            "races": payload.get("race_count") if payload else None,
                            "events": payload.get("events") if payload else None,
                            "elapsed_ns": payload.get("elapsed_ns") if payload else None,
                            "attempts": payload.get("attempts") if payload else None,
                        }
                    )
        return {
            "config": {
                "scale": self.config.scale,
                "orders": list(self.config.orders),
                "max_profiles": self.config.max_profiles,
                "server": address,
            },
            "profiles": [profile.name for profile in self.profiles],
            "cells": cells,
        }

    def sweep(self) -> Dict[str, object]:
        """Run the full session sweep and return a JSON-serializable payload.

        Covers every (trace, order) pair with and without the analysis
        component (timing) plus the work metrics — the matrix behind
        Table 2 and Figures 6–9 — in one document.  This is what
        ``repro-experiments sweep --json`` emits and what the CI
        benchmark smoke job uploads as an artifact.  With
        ``config.server`` set the whole sweep is delegated to a running
        ``repro serve`` instance instead (:meth:`remote_sweep`).
        """
        if self.config.server:
            return self.remote_sweep(self.config.server)
        return {
            "config": {
                "scale": self.config.scale,
                "repetitions": self.config.repetitions,
                "orders": list(self.config.orders),
                "max_profiles": self.config.max_profiles,
                "workers": self.config.workers,
            },
            "profiles": [profile.name for profile in self.profiles],
            "speedups": [
                sample.as_row()
                for with_analysis in (False, True)
                for sample in self.speedups(with_analysis)
            ],
            "work": [measurement.as_row() for measurement in self.work_measurements()],
        }
