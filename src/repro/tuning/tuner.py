"""The online autotuner: measure, fit the cost model, switch knobs.

GraphH picks its edge-cache mode from one capacity measurement (§IV-B)
and GraphMP selects its compression strategy the same way; this module
closes ROADMAP item 4's loop over the reproduction's *whole* knob space.
The tuner runs the first supersteps under the configured knobs while
rotating the message codec through the unrated ones (lossless
re-encodings — values are untouched), fits the cost-model constants to
the observed (volume, seconds) pairs by least squares
(:func:`repro.metrics.cost.fit_cost_constants`), then re-evaluates every
knob at each subsequent superstep boundary under the fitted model.

Observation source: by default the tuner fits against the *modeled*
superstep seconds — the simulation's wall-clock analog, a deterministic
pure function of metered volumes.  That choice is what makes the
decision trace a pure function of (dataset, program, config) and hence
bitwise identical across serial / thread / process executors and fault
replays; ``time_source="wall"`` fits host wall clock instead (the right
choice on real hardware, documented as non-deterministic).

The tuner itself never reads the :class:`~repro.cluster.spec.ClusterSpec`
constants — recovering them is its job.  The only codec facts it uses
beyond its own measurements are *intrinsic* codec properties (model
compression ratios, relative speeds) for candidates it has not yet
exercised.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace

from repro.metrics.cost import CostSample, FittedConstants, fit_cost_constants
from repro.storage.cache import cache_plan
from repro.storage.codecs import CACHE_MODES, get_codec
from repro.tuning.plan import KnobSettings, TuningDecision, TuningPlan

__all__ = ["TuningConfig", "TuningSample", "Tuner", "TunedRun"]


@dataclass(frozen=True)
class TuningConfig:
    """Tuner behaviour knobs (defaults are the tested configuration)."""

    # Relative predicted saving (fraction of the last superstep's cost)
    # a switch must clear — hysteresis against fit noise.
    min_gain: float = 0.02
    # Rotate the message codec through unrated codecs during the first
    # supersteps so every codec's rate and achieved size are observed
    # directly.  Off → fit from whatever the configured knobs exercise.
    explore: bool = True
    # "modeled" (deterministic, executor-invariant — the default) or
    # "wall" (host wall clock; real-hardware calibration).
    time_source: str = "modeled"
    # Pipeline depth the tuner enables when I/O can hide behind compute.
    max_prefetch_depth: int = 2
    # Supersteps a one-time switch cost (cache re-encode) is amortised
    # over when weighing it against the predicted per-superstep gain.
    switch_horizon: int = 5

    def __post_init__(self) -> None:
        if self.time_source not in ("modeled", "wall"):
            raise ValueError('time_source must be "modeled" or "wall"')
        if not 0 <= self.min_gain < 1:
            raise ValueError("min_gain must be in [0, 1)")


@dataclass(frozen=True)
class TuningSample:
    """One observed superstep, as the tuner sees it.

    ``cost`` carries the straggler-attributed fit row (volumes +
    observed seconds); the rest is live workload context for candidate
    evaluation.  Every field derives from metered counters and parent
    mirrors, so samples are identical across executors.
    """

    superstep: int
    knobs: KnobSettings
    cost: CostSample
    # Straggler server's message-attributed codec bytes (total codec
    # volume minus the edge cache's share when both use the same codec).
    msg_codec_bytes: int
    updated: int
    num_vertices: int
    tiles_processed: int
    tiles_skipped: int
    # Live working set: bytes actually served this superstep (cache
    # hits + misses, uncompressed), max over servers.
    scheduled_bytes: int
    miss_bytes: int
    cache_mode: int
    cache_capacity: int
    cache_used: int
    hit_ratio: float

    @property
    def observed_s(self) -> float:
        return self.cost.observed_s


class Tuner:
    """Owns the fitted constants and builds one run's decision trace.

    Lives on the MPE across runs, so a warm service engine reuses the
    constants fitted by an earlier job: a new job with a different
    (dataset, program, config) signature starts a fresh plan but skips
    the exploration window entirely.  A run with the *same* signature —
    a supervised fault retry, or an identical resubmission — continues
    the existing plan, replaying recorded decisions verbatim.
    """

    def __init__(self, config: TuningConfig | None = None) -> None:
        self.config = config or TuningConfig()
        self.constants: FittedConstants | None = None
        self.plan: TuningPlan | None = None
        self.samples: dict[int, TuningSample] = {}
        self.fit_superstep: int | None = None
        self._signature = None
        self._rotation: list[str] = []

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def begin_run(self, signature, base: KnobSettings) -> TuningPlan:
        """Start (or continue) the plan for one run.

        Same signature as the previous run → the existing plan and
        samples are kept: recorded decisions replay verbatim, which is
        what keeps fault-recovery re-execution bitwise identical to the
        aborted attempt.  A new signature resets the trace but keeps
        the fitted constants (warm-engine reuse across jobs).
        """
        if self._signature == signature and self.plan is not None:
            return self.plan
        self._signature = signature
        self.samples = {}
        self.plan = TuningPlan(base)
        if self.constants is None and self.config.explore:
            self._rotation = [
                c for c in CACHE_MODES if c != base.message_codec
            ]
        else:
            self._rotation = []
        return self.plan

    def observe(self, sample: TuningSample) -> None:
        """Record one finished superstep (idempotent per superstep —
        fault replays overwrite with identical values)."""
        self.samples[sample.superstep] = sample

    def knobs_for(self, superstep: int) -> KnobSettings:
        """The engine's per-superstep consultation point.

        Recorded decisions replay; otherwise the tuner decides — hold
        the base (superstep 0), explore (rotation window), or optimise
        under the fitted model — and records the decision.
        """
        plan = self.plan
        if plan is None:
            raise RuntimeError("begin_run() before knobs_for()")
        recorded = plan.knobs_for(superstep)
        if recorded is not None:
            return recorded
        current = plan.latest(superstep)
        if superstep == 0:
            decision = TuningDecision(
                superstep, plan.base, "hold", reason="warmup"
            )
        elif 0 <= superstep - 1 < len(self._rotation):
            codec = self._rotation[superstep - 1]
            decision = TuningDecision(
                superstep,
                replace(current, message_codec=codec, cache_mode=None),
                "explore",
                reason=f"rate codec {codec}",
            )
        else:
            if self.constants is None and len(self.samples) >= 2:
                self.constants = fit_cost_constants(
                    [self.samples[k].cost for k in sorted(self.samples)]
                )
                self.fit_superstep = superstep
            if self.constants is None or not self.samples:
                decision = TuningDecision(
                    superstep, current, "hold", reason="no fit yet"
                )
            else:
                decision = self._decide(superstep, current)
        plan.record(decision)
        return decision.knobs

    # ------------------------------------------------------------------
    # Decisions under the fitted model
    # ------------------------------------------------------------------
    def _codec_rate_mbps(self, codec: str) -> float | None:
        """A codec's effective rate: fitted if observed, else a fitted
        reference scaled by the codecs' intrinsic relative speeds."""
        k = self.constants
        mbps = k.codec_mbps.get(codec) if k is not None else None
        if mbps:
            return mbps
        if codec == "raw" or k is None:
            return None
        want = get_codec(codec).model_decompress_mbps
        for ref in sorted(k.codec_mbps):
            ref_mbps = k.codec_mbps[ref]
            ref_speed = get_codec(ref).model_decompress_mbps
            if ref_mbps and ref_speed != float("inf"):
                return ref_mbps * want / ref_speed
        return None

    def _codec_s(self, codec: str, nbytes: float) -> float:
        """(De)compression seconds for ``nbytes`` under ``codec``."""
        if codec == "raw" or nbytes <= 0:
            return 0.0
        mbps = self._codec_rate_mbps(codec)
        return nbytes / (mbps * 1024 * 1024) if mbps else 0.0

    def _net_s(self, nbytes: float) -> float:
        k = self.constants
        return nbytes / k.net_bw if k is not None and k.net_bw else 0.0

    def _latest_for_codec(self, codec: str) -> TuningSample | None:
        steps = [
            k
            for k in self.samples
            if self.samples[k].knobs.message_codec == codec
        ]
        return self.samples[max(steps)] if steps else None

    def _codec_scores(
        self, last: TuningSample
    ) -> dict[str, float] | None:
        """Predicted next-superstep total per codec candidate.

        Each rated codec's broadcast cost (message (de)compression +
        network) is taken from its *own* most recent sample — real
        achieved sizes, no ratio guessing — normalised per updated
        vertex, and grafted onto the last superstep's non-broadcast
        remainder.  Unrated codecs are skipped; without a fitted
        network rate codecs are not comparable and scoring abstains.
        """
        k = self.constants
        if k is None or k.net_bw is None or last.updated <= 0:
            return None
        remainder = last.observed_s - (
            self._codec_s(last.knobs.message_codec, last.msg_codec_bytes)
            + self._net_s(last.cost.net_bytes)
        )
        scores: dict[str, float] = {}
        for codec in CACHE_MODES:
            s = self._latest_for_codec(codec)
            if s is None or s.updated <= 0:
                continue
            unit = (
                self._codec_s(codec, s.msg_codec_bytes)
                + self._net_s(s.cost.net_bytes)
            ) / s.updated
            scores[codec] = remainder + unit * last.updated
        return scores or None

    def _cache_step_s(
        self, mode: int, scheduled: int, capacity: int
    ) -> float:
        """Modeled per-superstep serving cost of one cache mode under
        the live working set: misses at the fitted disk rate, hits at
        the mode codec's fitted decompression rate."""
        k = self.constants
        name = CACHE_MODES[mode - 1]
        gamma = get_codec(name).model_ratio
        resident = min(1.0, capacity * gamma / scheduled) if scheduled else 1.0
        hit_bytes = scheduled * resident
        miss_bytes = scheduled - hit_bytes
        cost = miss_bytes / k.disk_bw if k is not None and k.disk_bw else 0.0
        if mode != 1:
            cost += self._codec_s(name, hit_bytes)
        return cost

    def _decide(
        self, superstep: int, current: KnobSettings
    ) -> TuningDecision:
        last = self.samples[max(self.samples)]
        cfg = self.config
        threshold = cfg.min_gain * max(last.observed_s, 1e-12)
        reasons: list[str] = []
        knobs = replace(current, cache_mode=None)
        predicted = None

        # Message codec: best measured broadcast unit cost.  At the fit
        # superstep the incumbent is whatever codec the rotation ended
        # on — an accident of exploration order, owed no loyalty — so
        # the first decision is hysteresis-free; afterwards a switch
        # must clear min_gain.
        scores = self._codec_scores(last)
        if scores and current.message_codec in scores:
            best = min(
                scores, key=lambda c: (scores[c], CACHE_MODES.index(c))
            )
            predicted = scores[best]
            margin = 0.0 if superstep == self.fit_superstep else threshold
            if (
                best != current.message_codec
                and scores[best] <= scores[current.message_codec] - margin
            ):
                knobs = replace(knobs, message_codec=best)
                reasons.append(f"codec->{best}")

        # Comm mode: hybrid's per-message size-optimal choice weakly
        # dominates either forced mode (it can pick both), so a forced
        # configuration is released once the model is trusted.
        if current.comm_mode != "hybrid":
            knobs = replace(knobs, comm_mode="hybrid")
            reasons.append("comm->hybrid")

        # Bloom filters: a probe is only charged for tiles it *skips*
        # (each skip replacing a load), so filters weakly dominate
        # whenever the frontier is sparse enough for skips to exist.
        if not current.use_bloom and last.updated < last.num_vertices:
            knobs = replace(knobs, use_bloom=True)
            reasons.append("bloom->on")

        # Cache mode: §IV-B's capacity rule re-evaluated against the
        # live scheduled working set (selective scheduling shrinks it;
        # thrash grows the miss bill), priced by the fitted model and
        # charged for the one-time re-encode of resident entries.
        if last.scheduled_bytes and last.cache_capacity:
            _, target = cache_plan(
                last.scheduled_bytes, last.cache_capacity
            )
            if target != last.cache_mode:
                gain = self._cache_step_s(
                    last.cache_mode,
                    last.scheduled_bytes,
                    last.cache_capacity,
                ) - self._cache_step_s(
                    target, last.scheduled_bytes, last.cache_capacity
                )
                cur_name = CACHE_MODES[last.cache_mode - 1]
                switch_cost = self._codec_s(
                    cur_name,
                    last.cache_used * get_codec(cur_name).model_ratio,
                )
                if (
                    gain > threshold
                    and gain * cfg.switch_horizon > switch_cost
                ):
                    knobs = replace(knobs, cache_mode=target)
                    reasons.append(f"cache->mode{target}")

        # Prefetch pipeline: on when the fitted model says I/O can hide
        # behind compute (host wall-clock only — modeled volumes and
        # results are identical at every depth).
        from repro.runtime.prefetch import recommend_depth

        k = self.constants
        io_s = (
            last.cost.disk_bytes / k.disk_bw if k.disk_bw else 0.0
        ) + sum(
            self._codec_s(c, n) for c, n in last.cost.codec_bytes.items()
        )
        compute_s = last.cost.edges / k.edge_rate if k.edge_rate else 0.0
        depth, io_threads = recommend_depth(
            io_s,
            compute_s,
            total_s=last.observed_s,
            min_overlap=cfg.min_gain,
            max_depth=cfg.max_prefetch_depth,
        )
        if (depth, io_threads) != (
            current.prefetch_depth,
            current.io_threads,
        ):
            knobs = replace(
                knobs, prefetch_depth=depth, io_threads=io_threads
            )
            reasons.append(f"prefetch->{depth}x{io_threads}")

        return TuningDecision(
            superstep,
            knobs,
            "decide",
            reason="; ".join(reasons) or "hold",
            predicted_s=predicted,
            current_s=last.observed_s,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """JSON-friendly tuning summary for the run report."""
        out: dict = {
            "time_source": self.config.time_source,
            "fit_superstep": self.fit_superstep,
            "num_samples": len(self.samples),
        }
        if self.constants is not None:
            out["constants"] = self.constants.to_dict()
            rows = [self.samples[k].cost for k in sorted(self.samples)]
            out["residuals"] = self.constants.residuals(rows)
        if self.plan is not None:
            out["plan"] = self.plan.to_dict()
        return out


class TunedRun:
    """The run participant (DESIGN.md §5o) of a run with ``tune=True``
    or an installed scripted plan: resolves each superstep's
    :class:`KnobSettings` parent-side — the single decision point, so
    every executor and fault replay consumes the identical trace — and
    feeds each finished superstep to the tuner."""

    def __init__(self, mpe) -> None:
        self.mpe = mpe
        self.tuner: Tuner | None = None
        self.plan = None
        self.tbuf = None
        self._pinned: dict = {}

    def begin_run(self, prep, graph) -> None:
        mpe = self.mpe
        base = prep.knobs
        # An externally scripted plan wins (tests/ablations force known
        # switches; never written by the tuner); otherwise the engine's
        # tuner — kept across runs, so a warm engine reuses its fitted
        # constants — starts or continues its recorded plan.
        self.plan = mpe.tuning_plan
        if self.plan is None:
            if mpe.tuner is None:
                mpe.tuner = Tuner()
            self.tuner = mpe.tuner
            # Identical signature -> the recorded plan replays (fault
            # retry, identical resubmission); different -> new plan,
            # constants kept.  ``base`` adds the forced prefetch depth.
            signature = (mpe.manifest.name, prep.program.name, mpe.config, base)
            self.plan = self.tuner.begin_run(signature, base)
        # A forced REPRO_PREFETCH depth pins the pipeline knobs — CI
        # forces a depth precisely to exercise it, so decisions must not
        # un-force it.
        self._pinned = {}
        if os.environ.get("REPRO_PREFETCH", "").strip():
            self._pinned = {
                "prefetch_depth": base.prefetch_depth,
                "io_threads": base.io_threads,
            }
        self.tbuf = mpe._lane("tuning")
        self.tbuf.instant(
            "tuning_start",
            "tuning",
            mode="tuner" if self.tuner is not None else "scripted",
        )

    def begin_superstep(self, prep, superstep: int) -> None:
        """Put ``superstep``'s knobs into force: the switch is on the
        tuning lane and the compute dispatch ships ``prep.knobs``.  What
        a knob changes *on a server* — the metered cache-mode switch —
        is the compute handler's work, on that server's counters."""
        if self.tuner is not None:
            knobs = self.tuner.knobs_for(superstep)
        else:
            knobs = self.plan.knobs_for(superstep) or replace(
                prep.knobs, cache_mode=None
            )
        if self._pinned:
            knobs = replace(knobs, **self._pinned)
        switched = knobs != prep.knobs or (
            knobs.cache_mode is not None
            and any(
                s.cache is not None and s.cache.mode != knobs.cache_mode
                for s in self.mpe.cluster.servers
            )
        )
        if switched:
            self.tbuf.instant(
                "knob_switch", "tuning", superstep=superstep, **asdict(knobs)
            )
        prep.knobs = knobs

    def end_superstep(self, prep, done) -> None:
        """Feed one finished superstep to the tuner.

        The fit row follows the cost model's straggler attribution;
        the default (deterministic) observation is the modeled superstep
        seconds minus injected fault delay, so faults perturb neither
        the fit nor the decision trace.
        """
        tuner = self.tuner
        if tuner is None:
            return
        report, knobs = done.report, prep.knobs
        straggler = self.mpe.cost_model.straggler_index(done.deltas)
        observed = (
            report.wall_s
            if tuner.config.time_source == "wall"
            else report.modeled.total_s - report.modeled.fault_s
        )
        cost = CostSample.from_deltas(done.deltas, observed, straggler)
        # Message-path codec bytes on the straggler: its total codec
        # volume minus the edge cache's share when cache and message
        # path share a codec.
        d = done.deltas[straggler]
        sserver = self.mpe.cluster.servers[straggler]
        mc = knobs.message_codec
        msg_bytes = d.decompressed.get(mc, 0) + d.compressed.get(mc, 0)
        cache = sserver.cache
        if cache is not None and cache.mode != 1 and cache.codec.name == mc:
            snap = done.before[sserver.server_id]
            msg_bytes -= (
                cache.stats.bytes_decompressed - snap.cache_bytes_decompressed
            )
        tuner.observe(
            TuningSample(
                superstep=report.superstep,
                knobs=knobs,
                cost=cost,
                msg_codec_bytes=max(0, int(msg_bytes)),
                updated=report.updated_vertices,
                num_vertices=self.mpe.manifest.num_vertices,
                tiles_processed=report.tiles_processed,
                tiles_skipped=report.tiles_skipped,
                # Live working set for the cache decision: the blob
                # bytes the straggler's sweep was scheduled to serve.
                scheduled_bytes=sum(
                    nbytes for _tid, _name, nbytes in done.schedule[straggler].run
                ),
                miss_bytes=int(d.disk_read_random),
                cache_mode=cache.mode if cache is not None else 1,
                cache_capacity=(
                    cache.capacity_bytes if cache is not None else 0
                ),
                cache_used=int(sserver.counters.mem_cache),
                hit_ratio=report.cache_hit_ratio,
            )
        )
        if tuner.fit_superstep == report.superstep:
            self.tbuf.instant(
                "fit",
                "tuning",
                superstep=report.superstep,
                num_samples=len(tuner.samples),
            )

    def end_run(self, prep, result) -> None:
        """Fill ``RunResult.tuning``: the tuner's summary (fitted
        constants, residuals, decision trace), or the scripted plan."""
        result.tuning = (
            self.tuner.report()
            if self.tuner is not None
            else {"plan": self.plan.to_dict()}
        )
