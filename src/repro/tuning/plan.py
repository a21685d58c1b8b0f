"""Per-superstep knob decisions: the autotuner's determinism artifact.

The engine's tunable surface — message codec, comm mode, bloom
filtering, prefetch pipeline depth, cache mode — is collapsed into one
frozen :class:`KnobSettings` value per superstep, and a run's sequence
of those values is a :class:`TuningPlan`.  The MPE consults the plan at
each superstep boundary and *only* there, which is what makes mid-run
switches safe: every executor (serial / thread / process) and every
fault-replay attempt consumes the identical decision trace, the same
parent-side-resolution pattern selective scheduling already uses for
its skip sets.

Plans come in two flavours:

* **Recorded** (the :class:`~repro.tuning.tuner.Tuner`'s output): one
  explicit decision per superstep, appended as the run advances.  A
  superstep already present replays verbatim — a supervised retry after
  a fault re-reads the recorded knobs instead of re-deciding, so the
  replayed supersteps are bitwise identical to the aborted attempt.
* **Scripted** (``TuningPlan.scripted``): a sparse ``superstep →
  knobs`` mapping with sticky semantics (a switch at superstep *k*
  holds until the next entry).  Tests and ablations use this to force
  switches at known instants without running the tuner.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields

__all__ = ["KnobSettings", "TuningDecision", "TuningPlan"]


# A settings field carries its knob row's name, except here.
FIELD_OF_ROW = {"use_bloom_filters": "use_bloom"}


@dataclass(frozen=True)
class KnobSettings:
    """One superstep's effective knob values.

    Every field is concrete except ``cache_mode``, where ``None`` means
    "leave the attached cache alone" — the common case; a number
    triggers a metered :meth:`~repro.storage.cache.EdgeCache.switch_mode`
    at the superstep boundary.  Values are lossless re-encodings of the
    same updates, so switching any knob never changes results.
    """

    message_codec: str = "snappylike"
    comm_mode: str = "hybrid"
    use_bloom: bool = True
    prefetch_depth: int = 0
    io_threads: int = 1
    cache_mode: int | None = None

    @classmethod
    def of(cls, config, **resolved) -> "KnobSettings":
        """``config``'s ``tunable`` knob rows (:mod:`repro.core.knobs` —
        the rows *are* these fields) as one concrete settings object:
        what every superstep of an untuned run executes, and the tuner's
        starting point.  ``resolved`` overrides a configured value with
        the run's effective one (a forced prefetch depth); ``cache_mode``
        starts ``None``: set-up already attached the configured cache."""
        values = {
            FIELD_OF_ROW.get(f.name, f.name): getattr(config, f.name)
            for f in fields(config)
            if f.metadata["knob"].tunable
        }
        return cls(**{**values, "cache_mode": None, **resolved})


@dataclass(frozen=True)
class TuningDecision:
    """One recorded decision: the knobs plus why they were chosen."""

    superstep: int
    knobs: KnobSettings
    phase: str  # "hold" | "explore" | "decide"
    reason: str = ""
    predicted_s: float | None = None
    current_s: float | None = None

    def to_dict(self) -> dict:
        out = {
            "superstep": self.superstep,
            "phase": self.phase,
            "reason": self.reason,
            "knobs": asdict(self.knobs),
        }
        if self.predicted_s is not None:
            out["predicted_s"] = round(self.predicted_s, 9)
        if self.current_s is not None:
            out["current_s"] = round(self.current_s, 9)
        return out


class TuningPlan:
    """The per-superstep decision trace one run consumes.

    ``base`` is the configured starting point (superstep 0 always runs
    it unless a decision overrides).  :meth:`knobs_for` is the engine's
    single consultation point.
    """

    def __init__(self, base: KnobSettings, sticky: bool = False) -> None:
        self.base = base
        self.sticky = sticky
        self._decisions: dict[int, TuningDecision] = {}

    @classmethod
    def scripted(
        cls, switches: dict[int, KnobSettings], base: KnobSettings | None = None
    ) -> "TuningPlan":
        """Sticky plan from a sparse ``superstep → knobs`` mapping."""
        plan = cls(base or KnobSettings(), sticky=True)
        for superstep, knobs in sorted(switches.items()):
            plan.record(
                TuningDecision(
                    superstep=int(superstep),
                    knobs=knobs,
                    phase="decide",
                    reason="scripted",
                )
            )
        return plan

    @property
    def decisions(self) -> list[TuningDecision]:
        return [self._decisions[k] for k in sorted(self._decisions)]

    def record(self, decision: TuningDecision) -> None:
        self._decisions[decision.superstep] = decision

    def knobs_for(self, superstep: int) -> KnobSettings | None:
        """The recorded knobs governing ``superstep``; ``None`` when
        nothing is recorded (the engine then asks the tuner to decide,
        or — with no tuner — runs the base/current knobs)."""
        d = self._decisions.get(superstep)
        if d is not None:
            return d.knobs
        if self.sticky:
            past = [k for k in self._decisions if k <= superstep]
            if past:
                return self._decisions[max(past)].knobs
        return None

    def latest(self, superstep: int | None = None) -> KnobSettings:
        """The most recent knobs at or before ``superstep`` (default:
        latest overall); the base when nothing is recorded yet."""
        keys = [
            k
            for k in self._decisions
            if superstep is None or k <= superstep
        ]
        return self._decisions[max(keys)].knobs if keys else self.base

    def trace(self) -> list[tuple]:
        """Deterministic decision fingerprint — what the cross-executor
        identity tests compare."""
        return [
            (d.superstep, d.phase, astuple(d.knobs))
            for d in self.decisions
        ]

    def switches(self) -> list[int]:
        """Supersteps where the effective knobs changed."""
        out = []
        prev = self.base
        for d in self.decisions:
            if d.knobs != prev:
                out.append(d.superstep)
            prev = d.knobs
        return out

    def to_dict(self) -> dict:
        return {
            "base": asdict(self.base),
            "sticky": self.sticky,
            "decisions": [d.to_dict() for d in self.decisions],
            "switch_supersteps": self.switches(),
        }
