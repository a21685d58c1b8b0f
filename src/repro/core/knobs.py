"""Knobs are rows: a tunable is declared once, as a dataclass field.

A config dataclass (:class:`repro.core.mpe.MPEConfig`) declares each
knob as ``name: type = knob(default, scope=…, help=…, …)``.
That declaration is the knob's only copy; everything that used to
re-list knobs by hand reads the rows instead (DESIGN.md, "Knobs are
rows"):

* validation — ``__post_init__`` is ``for row in knob_rows(cls):
  row.check(value)``;
* :func:`overlay` — the one "lay these settings over that config" every
  front door uses (``GraphH(**knobs)``, a service job, the CLI);
* the CLI's flags, ``JobSpec``'s run-scoped set, service admission, the
  warm-engine rule and the README's reference table.

A row's ``scope`` says when the knob binds.  ``"run"``: read at the
start of every run, so it is a per-run choice — ``repro run`` has
its flag, a ``JobSpec`` may carry it, a warm engine accepts a swap
between runs.  ``"setup"``: fixed when the engine is built (for the
service: when the graph is registered) — settable through the config
object or a ``GraphH`` kwarg only, and an engine whose ``setup()`` has
run refuses a change instead of ignoring it.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import typing

__all__ = ["Knob", "knob", "knob_rows", "knob_row", "overlay"]

SCOPES = ("setup", "run")
# An ``int`` row takes any integral number (numpy's included), a
# ``float`` row any real one; bool is never a number here.
_ACCEPTS = {int: numbers.Integral, float: numbers.Real}


class Knob(typing.NamedTuple):
    """One row: what :func:`knob` is given, plus what :func:`knob_rows`
    reads off the field declaration around it."""

    scope: str
    # One line on what the knob sets: a flag's help text, README's table.
    help: str
    choices: tuple | None = None
    min: float | None = None
    # The shorter name the front doors spell (flag, ``GraphH`` kwarg,
    # ``JobSpec`` key) where it differs from the field's.
    alias: str | None = None
    # The online tuner may switch it at a superstep boundary.
    tunable: bool = False
    # Needs state only a long-lived engine has: one-shot commands do
    # not offer its flag.
    warm_only: bool = False
    # --- from the declaration -----------------------------------------
    name: str = ""
    type: type = object
    optional: bool = False  # None is a legal value
    default: object = None

    @property
    def key(self) -> str:
        """The name the front doors spell (the alias when there is one)."""
        return self.alias or self.name

    @property
    def flag(self) -> str | None:
        """The CLI flag — run-scoped rows have one, set-up rows none."""
        if self.scope != "run":
            return None
        return "--" + self.key.replace("_", "-")

    def check(self, value) -> None:
        """Type, ``choices`` and ``min`` — never coerced; the error
        names the field."""
        if value is None and self.optional:
            return
        or_none = " or None" if self.optional else ""
        if not isinstance(value, _ACCEPTS.get(self.type, self.type)) or (
            self.type is not bool and isinstance(value, bool)
        ):
            raise TypeError(
                f"{self.name} must be {self.type.__name__}{or_none}, "
                f"got {type(value).__name__} {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"{self.name} must be one of {self.choices}, got {value!r}"
            )
        if self.min is not None and value < self.min:
            raise ValueError(f"{self.name} must be >= {self.min}{or_none}")


def knob(default, **row) -> dataclasses.Field:
    """A dataclass field that is one knob row:
    ``name: type = knob(default, scope=…, help=…, …)``."""
    if row["scope"] not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {row['scope']!r}")
    return dataclasses.field(default=default, metadata={"knob": Knob(**row)})


@functools.cache
def knob_rows(cls) -> tuple[Knob, ...]:
    """Every knob row of a config dataclass, in declaration order."""
    hints = typing.get_type_hints(cls)
    rows = []
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name]) or (hints[f.name],)
        (base,) = (a for a in args if a is not type(None))
        rows.append(
            f.metadata["knob"]._replace(
                name=f.name,
                type=base,
                optional=type(None) in args,
                default=f.default,
            )
        )
    return tuple(rows)


@functools.cache
def _by_key(cls) -> dict[str, Knob]:
    return {k: row for row in knob_rows(cls) for k in (row.name, row.key)}


def knob_row(cls, key: str) -> Knob:
    """The row a field name or alias names (``TypeError`` if none does)."""
    try:
        return _by_key(cls)[key]
    except KeyError:
        raise TypeError(f"unknown knob {key!r}") from None


def overlay(base, *, scope: str | None = None, **knobs):
    """``base`` with ``knobs`` laid over it, each named by field or alias.

    ``None`` means unset (the base's value stands); a name no row has is
    a ``TypeError``, as is — with ``scope`` given — a knob of another
    scope.  The result is built by ``dataclasses.replace``, so it went
    through the same ``__post_init__`` row checks as any other config.
    """
    changes = {}
    for key, value in knobs.items():
        row = knob_row(type(base), key)
        if scope is not None and row.scope != scope:
            raise TypeError(
                f"{key} is {row.scope}-scoped: only {scope}-scoped knobs "
                "can be set here"
            )
        if value is None:
            continue
        if row.name in changes:
            raise TypeError(f"{row.name} given twice (also as {row.alias})")
        changes[row.name] = value
    return dataclasses.replace(base, **changes) if changes else base

