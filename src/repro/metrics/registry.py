"""A deterministic, schema-stable metrics registry.

Three instrument kinds cover every counter the reproduction tracks:

* :class:`Counter` — a monotone integer.  Counters are the *deterministic*
  part of the registry: at a fixed seed, every counter is a pure function
  of (model, config), so workers=1 and workers=N runs merge to identical
  totals and the equivalence suite pins them bit-for-bit.
* :class:`Gauge` — a float with a declared combine mode (``sum`` / ``max``
  / ``min``).  Wall-clock totals and peak sizes live here; gauges may
  carry timing and are therefore *excluded* from determinism pins.
* :class:`Histogram` — integer bucket counts over **fixed bounds declared
  at registration**.  Bucket ``i`` counts observations ``<= bounds[i]``;
  the final implicit bucket counts the overflow.  Bucket counts share the
  counters' determinism contract; only ``sum`` is a float.

Snapshots are plain JSON documents tagged :data:`METRICS_SCHEMA` whose key
set is fixed by the declared instruments — a zero counter and an absent
counter must never look different run-to-run.  :func:`merge_snapshots` is
commutative (integer sums, IEEE float addition is commutative, min/max are
symmetric), so per-worker registries can be folded together in any pairing;
aggregators that need *bit*-stable float sums additionally sort their
inputs into a canonical order before folding (see
:func:`repro.telemetry.events.build_manifest`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import MetricsError

__all__ = [
    "Counter",
    "Gauge",
    "GAUGE_MODES",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "delta_snapshots",
    "empty_snapshot",
    "merge_snapshots",
]

#: Version tag embedded in every snapshot.
METRICS_SCHEMA = "repro.metrics/1"

#: Commutative combine modes a gauge may declare.
GAUGE_MODES = ("sum", "max", "min")


class Counter:
    """A monotone integer instrument."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        n = int(n)
        if n < 0:
            raise MetricsError(
                f"counter {self.name!r} cannot decrease (inc({n}))"
            )
        self.value += n


class Gauge:
    """A float instrument with a declared commutative combine mode.

    ``value`` is ``None`` until the first :meth:`record`, so ``min``-mode
    gauges need no sentinel and empty registries stay schema-stable.
    """

    __slots__ = ("name", "mode", "value")
    kind = "gauge"

    def __init__(self, name: str, mode: str = "sum"):
        if mode not in GAUGE_MODES:
            raise MetricsError(
                f"gauge {name!r}: mode must be one of {GAUGE_MODES}, "
                f"got {mode!r}"
            )
        self.name = name
        self.mode = mode
        self.value: Optional[float] = None

    def record(self, v: float) -> None:
        v = float(v)
        self.value = _combine_gauge(self.mode, self.value, v)


class Histogram:
    """Integer bucket counts over fixed, declared bounds.

    ``bounds`` must be strictly increasing; observation ``v`` lands in the
    first bucket with ``v <= bound``, or the implicit overflow bucket, so
    ``len(counts) == len(bounds) + 1`` always.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum")
    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float]):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise MetricsError(f"histogram {name!r} needs at least one bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise MetricsError(
                f"histogram {name!r}: bounds must be strictly increasing, "
                f"got {bounds}"
            )
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, v: float) -> None:
        v = float(v)
        for i, bound in enumerate(self.bounds):
            if v <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.sum += v


class MetricsRegistry:
    """A named collection of instruments with a schema-stable snapshot.

    Instruments are get-or-create: asking twice for the same name returns
    the same object, while re-declaring a name as a different kind (or
    with different gauge mode / histogram bounds) raises
    :class:`~repro.errors.MetricsError` — the schema is part of the
    instrument's identity, never silently widened.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- declaration / lookup ------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_name(name, "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str, mode: str = "sum") -> Gauge:
        self._check_name(name, "gauge")
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name, mode)
        elif instrument.mode != mode:
            raise MetricsError(
                f"gauge {name!r} already declared with mode "
                f"{instrument.mode!r}, not {mode!r}"
            )
        return instrument

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        self._check_name(name, "histogram")
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        elif instrument.bounds != tuple(float(b) for b in bounds):
            raise MetricsError(
                f"histogram {name!r} already declared with bounds "
                f"{instrument.bounds}, not {tuple(bounds)}"
            )
        return instrument

    def _check_name(self, name: str, kind: str) -> None:
        if not name or not isinstance(name, str):
            raise MetricsError(f"instrument name must be a non-empty string, "
                               f"got {name!r}")
        for registered, existing in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if registered != kind and name in existing:
                raise MetricsError(
                    f"{name!r} is already a {registered}, cannot "
                    f"re-declare it as a {kind}"
                )

    # -- snapshot ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready document over every declared instrument.

        Deterministic: names are sorted, every declared instrument appears
        (zeros included), floats are rounded to 9 decimals so repr noise
        never leaks into stream comparisons.
        """
        return {
            "schema": METRICS_SCHEMA,
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: {
                    "mode": g.mode,
                    "value": _round(g.value),
                }
                for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": _round(h.sum),
                }
                for name, h in sorted(self._histograms.items())
            },
        }


def empty_snapshot() -> Dict[str, object]:
    """The snapshot of a registry with no instruments."""
    return MetricsRegistry().snapshot()


def _round(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(float(value), 9)


def _combine_gauge(
    mode: str, a: Optional[float], b: Optional[float]
) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    if mode == "sum":
        return a + b
    if mode == "max":
        return max(a, b)
    return min(a, b)


def merge_snapshots(
    a: Dict[str, object], b: Dict[str, object]
) -> Dict[str, object]:
    """Commutatively merge two snapshots into a new one.

    ``merge(a, b) == merge(b, a)`` by construction: counters and histogram
    bucket counts are integer sums, gauges combine through their declared
    symmetric mode, and instruments present on only one side pass through
    unchanged.  Conflicting declarations (same name, different gauge mode
    or histogram bounds) raise :class:`~repro.errors.MetricsError`.
    """
    _check_schema(a)
    _check_schema(b)
    counters: Dict[str, int] = dict(a.get("counters") or {})
    for name, value in (b.get("counters") or {}).items():
        counters[name] = int(counters.get(name, 0)) + int(value)
    gauges: Dict[str, Dict[str, object]] = {
        name: dict(stat) for name, stat in (a.get("gauges") or {}).items()
    }
    for name, stat in (b.get("gauges") or {}).items():
        mine = gauges.get(name)
        if mine is None:
            gauges[name] = dict(stat)
            continue
        if mine.get("mode") != stat.get("mode"):
            raise MetricsError(
                f"gauge {name!r}: cannot merge mode {mine.get('mode')!r} "
                f"with {stat.get('mode')!r}"
            )
        mine["value"] = _round(_combine_gauge(
            str(mine["mode"]), _opt_float(mine.get("value")),
            _opt_float(stat.get("value")),
        ))
    histograms: Dict[str, Dict[str, object]] = {
        name: {**stat, "bounds": list(stat["bounds"]),
               "counts": list(stat["counts"])}
        for name, stat in (a.get("histograms") or {}).items()
    }
    for name, stat in (b.get("histograms") or {}).items():
        mine = histograms.get(name)
        if mine is None:
            histograms[name] = {**stat, "bounds": list(stat["bounds"]),
                                "counts": list(stat["counts"])}
            continue
        if list(mine["bounds"]) != list(stat["bounds"]):
            raise MetricsError(
                f"histogram {name!r}: cannot merge bounds "
                f"{mine['bounds']} with {stat['bounds']}"
            )
        mine["counts"] = [
            int(x) + int(y) for x, y in zip(mine["counts"], stat["counts"])
        ]
        mine["count"] = int(mine["count"]) + int(stat["count"])
        mine["sum"] = _round(float(mine["sum"]) + float(stat["sum"]))
    return {
        "schema": METRICS_SCHEMA,
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "histograms": {name: histograms[name] for name in sorted(histograms)},
    }


def delta_snapshots(
    new: Dict[str, object], old: Dict[str, object]
) -> Dict[str, object]:
    """What happened between ``old`` and ``new`` (same-registry snapshots).

    Counters and histogram counts subtract (never below zero is *not*
    enforced — a negative delta is a real signal that the streams were not
    successive snapshots of one registry); ``sum``-mode gauges subtract,
    ``max``/``min`` gauges pass the newer value through (a peak has no
    meaningful difference).
    """
    _check_schema(new)
    _check_schema(old)
    old_counters = old.get("counters") or {}
    counters = {
        name: int(value) - int(old_counters.get(name, 0))
        for name, value in (new.get("counters") or {}).items()
    }
    gauges: Dict[str, Dict[str, object]] = {}
    old_gauges = old.get("gauges") or {}
    for name, stat in (new.get("gauges") or {}).items():
        prior = old_gauges.get(name) or {}
        if stat.get("mode") == "sum" and _opt_float(prior.get("value")) is not None:
            value = _round(
                (_opt_float(stat.get("value")) or 0.0)
                - (_opt_float(prior.get("value")) or 0.0)
            )
        else:
            value = stat.get("value")
        gauges[name] = {"mode": stat.get("mode"), "value": value}
    histograms: Dict[str, Dict[str, object]] = {}
    old_histograms = old.get("histograms") or {}
    for name, stat in (new.get("histograms") or {}).items():
        prior = old_histograms.get(name)
        if prior is None or list(prior["bounds"]) != list(stat["bounds"]):
            histograms[name] = {**stat, "bounds": list(stat["bounds"]),
                                "counts": list(stat["counts"])}
            continue
        histograms[name] = {
            "bounds": list(stat["bounds"]),
            "counts": [
                int(x) - int(y)
                for x, y in zip(stat["counts"], prior["counts"])
            ],
            "count": int(stat["count"]) - int(prior["count"]),
            "sum": _round(float(stat["sum"]) - float(prior["sum"])),
        }
    return {
        "schema": METRICS_SCHEMA,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def _opt_float(value) -> Optional[float]:
    return None if value is None else float(value)


def _check_schema(snapshot: Dict[str, object]) -> None:
    schema = snapshot.get("schema")
    if schema != METRICS_SCHEMA:
        raise MetricsError(
            f"expected a {METRICS_SCHEMA} snapshot, got schema {schema!r}"
        )


def fold_snapshots(
    snapshots: List[Tuple[object, Dict[str, object]]]
) -> Dict[str, object]:
    """Merge ``(sort_key, snapshot)`` pairs in canonical key order.

    The canonical order makes float sums *bit*-stable no matter what order
    the snapshots arrived in (completion order differs between workers=1
    and workers=N; sorted order does not).
    """
    merged = empty_snapshot()
    for _, snapshot in sorted(snapshots, key=lambda item: repr(item[0])):
        merged = merge_snapshots(merged, snapshot)
    return merged
