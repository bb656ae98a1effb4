"""Instance data for both network stages: channel matrices, gateway states,
random generation and JSON serialization.

Powers are stored in watts internally.  Instance files quote powers in mW,
matching the usual link-budget convention, and are converted on load/save.
Gains are amplitude values; every rate formula squares them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import InstanceFormatError

MW_PER_W = 1000.0


def _finite_positive(*values):
    """Whether every value is a finite number above 0 (NaN is not)."""
    return all(math.isfinite(v) and v > 0 for v in values)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _fields_equal(self, other):
    """__eq__ of the dataclass value types: the same type, and every field
    equal by np.array_equal; NotImplemented for another type."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self))


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Stage-1 instance: K geophones, N gateways, amplitude gains and powers.

    gains[j, i] is the link gain between geophone j and gateway i.
    gp_power and noise_power are in watts.
    """

    num_gps: int
    num_gws: int
    gains: np.ndarray
    gp_power: float
    noise_power: float

    def __post_init__(self):
        if self.num_gps < 1 or self.num_gws < 1:
            raise ValueError("num_gps and num_gws must be positive")
        if not _finite_positive(self.gp_power, self.noise_power):
            raise ValueError("gp_power and noise_power must be finite and positive")
        gains = _frozen_array(self.gains)
        if gains.shape != (self.num_gps, self.num_gws):
            raise ValueError(
                f"gains shape {gains.shape} does not match "
                f"({self.num_gps}, {self.num_gws})"
            )
        if not np.all(np.isfinite(gains)) or np.any(gains < 0):
            raise ValueError("gains must be finite and nonnegative")
        object.__setattr__(self, "gains", gains)

    __eq__ = _fields_equal

    @cached_property
    def squared_gains(self):
        """(N, K) array whose row i holds gains[:, i] ** 2, gateway i's
        squared gains in geophone order.  Computed on first use, then
        kept, read-only like gains."""
        h2 = np.ascontiguousarray((self.gains ** 2).T)
        h2.setflags(write=False)
        return h2

    @cached_property
    def decode_arrays(self):
        """(order, inverse, h2, ph2), four (N, K) arrays whose row i is
        gateway i's: the geophones in descending-gain SIC decode order
        (ties to the lower index), the inverse permutation, the squared
        gains in decode order and gp_power times them.  Computed on first
        use, then kept, read-only like gains."""
        order = np.argsort(-self.gains.T, axis=1, kind="stable")
        h2 = np.take_along_axis(self.squared_gains, order, axis=1)
        arrays = (order, np.argsort(order, axis=1), h2, self.gp_power * h2)
        for array in arrays:
            array.setflags(write=False)
        return arrays

    @cached_property
    def decode_table(self):
        """Per gateway, its rows of decode_arrays: (order, inverse, h2, ph2)."""
        return tuple(zip(*self.decode_arrays))


@dataclass(frozen=True, eq=False)
class GatewayState:
    """Stage-2 instance: per-gateway queue rates (bps/Hz), amplitude gains to
    the data center, noise power and optional power caps (all watts).

    per_gw_power_cap bounds each individual power (min-total / min-max);
    total_power_cap bounds the sum of powers (weighted-sum).
    """

    num_gws: int
    queue_rates: np.ndarray
    gains: np.ndarray
    noise_power: float
    per_gw_power_cap: float | None = None
    total_power_cap: float | None = None

    def __post_init__(self):
        if self.num_gws < 1:
            raise ValueError("num_gws must be positive")
        if not _finite_positive(self.noise_power):
            raise ValueError("noise_power must be finite and positive")
        q = _frozen_array(self.queue_rates)
        g = _frozen_array(self.gains)
        if q.shape != (self.num_gws,) or g.shape != (self.num_gws,):
            raise ValueError("queue_rates and gains must have length num_gws")
        qg = np.append(q, g)
        if not (np.isfinite(qg) & (qg >= 0)).all():
            raise ValueError("queue_rates and gains must be finite and nonnegative")
        for name in ("per_gw_power_cap", "total_power_cap"):
            cap = getattr(self, name)
            if cap is not None and not _finite_positive(cap):
                raise ValueError(f"{name} must be finite and positive when present")
        object.__setattr__(self, "queue_rates", q)
        object.__setattr__(self, "gains", g)

    __eq__ = _fields_equal


def generate_rayleigh(num_gps, num_gws, gp_power, noise_power, seed, scale=1.0):
    """Draw a ChannelMatrix with i.i.d. Rayleigh amplitude gains.

    Deterministic for a fixed seed; the default unit scale gives
    E[h^2] = 2.
    """
    if num_gps < 1 or num_gws < 1:
        raise ValueError("num_gps and num_gws must be positive")
    if gp_power <= 0 or noise_power <= 0:
        raise ValueError("powers must be positive")
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = np.random.default_rng(int(seed))
    gains = rng.rayleigh(scale=scale, size=(num_gps, num_gws))
    return ChannelMatrix(num_gps, num_gws, gains, gp_power, noise_power)


def generate_gateways(num_gws, seed, q_low=0.5, q_high=1.5, noise_power=1e-3,
                      per_gw_power_cap=None, total_power_cap=None, scale=1.0):
    """Draw a GatewayState with uniform queue rates and Rayleigh gains."""
    if num_gws < 1:
        raise ValueError("num_gws must be positive")
    rng = np.random.default_rng(int(seed))
    q = rng.uniform(q_low, q_high, size=num_gws)
    g = rng.rayleigh(scale=scale, size=num_gws)
    return GatewayState(num_gws, q, g, noise_power,
                        per_gw_power_cap=per_gw_power_cap,
                        total_power_cap=total_power_cap)


_REQUIRED = object()


def _json_type(types, what):
    """Converter that passes a value of one JSON type; a bool is no number."""
    def read(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError(f"expected {what}, got {json.dumps(value)}")
        return value
    return read


_integer = _json_type(int, "an integer")
_number = _json_type((int, float), "a number")
_string = _json_type(str, "a string")
_list = _json_type(list, "a list")


def _list_of(convert):
    return lambda value: tuple(map(convert, _list(value)))


def _floats(value):
    """A JSON list of numbers, or of such lists, as a float array."""
    return np.array(_list(value), dtype=float)


def _read_field(what, doc, key, convert, default=_REQUIRED):
    """convert(doc[key]) from a JSON object such as a "channel instance";
    a missing required key, or a value convert rejects with TypeError or
    ValueError, is an InstanceFormatError naming the key.  A null stands
    for an absent key only where the default is None."""
    if key not in doc:
        if default is _REQUIRED:
            raise InstanceFormatError(f"{what} missing field {key!r}")
        return default
    if doc[key] is None and default is None:
        return None
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{what} field {key!r}: {exc}") from None


def _watts(what, doc, mw_key, w_key, default=_REQUIRED):
    """A power in watts: the exact watt field, else the mW field / 1000."""
    mw = _read_field(what, doc, mw_key, _number, default)
    watts = _read_field(what, doc, w_key, _number, None)
    return mw / MW_PER_W if watts is None and mw is not None else watts


def _channel_from_doc(doc):
    what = "channel instance"
    k = _read_field(what, doc, "K", _integer)
    n = _read_field(what, doc, "N", _integer)
    gains = _read_field(what, doc, "H", _floats)
    p_w = _watts(what, doc, "P_mW", "P_W")
    n0_w = _watts(what, doc, "N0_mW", "N0_W")
    if gains.shape != (k, n):
        raise InstanceFormatError(
            f"field 'H' has shape {gains.shape}, expected ({k}, {n})"
        )
    try:
        return ChannelMatrix(k, n, gains, p_w, n0_w)
    except ValueError as exc:
        raise InstanceFormatError(str(exc))


def _gateways_from_doc(doc):
    what = "gateways instance"
    n = _read_field(what, doc, "N", _integer)
    q = _read_field(what, doc, "Q", _floats)
    g = _read_field(what, doc, "G", _floats)
    n0_w = _watts(what, doc, "N0_mW", "N0_W")
    pmax_w = _watts(what, doc, "Pmax_mW", "Pmax_W", None)
    ptot_w = _watts(what, doc, "Ptotal_max_mW", "Ptotal_max_W", None)
    if q.shape != (n,):
        raise InstanceFormatError(f"field 'Q' has length {q.size}, expected {n}")
    if g.shape != (n,):
        raise InstanceFormatError(f"field 'G' has length {g.size}, expected {n}")
    try:
        return GatewayState(
            n, q, g, n0_w,
            per_gw_power_cap=pmax_w,
            total_power_cap=ptot_w,
        )
    except ValueError as exc:
        raise InstanceFormatError(str(exc))


def load_instance(path):
    """Load a ChannelMatrix or GatewayState from a JSON instance file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: top level must be an object")
    kind = doc.get("kind")
    if kind == "channel":
        return _channel_from_doc(doc)
    if kind == "gateways":
        return _gateways_from_doc(doc)
    raise InstanceFormatError(f"{path}: field 'kind' must be 'channel' or 'gateways'")


def _power_fields(doc, watts, mw_key, w_key):
    # The mW form is the documented schema; an exact watt field is added
    # only when the x1000 conversion is not invertible in binary floats.
    if watts is None:
        return
    mw = watts * MW_PER_W
    doc[mw_key] = mw
    if mw / MW_PER_W != watts:
        doc[w_key] = watts


def save_instance(instance, path):
    """Write an instance as JSON; load(save(x)) == x exactly."""
    if isinstance(instance, ChannelMatrix):
        doc = {
            "kind": "channel",
            "K": instance.num_gps,
            "N": instance.num_gws,
        }
        _power_fields(doc, instance.gp_power, "P_mW", "P_W")
        _power_fields(doc, instance.noise_power, "N0_mW", "N0_W")
        doc["H"] = instance.gains.tolist()
    elif isinstance(instance, GatewayState):
        doc = {
            "kind": "gateways",
            "N": instance.num_gws,
            "Q": instance.queue_rates.tolist(),
            "G": instance.gains.tolist(),
        }
        _power_fields(doc, instance.noise_power, "N0_mW", "N0_W")
        _power_fields(doc, instance.per_gw_power_cap, "Pmax_mW", "Pmax_W")
        _power_fields(doc, instance.total_power_cap, "Ptotal_max_mW", "Ptotal_max_W")
    else:
        raise TypeError(f"cannot serialize {type(instance).__name__}")
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def fixture_path(name):
    """Path of a bundled instance fixture (e.g. 'channel_3x2.json')."""
    return resources.files("seisrate.data") / name
