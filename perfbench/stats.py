"""The benchmark's own arithmetic: percentile choice, spreads, fingerprints.

Kept free of numpy and of the simulator so the tests in ``perfbench/tests``
can pin every rule down on hand-made inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Iterable, Optional, Sequence

#: a percentile is reported only when at least this many samples lie
#: beyond it
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples of an ``n``-sample set that lie strictly beyond its
    ``q``-th percentile rank: ``n - ceil(n * q / 100)``.

    The product is rounded to 9 decimals first so that e.g.
    ``1000 * 99.9 / 100`` counts as 999, not 999.0000000000001.
    """
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    return n - math.ceil(round(n * q / 100.0, 9))


def min_samples_for(q: float) -> int:
    """Smallest sample count whose ``q``-th percentile has
    ``MIN_BEYOND`` samples beyond it."""
    n = MIN_BEYOND
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    xs = sorted(float(x) for x in samples)
    if not xs:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    pos = q / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


def supported_percentile(samples: Sequence[float], q: float
                         ) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when fewer than
    ``MIN_BEYOND`` samples lie beyond it."""
    if samples_beyond(len(samples), q) < MIN_BEYOND:
        return None
    return percentile(samples, q)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``): the spread a run
    reports over its passes, and the rule the bounds in
    ``BENCHMARK.json`` are checked with across runs."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        raise ValueError("quartile spread of values with median 0")
    return (q3 - q1) / abs(med)


def failed_share(attempted: int, failed: int) -> float:
    """Share of failed or refused operations out of those attempted."""
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed must lie in [0, {attempted}], got {failed}")
    return failed / attempted


def _canonical(obj: Any) -> Any:
    """A JSON-encodable form in which equal simulated outputs, and only
    those, encode equally: floats by their exact bits, containers
    recursively, numpy arrays and scalars through ``tolist``."""
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, float):
        return {"f": obj.hex()}
    if isinstance(obj, dict):
        return [[_canonical(k), _canonical(v)]
                for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    tolist = getattr(obj, "tolist", None)
    if tolist is not None:  # numpy arrays and scalars
        return _canonical(tolist())
    raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def fingerprint(obj: Any) -> str:
    """Stable hex digest of a simulated output."""
    blob = json.dumps(_canonical(obj), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
