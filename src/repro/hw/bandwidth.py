"""Processor-sharing arbitration of the shared HBM bandwidth.

On silicon every engine (MME, TPC cluster, DMA) drains its HBM traffic
through the *same* memory controllers, so truly concurrent phases share
the effective bandwidth instead of each seeing all of it (DESIGN.md §7
used to list this as the simulator's biggest known bias; GFormer's
Gaudi measurements, arXiv:2412.19829, show MME/TPC co-execution is
bandwidth-arbitrated on hardware).

:class:`BandwidthArbiter` is the fluid (processor-sharing) model of
that controller: each *drainer* — one executing op with outstanding
HBM traffic — receives an equal share of the effective bandwidth,
water-filled against per-drainer rate caps (a DMA channel cannot pull
more than its own link rate, so its unused share flows back to the
uncapped engines). The contended runtime advances the arbiter between
discrete events; the arbiter integrates every drainer's remaining
bytes under piecewise-constant rates and reports completions.

The aggregate allocation never exceeds the effective bandwidth and is
work-conserving (adding drainers never reduces total drain rate), so
contention can stretch a schedule but never beats the uncontended
timing — invariants the property suite checks via :attr:`rate_log`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..util.errors import ExecutionError

#: residual bytes treated as fully drained (floating-point dust from
#: integrating rate * dt across events)
DRAIN_EPS_BYTES = 1e-6

#: pool size above which the arbiter's drain math switches from the
#: per-drainer Python loop to array ops over the (remaining, rate)
#: vectors; both paths do the same IEEE-754 arithmetic per element, so
#: the crossover is a pure performance knob
VECTOR_MIN_DRAINERS = 4

#: residual drain *time* treated as complete — a remaining-time below
#: the clock's resolution can never advance the clock (us)
DRAIN_EPS_TIME_US = 1e-9


@dataclass
class _Drainer:
    """One op's outstanding HBM traffic."""

    key: int
    remaining_bytes: float
    total_bytes: float
    rate_cap: float = math.inf  # bytes/s this drainer alone can pull
    started_us: float = 0.0
    #: current allocated rate in bytes/s (set by _reallocate)
    rate: float = 0.0
    #: when the last byte drained (set on completion)
    drained_us: float | None = None
    #: residual bytes below which the drainer counts as done — fixed at
    #: admission (``max(DRAIN_EPS_BYTES, 1e-12 * total_bytes)``) so the
    #: completion scan does not recompute it every epoch
    done_below_bytes: float = DRAIN_EPS_BYTES


@dataclass(frozen=True)
class RateSegment:
    """One piecewise-constant allocation interval (for invariant checks)."""

    start_us: float
    end_us: float
    total_rate: float  # aggregate bytes/s granted over the segment
    drainers: int


class BandwidthArbiter:
    """Fair-share (processor-sharing) allocator of one bandwidth pool.

    ``shared=False`` disables the sharing entirely — every drainer gets
    ``min(rate_cap, bandwidth)`` regardless of concurrency — which
    reproduces the pre-contention timing model through the same event
    machinery (used by equivalence tests and ``hbm_contention=False``
    sanity checks).
    """

    def __init__(
        self, bandwidth_bytes_per_s: float, *, shared: bool = True,
        log_rates: bool = True,
    ):
        if bandwidth_bytes_per_s <= 0:
            raise ExecutionError(
                f"arbiter bandwidth must be > 0, got {bandwidth_bytes_per_s}"
            )
        self.bandwidth = float(bandwidth_bytes_per_s)
        self.shared = shared
        #: record a RateSegment per integration epoch (the invariant
        #: suite's evidence); production callers that never read the
        #: log can turn it off — allocations are unaffected
        self._log_rates = log_rates
        self._clock = 0.0
        self._drainers: dict[int, _Drainer] = {}
        #: closed allocation segments, for the aggregate-rate invariant
        self.rate_log: list[RateSegment] = []
        #: completed drainers by key (achieved-bandwidth queries)
        self.completed: dict[int, _Drainer] = {}

    # -- queries -------------------------------------------------------------

    @property
    def clock_us(self) -> float:
        """Time the arbiter has integrated up to."""
        return self._clock

    @property
    def active(self) -> int:
        """Number of drainers with outstanding bytes."""
        return len(self._drainers)

    def allocation(self, key: int) -> float:
        """Current rate (bytes/s) granted to ``key``."""
        return self._drainers[key].rate

    def total_rate(self) -> float:
        """Aggregate granted rate (bytes/s) right now."""
        return sum(d.rate for d in self._drainers.values())

    def next_completion_us(self) -> float | None:
        """Earliest time any active drainer finishes, or ``None``.

        Large pools compute every completion time in one array op over
        the (remaining, rate) vectors; the per-element arithmetic is
        identical to the scalar loop's, so both paths agree bit for bit.
        """
        if len(self._drainers) >= VECTOR_MIN_DRAINERS:
            rem, rate = self._vectors()
            draining = rate > 0
            if not draining.any():
                return None
            t = self._clock + (rem[draining] / rate[draining]) * 1e6
            return float(t.min())
        best: float | None = None
        for d in self._drainers.values():
            if d.rate <= 0:
                continue
            t = self._clock + (d.remaining_bytes / d.rate) * 1e6
            if best is None or t < best:
                best = t
        return best

    def busy_us(self) -> float:
        """Wall time the pool had traffic draining (from ``rate_log``)."""
        return sum(
            seg.end_us - seg.start_us
            for seg in self.rate_log
            if seg.total_rate > 0
        )

    def _vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(remaining_bytes, rate) of the active pool, as arrays."""
        m = len(self._drainers)
        rem = np.fromiter(
            (d.remaining_bytes for d in self._drainers.values()),
            dtype=np.float64, count=m,
        )
        rate = np.fromiter(
            (d.rate for d in self._drainers.values()),
            dtype=np.float64, count=m,
        )
        return rem, rate

    def drain_until(self, deadlines) -> tuple[float, list[int]]:
        """Advance to the next epoch boundary, computed in closed form.

        ``deadlines`` is an array (or any sequence) of upcoming external
        event times — pending op finishes, collective step timers, the
        fabric's own next completion. The arbiter computes every active
        drainer's completion time as one array op over the (remaining,
        rate) vectors, takes the earliest of those and the external
        deadlines, and integrates the whole pool to that instant in a
        single step. Returns ``(epoch end, keys completed at it)``.

        One epoch per call, never a cascade: a completion can free an
        engine, admit new traffic, and reallocate every share, so the
        caller must handle the returned completions before asking for
        the next epoch. Raises when there is no boundary to advance to
        (no external deadline and nothing draining) — in the event loop
        that state is a deadlock.
        """
        drainers = self._drainers
        clock = self._clock
        m = len(drainers)
        t: float | None = None
        if m >= VECTOR_MIN_DRAINERS:
            rem, rate = self._vectors()
            draining = rate > 0
            if draining.any():
                comp = clock + (rem[draining] / rate[draining]) * 1e6
                t = float(comp.min())
        else:
            for d in drainers.values():
                if d.rate > 0:
                    c = clock + (d.remaining_bytes / d.rate) * 1e6
                    if t is None or c < t:
                        t = c
        if len(deadlines):
            if len(deadlines) >= VECTOR_MIN_DRAINERS:
                external = float(
                    np.min(np.asarray(deadlines, dtype=np.float64))
                )
            else:
                external = min(deadlines)
            t = external if t is None else min(t, external)
        if t is None:
            raise ExecutionError(
                "drain_until has no epoch boundary: no external deadline "
                "and no draining traffic"
            )
        if not m:
            # empty pool: nothing to integrate or complete — move the
            # clock without paying the full completion scan
            if t > clock:
                self._clock = t
            return t, []
        # inline advance(t): same integration, completion test, and
        # reallocation arithmetic, minus the nested-call overhead the
        # epoch loop would pay ~once per event
        dt_us = t - clock
        done: list[int] = []
        if dt_us > 0:
            if self._log_rates:
                self.rate_log.append(RateSegment(
                    clock, t, self.total_rate(), m
                ))
            self._clock = t
            time_eps = max(DRAIN_EPS_TIME_US, 4 * math.ulp(t))
            if m >= VECTOR_MIN_DRAINERS:
                rem, rate = self._vectors()
                rem -= rate * (dt_us * 1e-6)
                for d, r in zip(drainers.values(), rem.tolist()):
                    d.remaining_bytes = r
                    if r <= d.done_below_bytes or (
                        d.rate > 0 and (r / d.rate) * 1e6 <= time_eps
                    ):
                        done.append(d.key)
            else:
                dt_s = dt_us * 1e-6
                for d in drainers.values():
                    r = d.remaining_bytes - d.rate * dt_s
                    d.remaining_bytes = r
                    if r <= d.done_below_bytes or (
                        d.rate > 0 and (r / d.rate) * 1e6 <= time_eps
                    ):
                        done.append(d.key)
        else:
            # dt == 0: reallocation at this instant can still satisfy
            # the rate-based completion test — the scan must run
            time_eps = max(DRAIN_EPS_TIME_US, 4 * math.ulp(self._clock))
            for key, d in drainers.items():
                if d.remaining_bytes <= d.done_below_bytes or (
                    d.rate > 0
                    and (d.remaining_bytes / d.rate) * 1e6 <= time_eps
                ):
                    done.append(key)
        if done:
            clk = self._clock
            completed = self.completed
            for key in done:
                d = drainers.pop(key)
                d.remaining_bytes = 0.0
                d.drained_us = clk
                completed[key] = d
            self._reallocate()
        return t, done

    # -- mutation ------------------------------------------------------------

    def admit(
        self, key: int, num_bytes: float, now_us: float,
        rate_cap: float = math.inf,
    ) -> None:
        """Register ``num_bytes`` of traffic for op ``key`` starting now."""
        if num_bytes <= 0:
            raise ExecutionError(
                f"arbiter admit needs positive bytes, got {num_bytes}"
            )
        if key in self._drainers:
            raise ExecutionError(f"drainer {key} already active")
        self.advance(now_us)
        total = float(num_bytes)
        self._drainers[key] = _Drainer(
            key, total, total, rate_cap, now_us,
            done_below_bytes=max(DRAIN_EPS_BYTES, 1e-12 * total),
        )
        self._reallocate()

    def admit_clocked(
        self, key: int, num_bytes: float, now_us: float,
        rate_cap: float = math.inf,
    ) -> None:
        """Admit traffic at an instant the pool is already integrated to.

        The epoch-driven loop only admits at boundaries
        :meth:`drain_until` has just advanced to, so the re-integration
        and dt==0 completion rescan :meth:`admit` performs are provably
        no-ops there: integrating zero time changes no remaining bytes,
        and admission only ever *shrinks* shares (water-filling never
        raises a rate when a drainer joins), so the rate-based
        completion test can pass for no drainer it did not already pass
        for. Requires ``now_us`` to equal the arbiter clock whenever
        traffic is active; with an idle pool the clock just moves.
        """
        if num_bytes <= 0:
            raise ExecutionError(
                f"arbiter admit needs positive bytes, got {num_bytes}"
            )
        if key in self._drainers:
            raise ExecutionError(f"drainer {key} already active")
        if not self._drainers:
            if now_us < self._clock - 1e-9:
                raise ExecutionError(
                    f"arbiter cannot rewind from {self._clock} to {now_us}"
                )
            if now_us > self._clock:
                self._clock = now_us
        elif now_us != self._clock:
            raise ExecutionError(
                f"admit_clocked at {now_us} but the pool is integrated "
                f"to {self._clock}; use admit()"
            )
        total = float(num_bytes)
        d = _Drainer.__new__(_Drainer)
        d.key = key
        d.remaining_bytes = total
        d.total_bytes = total
        d.rate_cap = rate_cap
        d.started_us = now_us
        d.rate = 0.0
        d.drained_us = None
        threshold = 1e-12 * total
        d.done_below_bytes = (
            threshold if threshold > DRAIN_EPS_BYTES else DRAIN_EPS_BYTES
        )
        self._drainers[key] = d
        self._reallocate()

    def advance(self, to_us: float) -> list[int]:
        """Integrate drains up to ``to_us``; return keys that completed."""
        if to_us < self._clock - 1e-9:
            raise ExecutionError(
                f"arbiter cannot rewind from {self._clock} to {to_us}"
            )
        dt_us = to_us - self._clock
        if dt_us > 0 and self._drainers:
            if self._log_rates:
                self.rate_log.append(RateSegment(
                    self._clock, to_us, self.total_rate(),
                    len(self._drainers),
                ))
            if len(self._drainers) >= VECTOR_MIN_DRAINERS:
                # one array op over the (remaining, rate) vectors; the
                # per-element subtraction is the same IEEE-754 op the
                # scalar loop does, so both paths agree bit for bit
                rem, rate = self._vectors()
                rem -= rate * (dt_us * 1e-6)
                for d, r in zip(self._drainers.values(), rem.tolist()):
                    d.remaining_bytes = r
            else:
                for d in self._drainers.values():
                    d.remaining_bytes -= d.rate * (dt_us * 1e-6)
        self._clock = max(self._clock, to_us)
        # A drainer is done when its residual bytes are fp dust, or when
        # the time needed to drain them falls below the clock's own
        # resolution (it could then never advance the event loop).
        time_eps = max(DRAIN_EPS_TIME_US, 4 * math.ulp(self._clock))
        done = [
            key for key, d in self._drainers.items()
            if d.remaining_bytes <= d.done_below_bytes
            or (
                d.rate > 0
                and (d.remaining_bytes / d.rate) * 1e6 <= time_eps
            )
        ]
        for key in done:
            d = self._drainers.pop(key)
            d.remaining_bytes = 0.0
            d.drained_us = self._clock
            self.completed[key] = d
        if done:
            self._reallocate()
        return done

    def _reallocate(self) -> None:
        """Water-fill the pool across active drainers.

        Equal shares, except drainers whose own rate cap is below their
        share take only the cap; the freed bandwidth redistributes to
        the rest. Total granted rate is min(bandwidth, sum of caps).
        """
        if not self.shared:
            for d in self._drainers.values():
                d.rate = min(d.rate_cap, self.bandwidth)
            return
        drainers = self._drainers
        if drainers:
            # fast path: no drainer capped below the equal share (the
            # overwhelmingly common pool) — same share arithmetic the
            # first water-fill round computes, minus the set machinery
            share = self.bandwidth / len(drainers)
            for d in drainers.values():
                if d.rate_cap <= share:
                    break
            else:
                for d in drainers.values():
                    d.rate = share
                return
        pool = set(self._drainers)
        remaining = self.bandwidth
        while pool:
            share = remaining / len(pool)
            capped = [k for k in pool if self._drainers[k].rate_cap <= share]
            if not capped:
                for k in pool:
                    self._drainers[k].rate = share
                break
            for k in capped:
                d = self._drainers[k]
                d.rate = d.rate_cap
                remaining = max(0.0, remaining - d.rate_cap)
                pool.discard(k)

    # -- post-hoc accounting --------------------------------------------------

    def achieved_bandwidth(self, key: int) -> float:
        """Mean achieved bytes/s over a completed drainer's lifetime."""
        d = self.completed[key]
        span_us = (d.drained_us or d.started_us) - d.started_us
        if span_us <= 0:
            return 0.0
        return d.total_bytes / (span_us * 1e-6)


class TwoTierFabric:
    """Two bandwidth pools behind one arbiter-shaped interface.

    A multi-box HLS-1 cluster has two distinct wire pools: the box-
    local RoCE links (wide, all-to-all) and the inter-box Ethernet
    NICs (thin, high-latency). Hierarchical collective plans tag each
    ring step with its tier; the runtime routes the step's traffic to
    the matching pool via ``admit(..., tier=...)``, and the pools
    arbitrate independently — intra steps of one collective never
    contend with another collective's inter steps, exactly as the
    separate physical links behave.

    The query surface mirrors :class:`BandwidthArbiter` closely enough
    for the event loops to treat either uniformly: ``active``,
    ``next_completion_us``, ``advance`` (concatenated completions —
    callers sort, as they already do for the flat fabric), plus
    ``busy_us`` as the merged-interval union over both rate logs (the
    two pools overlap in time, so summing segment spans would double
    count).
    """

    def __init__(
        self, intra_bandwidth_bytes_per_s: float,
        inter_bandwidth_bytes_per_s: float,
    ):
        self.intra = BandwidthArbiter(intra_bandwidth_bytes_per_s, shared=True)
        self.inter = BandwidthArbiter(inter_bandwidth_bytes_per_s, shared=True)

    @property
    def active(self) -> int:
        """Drainers outstanding across both tiers."""
        return self.intra.active + self.inter.active

    def admit(
        self, key: int, num_bytes: float, now_us: float,
        *, rate_cap: float = math.inf, tier: str = "intra",
    ) -> None:
        """Route ``num_bytes`` for ``key`` to the tier's pool."""
        pool = self.inter if tier == "inter" else self.intra
        pool.admit(key, num_bytes, now_us, rate_cap=rate_cap)

    def admit_clocked(
        self, key: int, num_bytes: float, now_us: float,
        *, rate_cap: float = math.inf, tier: str = "intra",
    ) -> None:
        """Epoch-boundary admit (see BandwidthArbiter.admit_clocked)."""
        pool = self.inter if tier == "inter" else self.intra
        pool.admit_clocked(key, num_bytes, now_us, rate_cap=rate_cap)

    def next_completion_us(self) -> float | None:
        """Earliest completion across both pools, or ``None``."""
        times = [
            t for t in (
                self.intra.next_completion_us(),
                self.inter.next_completion_us(),
            )
            if t is not None
        ]
        return min(times) if times else None

    def advance(self, to_us: float) -> list[int]:
        """Integrate both pools to ``to_us``; completions concatenated."""
        return self.intra.advance(to_us) + self.inter.advance(to_us)

    def drain_until(self, deadlines) -> tuple[float, list[int]]:
        """Epoch step over both pools: earliest boundary wins.

        Each pool's own completions are deadlines for the other, so
        the epoch ends at the earliest of either pool's completion or
        an external deadline, with both pools integrated exactly there.
        """
        bounds = list(deadlines)
        nxt = self.next_completion_us()
        if nxt is not None:
            bounds.append(nxt)
        if not bounds and not self.active:
            raise ExecutionError(
                "drain_until has no epoch boundary: no external deadline "
                "and no draining traffic"
            )
        t = min(bounds)
        return t, self.advance(t)

    def busy_us(self) -> float:
        """Wall time either tier was moving bytes (interval union)."""
        spans = sorted(
            (seg.start_us, seg.end_us)
            for pool in (self.intra, self.inter)
            for seg in pool.rate_log
            if seg.total_rate > 0
        )
        total = 0.0
        cur_start: float | None = None
        cur_end = 0.0
        for start, end in spans:
            if cur_start is None or start > cur_end:
                if cur_start is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_start is not None:
            total += cur_end - cur_start
        return total
