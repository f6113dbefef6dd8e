"""Banked DRAM channel with FR-FCFS-lite scheduling and write batching.

The data bus is the serializing resource: requests are dispatched in bus
order, but their DRAM commands (precharge/activate/CAS) are allowed to
have issued earlier on idle banks, which models bank-level parallelism.
Consecutive column hits to an open row stream back-to-back at the burst
rate; row misses pay precharge+activate+CAS and respect tRAS between
activates.

Writes are collected in a write queue and drained in batches (entered at
a high watermark or when no reads are pending, exited at a low watermark)
to amortize the read/write turnaround penalty — matching the paper's
"writes are scheduled in batches to reduce channel turn-arounds".

Hot-path notes
--------------
``_dispatch``/``_complete`` run once per DRAM access and dominate
memory-bound simulations, so they avoid per-call allocation: CAS
accounting is a flat per-kind integer array (``cas_by_kind`` is a
derived view), completions ride a FIFO drained by one bound method
instead of a fresh closure per dispatch (data-bus serialization makes
finish times monotonic, so FIFO order is completion order), and bank /
timing lookups are bound to locals inside the loop bodies.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Deque, Optional

from repro.engine.clock import ClockDomain
from repro.engine.event_queue import Simulator
from repro.errors import SimulationError
from repro.mem.request import ACCESS_KINDS, NUM_ACCESS_KINDS, AccessKind, Request
from repro.mem.timing import DramTiming

_READ = 0
_WRITE = 1

_DEMAND_READ = AccessKind.DEMAND_READ


class _Bank:
    """Row-buffer and command-availability state of one DRAM bank."""

    __slots__ = ("open_row", "busy_until", "last_activate")

    def __init__(self) -> None:
        self.open_row: int = -1
        self.busy_until: int = 0
        self.last_activate: int = -(10**9)


class ChannelStats:
    """Per-channel accounting used by the metrics layer.

    CAS counts are kept in a flat list indexed by ``AccessKind.index``
    (one integer add per dispatch); :attr:`cas_by_kind` materializes the
    familiar ``{AccessKind: count}`` view on demand for the metrics
    layer, listing only kinds that occurred, in enum definition order.
    """

    __slots__ = (
        "_cas_counts",
        "row_hits",
        "row_misses",
        "busy_cycles",
        "reads_done",
        "writes_done",
        "demand_read_latency_sum",
        "demand_reads_done",
        "mode_switches",
    )

    def __init__(self) -> None:
        self._cas_counts: list[int] = [0] * NUM_ACCESS_KINDS
        self.row_hits: int = 0
        self.row_misses: int = 0
        self.busy_cycles: int = 0
        self.reads_done: int = 0
        self.writes_done: int = 0
        self.demand_read_latency_sum: int = 0
        self.demand_reads_done: int = 0
        self.mode_switches: int = 0

    def record_dispatch(self, req: Request, row_hit: bool, burst: int) -> None:
        self._cas_counts[req.kind.index] += 1
        if row_hit:
            self.row_hits += 1
        else:
            self.row_misses += 1
        self.busy_cycles += burst

    def record_completion(self, req: Request) -> None:
        if req.is_write:
            self.writes_done += 1
        else:
            self.reads_done += 1
        if req.kind is _DEMAND_READ:
            self.demand_reads_done += 1
            self.demand_read_latency_sum += req.total_latency()

    @property
    def cas_by_kind(self) -> dict[AccessKind, int]:
        """Derived per-kind CAS view (kinds seen, enum order)."""
        counts = self._cas_counts
        return {kind: counts[kind.index] for kind in ACCESS_KINDS
                if counts[kind.index]}

    @property
    def total_cas(self) -> int:
        return sum(self._cas_counts)

    def cas_count(self, kind: AccessKind) -> int:
        """CAS count of one kind without building the dict view."""
        return self._cas_counts[kind.index]

    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


class DramChannel:
    """One DRAM channel: banks, a data bus, and read/write queues."""

    __slots__ = (
        "sim",
        "name",
        "timing",
        "num_banks",
        "row_lines",
        "write_hi",
        "write_lo",
        "frfcfs_window",
        "interleave",
        "_burst",
        "_hit_lat",
        "_miss_lat",
        "_trp",
        "_tras",
        "_turnaround",
        "_io",
        "_trefi",
        "_trfc",
        "_clock",
        "_miss_extra",
        "_banks",
        "_read_q",
        "_write_q",
        "_bus_free",
        "_mode",
        "_dispatch_pending",
        "_completions",
        "stats",
    )

    def __init__(
        self,
        sim: Simulator,
        clock: ClockDomain,
        timing: DramTiming,
        num_banks: int,
        row_bytes: int,
        name: str = "chan",
        write_hi: int = 16,
        write_lo: int = 4,
        frfcfs_window: int = 4,
        interleave: int = 1,
    ) -> None:
        if num_banks <= 0 or row_bytes < 64:
            raise SimulationError(
                f"invalid channel geometry: banks={num_banks} row_bytes={row_bytes}"
            )
        self.sim = sim
        self.name = name
        self.timing = timing
        self.num_banks = num_banks
        self.row_lines = row_bytes // 64
        self.write_hi = write_hi
        self.write_lo = write_lo
        self.frfcfs_window = frfcfs_window
        # Number of channels interleaving the global line space; lines that
        # are `interleave` apart are contiguous within this channel.
        self.interleave = max(1, interleave)

        # Pre-converted latencies in CPU cycles.
        self._burst = clock.device_cycles_to_cpu(timing.burst)
        self._hit_lat = clock.device_cycles_to_cpu(timing.row_hit_latency)
        self._miss_lat = clock.device_cycles_to_cpu(timing.row_miss_latency)
        self._trp = clock.device_cycles_to_cpu(timing.t_rp)
        self._tras = clock.device_cycles_to_cpu(timing.t_ras)
        self._turnaround = clock.device_cycles_to_cpu(timing.turnaround)
        self._io = clock.device_cycles_to_cpu(timing.extra_io)
        self._trefi = clock.device_cycles_to_cpu(timing.t_refi) if timing.t_refi else 0
        self._trfc = clock.device_cycles_to_cpu(timing.t_rfc) if timing.t_rfc else 0
        self._clock = clock
        # Miss penalty beyond the hit path, hoisted out of _dispatch.
        self._miss_extra = self._miss_lat - self._hit_lat

        self._banks = [_Bank() for _ in range(num_banks)]
        self._read_q: Deque[Request] = deque()
        self._write_q: Deque[Request] = deque()
        self._bus_free: int = 0
        self._mode: int = _READ
        self._dispatch_pending: bool = False
        # In-flight completions in finish order (bus serialization makes
        # finish cycles strictly monotonic per channel, so a FIFO pairs
        # each scheduled _complete_next event with its request without a
        # per-dispatch closure).
        self._completions: Deque[tuple[Request, int]] = deque()
        self.stats = ChannelStats()

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def enqueue(self, req: Request) -> None:
        """Accept a request; completion is signalled via its callback."""
        req.issue_cycle = self.sim.now
        if req.is_write:
            self._write_q.append(req)
        else:
            self._read_q.append(req)
        if not self._dispatch_pending:
            self._kick()

    @property
    def read_queue_len(self) -> int:
        return len(self._read_q)

    @property
    def write_queue_len(self) -> int:
        return len(self._write_q)

    @property
    def burst_cpu_cycles(self) -> int:
        return self._burst

    def expected_read_latency(self) -> int:
        """Rough service estimate used by SBD: queue drain + one access.

        Queued writes count too — they occupy the data bus when the
        write batch drains ahead of the read.
        """
        queued = len(self._read_q) + len(self._write_q)
        return queued * self._burst + self._hit_lat + self._burst + self._io

    def utilization(self) -> float:
        """Fraction of elapsed cycles the data bus carried data."""
        return self.stats.busy_cycles / self.sim.now if self.sim.now else 0.0

    def telemetry_sample(self) -> dict:
        """Point-in-time snapshot for per-channel telemetry drill-down."""
        return {
            "read_q": len(self._read_q),
            "write_q": len(self._write_q),
            "busy_frac": self.utilization(),
            "row_hit_rate": self.stats.row_hit_rate(),
            "mode_switches": self.stats.mode_switches,
            "total_cas": self.stats.total_cas,
        }

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def _bank_and_row(self, line: int) -> tuple[int, int]:
        row = (line // self.interleave) // self.row_lines
        return row % self.num_banks, row

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        if self._dispatch_pending:
            return
        self._dispatch_pending = True
        sim = self.sim
        bus_free = self._bus_free
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._queue,
                  (bus_free if bus_free > sim.now else sim.now, seq,
                   self._dispatch))

    def _select_queue(self) -> Optional[Deque[Request]]:
        """Pick the queue to serve, handling write-drain mode."""
        read_q, write_q = self._read_q, self._write_q
        if self._mode == _WRITE:
            if write_q and (len(write_q) > self.write_lo or not read_q):
                return write_q
            if read_q:
                self._mode = _READ
                self.stats.mode_switches += 1
                return read_q
            return write_q if write_q else None
        # Read mode.
        if read_q:
            if len(write_q) >= self.write_hi:
                self._mode = _WRITE
                self.stats.mode_switches += 1
                return write_q
            return read_q
        if write_q:
            self._mode = _WRITE
            self.stats.mode_switches += 1
            return write_q
        return None

    def _pick_request(self, queue: Deque[Request]) -> Request:
        """FR-FCFS-lite: pick the request that can deliver data soonest.

        Scans the first ``frfcfs_window`` requests and computes, for each,
        the cycle its data would be ready: the later of its issue cycle
        and its bank's free cycle, plus the row-hit latency on an open
        row or, on a miss, the activate-gated (tRAS) row-miss latency.
        The earliest ready cycle wins, the oldest request on a tie. A row
        hit is not preferred as such: one on a busy bank can lose to a
        miss on an idle bank. So a bank-blocked head of line does not
        idle the data bus.
        """
        limit = min(self.frfcfs_window, len(queue))
        if limit == 1:
            return queue.popleft()
        interleave = self.interleave
        row_lines = self.row_lines
        num_banks = self.num_banks
        banks = self._banks
        hit_lat = self._hit_lat
        miss_lat = self._miss_lat
        tras = self._tras
        best_idx = 0
        best_ready: Optional[int] = None
        for idx in range(limit):
            req = queue[idx]
            row = (req.line // interleave) // row_lines
            bank = banks[row % num_banks]
            busy = bank.busy_until
            issue = req.issue_cycle
            if busy < issue:
                busy = issue
            if bank.open_row == row:
                ready = busy + hit_lat
            else:
                activate_ok = bank.last_activate + tras
                if busy < activate_ok:
                    busy = activate_ok
                ready = busy + miss_lat
            if best_ready is None or ready < best_ready:
                best_idx, best_ready = idx, ready
        if best_idx == 0:
            return queue.popleft()
        req = queue[best_idx]
        del queue[best_idx]
        return req

    def _after_refresh(self, t: int) -> int:
        """Defer a command that lands inside an all-bank refresh window.

        Refresh is modeled as a periodic blackout: every tREFI, the
        device spends tRFC refreshing and accepts no commands.
        """
        window_start = (t // self._trefi) * self._trefi
        if t < window_start + self._trfc:
            return window_start + self._trfc
        return t

    def _dispatch(self) -> None:
        self._dispatch_pending = False
        prev_mode = self._mode
        queue = self._select_queue()
        if queue is None:
            return
        switched = self._mode != prev_mode
        req = self._pick_request(queue)

        line = req.line
        row = (line // self.interleave) // self.row_lines
        bank = self._banks[row % self.num_banks]
        row_hit = bank.open_row == row

        cmd_t = bank.busy_until
        if cmd_t < req.issue_cycle:
            cmd_t = req.issue_cycle
        if row_hit:
            cmd_lat = self._hit_lat
        else:
            cmd_lat = self._miss_lat
            activate_ok = bank.last_activate + self._tras
            if cmd_t < activate_ok:
                cmd_t = activate_ok
        if self._trefi:
            cmd_t = self._after_refresh(cmd_t)

        bus_ready = self._bus_free + (self._turnaround if switched else 0)
        if req.burst_override is not None:
            burst = self._clock.device_cycles_to_cpu(req.burst_override)
        else:
            burst = self._burst
        data_start = cmd_t + cmd_lat
        if data_start < bus_ready:
            data_start = bus_ready
        data_end = data_start + burst

        # Update bank state so later requests pipeline correctly.
        if row_hit:
            bank.busy_until = cmd_t + burst
        else:
            bank.last_activate = cmd_t + self._trp
            bank.busy_until = cmd_t + self._miss_extra + burst
            bank.open_row = row

        self._bus_free = data_end
        req.start_cycle = data_start
        self.stats.record_dispatch(req, row_hit, burst)

        finish = data_end + self._io
        self._completions.append((req, finish))
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._queue, (finish, seq, self._complete_next))
        if (self._read_q or self._write_q) and not self._dispatch_pending:
            self._kick()

    def _complete_next(self) -> None:
        req, finish = self._completions.popleft()
        req.finish_cycle = finish
        self.stats.record_completion(req)
        if req.on_complete is not None:
            req.on_complete(req, finish)
        # A completed request may have freed room for draining decisions.
        if (self._read_q or self._write_q) and not self._dispatch_pending:
            self._kick()
