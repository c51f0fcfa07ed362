"""Work queues and task-stealing policies.

Phoenix++ assigns each created task to a worker queue; a worker that drains
its own queue *steals* unfinished tasks from others (paper Sec. 3.2).  On a
VFI platform the paper modifies stealing (Sec. 4.3, Eq. 3): a core running
below the maximum frequency is restricted to

    Nf = floor( N/C * (1 - (fmax - f)/fmax) )

tasks, "to prevent the cores with lower V/F from performing an undesired
task stealing".  We apply the cap to *stealing*: a slow core always may
run tasks from its own queue (fast cores steal those leftovers first
anyway, taking from the tail), but once it has executed Nf or more
tasks it must not steal -- which is exactly the undesired behaviour the
paper's Word Count case study describes.  A floor of one task keeps the
budget sane when N/C is small enough that Eq. (3) floors to zero.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence

from repro.mapreduce.tasks import Task


def vfi_task_cap(total_tasks: int, num_cores: int, freq_hz: float, fmax_hz: float) -> int:
    """Eq. (3): max tasks a core at *freq_hz* may run when ``freq < fmax``.

    Cores at ``fmax`` are uncapped (the equation is defined for f < fmax).
    """
    if total_tasks < 0:
        raise ValueError(f"total_tasks must be >= 0, got {total_tasks}")
    if num_cores <= 0:
        raise ValueError(f"num_cores must be > 0, got {num_cores}")
    if freq_hz <= 0 or fmax_hz <= 0:
        raise ValueError("frequencies must be > 0")
    if freq_hz > fmax_hz:
        raise ValueError(f"freq {freq_hz} exceeds fmax {fmax_hz}")
    if freq_hz == fmax_hz:
        return total_tasks
    return math.floor((total_tasks / num_cores) * (1.0 - (fmax_hz - freq_hz) / fmax_hz))


class StealingPolicy:
    """Decides whether a worker may take one more task, and from whom."""

    def prepare(
        self,
        total_tasks: int,
        num_workers: int,
        initial_counts: Optional[Sequence[int]] = None,
    ) -> None:
        """Called once per phase before any task executes.

        ``initial_counts`` is the number of tasks initially queued on each
        worker (the scheduler's round-robin allocation).
        """

    def may_steal(self, worker: int, executed_by_worker: int) -> bool:
        """May *worker* (having executed ``executed_by_worker`` tasks) steal?"""
        return True

    def choose_victim(
        self, thief: int, queue_lengths: Sequence[int]
    ) -> Optional[int]:
        """Pick the victim queue to steal from (default: the first
        longest non-empty queue other than the thief's; ``None`` when
        there is none)."""
        lengths = list(queue_lengths)
        if 0 <= thief < len(lengths):
            lengths[thief] = 0
        longest = max(lengths, default=0)
        return lengths.index(longest) if longest > 0 else None


class DefaultStealingPolicy(StealingPolicy):
    """Unmodified Phoenix++ stealing: any idle worker steals greedily."""


class CappedStealingPolicy(StealingPolicy):
    """VFI-aware stealing with the per-core task cap of Eq. (3).

    Parameters
    ----------
    core_frequencies_hz:
        Frequency of each worker's core (index = worker id).
    fmax_hz:
        Maximum operating frequency on the chip; ``None`` uses the max of
        *core_frequencies_hz*.
    """

    def __init__(
        self,
        core_frequencies_hz: Sequence[float],
        fmax_hz: Optional[float] = None,
    ):
        if not core_frequencies_hz:
            raise ValueError("core_frequencies_hz must be non-empty")
        self.core_frequencies_hz = list(core_frequencies_hz)
        self.fmax_hz = float(fmax_hz if fmax_hz is not None else max(core_frequencies_hz))
        for freq in self.core_frequencies_hz:
            if freq > self.fmax_hz:
                raise ValueError(
                    f"core frequency {freq} exceeds fmax {self.fmax_hz}"
                )
        self._caps: List[int] = []

    def prepare(
        self,
        total_tasks: int,
        num_workers: int,
        initial_counts: Optional[Sequence[int]] = None,
    ) -> None:
        if num_workers != len(self.core_frequencies_hz):
            raise ValueError(
                f"policy built for {len(self.core_frequencies_hz)} workers, "
                f"phase has {num_workers}"
            )
        if initial_counts is None:
            initial_counts = [0] * num_workers
        # Eq. (3) budget, floored at the worker's own initial allocation:
        # the cap exists to stop *undesired stealing*, never to leave a
        # worker's own queue stranded behind a zero/low budget when N/C is
        # small (slow workers' leftovers are stolen from the tail anyway).
        self._caps = [
            max(
                1,
                int(initial_counts[worker]),
                vfi_task_cap(total_tasks, num_workers, freq, self.fmax_hz),
            )
            for worker, freq in enumerate(self.core_frequencies_hz)
        ]

    def cap_for(self, worker: int) -> int:
        if not self._caps:
            raise RuntimeError("prepare() must run before cap_for()")
        return self._caps[worker]

    def may_steal(self, worker: int, executed_by_worker: int) -> bool:
        return executed_by_worker < self.cap_for(worker)


def retune_policy(
    policy: Optional[StealingPolicy], core_frequencies_hz: Sequence[float]
) -> Optional[StealingPolicy]:
    """*policy* with its Eq. (3) caps rebuilt for a new frequency map.

    A :class:`CappedStealingPolicy` becomes a fresh one for
    *core_frequencies_hz*, with ``fmax`` their maximum; every other
    policy (and ``None``) is returned unchanged."""
    if not isinstance(policy, CappedStealingPolicy):
        return policy
    freqs = [float(f) for f in core_frequencies_hz]
    return CappedStealingPolicy(core_frequencies_hz=freqs, fmax_hz=max(freqs))


def home_queues(tasks: Sequence[Task], num_workers: int) -> List[List[Task]]:
    """*tasks* grouped by home worker, each group in *tasks* order.

    Raises ``ValueError`` on the first task whose home worker is outside
    ``[0, num_workers)``."""
    homes: List[List[Task]] = [[] for _ in range(num_workers)]
    for task in tasks:
        if not 0 <= task.home_worker < num_workers:
            raise ValueError(
                f"task {task.task_id} home_worker {task.home_worker} "
                f"out of range [0, {num_workers})"
            )
        homes[task.home_worker].append(task)
    return homes


@dataclass
class TaskQueueSet:
    """Per-worker FIFO task queues with stealing.

    Used directly by the functional runtime (to decide execution order)
    and by :mod:`repro.sim`'s map dispatch, which calls
    :meth:`next_task` once per event of its ``(time, worker)`` heap loop.
    """

    num_workers: int
    policy: StealingPolicy = field(default_factory=DefaultStealingPolicy)

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ValueError(f"num_workers must be > 0, got {self.num_workers}")
        self.refill([()] * self.num_workers)

    def load(self, tasks: Sequence[Task]) -> None:
        """Distribute *tasks* to their home workers and arm the policy."""
        homes = home_queues(tasks, self.num_workers)
        self.policy.prepare(
            len(tasks), self.num_workers, [len(home) for home in homes]
        )
        self.refill(homes)

    def refill(self, homes: Sequence[Sequence[Task]]) -> None:
        """Start a new generation from per-worker task lists, as
        :func:`home_queues` builds them, unchecked: the caller has
        validated them and prepared the policy for them (a simulated map
        phase does both once and refills every relaxation round).
        Executed counts and stealing statistics start from zero."""
        self._queues: List[Deque[Task]] = [deque(home) for home in homes]
        self._executed = [0] * self.num_workers
        # Tasks queued across all workers, kept by every push and pop.
        self._remaining = sum(map(len, homes))
        # Stealing statistics for the current generation.  Plain int
        # increments (cheap enough to keep always-on); the simulator folds
        # them into telemetry counters when tracing is enabled.
        self.steal_attempts = 0
        self.steals = 0
        self.cap_rejections = 0

    def queue_length(self, worker: int) -> int:
        return len(self._queues[worker])

    def executed_count(self, worker: int) -> int:
        return self._executed[worker]

    @property
    def remaining(self) -> int:
        """Tasks still queued, over every worker (O(1))."""
        return self._remaining

    def next_task(self, worker: int) -> Optional[Task]:
        """Pop the next task for *worker*: own queue first, then steal.

        Returns ``None`` when no work remains or the worker's stealing
        budget is exhausted.  A worker always may pop its own queue (fast
        cores steal those leftovers from the tail); the Eq. (3) cap only
        gates stealing, per the paper's stated intent.  A steal reads
        every queue's length in one pass and lets the policy pick the
        victim from them.
        """
        own = self._queues[worker]
        if own:
            task = own.popleft()
            self._remaining -= 1
            self._executed[worker] += 1
            return task
        if self.remaining == 0:
            return None
        self.steal_attempts += 1
        if not self.policy.may_steal(worker, self._executed[worker]):
            self.cap_rejections += 1
            return None
        lengths = list(map(len, self._queues))
        victim = self.policy.choose_victim(worker, lengths)
        if victim is None or not self._queues[victim]:
            return None
        task = self._queues[victim].pop()
        self._remaining -= 1
        self._executed[worker] += 1
        self.steals += 1
        return task

    def requeue(self, worker: int, task: Task) -> None:
        """Put *task* back at the head of *worker*'s own queue.

        Fault re-execution: an execution killed by a core failure returns
        its task to the victim's queue, where surviving workers steal it
        from the tail (or the force-drain backstop picks it up).  Counters
        and executed counts are untouched -- the original pop already
        charged them, and the re-execution will charge its own."""
        self._queues[worker].appendleft(task)
        self._remaining += 1

    def drain_serial(self) -> List[tuple]:
        """Execute all queues in a deterministic round-robin order.

        Returns a list of ``(worker, task)`` pairs in execution order.  This
        is how the functional runtime consumes the queues when no timing
        model is involved; the timing simulator instead interleaves
        :meth:`next_task` calls by simulated completion times.
        """
        order: List[tuple] = []
        idle_rounds = 0
        worker = 0
        while self.remaining > 0 and idle_rounds < self.num_workers:
            task = self.next_task(worker)
            if task is None:
                idle_rounds += 1
            else:
                idle_rounds = 0
                order.append((worker, task))
            worker = (worker + 1) % self.num_workers
        # Correctness backstop: if the policy capped every worker while work
        # remains (possible with a user-supplied fmax above every core),
        # execute the leftovers on worker 0 regardless of the cap.
        order.extend(self.force_drain(0))
        return order

    def force_drain(self, worker: int) -> List[tuple]:
        """Pop every remaining task and attribute execution to *worker*."""
        order: List[tuple] = []
        for queue in self._queues:
            while queue:
                task = queue.popleft()
                self._executed[worker] += 1
                order.append((worker, task))
        self._remaining = 0
        return order
