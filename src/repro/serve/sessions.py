"""Per-sensor session state and the TTL-evicting session registry.

One :class:`Session` is the serving-side mirror of an offline
``Engine.stream()`` run: it owns a :class:`~repro.postproc.majority.MajorityVoter`
(the paper's sliding-window mode filter) plus bookkeeping — a monotonic
sequence counter for frame ordering, activity timestamps on the monotonic
clock for idle eviction, and a ``closed`` flag checked by the batcher so
frames of a deleted session never reach the voter.

The manager is thread-safe: sessions are opened/closed from HTTP handler
threads while the batcher dispatch thread votes and the sweeper evicts.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Callable, Dict, List, Optional

from ..engine.guard import InputGuard, make_guard
from ..postproc.majority import MajorityVoter
from .errors import OverloadedError, SessionClosedError, UnknownSessionError


class Session:
    """State of one connected sensor stream."""

    def __init__(
        self,
        session_id: str,
        window: int,
        num_classes: int,
        now: float,
        guard: Optional[InputGuard] = None,
    ):
        self.id = session_id
        self.window = window
        self.num_classes = num_classes
        self.voter = MajorityVoter(window=window, num_classes=num_classes)
        #: input guardrail (None unless the service configures ``on_invalid``)
        self.guard = guard
        self.created = now
        self.last_active = now
        self.next_seq = 0  # frames admitted (sequence numbers handed out)
        self.frames_done = 0  # frames fully predicted + voted
        self.pending = 0  # frames admitted, result not yet back
        self.closed = False
        # Vote-stability health: margin of the majority FIFO after the most
        # recent frame (1.0 unanimous, 0.0 tie), plus running aggregates.
        self.last_margin: Optional[float] = None
        self.min_margin: Optional[float] = None
        self._margin_sum = 0.0
        self._margin_n = 0
        self.lock = threading.Lock()

    def admit(self, n: int, max_pending: int, now: float) -> int:
        """Admit ``n`` frames for dispatch; returns the first sequence number.

        The per-session admission both dispatchers share: a closed session
        is refused (409), a push beyond ``max_pending`` frames queued or in
        flight is rejected (429), otherwise the frames get sequence numbers,
        count as pending and refresh the TTL — atomically, so two
        concurrent pushes to one session cannot both pass the bound.
        """
        with self.lock:
            if self.closed:
                raise SessionClosedError(f"session {self.id} is closed")
            if self.pending + n > max_pending:
                raise OverloadedError(
                    f"session {self.id} queue full ({self.pending}/{max_pending})"
                )
            first_seq = self.next_seq
            self.next_seq += n
            self.pending += n
            self.last_active = now
        return first_seq

    def release(self, n: int) -> None:
        """``n`` admitted frames left the dispatcher (done, failed or refused)."""
        with self.lock:
            self.pending -= n

    def record_vote(self, raw: int) -> int:
        """Vote one raw prediction and track the resulting FIFO margin.

        The caller must hold ``self.lock`` (the batcher dispatch thread does).
        """
        voted = self.voter.update(raw)
        self.record_margin(self.voter.margin())
        return voted

    def record_margin(self, margin: float) -> None:
        """Track the FIFO margin after one frame; the caller holds
        ``self.lock``.  In pool mode the parent feeds in the margins its
        worker reports, since the voter itself lives in the worker."""
        self.last_margin = margin
        self.min_margin = margin if self.min_margin is None else min(self.min_margin, margin)
        self._margin_sum += margin
        self._margin_n += 1

    @property
    def mean_margin(self) -> Optional[float]:
        return self._margin_sum / self._margin_n if self._margin_n else None

    @property
    def invalid_frames(self) -> int:
        return self.guard.health.invalid_frames if self.guard is not None else 0

    @property
    def invalid_fraction(self) -> float:
        return self.guard.health.invalid_fraction if self.guard is not None else 0.0

    def describe(self) -> dict:
        payload = {
            "session_id": self.id,
            "window": self.window,
            "num_classes": self.num_classes,
            "frames_seen": self.frames_done,
        }
        # Health keys appear only when guarding is configured, keeping the
        # default wire format byte-identical to unguarded deployments.
        if self.guard is not None:
            payload["invalid_frames"] = self.invalid_frames
            payload["vote_margin"] = self.last_margin
        return payload


class SessionManager:
    """Registry of live sessions with monotonic-clock TTL eviction.

    ``clock`` is injectable (defaults to :func:`time.monotonic`) so the
    eviction logic is testable without sleeping.
    """

    def __init__(
        self,
        ttl_s: float = 300.0,
        default_window: int = 5,
        num_classes: int = 4,
        clock: Callable[[], float] = time.monotonic,
        on_evict: Optional[Callable[[Session], None]] = None,
        on_invalid: Optional[str] = None,
        input_range=None,
    ):
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self.ttl_s = ttl_s
        self.default_window = default_window
        self.num_classes = num_classes
        self.on_invalid = on_invalid
        self.input_range = input_range
        self._clock = clock
        self._sessions: Dict[str, Session] = {}
        self._lock = threading.Lock()
        #: called (outside the registry lock) for every TTL-evicted session,
        #: both from the sweeper and from lazy eviction in :meth:`get` — the
        #: service counts the eviction here and retires any worker mirror.
        self.on_evict = on_evict

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def open(
        self,
        window: Optional[int] = None,
        num_classes: Optional[int] = None,
        session_id: Optional[str] = None,
    ) -> Session:
        """Register a new session (``session_id=None``: a fresh uuid).

        Explicit ids exist for the worker pool, whose worker processes
        mirror the sessions the parent allocated.
        """
        session = Session(
            session_id=session_id or uuid.uuid4().hex[:16],
            window=int(window) if window is not None else self.default_window,
            num_classes=int(num_classes) if num_classes is not None else self.num_classes,
            now=self._clock(),
            guard=make_guard(self.on_invalid, self.input_range),
        )
        with self._lock:
            self._sessions[session.id] = session
        return session

    def get(self, session_id: str) -> Session:
        """Look up a session, lazily evicting it if its TTL has expired."""
        now = self._clock()
        expired = None
        with self._lock:
            session = self._sessions.get(session_id)
            if session is not None and now - session.last_active > self.ttl_s:
                self._sessions.pop(session_id, None)
                with session.lock:
                    session.closed = True
                expired, session = session, None
        if expired is not None and self.on_evict is not None:
            self.on_evict(expired)
        if session is None:
            raise UnknownSessionError(f"no session {session_id!r}")
        return session

    def close(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise UnknownSessionError(f"no session {session_id!r}")
        with session.lock:
            session.closed = True
        return session

    def close_all(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            with session.lock:
                session.closed = True

    def evict_idle(self, now: Optional[float] = None) -> List[Session]:
        """Drop every session idle longer than the TTL; returns the evicted."""
        now = self._clock() if now is None else now
        evicted: List[Session] = []
        with self._lock:
            for sid, session in list(self._sessions.items()):
                if now - session.last_active > self.ttl_s:
                    self._sessions.pop(sid)
                    evicted.append(session)
        for session in evicted:
            with session.lock:
                session.closed = True
            if self.on_evict is not None:
                self.on_evict(session)
        return evicted

    def snapshot(self) -> List[Session]:
        """Live sessions at this instant (for the health metrics renderer)."""
        with self._lock:
            return list(self._sessions.values())
