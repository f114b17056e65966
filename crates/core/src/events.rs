//! Typed engine events and the subscriber-visible event log.
//!
//! Every session transition and vehicle milestone inside a
//! [`crate::RideService`] publishes one [`EngineEvent`] into a bounded,
//! sequence-numbered [`EventLog`]. Observers pull with a cursor
//! ([`EventCursor`], from [`crate::RideService::subscribe`]): polling is
//! lock-cheap, never blocks the engine's hot paths, and a slow observer
//! only loses the oldest events (counted, never silently) instead of
//! back-pressuring admission.
//!
//! Each record is stamped with an **engine timestamp** at publish time
//! (monotonic nanoseconds since the log was created, independent of the
//! workload clock carried in the events themselves), so observers can
//! measure log lag — the age of the oldest retained record is exported as
//! the `events_oldest_age_seconds` gauge by the service's metrics
//! exposition. Every cursor's cumulative loss is mirrored into a shared
//! per-cursor counter the exposition can enumerate, so overflow loss is
//! visible to a scrape and not only to the cursor that suffered it.

use crate::session::SessionId;
use ptrider_roadnet::VertexId;
use ptrider_vehicles::{RequestId, VehicleId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One observable engine transition.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineEvent {
    /// A rider submitted a request; the session is `Pending` while the
    /// matcher runs.
    Submitted {
        /// The new session.
        session: SessionId,
        /// The engine-level request id.
        request: RequestId,
        /// Start location `s`.
        origin: VertexId,
        /// Destination `d`.
        destination: VertexId,
        /// Group size `n`.
        riders: u32,
        /// Submission time (workload seconds).
        at: f64,
    },
    /// The skyline was computed and offered; the session is `Offered`.
    Offered {
        /// The session holding the offer.
        session: SessionId,
        /// The engine-level request id.
        request: RequestId,
        /// Number of non-dominated options offered (possibly zero).
        options: usize,
        /// Offer deadline.
        expires_at: f64,
        /// Offer time.
        at: f64,
    },
    /// The rider chose an option and the assignment was committed; the
    /// session is `Confirmed`.
    Confirmed {
        /// The confirmed session.
        session: SessionId,
        /// The engine-level request id.
        request: RequestId,
        /// The assigned vehicle.
        vehicle: VehicleId,
        /// Price of the confirmed option.
        price: f64,
        /// Planned pick-up time of the confirmed option, in seconds.
        pickup_secs: f64,
        /// Confirmation time.
        at: f64,
    },
    /// The rider declined every option; the session is `Declined`.
    Declined {
        /// The declined session.
        session: SessionId,
        /// The engine-level request id.
        request: RequestId,
        /// Decline time.
        at: f64,
    },
    /// The offer deadline passed before a response; the session is
    /// `Expired`.
    Expired {
        /// The expired session.
        session: SessionId,
        /// The engine-level request id.
        request: RequestId,
        /// Expiry time (the `tick` / `respond` clock that noticed).
        at: f64,
    },
    /// A chosen option could no longer be honoured (the vehicle's state
    /// changed since the offer); the session stays `Offered` so the rider
    /// may pick another option.
    AssignmentFailed {
        /// The session whose choice failed.
        session: SessionId,
        /// The engine-level request id.
        request: RequestId,
        /// The vehicle that could no longer serve the request.
        vehicle: VehicleId,
        /// Failure time.
        at: f64,
    },
    /// A burst went through batch admission on the writer path.
    BatchAdmitted {
        /// Requests in the burst.
        requests: usize,
        /// Requests whose selected option was committed.
        assigned: usize,
        /// Burst clock.
        at: f64,
    },
    /// A vehicle served a pickup stop.
    PickedUp {
        /// The serving vehicle.
        vehicle: VehicleId,
        /// The picked-up request.
        request: RequestId,
    },
    /// A vehicle served a drop-off stop (trip completed).
    DroppedOff {
        /// The serving vehicle.
        vehicle: VehicleId,
        /// The dropped-off request.
        request: RequestId,
    },
    /// A vehicle joined the fleet.
    VehicleAdded {
        /// The new vehicle.
        vehicle: VehicleId,
        /// Its initial location.
        location: VertexId,
    },
    /// A traffic epoch was applied on the writer path: the distance
    /// oracle's metric was swapped and its cache invalidated.
    TrafficUpdated {
        /// The metric epoch now in effect.
        epoch: u64,
        /// Arcs above free flow in the applied model.
        congested_arcs: usize,
        /// Largest multiplicative factor in the applied model.
        max_factor: f64,
        /// Update clock (workload seconds).
        at: f64,
    },
}

/// An [`EngineEvent`] plus the engine timestamp it was published at.
#[derive(Clone, Debug, PartialEq)]
pub struct StampedEvent {
    /// Publish time: monotonic nanoseconds since the log was created.
    pub published_nanos: u64,
    /// The trace id of the request that published this event, or 0 when
    /// the publishing path was untraced (tracing off, or a path with no
    /// request identity). Lets `GET /events?trace=` follow one request's
    /// transitions through the log.
    pub trace_id: u64,
    /// The event itself.
    pub event: EngineEvent,
}

/// The per-cursor loss counter shared between an [`EventCursor`] and the
/// log's registry, so a metrics scrape can enumerate every subscriber's
/// cumulative overflow loss.
struct CursorShared {
    id: u64,
    missed: AtomicU64,
}

struct LogInner {
    /// Retained `(publish_nanos, trace_id, event)` records; the sequence
    /// number of `buf[0]` is `next_seq - buf.len()`.
    buf: VecDeque<(u64, u64, EngineEvent)>,
    /// Sequence number the next published event receives.
    next_seq: u64,
    /// Events evicted because the buffer was full.
    dropped: u64,
    /// Slots still taken by events a restored log cannot serve: the ones
    /// the original log retained at the snapshot. They are evicted first.
    unavailable: usize,
    capacity: usize,
    /// Live subscriber loss counters (pruned when the cursor is gone).
    cursors: Vec<Arc<CursorShared>>,
    next_cursor_id: u64,
}

/// A bounded, sequence-numbered log of [`EngineEvent`]s.
pub struct EventLog {
    inner: Mutex<LogInner>,
    /// Origin of the engine timestamps stamped onto published records.
    clock: Instant,
}

impl EventLog {
    /// An empty log retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            inner: Mutex::new(LogInner {
                buf: VecDeque::with_capacity(capacity.min(1024)),
                next_seq: 0,
                dropped: 0,
                unavailable: 0,
                capacity: capacity.max(1),
                cursors: Vec::new(),
                next_cursor_id: 0,
            }),
            clock: Instant::now(),
        }
    }

    /// Resets the log's sequencing counters from a snapshot. The retained
    /// buffer starts empty: journal replay re-publishes the tail's events,
    /// which thereby receive the same sequence numbers the original run
    /// assigned them. The events the original log still retained at the
    /// snapshot keep their slots as unavailable, so replay evicts — and
    /// counts evictions — exactly where the original run did.
    pub(crate) fn restore(&self, next_seq: u64, dropped: u64) {
        let mut inner = self.lock();
        inner.buf.clear();
        inner.next_seq = next_seq;
        inner.dropped = dropped;
        let retained = next_seq.saturating_sub(dropped);
        inner.unavailable = retained.min(inner.capacity as u64) as usize;
    }

    /// The log is pure bookkeeping with no cross-field invariant a panicking
    /// thread could tear, so a poisoned mutex is safe to re-enter.
    fn lock(&self) -> std::sync::MutexGuard<'_, LogInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Nanoseconds of engine time (since the log was created) — the clock
    /// publish stamps are drawn from.
    pub fn now_nanos(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Appends an event, evicting the oldest if the log is full. Returns
    /// the event's sequence number.
    pub(crate) fn publish(&self, event: EngineEvent) -> u64 {
        self.publish_in(event, 0)
    }

    /// [`EventLog::publish`] with the publishing request's trace id (0 for
    /// untraced paths).
    pub(crate) fn publish_in(&self, event: EngineEvent, trace_id: u64) -> u64 {
        let stamp = self.now_nanos();
        let mut inner = self.lock();
        if inner.buf.len() + inner.unavailable == inner.capacity {
            if inner.unavailable > 0 {
                inner.unavailable -= 1;
            } else {
                inner.buf.pop_front();
            }
            inner.dropped += 1;
        }
        let seq = inner.next_seq;
        inner.buf.push_back((stamp, trace_id, event));
        inner.next_seq += 1;
        seq
    }

    /// Total events published over the log's lifetime.
    pub fn published(&self) -> u64 {
        self.lock().next_seq
    }

    /// Events evicted before any cursor consumed them is *not* what this
    /// counts — it counts events evicted from the retention buffer.
    /// Individual cursors track what *they* missed via
    /// [`EventCursor::missed`].
    pub fn evicted(&self) -> u64 {
        self.lock().dropped
    }

    /// Events currently retained in the buffer.
    pub fn retained(&self) -> usize {
        self.lock().buf.len()
    }

    /// Age of the oldest retained record in nanoseconds of engine time —
    /// the log's lag ceiling: a cursor older than this has already lost
    /// events. `None` when the buffer is empty.
    pub fn oldest_age_nanos(&self) -> Option<u64> {
        let oldest = self.lock().buf.front().map(|(stamp, _, _)| *stamp)?;
        Some(self.now_nanos().saturating_sub(oldest))
    }

    /// A cursor positioned at the oldest retained event.
    pub fn subscribe(&self) -> EventCursor {
        let mut inner = self.lock();
        let id = inner.next_cursor_id;
        inner.next_cursor_id += 1;
        let shared = Arc::new(CursorShared {
            id,
            missed: AtomicU64::new(0),
        });
        // Prune counters whose cursor lineage is gone (only the registry
        // still holds them) so long-lived services don't accumulate
        // dead subscribers.
        inner.cursors.retain(|c| Arc::strong_count(c) > 1);
        inner.cursors.push(Arc::clone(&shared));
        EventCursor {
            next: inner.next_seq - inner.buf.len() as u64,
            missed: 0,
            shared,
        }
    }

    /// Every live cursor's cumulative loss as `(cursor_id, missed)`,
    /// oldest subscription first — the per-cursor totals the metrics
    /// exposition enumerates.
    pub fn cursor_missed_totals(&self) -> Vec<(u64, u64)> {
        let mut inner = self.lock();
        inner.cursors.retain(|c| Arc::strong_count(c) > 1);
        inner
            .cursors
            .iter()
            .map(|c| (c.id, c.missed.load(Ordering::Relaxed)))
            .collect()
    }

    /// Drains every event the cursor has not seen yet. A cursor that fell
    /// behind the retention window skips forward (the skipped count is
    /// recorded on the cursor and mirrored to the log's registry).
    pub fn poll(&self, cursor: &mut EventCursor) -> Vec<EngineEvent> {
        self.poll_stamped(cursor)
            .into_iter()
            .map(|s| s.event)
            .collect()
    }

    /// [`EventLog::poll`], keeping each record's publish stamp.
    pub fn poll_stamped(&self, cursor: &mut EventCursor) -> Vec<StampedEvent> {
        let inner = self.lock();
        let oldest = inner.next_seq - inner.buf.len() as u64;
        if cursor.next < oldest {
            let lost = oldest - cursor.next;
            cursor.missed += lost;
            cursor.shared.missed.fetch_add(lost, Ordering::Relaxed);
            cursor.next = oldest;
        }
        let start = (cursor.next - oldest) as usize;
        let out: Vec<StampedEvent> = inner
            .buf
            .iter()
            .skip(start)
            .map(|(stamp, trace_id, event)| StampedEvent {
                published_nanos: *stamp,
                trace_id: *trace_id,
                event: event.clone(),
            })
            .collect();
        cursor.next = inner.next_seq;
        out
    }
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("EventLog")
            .field("retained", &inner.buf.len())
            .field("published", &inner.next_seq)
            .field("dropped", &inner.dropped)
            .finish()
    }
}

/// A pull-based subscription position into an [`EventLog`].
///
/// Cloning a cursor clones its position but shares its registry-visible
/// loss counter: the `events_cursor_missed_total` sample for this
/// subscription aggregates over the clone lineage.
#[derive(Clone)]
pub struct EventCursor {
    next: u64,
    missed: u64,
    shared: Arc<CursorShared>,
}

impl EventCursor {
    /// Sequence number of the next event this cursor will receive.
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Events this cursor lost because it fell behind the log's retention
    /// window.
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// The subscription id this cursor's loss counter is registered under
    /// (the `cursor` label of `events_cursor_missed_total`).
    pub fn id(&self) -> u64 {
        self.shared.id
    }
}

impl std::fmt::Debug for EventCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventCursor")
            .field("id", &self.shared.id)
            .field("next", &self.next)
            .field("missed", &self.missed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> EngineEvent {
        EngineEvent::BatchAdmitted {
            requests: i as usize,
            assigned: 0,
            at: 0.0,
        }
    }

    #[test]
    fn poll_drains_in_publish_order() {
        let log = EventLog::new(16);
        let mut cursor = log.subscribe();
        assert!(log.poll(&mut cursor).is_empty());
        for i in 0..5 {
            log.publish(ev(i));
        }
        let events = log.poll(&mut cursor);
        assert_eq!(events.len(), 5);
        assert_eq!(events[0], ev(0));
        assert_eq!(events[4], ev(4));
        assert!(log.poll(&mut cursor).is_empty(), "cursor is drained");
        assert_eq!(log.published(), 5);
    }

    #[test]
    fn slow_cursor_skips_evicted_events_and_counts_them() {
        let log = EventLog::new(4);
        let mut cursor = log.subscribe();
        for i in 0..10 {
            log.publish(ev(i));
        }
        let events = log.poll(&mut cursor);
        assert_eq!(events.len(), 4, "only the retained tail is delivered");
        assert_eq!(events[0], ev(6));
        assert_eq!(cursor.missed(), 6);
        assert_eq!(log.evicted(), 6);
    }

    #[test]
    fn late_subscribers_start_at_the_oldest_retained_event() {
        let log = EventLog::new(4);
        for i in 0..6 {
            log.publish(ev(i));
        }
        let mut cursor = log.subscribe();
        let events = log.poll(&mut cursor);
        assert_eq!(events.first(), Some(&ev(2)));
        assert_eq!(
            cursor.missed(),
            0,
            "a late subscriber missed nothing *it* was owed"
        );
    }

    #[test]
    fn publish_stamps_are_monotone_engine_time() {
        let log = EventLog::new(8);
        let before = log.now_nanos();
        log.publish(ev(0));
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.publish(ev(1));
        let mut cursor = log.subscribe();
        let stamped = log.poll_stamped(&mut cursor);
        assert_eq!(stamped.len(), 2);
        assert!(stamped[0].published_nanos >= before);
        assert!(stamped[1].published_nanos > stamped[0].published_nanos);
        assert!(log.oldest_age_nanos().unwrap() >= 2_000_000);
        assert_eq!(log.retained(), 2);
    }

    #[test]
    fn trace_ids_survive_the_log_round_trip() {
        let log = EventLog::new(8);
        log.publish(ev(0));
        log.publish_in(ev(1), 0xdead_beef);
        let mut cursor = log.subscribe();
        let stamped = log.poll_stamped(&mut cursor);
        assert_eq!(stamped[0].trace_id, 0, "plain publish is untraced");
        assert_eq!(stamped[1].trace_id, 0xdead_beef);
    }

    #[test]
    fn cursor_loss_is_visible_through_the_registry() {
        let log = EventLog::new(2);
        let mut slow = log.subscribe();
        let fast_id;
        {
            let mut fast = log.subscribe();
            fast_id = fast.id();
            for i in 0..3 {
                log.publish(ev(i));
                log.poll(&mut fast);
            }
        }
        for i in 3..8 {
            log.publish(ev(i));
        }
        log.poll(&mut slow);
        let totals = log.cursor_missed_totals();
        assert_eq!(totals.len(), 1, "dropped cursor was pruned");
        assert_eq!(totals[0], (slow.id(), 6));
        assert_ne!(slow.id(), fast_id);
    }
}
