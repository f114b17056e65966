//! Server-sent events over the engine's [`EventLog`] cursor API.
//!
//! A stream is a plain loop: subscribe a cursor, poll it, forward
//! matching events as `event:`/`data:` frames, sleep, repeat. The cursor
//! gives SSE the same slow-consumer semantics the in-process API has: a
//! consumer that cannot keep up does not block the writer — the log
//! evicts past it and the cursor reports how many events were `missed`.
//! Every time that counter grows, the stream interleaves a `missed`
//! frame so the client knows its view has a gap.
//!
//! Frames:
//!
//! ```text
//! event: offered
//! data: {"session":3,"request":3,"options":2,"expires_at":300.0,"at":0.0}
//! ```
//!
//! A rider stream (`?session=N&request=M`) forwards only events touching
//! that session — including the `picked_up` / `dropped_off` vehicle stop
//! events of its request. A stream without filters is the fleet
//! operator's view: everything.
//!
//! [`EventLog`]: ptrider_core::EventLog

use crate::http::Response;
use crate::router::SseParams;
use ptrider_core::json;
use ptrider_core::{EngineEvent, RideService};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The event name and JSON payload of one frame.
pub fn render_event(event: &EngineEvent) -> (&'static str, String) {
    render_traced(event, 0)
}

/// [`render_event`], plus a `"trace"` member (16 hex digits) when
/// `trace_id` is nonzero, so a `?trace=` consumer can cross-reference
/// `GET /trace/{id}`.
fn render_traced(event: &EngineEvent, trace_id: u64) -> (&'static str, String) {
    let mut name = "";
    let data = json::object(|o| {
        name = write_event(o, event);
        if trace_id != 0 {
            o.field("trace", format_args!("{trace_id:016x}"));
        }
    });
    (name, data)
}

/// Writes an event's payload members and returns the event name.
fn write_event(o: &mut json::Object<'_>, event: &EngineEvent) -> &'static str {
    match event {
        EngineEvent::Submitted {
            session,
            request,
            origin,
            destination,
            riders,
            at,
        } => {
            o.field("session", session.0)
                .field("request", request.0)
                .field("origin", origin.0)
                .field("destination", destination.0)
                .field("riders", *riders)
                .field("at", *at);
            "submitted"
        }
        EngineEvent::Offered {
            session,
            request,
            options,
            expires_at,
            at,
        } => {
            o.field("session", session.0)
                .field("request", request.0)
                .field("options", *options)
                .field("expires_at", *expires_at)
                .field("at", *at);
            "offered"
        }
        EngineEvent::Confirmed {
            session,
            request,
            vehicle,
            price,
            pickup_secs,
            at,
        } => {
            o.field("session", session.0)
                .field("request", request.0)
                .field("vehicle", vehicle.0)
                .field("price", *price)
                .field("pickup_secs", *pickup_secs)
                .field("at", *at);
            "confirmed"
        }
        EngineEvent::Declined {
            session,
            request,
            at,
        } => {
            o.field("session", session.0)
                .field("request", request.0)
                .field("at", *at);
            "declined"
        }
        EngineEvent::Expired {
            session,
            request,
            at,
        } => {
            o.field("session", session.0)
                .field("request", request.0)
                .field("at", *at);
            "expired"
        }
        EngineEvent::AssignmentFailed {
            session,
            request,
            vehicle,
            at,
        } => {
            o.field("session", session.0)
                .field("request", request.0)
                .field("vehicle", vehicle.0)
                .field("at", *at);
            "assignment_failed"
        }
        EngineEvent::BatchAdmitted {
            requests,
            assigned,
            at,
        } => {
            o.field("requests", *requests)
                .field("assigned", *assigned)
                .field("at", *at);
            "batch_admitted"
        }
        EngineEvent::PickedUp { vehicle, request } => {
            o.field("vehicle", vehicle.0).field("request", request.0);
            "picked_up"
        }
        EngineEvent::DroppedOff { vehicle, request } => {
            o.field("vehicle", vehicle.0).field("request", request.0);
            "dropped_off"
        }
        EngineEvent::VehicleAdded { vehicle, location } => {
            o.field("vehicle", vehicle.0).field("location", location.0);
            "vehicle_added"
        }
        EngineEvent::TrafficUpdated {
            epoch,
            congested_arcs,
            max_factor,
            at,
        } => {
            o.field("epoch", *epoch)
                .field("congested_arcs", *congested_arcs)
                .field("max_factor", *max_factor)
                .field("at", *at);
            "traffic_updated"
        }
    }
}

/// Whether an event belongs on a stream with the given filters.
pub fn matches(params: &SseParams, event: &EngineEvent) -> bool {
    if params.session.is_none() && params.request.is_none() {
        return true;
    }
    let session = match event {
        EngineEvent::Submitted { session, .. }
        | EngineEvent::Offered { session, .. }
        | EngineEvent::Confirmed { session, .. }
        | EngineEvent::Declined { session, .. }
        | EngineEvent::Expired { session, .. }
        | EngineEvent::AssignmentFailed { session, .. } => Some(session.0),
        _ => None,
    };
    let request = match event {
        EngineEvent::Submitted { request, .. }
        | EngineEvent::Offered { request, .. }
        | EngineEvent::Confirmed { request, .. }
        | EngineEvent::Declined { request, .. }
        | EngineEvent::Expired { request, .. }
        | EngineEvent::AssignmentFailed { request, .. }
        | EngineEvent::PickedUp { request, .. }
        | EngineEvent::DroppedOff { request, .. } => Some(request.0),
        _ => None,
    };
    (params.session.is_some() && session == params.session)
        || (params.request.is_some() && request == params.request)
}

/// Runs one SSE stream until the client disconnects, a limit is hit, or
/// the server shuts down. The response head is written here; the caller
/// must not have written anything yet. `request_id` is the connection's
/// correlation id, echoed as `x-request-id` like every other response.
pub fn stream(
    service: &RideService,
    stream: &TcpStream,
    params: &SseParams,
    poll: Duration,
    shutdown: &AtomicBool,
    request_id: u64,
) -> std::io::Result<()> {
    let head = Response {
        status: 200,
        content_type: "text/event-stream",
        extra_headers: vec![("cache-control".to_string(), "no-cache".to_string())],
        body: Vec::new(),
    };
    // SSE responses have no Content-Length; hand-write the head.
    let mut w = stream;
    w.write_all(
        format!(
            "HTTP/1.1 200 OK\r\ncontent-type: {}\r\ncache-control: no-cache\r\nx-request-id: {request_id:016x}\r\nconnection: close\r\n\r\n",
            head.content_type
        )
        .as_bytes(),
    )?;
    w.flush()?;

    let mut cursor = service.subscribe();
    let mut reported_missed = cursor.missed();
    let mut forwarded: u64 = 0;
    let started = Instant::now();
    let deadline = params.max_ms.map(|ms| started + Duration::from_millis(ms));

    loop {
        if shutdown.load(Ordering::Acquire) {
            w.write_all(b"event: shutdown\r\ndata: {}\n\n")?;
            return Ok(());
        }
        let events = service.poll_stamped_events(&mut cursor);
        // The log may have evicted past the cursor while we slept; tell
        // the client how many events it will never see.
        let missed = cursor.missed();
        if missed > reported_missed {
            let data = json::object(|o| {
                o.field("missed", missed - reported_missed)
                    .field("total_missed", missed);
            });
            w.write_all(format!("event: missed\ndata: {data}\n\n").as_bytes())?;
            reported_missed = missed;
        }
        for stamped in &events {
            if params.trace.is_some_and(|t| stamped.trace_id != t) {
                continue;
            }
            if !matches(params, &stamped.event) {
                continue;
            }
            let (name, data) = render_traced(&stamped.event, stamped.trace_id);
            w.write_all(format!("event: {name}\ndata: {data}\n\n").as_bytes())?;
            forwarded += 1;
            if params.limit.is_some_and(|limit| forwarded >= limit) {
                w.flush()?;
                return Ok(());
            }
        }
        w.flush()?;
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(());
        }
        if events.is_empty() {
            std::thread::sleep(poll);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptrider_core::SessionId;
    use ptrider_vehicles::{RequestId, VehicleId};

    fn offered(session: u64, request: u64) -> EngineEvent {
        EngineEvent::Offered {
            session: SessionId(session),
            request: RequestId(request),
            options: 1,
            expires_at: 300.0,
            at: 0.0,
        }
    }

    #[test]
    fn an_unfiltered_stream_sees_everything() {
        let params = SseParams::default();
        assert!(matches(&params, &offered(1, 1)));
        assert!(matches(
            &params,
            &EngineEvent::PickedUp {
                vehicle: VehicleId(0),
                request: RequestId(9)
            }
        ));
    }

    #[test]
    fn a_rider_stream_filters_by_session_and_request() {
        let params = SseParams {
            session: Some(3),
            request: Some(7),
            ..SseParams::default()
        };
        assert!(matches(&params, &offered(3, 7)));
        assert!(!matches(&params, &offered(4, 8)));
        // Stop events carry no session id; the request filter catches them.
        assert!(matches(
            &params,
            &EngineEvent::DroppedOff {
                vehicle: VehicleId(0),
                request: RequestId(7)
            }
        ));
        assert!(!matches(
            &params,
            &EngineEvent::DroppedOff {
                vehicle: VehicleId(0),
                request: RequestId(8)
            }
        ));
    }

    #[test]
    fn a_traced_event_carries_its_trace_id_last() {
        let (name, data) = render_traced(&offered(1, 1), 0xabc);
        assert_eq!(name, "offered");
        assert_eq!(
            data,
            r#"{"session":1,"request":1,"options":1,"expires_at":300,"at":0,"trace":"0000000000000abc"}"#
        );
    }

    #[test]
    fn every_event_variant_renders_valid_json() {
        let events = vec![
            EngineEvent::Submitted {
                session: SessionId(1),
                request: RequestId(1),
                origin: ptrider_roadnet::VertexId(0),
                destination: ptrider_roadnet::VertexId(5),
                riders: 2,
                at: 1.5,
            },
            offered(1, 1),
            EngineEvent::Confirmed {
                session: SessionId(1),
                request: RequestId(1),
                vehicle: VehicleId(2),
                price: 4.5,
                pickup_secs: 30.0,
                at: 2.0,
            },
            EngineEvent::Declined {
                session: SessionId(1),
                request: RequestId(1),
                at: 2.0,
            },
            EngineEvent::Expired {
                session: SessionId(1),
                request: RequestId(1),
                at: 2.0,
            },
            EngineEvent::AssignmentFailed {
                session: SessionId(1),
                request: RequestId(1),
                vehicle: VehicleId(2),
                at: 2.0,
            },
            EngineEvent::BatchAdmitted {
                requests: 4,
                assigned: 3,
                at: 2.0,
            },
            EngineEvent::PickedUp {
                vehicle: VehicleId(2),
                request: RequestId(1),
            },
            EngineEvent::DroppedOff {
                vehicle: VehicleId(2),
                request: RequestId(1),
            },
            EngineEvent::VehicleAdded {
                vehicle: VehicleId(2),
                location: ptrider_roadnet::VertexId(3),
            },
            EngineEvent::TrafficUpdated {
                epoch: 2,
                congested_arcs: 10,
                max_factor: 2.5,
                at: 3.0,
            },
        ];
        // The exact frames riders and operators parse: a change to how
        // payloads are written must not move a byte.
        let expected = [
            (
                "submitted",
                r#"{"session":1,"request":1,"origin":0,"destination":5,"riders":2,"at":1.5}"#,
            ),
            (
                "offered",
                r#"{"session":1,"request":1,"options":1,"expires_at":300,"at":0}"#,
            ),
            (
                "confirmed",
                r#"{"session":1,"request":1,"vehicle":2,"price":4.5,"pickup_secs":30,"at":2}"#,
            ),
            ("declined", r#"{"session":1,"request":1,"at":2}"#),
            ("expired", r#"{"session":1,"request":1,"at":2}"#),
            (
                "assignment_failed",
                r#"{"session":1,"request":1,"vehicle":2,"at":2}"#,
            ),
            ("batch_admitted", r#"{"requests":4,"assigned":3,"at":2}"#),
            ("picked_up", r#"{"vehicle":2,"request":1}"#),
            ("dropped_off", r#"{"vehicle":2,"request":1}"#),
            ("vehicle_added", r#"{"vehicle":2,"location":3}"#),
            (
                "traffic_updated",
                r#"{"epoch":2,"congested_arcs":10,"max_factor":2.5,"at":3}"#,
            ),
        ];
        assert_eq!(events.len(), expected.len());
        for (event, (want_name, want_data)) in events.iter().zip(expected) {
            let (name, data) = render_event(event);
            assert_eq!((name, data.as_str()), (want_name, want_data));
            json::Json::parse(&data)
                .unwrap_or_else(|e| panic!("{name} rendered invalid JSON ({e}): {data}"));
        }
    }
}
