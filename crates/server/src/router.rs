//! Maps parsed HTTP requests onto the [`RideService`] lifecycle.
//!
//! Routing is a plain match over `(method, path segments)` — no
//! framework, no registration. Every [`ServiceError`] has one canonical
//! status:
//!
//! | error                     | status |
//! |---------------------------|--------|
//! | `UnknownSession`          | 404    |
//! | `NotYetOffered`           | 409    |
//! | `AlreadyResolved`         | 409    |
//! | `OfferExpired`            | 410    |
//! | `UnknownOption`           | 404    |
//! | `Engine(UnknownVehicle)`  | 404    |
//! | `Engine(AssignmentFailed)`| 409    |
//! | `Engine(...)` (validation)| 400    |
//! | `Unavailable`             | 503    |

use crate::http::{HttpRequest, Response};
use ptrider_core::json::{self, Json};
use ptrider_core::{
    Confirmation, Decision, EngineError, Offer, OptionId, RideService, ServiceError, SessionId,
    SpanNode, TraceContext, VertexId,
};
use ptrider_vehicles::{StopEvent, VehicleId};

/// The endpoint class a request resolved to, for per-endpoint latency
/// histograms. `Other` covers 404s and bad methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /rides`
    Rides,
    /// `POST /sessions/{id}/respond`
    Respond,
    /// `GET /sessions/{id}`
    SessionGet,
    /// `POST /vehicles`, `POST /vehicles/{id}/location`, `POST /vehicles/{id}/arrived`
    Vehicles,
    /// `POST /tick`
    Tick,
    /// `GET /metrics`
    Metrics,
    /// `GET /trace`
    Trace,
    /// `GET /events` (SSE)
    Events,
    /// Anything else.
    Other,
}

impl Endpoint {
    /// All classes, in exposition order.
    pub const ALL: [Endpoint; 9] = [
        Endpoint::Rides,
        Endpoint::Respond,
        Endpoint::SessionGet,
        Endpoint::Vehicles,
        Endpoint::Tick,
        Endpoint::Metrics,
        Endpoint::Trace,
        Endpoint::Events,
        Endpoint::Other,
    ];

    /// The metric-name suffix for this class.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Rides => "rides",
            Endpoint::Respond => "respond",
            Endpoint::SessionGet => "session_get",
            Endpoint::Vehicles => "vehicles",
            Endpoint::Tick => "tick",
            Endpoint::Metrics => "metrics",
            Endpoint::Trace => "trace",
            Endpoint::Events => "events",
            Endpoint::Other => "other",
        }
    }
}

/// Parameters of an accepted SSE stream (`GET /events`).
#[derive(Clone, Copy, Debug, Default)]
pub struct SseParams {
    /// Only forward events touching this session (rider stream).
    pub session: Option<u64>,
    /// Also forward vehicle stop events for this request id.
    pub request: Option<u64>,
    /// Only forward events stamped with this trace id (`?trace=` takes
    /// the 16-hex form echoed in `X-Request-Id`).
    pub trace: Option<u64>,
    /// Close the stream after this many forwarded events.
    pub limit: Option<u64>,
    /// Close the stream after this many milliseconds.
    pub max_ms: Option<u64>,
}

/// Parses a wire trace id: up to 16 hex digits (the `X-Request-Id` /
/// `?trace=` form). Zero is the untraced sentinel, so it is rejected.
pub(crate) fn parse_hex_id(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    match u64::from_str_radix(s, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// What the router decided: an immediate response, or an SSE stream the
/// connection loop takes over.
#[derive(Debug)]
pub enum Handled {
    /// Write this response (keep-alive per the request).
    Respond(Response),
    /// Switch the connection into SSE streaming mode.
    Sse(SseParams),
}

/// Extra text appended to `GET /metrics` (the server's own exposition);
/// produced by the caller so the router stays free of server state.
pub type MetricsSuffix<'a> = &'a dyn Fn() -> String;

/// Routes one request. `default_now` is the server clock (seconds since
/// server start), used when a body omits `now`; `suffix` renders the
/// server-side block of `/metrics`; `ctx` is the request's trace
/// context (the connection loop's `server.handle` root span), threaded
/// into the service so matcher stages and journal appends land in the
/// same trace tree.
pub fn handle(
    service: &RideService,
    req: &HttpRequest,
    default_now: f64,
    suffix: MetricsSuffix<'_>,
    ctx: Option<TraceContext>,
) -> (Handled, Endpoint) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = req.method.as_str();
    match (method, segments.as_slice()) {
        ("POST", ["rides"]) => (
            Handled::Respond(post_rides(service, req, default_now, ctx)),
            Endpoint::Rides,
        ),
        ("POST", ["sessions", id, "respond"]) => (
            Handled::Respond(match parse_id(id) {
                Some(id) => post_respond(service, req, SessionId(id), default_now, ctx),
                None => Response::error(404, "malformed session id"),
            }),
            Endpoint::Respond,
        ),
        ("GET", ["sessions", id]) => (
            Handled::Respond(match parse_id(id) {
                Some(id) => get_session(service, SessionId(id)),
                None => Response::error(404, "malformed session id"),
            }),
            Endpoint::SessionGet,
        ),
        ("POST", ["vehicles"]) => (
            Handled::Respond(post_vehicles(service, req)),
            Endpoint::Vehicles,
        ),
        ("POST", ["vehicles", id, "location"]) => (
            Handled::Respond(match parse_id(id) {
                Some(id) => post_location(service, req, VehicleId(id as u32)),
                None => Response::error(404, "malformed vehicle id"),
            }),
            Endpoint::Vehicles,
        ),
        ("POST", ["vehicles", id, "arrived"]) => (
            Handled::Respond(match parse_id(id) {
                Some(id) => post_arrived(service, VehicleId(id as u32)),
                None => Response::error(404, "malformed vehicle id"),
            }),
            Endpoint::Vehicles,
        ),
        ("POST", ["tick"]) => (
            Handled::Respond(post_tick(service, req, default_now, ctx)),
            Endpoint::Tick,
        ),
        ("GET", ["metrics"]) => (
            Handled::Respond(Response::text(
                200,
                format!("{}{}", service.metrics_text(), suffix()),
            )),
            Endpoint::Metrics,
        ),
        ("GET", ["trace"]) => (Handled::Respond(get_trace(service)), Endpoint::Trace),
        ("GET", ["trace", id]) => (
            Handled::Respond(match parse_hex_id(id) {
                Some(id) => get_trace_tree(service, id),
                None => Response::error(404, "malformed trace id"),
            }),
            Endpoint::Trace,
        ),
        ("GET", ["debug", "slow"]) => (Handled::Respond(get_slow(service)), Endpoint::Trace),
        ("GET", ["events"]) => {
            let params = SseParams {
                session: req.query_param("session").and_then(|v| v.parse().ok()),
                request: req.query_param("request").and_then(|v| v.parse().ok()),
                trace: req.query_param("trace").and_then(parse_hex_id),
                limit: req.query_param("limit").and_then(|v| v.parse().ok()),
                max_ms: req.query_param("max_ms").and_then(|v| v.parse().ok()),
            };
            (Handled::Sse(params), Endpoint::Events)
        }
        ("GET", ["healthz"]) => (
            Handled::Respond(Response::json(200, "{\"ok\":true}")),
            Endpoint::Other,
        ),
        // Known paths with the wrong method get 405 + Allow.
        (_, ["rides"]) | (_, ["vehicles"]) | (_, ["tick"]) | (_, ["sessions", _, "respond"]) => (
            Handled::Respond(
                Response::error(405, "method not allowed").with_header("allow", "POST".to_string()),
            ),
            Endpoint::Other,
        ),
        (_, ["metrics"])
        | (_, ["trace"])
        | (_, ["trace", _])
        | (_, ["debug", "slow"])
        | (_, ["events"])
        | (_, ["healthz"])
        | (_, ["sessions", _]) => (
            Handled::Respond(
                Response::error(405, "method not allowed").with_header("allow", "GET".to_string()),
            ),
            Endpoint::Other,
        ),
        _ => (
            Handled::Respond(Response::error(404, "no such route")),
            Endpoint::Other,
        ),
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse::<u64>().ok()
}

/// Parses the request body as a JSON object (empty body → empty object,
/// so bodyless POSTs like `/vehicles/{id}/arrived` stay ergonomic).
fn parse_body(req: &HttpRequest) -> Result<Json, Response> {
    if req.body.is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    let text =
        std::str::from_utf8(&req.body).map_err(|_| Response::error(400, "body is not UTF-8"))?;
    Json::parse(text).map_err(|e| Response::error(400, &format!("bad JSON: {e}")))
}

fn body_now(body: &Json, default_now: f64) -> f64 {
    body.get("now")
        .and_then(Json::as_f64)
        .unwrap_or(default_now)
}

fn service_error(e: &ServiceError) -> Response {
    let status = match e {
        ServiceError::UnknownSession(_) => 404,
        ServiceError::NotYetOffered(_) => 409,
        ServiceError::AlreadyResolved(_, _) => 409,
        ServiceError::OfferExpired(_) => 410,
        ServiceError::UnknownOption(_, _) => 404,
        ServiceError::Engine(EngineError::UnknownVehicle(_)) => 404,
        ServiceError::Engine(EngineError::AssignmentFailed(_, _)) => 409,
        ServiceError::Engine(EngineError::InvalidRequest(_)) => 400,
        ServiceError::Unavailable(_) => 503,
    };
    let mut resp = Response::error(status, &e.to_string());
    if status == 503 {
        resp = resp.with_header("retry-after", "1".to_string());
    }
    resp
}

fn engine_error(e: &EngineError) -> Response {
    service_error(&ServiceError::Engine(e.clone()))
}

fn render_offer(offer: &Offer) -> String {
    json::object(|o| {
        o.field("session", offer.session.0)
            .field("request", offer.request.0)
            .field("expires_at", offer.expires_at)
            .array("options", |a| {
                for (id, option) in offer.iter_ids() {
                    a.object(|o| {
                        o.field("id", id.0)
                            .field("vehicle", option.vehicle.0)
                            .field("pickup_secs", option.pickup_secs)
                            .field("pickup_dist", option.pickup_dist)
                            .field("price", option.price)
                            .field("detour_dist", option.detour_dist());
                    });
                }
            });
    })
}

fn render_confirmation(c: &Confirmation) -> String {
    json::object(|o| {
        o.field("session", c.session.0)
            .field("state", "confirmed")
            .field("request", c.request.0)
            .field("vehicle", c.option.vehicle.0)
            .field("price", c.option.price)
            .field("pickup_secs", c.option.pickup_secs);
    })
}

fn post_rides(
    service: &RideService,
    req: &HttpRequest,
    default_now: f64,
    ctx: Option<TraceContext>,
) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let (Some(origin), Some(destination)) = (
        body.get("origin").and_then(Json::as_u64),
        body.get("destination").and_then(Json::as_u64),
    ) else {
        return Response::error(400, "origin and destination are required");
    };
    let riders = body.get("riders").and_then(Json::as_u64).unwrap_or(1);
    if origin > u32::MAX as u64 || destination > u32::MAX as u64 || riders > u32::MAX as u64 {
        return Response::error(400, "id out of range");
    }
    let now = body_now(&body, default_now);
    match service.submit_in(
        VertexId(origin as u32),
        VertexId(destination as u32),
        riders as u32,
        now,
        ctx,
    ) {
        Ok(offer) => Response::json(200, render_offer(&offer)),
        Err(e) => service_error(&e),
    }
}

fn post_respond(
    service: &RideService,
    req: &HttpRequest,
    session: SessionId,
    default_now: f64,
    ctx: Option<TraceContext>,
) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let decision = match body.get("decision").and_then(Json::as_str) {
        Some("decline") => Decision::Decline,
        Some("choose") => match body.get("option").and_then(Json::as_u64) {
            Some(option) if option <= u32::MAX as u64 => Decision::Choose(OptionId(option as u32)),
            _ => return Response::error(400, "choose requires an option id"),
        },
        _ => return Response::error(400, "decision must be \"choose\" or \"decline\""),
    };
    let now = body_now(&body, default_now);
    match service.respond_in(session, decision, now, ctx) {
        Ok(Some(confirmation)) => Response::json(200, render_confirmation(&confirmation)),
        Ok(None) => Response::json(
            200,
            json::object(|o| {
                o.field("session", session.0).field("state", "declined");
            }),
        ),
        Err(e) => service_error(&e),
    }
}

fn get_session(service: &RideService, session: SessionId) -> Response {
    match service.session_state(session) {
        Some(state) => Response::json(
            200,
            json::object(|o| {
                o.field("session", session.0)
                    .field("state", format_args!("{state}"));
            }),
        ),
        None => service_error(&ServiceError::UnknownSession(session)),
    }
}

fn post_vehicles(service: &RideService, req: &HttpRequest) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let Some(location) = body.get("location").and_then(Json::as_u64) else {
        return Response::error(400, "location is required");
    };
    if location > u32::MAX as u64 {
        return Response::error(400, "id out of range");
    }
    if service.network().num_vertices() <= location as usize {
        return Response::error(400, "location is not a vertex of the network");
    }
    let id = match body.get("capacity").and_then(Json::as_u64) {
        Some(capacity) if capacity >= 1 && capacity <= u32::MAX as u64 => {
            service.add_vehicle_with_capacity(VertexId(location as u32), capacity as u32)
        }
        Some(_) => return Response::error(400, "capacity must be at least 1"),
        None => service.add_vehicle(VertexId(location as u32)),
    };
    Response::json(
        201,
        json::object(|o| {
            o.field("vehicle", id.0);
        }),
    )
}

fn post_location(service: &RideService, req: &HttpRequest, vehicle: VehicleId) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let Some(location) = body.get("location").and_then(Json::as_u64) else {
        return Response::error(400, "location is required");
    };
    if location > u32::MAX as u64 {
        return Response::error(400, "id out of range");
    }
    let travelled = body.get("travelled").and_then(Json::as_f64).unwrap_or(0.0);
    if !(0.0..=f64::MAX).contains(&travelled) {
        return Response::error(400, "travelled must be non-negative");
    }
    match service.location_update(vehicle, VertexId(location as u32), travelled) {
        Ok(()) => Response::json(200, "{\"ok\":true}"),
        Err(e) => engine_error(&e),
    }
}

fn post_arrived(service: &RideService, vehicle: VehicleId) -> Response {
    match service.vehicle_arrived(vehicle) {
        Ok(Some(StopEvent::PickedUp { request, riders })) => Response::json(
            200,
            json::object(|o| {
                o.object("event", |e| {
                    e.field("kind", "picked_up")
                        .field("request", request.0)
                        .field("riders", riders);
                });
            }),
        ),
        Ok(Some(StopEvent::DroppedOff {
            request,
            onboard_distance,
        })) => Response::json(
            200,
            json::object(|o| {
                o.object("event", |e| {
                    e.field("kind", "dropped_off")
                        .field("request", request.id.0)
                        .field("onboard_distance", onboard_distance);
                });
            }),
        ),
        Ok(None) => Response::json(200, "{\"event\":null}"),
        Err(e) => engine_error(&e),
    }
}

fn post_tick(
    service: &RideService,
    req: &HttpRequest,
    default_now: f64,
    ctx: Option<TraceContext>,
) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let now = body_now(&body, default_now);
    let expired = service.tick_in(now, ctx);
    Response::json(
        200,
        json::object(|o| {
            o.field("expired", expired);
        }),
    )
}

fn get_trace(service: &RideService) -> Response {
    let t = service.telemetry();
    let events = t.trace_dump();
    let body = json::object(|o| {
        o.field("dropped", t.trace_dropped()).array("events", |a| {
            for e in &events {
                a.object(|o| {
                    o.field("start_us", e.start_us)
                        .field("duration_ns", e.duration_ns)
                        .field("stage", e.stage.name())
                        .field("request", e.request)
                        .field("trace", format_args!("{:016x}", e.trace_id))
                        .field("span", e.span_id)
                        .field("parent", e.parent_span_id);
                });
            }
        });
    });
    Response::json(200, body)
}

/// Writes one node of a reassembled span tree, children nested.
fn write_span_node(o: &mut json::Object<'_>, node: &SpanNode<'_>) {
    let e = node.event;
    o.field("stage", e.stage.name())
        .field("start_us", e.start_us)
        .field("duration_ns", e.duration_ns)
        .field("request", e.request)
        .field("span", e.span_id)
        .array("children", |a| {
            for child in &node.children {
                a.object(|o| write_span_node(o, child));
            }
        });
}

/// `GET /trace/{id}`: the reassembled span tree of one request. 404 when
/// the trace was never recorded — or already evicted by the bounded
/// trace store (it keeps the most recent traces only).
fn get_trace_tree(service: &RideService, trace_id: u64) -> Response {
    let Some(tree) = service.telemetry().trace_tree(trace_id) else {
        return Response::error(404, "trace not found (never recorded, or evicted)");
    };
    let body = json::object(|o| {
        o.field("trace", format_args!("{:016x}", tree.trace_id))
            .field("truncated", tree.truncated)
            .field("spans", tree.spans.len())
            .array("roots", |a| {
                for root in &tree.roots() {
                    a.object(|o| write_span_node(o, root));
                }
            });
    });
    Response::json(200, body)
}

/// `GET /debug/slow`: the top-K slowest root spans of the resident
/// traces, slowest first — each entry's trace id resolves through
/// `GET /trace/{id}`.
fn get_slow(service: &RideService) -> Response {
    let slow = service.telemetry().slow_traces();
    let body = json::object(|o| {
        o.array("slow", |a| {
            for entry in &slow {
                a.object(|o| {
                    o.field("trace", format_args!("{:016x}", entry.trace_id))
                        .field("stage", entry.stage.name())
                        .field("start_us", entry.start_us)
                        .field("duration_ns", entry.duration_ns)
                        .field("request", entry.request);
                });
            }
        });
    });
    Response::json(200, body)
}
