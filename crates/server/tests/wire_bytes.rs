//! The exact bytes of every JSON body the router renders.
//!
//! The bodies are the wire protocol riders and fleet operators program
//! against, so a change to how they are written must not move a single
//! byte. Each deterministic body on the [`common::service_with`] line
//! network is compared literally; trace, trace-tree and slow bodies carry
//! timings, so for those the parsed key order and value types are pinned
//! instead.
//!
//! Requests go straight through [`router::handle`], no socket in between,
//! so the test pins rendering alone.

mod common;

use ptrider_core::{EngineConfig, PtRider, RideService, ServiceConfig, TelemetryConfig};
use ptrider_roadnet::{DistanceOracle, GridIndex};
use ptrider_server::router::{self, Handled};
use ptrider_server::{HttpRequest, Json, Response};
use std::sync::Arc;

/// Routes one request in process and returns `(status, body)`.
fn call(service: &RideService, method: &str, target: &str, body: &str) -> (u16, String) {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let req = HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        query: query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    match router::handle(service, &req, 0.0, &String::new, None).0 {
        Handled::Respond(resp) => (resp.status, String::from_utf8(resp.body).unwrap()),
        Handled::Sse(_) => panic!("{method} {target} opened a stream"),
    }
}

/// One exchange per line pair: `METHOD target [body]`, then
/// `status body` — the exact bytes the router must answer with.
const SCRIPT: &str = r#"
GET /healthz
200 {"ok":true}
POST /vehicles {"location":3,"capacity":2}
201 {"vehicle":1}
POST /rides {"origin":1,"destination":4,"riders":1,"now":0.0}
200 {"session":0,"request":0,"expires_at":300,"options":[{"id":0,"vehicle":0,"pickup_secs":37.5,"pickup_dist":500,"price":1050,"detour_dist":2000}]}
GET /sessions/0
200 {"session":0,"state":"offered"}
POST /sessions/0/respond {"decision":"choose","option":0,"now":1.0}
200 {"session":0,"state":"confirmed","request":0,"vehicle":0,"price":1050,"pickup_secs":37.5}
POST /rides {"origin":2,"destination":5,"now":2.25}
200 {"session":1,"request":1,"expires_at":302.25,"options":[{"id":0,"vehicle":1,"pickup_secs":37.5,"pickup_dist":500,"price":1050,"detour_dist":2000},{"id":1,"vehicle":0,"pickup_secs":75,"pickup_dist":1000,"price":600,"detour_dist":500}]}
POST /sessions/1/respond {"decision":"decline","now":2.5}
200 {"session":1,"state":"declined"}
POST /vehicles/0/location {"location":1,"travelled":500.0}
200 {"ok":true}
POST /vehicles/0/arrived
200 {"event":{"kind":"picked_up","request":0,"riders":1}}
POST /vehicles/0/location {"location":4,"travelled":1500.0}
200 {"ok":true}
POST /vehicles/0/arrived
200 {"event":{"kind":"dropped_off","request":0,"onboard_distance":1500}}
POST /vehicles/0/arrived
200 {"event":null}
POST /rides {"origin":3,"destination":1,"now":3.0}
200 {"session":2,"request":2,"expires_at":303,"options":[{"id":0,"vehicle":1,"pickup_secs":0,"pickup_dist":0,"price":600,"detour_dist":1000}]}
POST /rides {"origin":4,"destination":2,"now":3.0}
200 {"session":3,"request":3,"expires_at":303,"options":[{"id":0,"vehicle":0,"pickup_secs":0,"pickup_dist":0,"price":600,"detour_dist":1000}]}
POST /sessions/3/respond {"decision":"choose","option":0,"now":100000.0}
410 {"error":"the offer of session s3 has expired"}
POST /tick {"now":1000.0}
200 {"expired":1}
POST /rides {not json
400 {"error":"bad JSON: bad literal at offset 1"}
GET /sessions/999
404 {"error":"session s999 is unknown"}
DELETE /rides
405 {"error":"method not allowed"}
POST /sessions/0/respond {"decision":"decline","now":2.0}
409 {"error":"session s0 is already confirmed"}
"#;

#[test]
fn every_deterministic_body_keeps_its_bytes() {
    // The TTL is pinned so `expires_at` is immune to the environment.
    let service = common::service_with(
        ServiceConfig::default().with_offer_ttl_secs(300.0),
        EngineConfig::default(),
    );
    let lines: Vec<&str> = SCRIPT.lines().filter(|l| !l.is_empty()).collect();
    for pair in lines.chunks(2) {
        let mut request = pair[0].splitn(3, ' ');
        let (method, target) = (request.next().unwrap(), request.next().unwrap());
        let got = call(&service, method, target, request.next().unwrap_or(""));
        assert_eq!(format!("{} {}", got.0, got.1), pair[1], "{}", pair[0]);
    }
}

#[test]
fn error_bodies_keep_their_bytes() {
    // The connection loop's statuses and messages, then every escape.
    let cases = [
        (408, "request head timed out"),
        (413, "request body too large"),
        (431, "request head too large"),
        (501, "chunked bodies are not supported"),
        (503, "connection limit reached"),
        (505, "unsupported HTTP version"),
        (400, "a \"b\" \\ c\nd\te\r\u{1}\u{1f} é 中"),
    ];
    let want = [
        r#"{"error":"request head timed out"}"#,
        r#"{"error":"request body too large"}"#,
        r#"{"error":"request head too large"}"#,
        r#"{"error":"chunked bodies are not supported"}"#,
        r#"{"error":"connection limit reached"}"#,
        r#"{"error":"unsupported HTTP version"}"#,
        r#"{"error":"a \"b\" \\ c\nd\te\r\u0001\u001f é 中"}"#,
    ];
    for ((status, message), want) in cases.into_iter().zip(want) {
        let resp = Response::error(status, message);
        assert_eq!(resp.content_type, "application/json");
        assert_eq!(String::from_utf8(resp.body).unwrap(), want);
    }
}

/// `key:type` of each member of an object, in order.
fn shape(v: &Json) -> String {
    let Json::Obj(members) = v else {
        panic!("not an object: {v:?}");
    };
    let kind = |v: &Json| match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "num",
        Json::Str(_) => "str",
        Json::Arr(_) => "arr",
        Json::Obj(_) => "obj",
    };
    let fields: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{k}:{}", kind(v)))
        .collect();
    fields.join(",")
}

fn items(v: Option<&Json>) -> &[Json] {
    match v {
        Some(Json::Arr(items)) if !items.is_empty() => items,
        other => panic!("not a non-empty array: {other:?}"),
    }
}

fn trace_id(v: &Json) -> &str {
    let id = v.get("trace").and_then(Json::as_str).unwrap();
    assert!(id.len() == 16 && id.bytes().all(|b| b.is_ascii_hexdigit()));
    id
}

#[test]
fn timed_bodies_keep_their_key_order_and_types() {
    let net = Arc::new(common::line_net());
    let grid = Arc::new(GridIndex::build(&net, common::line_grid()));
    let oracle = DistanceOracle::new(Arc::clone(&net), Arc::clone(&grid));
    let config = EngineConfig::default();
    let engine =
        PtRider::with_oracle_and_telemetry(net, grid, oracle, config, TelemetryConfig::spans());
    let service = RideService::from_engine(engine);
    service.add_vehicle(ptrider_roadnet::VertexId(0));
    let ride = r#"{"origin":1,"destination":4,"now":0.0}"#;
    assert_eq!(call(&service, "POST", "/rides", ride).0, 200);

    let get = |target: &str| {
        let (status, body) = call(&service, "GET", target, "");
        assert_eq!(status, 200, "{body}");
        Json::parse(&body).unwrap()
    };
    let dump = get("/trace");
    assert_eq!(shape(&dump), "dropped:num,events:arr");
    let event_shape =
        "start_us:num,duration_ns:num,stage:str,request:num,trace:str,span:num,parent:num";
    for event in items(dump.get("events")) {
        assert_eq!(shape(event), event_shape);
        trace_id(event);
    }

    let trace = trace_id(&items(dump.get("events"))[0]);
    let tree = get(&format!("/trace/{trace}"));
    assert_eq!(shape(&tree), "trace:str,truncated:bool,spans:num,roots:arr");
    assert_eq!(trace_id(&tree), trace);
    let node_shape = "stage:str,start_us:num,duration_ns:num,request:num,span:num,children:arr";
    let mut nodes: Vec<&Json> = items(tree.get("roots")).iter().collect();
    let mut seen = 0;
    while let Some(node) = nodes.pop() {
        assert_eq!(shape(node), node_shape);
        if let Some(Json::Arr(children)) = node.get("children") {
            nodes.extend(children);
        }
        seen += 1;
    }
    assert_eq!(tree.get("spans").and_then(Json::as_u64), Some(seen));

    let slow = get("/debug/slow");
    assert_eq!(shape(&slow), "slow:arr");
    for entry in items(slow.get("slow")) {
        assert_eq!(
            shape(entry),
            "trace:str,stage:str,start_us:num,duration_ns:num,request:num"
        );
        trace_id(entry);
    }
}
