//! Shared plumbing for the wire-protocol tests: a ready-made service +
//! server fixture for [`ptrider_server::client`] to talk to.

// Each integration-test binary compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]

use ptrider_core::{EngineConfig, RideService, ServiceConfig};
use ptrider_roadnet::{GridConfig, RoadNetwork, RoadNetworkBuilder};
use ptrider_server::{Server, ServerConfig, ServerHandle};
use std::sync::Arc;
use std::time::Duration;

/// How long a test client's read may block before it fails.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A 6-vertex line network (vertices 0..6, 500 m apart).
pub fn line_net() -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new();
    let vertices: Vec<_> = (0..6)
        .map(|i| b.add_vertex(i as f64 * 500.0, 0.0))
        .collect();
    for pair in vertices.windows(2) {
        b.add_bidirectional_edge(pair[0], pair[1], 500.0);
    }
    b.build().unwrap()
}

/// The grid config matching [`line_net`].
pub fn line_grid() -> GridConfig {
    GridConfig::with_dimensions(3, 1)
}

/// A service over [`line_net`] with one vehicle parked at vertex 0.
pub fn service() -> Arc<RideService> {
    service_with(ServiceConfig::default(), EngineConfig::default())
}

pub fn service_with(service_config: ServiceConfig, config: EngineConfig) -> Arc<RideService> {
    let service =
        RideService::new(line_net(), line_grid(), config).with_service_config(service_config);
    service.add_vehicle(ptrider_roadnet::VertexId(0));
    Arc::new(service)
}

/// Starts a server on an ephemeral port with test-friendly timeouts.
pub fn start(
    service: Arc<RideService>,
    tune: impl FnOnce(ServerConfig) -> ServerConfig,
) -> ServerHandle {
    let config = tune(
        ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_read_timeout(Duration::from_millis(500))
            .with_idle_timeout(Duration::from_secs(5))
            .with_drain_timeout(Duration::from_secs(5))
            .with_sse_poll(Duration::from_millis(5)),
    );
    Server::start(service, config).expect("server start")
}
