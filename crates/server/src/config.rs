//! Server knobs and their environment defaults.
//!
//! Like [`ptrider_core::EngineConfig`], every knob follows the same
//! precedence: an explicit builder call wins over the environment, the
//! environment wins over the built-in default. The environment is read
//! once per process (`OnceLock`), so a test that sets a variable after
//! the first [`ServerConfig::default`] sees the cached value — construct
//! configs explicitly in tests.
//!
//! | Variable                 | Default         | Meaning                       |
//! |--------------------------|-----------------|-------------------------------|
//! | `PTRIDER_HTTP_ADDR`      | `127.0.0.1:0`   | Bind address                  |
//! | `PTRIDER_HTTP_THREADS`   | `8`             | Concurrent request handlers   |
//! | `PTRIDER_HTTP_MAX_CONNS` | `1024`          | Open-connection cap (shed)    |

use std::sync::OnceLock;
use std::time::Duration;

/// Configuration for [`crate::Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port `0` picks an ephemeral port).
    /// Default `127.0.0.1:0`, overridable via `PTRIDER_HTTP_ADDR`.
    pub addr: String,
    /// How many requests may execute their handler concurrently. Excess
    /// requests queue on a semaphore inside their connection thread (the
    /// socket provides the backpressure). Default `8`, overridable via
    /// `PTRIDER_HTTP_THREADS`.
    pub threads: usize,
    /// Open-connection cap. Connections past the cap are shed with
    /// `503` + `Retry-After` before a thread is spawned. Default `1024`,
    /// overridable via `PTRIDER_HTTP_MAX_CONNS`.
    pub max_conns: usize,
    /// Budget for reading one full request once its first byte arrived.
    /// A slow sender (slow loris) exceeding it gets `408` and the
    /// connection closed. Default 10 s.
    pub read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the reaper closes it silently. Default 30 s.
    pub idle_timeout: Duration,
    /// How long an SSE stream sleeps between event-log polls.
    /// Default 20 ms.
    pub sse_poll: Duration,
    /// How long [`crate::ServerHandle::shutdown`] waits for in-flight
    /// connections to drain before giving up on stragglers. Default 5 s.
    pub drain_timeout: Duration,
}

fn env_addr() -> Option<String> {
    static ENV: OnceLock<Option<String>> = OnceLock::new();
    ENV.get_or_init(|| {
        std::env::var("PTRIDER_HTTP_ADDR")
            .ok()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
    })
    .clone()
}

fn env_usize(var: &'static str, cell: &'static OnceLock<Option<usize>>) -> Option<usize> {
    *cell.get_or_init(|| {
        std::env::var(var)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|n| *n > 0)
    })
}

fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    env_usize("PTRIDER_HTTP_THREADS", &ENV)
}

fn env_max_conns() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    env_usize("PTRIDER_HTTP_MAX_CONNS", &ENV)
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: env_addr().unwrap_or_else(|| "127.0.0.1:0".to_string()),
            threads: env_threads().unwrap_or(8),
            max_conns: env_max_conns().unwrap_or(1024),
            read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            sse_poll: Duration::from_millis(20),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

impl ServerConfig {
    /// Sets the bind address (wins over `PTRIDER_HTTP_ADDR`).
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the handler concurrency (wins over `PTRIDER_HTTP_THREADS`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the connection cap (wins over `PTRIDER_HTTP_MAX_CONNS`).
    pub fn with_max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns.max(1);
        self
    }

    /// Sets the per-request read budget.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the keep-alive idle budget.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the SSE poll interval.
    pub fn with_sse_poll(mut self, interval: Duration) -> Self {
        self.sse_poll = interval;
        self
    }

    /// Sets the shutdown drain budget.
    pub fn with_drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_win_over_defaults() {
        let c = ServerConfig::default()
            .with_addr("0.0.0.0:8080")
            .with_threads(2)
            .with_max_conns(16);
        assert_eq!(c.addr, "0.0.0.0:8080");
        assert_eq!(c.threads, 2);
        assert_eq!(c.max_conns, 16);
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        let c = ServerConfig::default().with_threads(0).with_max_conns(0);
        assert_eq!(c.threads, 1);
        assert_eq!(c.max_conns, 1);
    }
}
