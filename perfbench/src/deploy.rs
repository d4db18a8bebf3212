//! The deployment every workload runs on: two buses in one process.
//!
//! The *serving* bus holds the services behind a loopback [`TcpServer`]
//! and carries its own nested calls (federation shard legs) over a
//! [`TcpTransport`] routed back to that server. The *consumer* bus has a
//! [`TcpTransport`] routed to the server (default pool) and an installed
//! executor. The buses stay split: a consumer sharing the serving bus's
//! pooled connection deadlocks on nested federation calls.

use std::sync::Arc;

use dais::soap::tcp::{TcpServer, TcpTransport};
use dais::soap::{Bus, ExecutorConfig, Transport};

/// The consumer executor's work-queue bound.
pub const QUEUE_CAPACITY: usize = 64;
/// The sleep before every consumer exchange when the transport is slowed.
pub const SLOW_TRANSPORT_MICROS: u64 = 1000;

pub struct Deployment {
    pub serving: Bus,
    pub consumer: Bus,
    pub server: TcpServer,
    /// The transport installed on the consumer bus, kept so a traced
    /// run can wrap it without rebuilding the connection pool.
    pub consumer_transport: Arc<dyn Transport>,
    serving_tcp: Arc<TcpTransport>,
}

impl Deployment {
    /// Bind the server and install the consumer's transport and
    /// executor. `slow` wraps the consumer transport in a
    /// [`SlowTransport`] (sensitivity self-test only).
    pub fn launch(workers: usize, slow: bool) -> Deployment {
        let serving = Bus::new();
        let server = TcpServer::bind(&serving, "127.0.0.1:0").expect("bind loopback server");
        let serving_tcp = Arc::new(TcpTransport::default());
        serving_tcp.set_default_route(server.local_addr());
        let consumer = Bus::new();
        let consumer_tcp = Arc::new(TcpTransport::default());
        consumer_tcp.set_default_route(server.local_addr());
        let transport: Arc<dyn Transport> = if slow {
            Arc::new(SlowTransport { inner: consumer_tcp.clone() })
        } else {
            consumer_tcp.clone()
        };
        consumer.set_transport(transport.clone());
        consumer.install_executor(
            ExecutorConfig::new(workers).shards(1).queue_capacity(QUEUE_CAPACITY),
        );
        Deployment { serving, consumer, server, consumer_transport: transport, serving_tcp }
    }

    /// Route the serving bus's own outgoing calls over TCP. Called once
    /// the services are populated, so bulk loading stays in-process.
    pub fn route_serving_over_tcp(&self) {
        self.serving.set_transport(self.serving_tcp.clone());
    }

    /// The serving bus's raw socket transport.
    pub fn serving_tcp(&self) -> Arc<TcpTransport> {
        self.serving_tcp.clone()
    }

    pub fn shutdown(self) {
        self.consumer.shutdown_executor();
        self.consumer.clear_transport();
        self.serving.clear_transport();
        self.server.shutdown();
    }
}

/// Sleeps [`SLOW_TRANSPORT_MICROS`] before every exchange: the doctored
/// slowdown the sensitivity self-test injects into one workload's
/// transport.
pub struct SlowTransport {
    pub inner: Arc<dyn Transport>,
}

impl Transport for SlowTransport {
    fn call(
        &self,
        to: &str,
        action: &str,
        request: &[u8],
        response: &mut Vec<u8>,
    ) -> Result<(), dais::soap::BusError> {
        std::thread::sleep(std::time::Duration::from_micros(SLOW_TRANSPORT_MICROS));
        self.inner.call(to, action, request, response)
    }

    fn routes(&self, to: &str) -> bool {
        self.inner.routes(to)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
