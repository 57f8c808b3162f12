//! Descriptor budget of a connection: the client and the server each
//! read and write one connection through one shared socket, so N open
//! connections cost at most 2N descriptors in a process hosting both
//! ends. Duplicated read/write halves would triple that and make a few
//! thousand connections hit a 20 000-descriptor limit.
//!
//! This is its own integration test (own process) because it counts every
//! descriptor the process holds: tests running beside it in one process
//! would open sockets of their own.

#![cfg(target_os = "linux")]

use insitu::IterParam;
use serve::wire::SessionSpec;
use serve::{Client, Server, ServerConfig};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[test]
fn each_connection_costs_one_descriptor_per_end() {
    const CONNECTIONS: usize = 64;
    /// Slack for descriptors the runtime opens on the side (the listing
    /// itself, a lazily opened file).
    const SLACK: usize = 8;

    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind tcp");
    let addr = server.tcp_addr().unwrap();
    let before = open_fds();

    let spec = SessionSpec::new(
        "fd-budget",
        IterParam::new(1, 4, 1).unwrap(),
        IterParam::new(0, 10, 1).unwrap(),
    );
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let mut client = Client::connect_tcp(addr).expect("connect");
        // A round trip proves the server has admitted the connection.
        let session = client.open_session(spec.clone()).expect("open");
        clients.push((client, session));
    }
    let grown = open_fds().saturating_sub(before);
    assert!(
        grown <= 2 * CONNECTIONS + SLACK,
        "{CONNECTIONS} connections opened {grown} descriptors (budget {})",
        2 * CONNECTIONS + SLACK
    );

    for (client, session) in &mut clients {
        client.close_session(*session).expect("close");
    }
    drop(clients);
    server.shutdown();
}
