//! Hostile-input tests: a frame built to hurt the server must cost the
//! sender one named rejection, never the process or another client's
//! service.

use std::io::Write;
use std::net::TcpStream;

use goc_proto::{Client, Connection, RejectReason, ReportPayload, Request, Response};
use goc_server::{EnsembleOnlyBackend, Server, ServerConfig};

#[test]
fn deeply_nested_frame_is_rejected_and_the_server_survives() {
    let server = Server::bind(ServerConfig::default(), Box::new(EnsembleOnlyBackend)).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    // One 1 MB line of `[` (well under the frame cap): a recursive
    // parser without a depth cap overflows the session thread's stack
    // and aborts the whole process.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut frame = vec![b'['; 1 << 20];
    frame.push(b'\n');
    stream.write_all(&frame).unwrap();
    let mut conn = Connection::new(stream);
    let reply = conn.recv_response().unwrap();
    match reply.response {
        Response::Rejected { reason, detail } => {
            assert_eq!(reason, RejectReason::MalformedFrame);
            assert!(detail.contains("recursion limit"), "{detail}");
        }
        other => panic!("expected a malformed-frame rejection, got {other:?}"),
    }
    drop(conn);

    // A fresh client is still served.
    let mut client = Client::connect(addr).unwrap();
    let status = client.request(Request::Status).unwrap();
    assert!(
        matches!(
            status.terminal(),
            Response::Report(ReportPayload::Status(_))
        ),
        "{:?}",
        status.terminal()
    );
    let bye = client.request(Request::Shutdown).unwrap();
    assert_eq!(
        bye.terminal(),
        &Response::Report(ReportPayload::ShutdownAck)
    );
    let summary = handle.join().unwrap();
    assert_eq!(summary.rejected, 1, "{summary:?}");
}
