//! The load generator's HTTP/1.1 client. It is the benchmark's own, so
//! the measuring instrument does not change when the daemon's crate
//! (and its bundled client) does. Requests are pre-rendered to bytes
//! once; a round trip is one `write_all` plus reading the reply.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// `Content-Type`/`Accept` value of the binary columnar encoding.
pub const COLUMNAR: &str = "application/x-ccsynth-columnar";

/// A complete HTTP/1.1 request (head and body) ready to write.
pub fn render(method: &str, target: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut head = format!("{method} {target} HTTP/1.1\r\nhost: ccbench\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// One parsed reply: status and body (headers are not needed).
pub struct Reply<'a> {
    pub status: u16,
    pub body: &'a [u8],
}

/// A keep-alive connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, buf: Vec::with_capacity(64 * 1024) })
    }

    /// Sends pre-rendered request bytes and reads the whole reply.
    pub fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Reply<'_>> {
        self.stream.write_all(request)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> std::io::Result<Reply<'_>> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned());
        self.buf.clear();
        let mut chunk = [0u8; 64 * 1024];
        let header_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-reply"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| bad("reply head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let length: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| bad("reply lacks content-length"))?;
        let total = header_end + 4 + length;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        if self.buf.len() > total {
            return Err(bad("bytes past the reply on a closed-loop connection"));
        }
        Ok(Reply { status, body: &self.buf[header_end + 4..] })
    }
}

/// One-shot request on a fresh connection (set-up probes, scrapes):
/// status and owned body.
pub fn one_shot(addr: SocketAddr, method: &str, target: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut client = Client::connect(addr)?;
    let reply = client.round_trip(&render(method, target, &[], b""))?;
    Ok((reply.status, reply.body.to_vec()))
}
