//! A servable resolver front: wire frames in, wire frames out.
//!
//! Three pieces stack up here:
//!
//! * [`DnsService`] — the answer source. [`ResolverService`] adapts the
//!   dns crate's [`RecursiveResolver`] over any transport (typically the
//!   simulated world), and any `Fn(&Query) -> Option<Response>` works for
//!   tests.
//! * [`ServerCore`] — the transport-independent datapath. It parses a
//!   request frame, answers from a cache of fully *encoded* responses
//!   (the hot path is a header check, one stack-buffer name expansion,
//!   one map lookup, and an ID patch — no allocation beyond the reply
//!   copy), and falls back to the service on a miss. UDP replies longer
//!   than 512 bytes are replaced by a TC-bit truncation stub so clients
//!   retry over TCP.
//! * [`WireServer`] — real sockets. One UDP worker and a TCP accept loop
//!   (2-byte length-prefixed framing, one thread per connection) drive
//!   the same `ServerCore`, so the socket layer adds no semantics.
//!
//! Semantics for imperfect input mirror a conservative production
//! resolver, within the simulation's RCODE vocabulary (no FORMERR):
//! frames too short to carry a header, response frames, and unparseable
//! question names are **dropped**; parseable-but-unsupported requests
//! (non-QUERY opcode, QDCOUNT ≠ 1, unknown QTYPE, non-IN class) get
//! REFUSED; and a service answer of `None` — the paper's "ignored query"
//! behavior — is a drop, observable as a client timeout.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use remnant_dns::{
    DnsTransport, DomainName, Query, Rcode, RecordSet, RecordType, RecursiveResolver, Response,
};
use remnant_obs::{Instrumented, MetricKey};

use crate::message::{patch_id, Message};
use crate::name::{decode_name_into, NameScratch};
use crate::types::{rtype_from_wire, HEADER_LEN, MAX_UDP_PAYLOAD};

/// Largest request frame the server will read (UDP datagram or TCP
/// frame). Queries are tiny; this is purely a safety bound.
const MAX_REQUEST: usize = 4096;

/// How long socket loops sleep/wait before re-checking the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Read timeout for in-flight TCP connections.
const TCP_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Something that can answer DNS queries. `None` models an ignored
/// query — the residual-resolution behavior the paper measures — and
/// surfaces to clients as a timeout.
pub trait DnsService: Send + Sync {
    /// Answers `query`, or ignores it.
    fn answer(&self, query: &Query) -> Option<Response>;
}

impl<F: Fn(&Query) -> Option<Response> + Send + Sync> DnsService for F {
    fn answer(&self, query: &Query) -> Option<Response> {
        self(query)
    }
}

/// A [`DnsService`] that runs the recursive resolver over a transport.
///
/// The resolver sits behind a mutex, because its cache changes on every
/// lookup; the transport is shared outside it (an `Arc<World>` backs a
/// long-running daemon without borrowing). The server's cache absorbs the
/// high-volume path, so the lock is only taken on cold names. The
/// resolver carries its own virtual clock — the daemon serves whatever
/// instant that clock reads, matching what an in-process `resolve()` at
/// the same instant returns.
pub struct ResolverService<T> {
    resolver: Mutex<RecursiveResolver>,
    transport: Arc<T>,
}

impl<T: DnsTransport + Send + Sync> ResolverService<T> {
    /// Serves answers resolved through `resolver` over `transport`.
    pub fn new(resolver: RecursiveResolver, transport: Arc<T>) -> Self {
        ResolverService {
            resolver: Mutex::new(resolver),
            transport,
        }
    }
}

impl<T: DnsTransport + Send + Sync> DnsService for ResolverService<T> {
    fn answer(&self, query: &Query) -> Option<Response> {
        let mut resolver = self.resolver.lock().expect("resolver service lock");
        match resolver.resolve(&*self.transport, &query.name, query.rtype) {
            Ok(resolution) => Some(Response {
                query: query.clone(),
                rcode: resolution.rcode,
                authoritative: false,
                answers: resolution.records,
                authority: RecordSet::new(),
                additional: RecordSet::new(),
            }),
            // Resolution errors (every nameserver ignored us, CNAME
            // loops, …) are what a recursive server reports as SERVFAIL.
            Err(_) => Some(Response {
                query: query.clone(),
                rcode: Rcode::ServFail,
                authoritative: false,
                answers: RecordSet::new(),
                authority: RecordSet::new(),
                additional: RecordSet::new(),
            }),
        }
    }
}

/// One per-name cache row: a slot per [`RecordType::ALL`] entry.
#[derive(Clone, Default)]
enum CacheSlot {
    /// Never asked the service.
    #[default]
    Unknown,
    /// The service ignored this query; keep ignoring it.
    Ignored,
    /// Fully encoded response frame with transaction ID zero.
    Frame(Arc<[u8]>),
}

type CacheRow = [CacheSlot; RecordType::ALL.len()];

/// Deterministic counters for the serve datapath.
#[derive(Debug, Default)]
struct ServeCounters {
    udp_queries: AtomicU64,
    tcp_queries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    truncated: AtomicU64,
    refused: AtomicU64,
    malformed: AtomicU64,
    ignored: AtomicU64,
}

/// The transport-independent request datapath with its encoded-response
/// cache. Wrap it in an `Arc` and share it between socket workers (and
/// benchmarks, which drive [`handle_udp`](ServerCore::handle_udp)
/// directly).
pub struct ServerCore<S> {
    service: S,
    cache: RwLock<HashMap<Box<str>, CacheRow>>,
    counters: ServeCounters,
}

impl<S: DnsService> ServerCore<S> {
    /// A core answering from `service`.
    pub fn new(service: S) -> Self {
        ServerCore {
            service,
            cache: RwLock::new(HashMap::new()),
            counters: ServeCounters::default(),
        }
    }

    /// The wrapped service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Handles one UDP datagram. `None` means no reply is sent (the
    /// query is dropped). Replies longer than 512 bytes come back as a
    /// TC-bit truncation stub.
    pub fn handle_udp(&self, datagram: &[u8]) -> Option<Vec<u8>> {
        self.counters.udp_queries.fetch_add(1, Ordering::Relaxed);
        self.handle(datagram, Some(MAX_UDP_PAYLOAD))
    }

    /// Handles one TCP-framed request (without the 2-byte length
    /// prefix). No truncation: TCP replies carry the full message.
    pub fn handle_tcp(&self, frame: &[u8]) -> Option<Vec<u8>> {
        self.counters.tcp_queries.fetch_add(1, Ordering::Relaxed);
        self.handle(frame, None)
    }

    fn handle(&self, packet: &[u8], udp_limit: Option<usize>) -> Option<Vec<u8>> {
        if packet.len() < HEADER_LEN || packet.len() > MAX_REQUEST {
            return self.malformed();
        }
        let id = u16::from_be_bytes([packet[0], packet[1]]);
        let flags = u16::from_be_bytes([packet[2], packet[3]]);
        if flags & 0x8000 != 0 {
            // A response frame; nothing to answer.
            return self.malformed();
        }
        let rd = flags & (1 << 8) != 0;
        let counts: Vec<u16> = (0..4)
            .map(|i| u16::from_be_bytes([packet[4 + 2 * i], packet[5 + 2 * i]]))
            .collect();
        let opcode = (flags >> 11) & 0xF;
        if opcode != 0 || counts != [1, 0, 0, 0] {
            self.counters.refused.fetch_add(1, Ordering::Relaxed);
            return Some(refused_reply(id, rd, None));
        }
        let mut scratch = NameScratch::new();
        let (name, after) = match decode_name_into(packet, HEADER_LEN, &mut scratch) {
            Ok(parsed) => parsed,
            Err(_) => return self.malformed(),
        };
        if packet.len() != after + 4 {
            // QTYPE + QCLASS must close the frame exactly.
            return self.malformed();
        }
        let qtype_raw = u16::from_be_bytes([packet[after], packet[after + 1]]);
        let qclass = u16::from_be_bytes([packet[after + 2], packet[after + 3]]);
        let question = &packet[HEADER_LEN..];
        let refuse = |counter: &AtomicU64| {
            counter.fetch_add(1, Ordering::Relaxed);
            Some(refused_reply(id, rd, Some(question)))
        };
        if qclass != crate::types::CLASS_IN {
            return refuse(&self.counters.refused);
        }
        let rtype = match rtype_from_wire(qtype_raw, after) {
            Ok(rtype) => rtype,
            // Typed Unsupported internally; REFUSED on the wire (the
            // model has no NOTIMP).
            Err(_) => return refuse(&self.counters.refused),
        };
        let frame = match self.lookup_or_resolve(name, rtype) {
            Lookup::Frame(frame) => frame,
            Lookup::Ignored => {
                self.counters.ignored.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Lookup::Refused => return refuse(&self.counters.refused),
        };
        if let Some(limit) = udp_limit {
            if frame.len() > limit {
                self.counters.truncated.fetch_add(1, Ordering::Relaxed);
                return Some(truncated_reply(id, rd, question));
            }
        }
        let mut reply = frame.to_vec();
        patch_id(&mut reply, id);
        Some(reply)
    }

    fn malformed(&self) -> Option<Vec<u8>> {
        self.counters.malformed.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn lookup_or_resolve(&self, name: &str, rtype: RecordType) -> Lookup {
        let index = RecordType::ALL
            .iter()
            .position(|&t| t == rtype)
            .expect("rtype_from_wire returns modeled types");
        if let Some(row) = self.cache.read().expect("serve cache lock").get(name) {
            match &row[index] {
                CacheSlot::Frame(frame) => {
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Frame(Arc::clone(frame));
                }
                CacheSlot::Ignored => {
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Ignored;
                }
                CacheSlot::Unknown => {}
            }
        }
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        let Ok(owner) = DomainName::parse(name) else {
            // Wire-legal but not a modeled name (e.g. a label ending in
            // a hyphen): refuse rather than cache.
            return Lookup::Refused;
        };
        let query = Query::new(owner, rtype);
        let slot = match self.service.answer(&query) {
            None => CacheSlot::Ignored,
            Some(response) => match Message::response(0, &response).encode() {
                Ok(frame) => CacheSlot::Frame(frame.into()),
                // A response the codec cannot carry (unmodeled variant):
                // refuse, don't poison the cache.
                Err(_) => return Lookup::Refused,
            },
        };
        let mut cache = self.cache.write().expect("serve cache lock");
        let row = cache.entry(Box::from(name)).or_default();
        if matches!(row[index], CacheSlot::Unknown) {
            row[index] = slot;
        }
        match &row[index] {
            CacheSlot::Frame(frame) => Lookup::Frame(Arc::clone(frame)),
            CacheSlot::Ignored => Lookup::Ignored,
            CacheSlot::Unknown => unreachable!("slot was just filled"),
        }
    }
}

enum Lookup {
    Frame(Arc<[u8]>),
    Ignored,
    Refused,
}

impl<S> Instrumented for ServerCore<S> {
    fn component(&self) -> &'static str {
        "wire.server"
    }

    fn counters(&self) -> Vec<(MetricKey, u64)> {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        vec![
            (
                MetricKey::named("wire.udp_queries"),
                read(&self.counters.udp_queries),
            ),
            (
                MetricKey::named("wire.tcp_queries"),
                read(&self.counters.tcp_queries),
            ),
            (
                MetricKey::named("wire.cache_hits"),
                read(&self.counters.cache_hits),
            ),
            (
                MetricKey::named("wire.cache_misses"),
                read(&self.counters.cache_misses),
            ),
            (
                MetricKey::named("wire.truncated"),
                read(&self.counters.truncated),
            ),
            (
                MetricKey::named("wire.refused"),
                read(&self.counters.refused),
            ),
            (
                MetricKey::named("wire.malformed"),
                read(&self.counters.malformed),
            ),
            (
                MetricKey::named("wire.ignored"),
                read(&self.counters.ignored),
            ),
        ]
    }
}

/// An empty REFUSED response, optionally echoing the question bytes.
fn refused_reply(id: u16, rd: bool, question: Option<&[u8]>) -> Vec<u8> {
    stub_reply(id, rd, false, 5, question)
}

/// A NOERROR response with TC set and the question echoed — the UDP
/// truncation stub that sends clients to TCP.
fn truncated_reply(id: u16, rd: bool, question: &[u8]) -> Vec<u8> {
    stub_reply(id, rd, true, 0, Some(question))
}

fn stub_reply(id: u16, rd: bool, tc: bool, rcode: u8, question: Option<&[u8]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + question.map_or(0, <[u8]>::len));
    out.extend_from_slice(&id.to_be_bytes());
    let mut flags: u16 = 1 << 15 | 1 << 7 | u16::from(rcode); // QR + RA
    if rd {
        flags |= 1 << 8;
    }
    if tc {
        flags |= 1 << 9;
    }
    out.extend_from_slice(&flags.to_be_bytes());
    out.extend_from_slice(&u16::from(question.is_some()).to_be_bytes());
    out.extend_from_slice(&[0; 6]);
    if let Some(question) = question {
        out.extend_from_slice(question);
    }
    out
}

/// The socket front: one UDP worker and a TCP accept loop over a shared
/// [`ServerCore`]. Created bound, torn down with
/// [`shutdown`](WireServer::shutdown).
pub struct WireServer {
    udp_addr: SocketAddr,
    tcp_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl WireServer {
    /// Binds UDP and TCP sockets at `bind` (use port 0 for ephemeral)
    /// and starts serving `core`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn start<S: DnsService + 'static>(
        core: Arc<ServerCore<S>>,
        bind: &str,
    ) -> io::Result<Self> {
        let udp = UdpSocket::bind(bind)?;
        udp.set_read_timeout(Some(POLL_INTERVAL))?;
        let tcp = TcpListener::bind(bind)?;
        tcp.set_nonblocking(true)?;
        let udp_addr = udp.local_addr()?;
        let tcp_addr = tcp.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let udp_core = Arc::clone(&core);
        let udp_stop = Arc::clone(&stop);
        let udp_worker = std::thread::spawn(move || {
            let mut buf = [0u8; MAX_REQUEST];
            while !udp_stop.load(Ordering::Relaxed) {
                match udp.recv_from(&mut buf) {
                    Ok((len, peer)) => {
                        if let Some(reply) = udp_core.handle_udp(&buf[..len]) {
                            let _ = udp.send_to(&reply, peer);
                        }
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
            }
        });

        let tcp_stop = Arc::clone(&stop);
        let tcp_worker = std::thread::spawn(move || {
            while !tcp_stop.load(Ordering::Relaxed) {
                match tcp.accept() {
                    Ok((stream, _)) => {
                        let conn_core = Arc::clone(&core);
                        // Connections are short-lived (clients retry one
                        // truncated query); a thread each is plenty.
                        std::thread::spawn(move || serve_tcp_connection(stream, &conn_core));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Err(_) => break,
                }
            }
        });

        Ok(WireServer {
            udp_addr,
            tcp_addr,
            stop,
            workers: vec![udp_worker, tcp_worker],
        })
    }

    /// The bound UDP address.
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// The bound TCP address.
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// Stops the socket workers and waits for them to exit. In-flight
    /// TCP connections finish on their own read timeouts.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Serves length-prefixed frames on one TCP connection until the peer
/// closes, errors, a query is dropped, or the read times out.
fn serve_tcp_connection<S: DnsService>(mut stream: TcpStream, core: &ServerCore<S>) {
    let _ = stream.set_read_timeout(Some(TCP_READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    loop {
        let mut len_bytes = [0u8; 2];
        if stream.read_exact(&mut len_bytes).is_err() {
            return;
        }
        let len = usize::from(u16::from_be_bytes(len_bytes));
        if len == 0 || len > MAX_REQUEST {
            return;
        }
        let mut frame = vec![0u8; len];
        if stream.read_exact(&mut frame).is_err() {
            return;
        }
        let Some(reply) = core.handle_tcp(&frame) else {
            // A dropped query over TCP surfaces as a closed connection.
            return;
        };
        let reply_len = (reply.len() as u16).to_be_bytes();
        if stream.write_all(&reply_len).is_err() || stream.write_all(&reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use remnant_dns::{RecordData, ResourceRecord, Ttl};

    use super::*;
    use crate::transport::query_id;

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    fn service(answer_ip: Ipv4Addr) -> impl DnsService {
        move |query: &Query| {
            (query.rtype == RecordType::A && query.name.as_str() == "www.example.com").then(|| {
                Response::answer(
                    query.clone(),
                    vec![ResourceRecord::new(
                        query.name.clone(),
                        Ttl::secs(300),
                        RecordData::A(answer_ip),
                    )],
                )
            })
        }
    }

    fn encode_query(name_str: &str, rtype: RecordType) -> Vec<u8> {
        let query = Query::new(name(name_str), rtype);
        Message::query(query_id(&query), &query)
            .encode()
            .expect("query encodes")
    }

    #[test]
    fn answers_known_name_from_cache() {
        let core = ServerCore::new(service(Ipv4Addr::new(203, 0, 113, 7)));
        let request = encode_query("www.example.com", RecordType::A);
        let first = core.handle_udp(&request).expect("answered");
        let second = core.handle_udp(&request).expect("answered");
        assert_eq!(first, second);
        let message = Message::decode(&first).expect("reply parses");
        assert_eq!(message.id, u16::from_be_bytes([request[0], request[1]]));
        assert!(message.flags.qr);
        assert_eq!(
            message.answers[0].data.as_a(),
            Some(Ipv4Addr::new(203, 0, 113, 7))
        );
        // First call missed, second hit.
        let mut registry = remnant_obs::MetricsRegistry::new();
        core.export_into(&mut registry);
        let label = [("component", "wire.server")];
        assert_eq!(registry.counter_labeled("wire.cache_hits", &label), 1);
        assert_eq!(registry.counter_labeled("wire.cache_misses", &label), 1);
        assert_eq!(registry.counter_labeled("wire.udp_queries", &label), 2);
    }

    #[test]
    fn unknown_name_is_ignored_like_the_paper() {
        let core = ServerCore::new(service(Ipv4Addr::LOCALHOST));
        let request = encode_query("gone.example.com", RecordType::A);
        assert!(core.handle_udp(&request).is_none());
        // The ignore is cached too.
        assert!(core.handle_udp(&request).is_none());
    }

    #[test]
    fn unsupported_qtype_is_refused_with_question_echo() {
        let core = ServerCore::new(service(Ipv4Addr::LOCALHOST));
        // Hand-build a query for TYPE 28 (AAAA).
        let mut request = encode_query("www.example.com", RecordType::A);
        let qtype_at = request.len() - 4;
        request[qtype_at..qtype_at + 2].copy_from_slice(&28u16.to_be_bytes());
        let reply = core.handle_udp(&request).expect("refused, not dropped");
        assert_eq!(reply[0..2], request[0..2], "ID echoed");
        assert_eq!(reply[3] & 0xF, 5, "REFUSED");
        assert_eq!(
            &reply[HEADER_LEN..],
            &request[HEADER_LEN..],
            "question echoed"
        );
    }

    #[test]
    fn non_query_frames_are_dropped() {
        let core = ServerCore::new(service(Ipv4Addr::LOCALHOST));
        let mut response_frame = encode_query("www.example.com", RecordType::A);
        response_frame[2] |= 0x80; // QR=1
        assert!(core.handle_udp(&response_frame).is_none());
        assert!(core.handle_udp(&[0u8; 5]).is_none());
    }

    #[test]
    fn multi_question_is_refused() {
        let core = ServerCore::new(service(Ipv4Addr::LOCALHOST));
        let mut request = encode_query("www.example.com", RecordType::A);
        request[5] = 2; // QDCOUNT = 2
        let reply = core.handle_udp(&request).expect("refused");
        assert_eq!(reply[3] & 0xF, 5);
    }

    #[test]
    fn oversized_udp_reply_truncates_and_tcp_carries_it() {
        let big = move |query: &Query| {
            Some(Response::answer(
                query.clone(),
                (0..30)
                    .map(|i| {
                        ResourceRecord::new(
                            query.name.clone(),
                            Ttl::secs(60),
                            RecordData::Txt(format!("padding-record-{i:04}-{}", "x".repeat(20))),
                        )
                    })
                    .collect::<Vec<_>>(),
            ))
        };
        let core = ServerCore::new(big);
        let request = encode_query("big.example.com", RecordType::Txt);
        let udp_reply = core.handle_udp(&request).expect("truncation stub");
        assert!(udp_reply.len() <= MAX_UDP_PAYLOAD);
        assert_ne!(udp_reply[2] & 0x02, 0, "TC bit set");
        let tcp_reply = core.handle_tcp(&request).expect("full answer");
        assert!(tcp_reply.len() > MAX_UDP_PAYLOAD);
        let message = Message::decode(&tcp_reply).expect("parses");
        assert_eq!(message.answers.len(), 30);
    }
}
