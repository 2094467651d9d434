//! Serve smoke test: a real daemon on an ephemeral port, exercised with
//! real UDP and TCP sockets, answering from the simulated world through
//! the recursive resolver — including the 512-byte truncation dance.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

use remnant_dns::{
    Query, Rcode, RecordData, RecordType, RecursiveResolver, ResourceRecord, Response, Ttl,
};
use remnant_net::Region;
use remnant_wire::{
    query_id, Message, ResolverService, ServerCore, WireServer, HEADER_LEN, MAX_UDP_PAYLOAD,
};
use remnant_world::{World, WorldConfig};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

fn udp_exchange(server: SocketAddr, frame: &[u8]) -> Vec<u8> {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("client socket");
    socket
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .expect("timeout");
    socket.send_to(frame, server).expect("send");
    let mut buf = [0u8; 2048];
    let (len, from) = socket
        .recv_from(&mut buf)
        .expect("daemon answered over UDP");
    assert_eq!(from, server);
    buf[..len].to_vec()
}

fn tcp_exchange(server: SocketAddr, frame: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(server).expect("connect");
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .expect("timeout");
    let len = u16::try_from(frame.len()).expect("request fits a TCP frame");
    stream.write_all(&len.to_be_bytes()).expect("length prefix");
    stream.write_all(frame).expect("request body");
    let mut len_bytes = [0u8; 2];
    stream
        .read_exact(&mut len_bytes)
        .expect("daemon answered over TCP");
    let mut reply = vec![0u8; usize::from(u16::from_be_bytes(len_bytes))];
    stream.read_exact(&mut reply).expect("full reply body");
    reply
}

fn encoded_query(query: &Query) -> Vec<u8> {
    Message::query(query_id(query), query)
        .encode()
        .expect("query encodes")
}

/// What the daemon should serve for `query`: the in-process resolver's
/// resolution, mapped exactly the way `ResolverService` maps it.
fn in_process_answer(world: &Arc<World>, query: &Query) -> Response {
    let mut resolver = RecursiveResolver::new(world.clock(), Region::Oregon);
    match resolver.resolve(world.as_ref(), &query.name, query.rtype) {
        Ok(resolution) => Response {
            query: query.clone(),
            rcode: resolution.rcode,
            authoritative: false,
            answers: resolution.records,
            authority: remnant_dns::RecordSet::new(),
            additional: remnant_dns::RecordSet::new(),
        },
        Err(_) => Response::empty(query.clone(), Rcode::ServFail),
    }
}

#[test]
fn daemon_matches_in_process_resolution_over_udp_and_tcp() {
    let world = Arc::new(World::generate(WorldConfig::small(11)));
    let resolver = RecursiveResolver::new(world.clock(), Region::Oregon);
    let service = ResolverService::new(resolver, Arc::clone(&world));
    let core = Arc::new(ServerCore::new(service));
    let server = WireServer::start(core, "127.0.0.1:0").expect("daemon binds");

    // Probe the first few portal names, the paper's probe set.
    for site in world.sites().iter().take(3) {
        let query = Query::new(site.www.clone(), RecordType::A);
        let frame = encoded_query(&query);

        let udp_reply = udp_exchange(server.udp_addr(), &frame);
        let message = Message::decode(&udp_reply).expect("UDP reply parses");
        assert_eq!(message.id, query_id(&query), "transaction ID echoed");
        assert!(message.flags.qr && !message.flags.tc);
        let served = message.to_response().expect("reply carries the question");

        let expected = in_process_answer(&world, &query);
        assert_eq!(served.rcode, expected.rcode, "rcode for {}", site.www);
        assert_eq!(
            served.answers, expected.answers,
            "answers for {} diverge from the in-process resolver",
            site.www
        );

        // The same frame over TCP returns byte-identical data: the
        // cached encoding is shared across both listeners.
        let tcp_reply = tcp_exchange(server.tcp_addr(), &frame);
        assert_eq!(tcp_reply, udp_reply);
    }

    server.shutdown();
}

#[test]
fn nxdomain_travels_the_wire() {
    let world = Arc::new(World::generate(WorldConfig::small(23)));
    let resolver = RecursiveResolver::new(world.clock(), Region::Oregon);
    let service = ResolverService::new(resolver, Arc::clone(&world));
    let core = Arc::new(ServerCore::new(service));
    let server = WireServer::start(core, "127.0.0.1:0").expect("daemon binds");

    let query = Query::new(
        "no-such-site-anywhere.com".parse().expect("name"),
        RecordType::A,
    );
    let expected = in_process_answer(&world, &query);
    let reply = udp_exchange(server.udp_addr(), &encoded_query(&query));
    let served = Message::decode(&reply)
        .expect("reply parses")
        .to_response()
        .expect("question echoed");
    assert_eq!(served.rcode, expected.rcode);
    assert_eq!(served.answers, expected.answers);

    server.shutdown();
}

#[test]
fn oversized_answer_truncates_on_udp_and_retries_over_tcp() {
    // A service whose answer cannot fit a 512-byte datagram.
    let big = |query: &Query| {
        (query.rtype == RecordType::Txt).then(|| {
            Response::answer(
                query.clone(),
                (0..30)
                    .map(|i| {
                        ResourceRecord::new(
                            query.name.clone(),
                            Ttl::secs(60),
                            RecordData::Txt(format!("padding-{i:04}-{}", "x".repeat(24))),
                        )
                    })
                    .collect::<Vec<_>>(),
            )
        })
    };
    let core = Arc::new(ServerCore::new(big));
    let server = WireServer::start(core, "127.0.0.1:0").expect("daemon binds");

    let query = Query::new("big.example.com".parse().expect("name"), RecordType::Txt);
    let frame = encoded_query(&query);

    // UDP: a truncation stub — TC set, question echoed, no answers.
    let udp_reply = udp_exchange(server.udp_addr(), &frame);
    assert!(udp_reply.len() <= MAX_UDP_PAYLOAD);
    assert_ne!(udp_reply[2] & 0x02, 0, "TC bit set");
    assert_eq!(
        &udp_reply[HEADER_LEN..],
        &frame[HEADER_LEN..],
        "truncation stub echoes the question"
    );

    // The client retries over TCP, as resolvers do, and gets it all.
    let tcp_reply = tcp_exchange(server.tcp_addr(), &frame);
    assert!(tcp_reply.len() > MAX_UDP_PAYLOAD);
    let message = Message::decode(&tcp_reply).expect("TCP reply parses");
    assert!(!message.flags.tc, "TCP reply is not truncated");
    assert_eq!(message.answers.len(), 30);

    server.shutdown();
}
