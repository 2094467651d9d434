//! A transport adapter that pushes every exchange through the codec.
//!
//! [`WireTransport`] wraps any existing transport and round-trips both
//! directions of every query over encoded frames: the typed [`Query`] is
//! encoded, re-parsed, forwarded to the inner transport, and the typed
//! [`Response`] comes back the same way. Nothing about resolution logic
//! changes — which is the point. Driving the recursive resolver and the
//! record collector through a `WireTransport` must produce byte-identical
//! snapshots to the in-process path (the `wire_equivalence` differential
//! test), so any lossy corner of the codec shows up as a visible diff
//! instead of a silent measurement skew.
//!
//! Transaction IDs are derived deterministically from the query (FNV over
//! name and type), keeping the wire path free of ambient randomness: the
//! same sweep produces the same frames at any worker count.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use remnant_dns::{DnsTransport, Query, QueryStats, Response};
use remnant_net::Region;
use remnant_obs::{transport_counters, Instrumented, MetricKey};
use remnant_sim::SimTime;

use crate::message::Message;

/// Counter name for frames successfully encoded by the wire layer.
pub const WIRE_FRAMES_ENCODED: &str = "wire.frames_encoded";
/// Counter name for frames successfully decoded by the wire layer.
pub const WIRE_FRAMES_DECODED: &str = "wire.frames_decoded";
/// Counter name for codec failures observed on the wire path.
pub const WIRE_CODEC_ERRORS: &str = "wire.codec_errors";

/// Deterministic transaction ID for a query (FNV-1a over name and type).
pub fn query_id(query: &Query) -> u16 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in query.name.as_str().as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^= u64::from(crate::types::rtype_to_wire(query.rtype).unwrap_or(0));
    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    (hash ^ (hash >> 32) ^ (hash >> 16)) as u16
}

/// A [`DnsTransport`] that serializes every query and response through
/// the RFC 1035 codec before and after the inner transport.
///
/// Counters are atomic so one adapter can serve every scan worker; totals
/// are deterministic because the set of exchanges is, even though
/// per-worker interleaving is not.
#[derive(Debug)]
pub struct WireTransport<T> {
    inner: T,
    sent: AtomicU64,
    answered: AtomicU64,
    encoded: AtomicU64,
    decoded: AtomicU64,
    codec_errors: AtomicU64,
}

impl<T> WireTransport<T> {
    /// Wraps `inner`, starting all counters at zero.
    pub fn new(inner: T) -> Self {
        WireTransport {
            inner,
            sent: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            encoded: AtomicU64::new(0),
            decoded: AtomicU64::new(0),
            codec_errors: AtomicU64::new(0),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwraps the adapter.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Frames encoded, decoded, and codec failures, in that order.
    pub fn codec_stats(&self) -> (u64, u64, u64) {
        (
            self.encoded.load(Ordering::Relaxed),
            self.decoded.load(Ordering::Relaxed),
            self.codec_errors.load(Ordering::Relaxed),
        )
    }

    /// Encodes `query` to wire form and parses it back, recording codec
    /// counters. `None` models a frame the codec could not produce or
    /// re-read (the query is then dropped, like a lost datagram).
    fn through_wire_query(&self, query: &Query) -> Option<Query> {
        let frame = match Message::query(query_id(query), query).encode() {
            Ok(frame) => frame,
            Err(_) => {
                self.codec_errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        self.encoded.fetch_add(1, Ordering::Relaxed);
        match Message::decode(&frame) {
            Ok(message) => {
                self.decoded.fetch_add(1, Ordering::Relaxed);
                message.question
            }
            Err(_) => {
                self.codec_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Round-trips a response the same way.
    fn through_wire_response(&self, id: u16, response: &Response) -> Option<Response> {
        let frame = match Message::response(id, response).encode() {
            Ok(frame) => frame,
            Err(_) => {
                self.codec_errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        self.encoded.fetch_add(1, Ordering::Relaxed);
        match Message::decode(&frame) {
            Ok(message) => {
                self.decoded.fetch_add(1, Ordering::Relaxed);
                message.to_response()
            }
            Err(_) => {
                self.codec_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn stats(&self) -> QueryStats {
        QueryStats {
            sent: self.sent.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
        }
    }
}

impl<T: DnsTransport> DnsTransport for WireTransport<T> {
    fn root(&self) -> Ipv4Addr {
        self.inner.root()
    }

    fn query(
        &self,
        now: SimTime,
        server: Ipv4Addr,
        region: Region,
        query: &Query,
    ) -> Option<Response> {
        self.sent.fetch_add(1, Ordering::Relaxed);
        let parsed = self.through_wire_query(query)?;
        let response = self.inner.query(now, server, region, &parsed)?;
        let delivered = self.through_wire_response(query_id(query), &response)?;
        self.answered.fetch_add(1, Ordering::Relaxed);
        Some(delivered)
    }

    fn query_stats(&self) -> QueryStats {
        self.stats()
    }
}

impl<T> Instrumented for WireTransport<T> {
    fn component(&self) -> &'static str {
        "wire.transport"
    }

    fn counters(&self) -> Vec<(MetricKey, u64)> {
        let stats = self.stats();
        let mut counters = transport_counters(stats.sent, stats.answered);
        let (encoded, decoded, errors) = self.codec_stats();
        counters.push((MetricKey::named(WIRE_FRAMES_ENCODED), encoded));
        counters.push((MetricKey::named(WIRE_FRAMES_DECODED), decoded));
        counters.push((MetricKey::named(WIRE_CODEC_ERRORS), errors));
        counters
    }
}

#[cfg(test)]
mod tests {
    use remnant_dns::transport::ROOT_SERVER;
    use remnant_dns::{DomainName, Rcode, RecordType};

    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    /// Answers every query at the root with an empty NOERROR.
    struct EchoTransport;

    impl DnsTransport for EchoTransport {
        fn query(
            &self,
            _now: SimTime,
            server: Ipv4Addr,
            _region: Region,
            query: &Query,
        ) -> Option<Response> {
            (server == ROOT_SERVER).then(|| Response::empty(query.clone(), Rcode::NoError))
        }
    }

    #[test]
    fn exchanges_pass_through_unchanged() {
        let transport = WireTransport::new(EchoTransport);
        let query = Query::new(name("www.example.com"), RecordType::A);
        let response = transport
            .query(SimTime::EPOCH, ROOT_SERVER, Region::Oregon, &query)
            .expect("answered");
        assert_eq!(response, Response::empty(query, Rcode::NoError));
    }

    #[test]
    fn drops_are_counted_not_answered() {
        let transport = WireTransport::new(EchoTransport);
        let query = Query::new(name("www.example.com"), RecordType::A);
        let off_root = Ipv4Addr::new(9, 9, 9, 9);
        assert!(transport
            .query(SimTime::EPOCH, off_root, Region::Oregon, &query)
            .is_none());
        let _ = transport.query(SimTime::EPOCH, ROOT_SERVER, Region::Oregon, &query);
        assert_eq!(
            transport.query_stats(),
            QueryStats {
                sent: 2,
                answered: 1
            }
        );
        // 1 query frame for the drop; query + response frames for the hit.
        assert_eq!(transport.codec_stats(), (3, 3, 0));
    }

    #[test]
    fn query_ids_are_deterministic_and_spread() {
        let a = Query::new(name("www.example.com"), RecordType::A);
        let a2 = Query::new(name("www.example.com"), RecordType::A);
        let ns = Query::new(name("www.example.com"), RecordType::Ns);
        let other = Query::new(name("www.example.org"), RecordType::A);
        assert_eq!(query_id(&a), query_id(&a2));
        assert_ne!(query_id(&a), query_id(&ns));
        assert_ne!(query_id(&a), query_id(&other));
    }

    #[test]
    fn exports_wire_counters() {
        let transport = WireTransport::new(EchoTransport);
        let query = Query::new(name("www.example.com"), RecordType::A);
        let _ = transport.query(SimTime::EPOCH, ROOT_SERVER, Region::Oregon, &query);
        let mut registry = remnant_obs::MetricsRegistry::new();
        transport.export_into(&mut registry);
        let label = [("component", "wire.transport")];
        assert_eq!(registry.counter_labeled("transport.sent", &label), 1);
        assert_eq!(registry.counter_labeled(WIRE_FRAMES_ENCODED, &label), 2);
        assert_eq!(registry.counter_labeled(WIRE_FRAMES_DECODED, &label), 2);
        assert_eq!(registry.counter_labeled(WIRE_CODEC_ERRORS, &label), 0);
    }

    #[test]
    fn works_behind_shared_reference() {
        // &WireTransport<&T> is the shape the sweep engine uses.
        let shared = EchoTransport;
        let transport = WireTransport::new(&shared);
        let view: &WireTransport<&EchoTransport> = &transport;
        let query = Query::new(name("www.example.com"), RecordType::A);
        assert!(view
            .query(SimTime::EPOCH, ROOT_SERVER, Region::Oregon, &query)
            .is_some());
    }
}
