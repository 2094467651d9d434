//! HTTP transport abstraction and message types.

use std::fmt;
use std::net::Ipv4Addr;

use remnant_obs::{transport_counters, Instrumented, MetricKey};
use remnant_sim::SimTime;

use crate::page::HtmlDocument;

/// HTTP status codes used in the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum HttpStatus {
    /// 200.
    Ok,
    /// 403 — origin firewall rejected the client.
    Forbidden,
    /// 404 — host or path not served here.
    NotFound,
    /// 502 — an edge could not reach its configured origin.
    BadGateway,
}

impl HttpStatus {
    /// The numeric code.
    pub const fn code(self) -> u16 {
        match self {
            HttpStatus::Ok => 200,
            HttpStatus::Forbidden => 403,
            HttpStatus::NotFound => 404,
            HttpStatus::BadGateway => 502,
        }
    }

    /// The coarse class of this status.
    ///
    /// `HttpStatus` is `#[non_exhaustive]`, so downstream crates cannot
    /// match it exhaustively. Classify through this method instead of a
    /// variant match: it buckets by numeric range, so a variant added
    /// later lands in a class instead of silently falling into whatever
    /// `_` arm a caller happened to write.
    pub const fn class(self) -> StatusClass {
        match self.code() {
            200..=299 => StatusClass::Success,
            400..=499 => StatusClass::ClientError,
            _ => StatusClass::ServerError,
        }
    }
}

/// Coarse response classification for counters and downstream matches.
///
/// Unlike [`HttpStatus`] this enum is exhaustive by design: every code —
/// including ones added to `HttpStatus` later — maps to exactly one class
/// via [`HttpStatus::class`], so matching on it needs no wildcard arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StatusClass {
    /// 2xx.
    Success,
    /// 4xx.
    ClientError,
    /// 5xx, and conservatively any code outside the modeled ranges.
    ServerError,
}

impl StatusClass {
    /// Stable label for metric dimensions.
    pub const fn label(self) -> &'static str {
        match self {
            StatusClass::Success => "success",
            StatusClass::ClientError => "client_error",
            StatusClass::ServerError => "server_error",
        }
    }
}

impl fmt::Display for StatusClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl fmt::Display for HttpStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// A GET request: source address, virtual host, and path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// The client's source address (origin firewalls filter on this).
    pub src: Ipv4Addr,
    /// The `Host:` header.
    pub host: String,
    /// The request path (the study only fetches landing pages, `/`).
    pub path: String,
}

impl HttpRequest {
    /// A landing-page request from `src` for `host`.
    pub fn landing(src: Ipv4Addr, host: impl Into<String>) -> Self {
        HttpRequest {
            src,
            host: host.into(),
            path: "/".to_owned(),
        }
    }
}

impl fmt::Display for HttpRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GET {} Host:{} (from {})",
            self.path, self.host, self.src
        )
    }
}

/// A response: status, optional document, and the address that served it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: HttpStatus,
    /// Rendered page on 200, `None` otherwise.
    pub document: Option<HtmlDocument>,
    /// The address of the server that produced the response.
    pub served_by: Ipv4Addr,
}

impl HttpResponse {
    /// A 200 response with `document` served by `served_by`.
    pub fn ok(document: HtmlDocument, served_by: Ipv4Addr) -> Self {
        HttpResponse {
            status: HttpStatus::Ok,
            document: Some(document),
            served_by,
        }
    }

    /// An empty non-200 response.
    pub fn status(status: HttpStatus, served_by: Ipv4Addr) -> Self {
        HttpResponse {
            status,
            document: None,
            served_by,
        }
    }

    /// True if the response carries a document.
    pub fn is_ok(&self) -> bool {
        self.status == HttpStatus::Ok && self.document.is_some()
    }
}

/// Delivers HTTP GETs to servers by IP address.
///
/// `None` models a connection that never completes (dropped SYN, firewall
/// DROP) — distinct from an explicit error status.
pub trait HttpTransport {
    /// Sends `request` to the server at `dst` at virtual time `now`.
    fn get(&mut self, now: SimTime, dst: Ipv4Addr, request: &HttpRequest) -> Option<HttpResponse>;
}

/// Fetch counters on the unified `transport.*` surface.
///
/// `ignored` (sent minus answered) counts connections that never
/// completed — dropped SYNs and firewall DROPs, the `None` returns of
/// [`HttpTransport::get`]. Answered fetches are further broken down by
/// [`StatusClass`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// GETs issued.
    pub sent: u64,
    /// GETs that produced any response, success or error.
    pub answered: u64,
    /// Responses with a 2xx status.
    pub success: u64,
    /// Responses with a 4xx status.
    pub client_error: u64,
    /// Responses with a 5xx (or unclassified) status.
    pub server_error: u64,
}

impl FetchStats {
    /// Fetches that never completed (`sent - answered`).
    pub const fn ignored(&self) -> u64 {
        self.sent.saturating_sub(self.answered)
    }

    /// Tallies one [`HttpTransport::get`] outcome.
    pub fn record(&mut self, response: Option<&HttpResponse>) {
        self.sent += 1;
        let Some(response) = response else { return };
        self.answered += 1;
        match response.status.class() {
            StatusClass::Success => self.success += 1,
            StatusClass::ClientError => self.client_error += 1,
            StatusClass::ServerError => self.server_error += 1,
        }
    }
}

impl Instrumented for FetchStats {
    fn component(&self) -> &'static str {
        "http.transport"
    }

    fn counters(&self) -> Vec<(MetricKey, u64)> {
        let mut counters = transport_counters(self.sent, self.answered);
        for (class, count) in [
            (StatusClass::Success, self.success),
            (StatusClass::ClientError, self.client_error),
            (StatusClass::ServerError, self.server_error),
        ] {
            counters.push((
                MetricKey::labeled("http.responses", &[("class", class.label())]),
                count,
            ));
        }
        counters
    }
}

/// Wraps an [`HttpTransport`] and tallies every fetch into [`FetchStats`].
///
/// The HTTP twin of the DNS layer's `CountingTransport`: scanners that
/// need per-run fetch telemetry wrap their transport in this instead of
/// keeping private tallies.
#[derive(Debug)]
pub struct CountingHttpTransport<'a, T> {
    inner: &'a mut T,
    stats: FetchStats,
}

impl<'a, T: HttpTransport> CountingHttpTransport<'a, T> {
    /// Wraps `inner`, starting all counters at zero.
    pub fn new(inner: &'a mut T) -> Self {
        CountingHttpTransport {
            inner,
            stats: FetchStats::default(),
        }
    }
}

impl<T: HttpTransport> HttpTransport for CountingHttpTransport<'_, T> {
    fn get(&mut self, now: SimTime, dst: Ipv4Addr, request: &HttpRequest) -> Option<HttpResponse> {
        let response = self.inner.get(now, dst, request);
        self.stats.record(response.as_ref());
        response
    }
}

impl<T: HttpTransport> Instrumented for CountingHttpTransport<'_, T> {
    fn component(&self) -> &'static str {
        "http.counting_transport"
    }

    fn counters(&self) -> Vec<(MetricKey, u64)> {
        self.stats.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageTemplate;

    #[test]
    fn status_codes() {
        assert_eq!(HttpStatus::Ok.code(), 200);
        assert_eq!(HttpStatus::Forbidden.code(), 403);
        assert_eq!(HttpStatus::NotFound.code(), 404);
        assert_eq!(HttpStatus::BadGateway.code(), 502);
        assert_eq!(HttpStatus::Ok.to_string(), "200");
    }

    #[test]
    fn landing_request_defaults_to_root_path() {
        let req = HttpRequest::landing(Ipv4Addr::new(1, 2, 3, 4), "www.example.com");
        assert_eq!(req.path, "/");
        assert_eq!(req.host, "www.example.com");
    }

    #[test]
    fn ok_response_carries_document() {
        let doc = PageTemplate::generate("example.com", 1).render(0);
        let resp = HttpResponse::ok(doc, Ipv4Addr::new(5, 5, 5, 5));
        assert!(resp.is_ok());
        assert_eq!(resp.served_by, Ipv4Addr::new(5, 5, 5, 5));
    }

    #[test]
    fn error_response_has_no_document() {
        let resp = HttpResponse::status(HttpStatus::NotFound, Ipv4Addr::new(5, 5, 5, 5));
        assert!(!resp.is_ok());
        assert!(resp.document.is_none());
    }

    #[test]
    fn every_status_classifies_without_a_variant_match() {
        // The non_exhaustive audit: downstream code must never match
        // HttpStatus variants directly. class() buckets by code range, so
        // every current variant — and any added later — lands in a class.
        for status in [
            HttpStatus::Ok,
            HttpStatus::Forbidden,
            HttpStatus::NotFound,
            HttpStatus::BadGateway,
        ] {
            let class = status.class();
            match status.code() {
                200..=299 => assert_eq!(class, StatusClass::Success),
                400..=499 => assert_eq!(class, StatusClass::ClientError),
                _ => assert_eq!(class, StatusClass::ServerError),
            }
        }
        assert_eq!(StatusClass::Success.label(), "success");
        assert_eq!(StatusClass::ServerError.to_string(), "server_error");
    }

    /// A transport answering from a fixed script of responses.
    struct Scripted(Vec<Option<HttpResponse>>);

    impl HttpTransport for Scripted {
        fn get(&mut self, _: SimTime, _: Ipv4Addr, _: &HttpRequest) -> Option<HttpResponse> {
            self.0.remove(0)
        }
    }

    #[test]
    fn counting_transport_tallies_classes_and_drops() {
        let served_by = Ipv4Addr::new(5, 5, 5, 5);
        let doc = PageTemplate::generate("example.com", 1).render(0);
        let mut inner = Scripted(vec![
            Some(HttpResponse::ok(doc, served_by)),
            Some(HttpResponse::status(HttpStatus::Forbidden, served_by)),
            Some(HttpResponse::status(HttpStatus::BadGateway, served_by)),
            None,
        ]);
        let mut transport = CountingHttpTransport::new(&mut inner);
        let req = HttpRequest::landing(Ipv4Addr::new(1, 2, 3, 4), "www.example.com");
        for _ in 0..4 {
            let _ = transport.get(SimTime::EPOCH, served_by, &req);
        }
        let mut registry = remnant_obs::MetricsRegistry::new();
        transport.export_into(&mut registry);
        let count = |name, class: Option<&str>| {
            let mut labels = vec![("component", "http.counting_transport")];
            labels.extend(class.map(|class| ("class", class)));
            registry.counter_key(&MetricKey::labeled(name, &labels))
        };
        assert_eq!(count(remnant_obs::TRANSPORT_SENT, None), 4);
        assert_eq!(count(remnant_obs::TRANSPORT_ANSWERED, None), 3);
        assert_eq!(count(remnant_obs::TRANSPORT_IGNORED, None), 1);
        for class in ["success", "client_error", "server_error"] {
            assert_eq!(count("http.responses", Some(class)), 1, "{class}");
        }
    }
}
