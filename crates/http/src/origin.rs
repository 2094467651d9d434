//! Origin web servers.

use std::collections::{BTreeMap, HashSet};
use std::net::Ipv4Addr;

use crate::page::PageTemplate;
use crate::transport::{HttpRequest, HttpResponse, HttpStatus};

/// Who an origin server talks to.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum FirewallPolicy {
    /// Responds to anyone (most sites).
    #[default]
    Open,
    /// Drops connections from everything except the allow-listed sources
    /// (sites that firewall themselves to their DPS's edge ranges, the
    /// paper's second verification false-negative source).
    DpsOnly {
        /// Allowed client source addresses.
        allowed: HashSet<Ipv4Addr>,
    },
}

impl FirewallPolicy {
    /// True if a connection from `src` is accepted.
    pub fn allows(&self, src: Ipv4Addr) -> bool {
        match self {
            FirewallPolicy::Open => true,
            FirewallPolicy::DpsOnly { allowed } => allowed.contains(&src),
        }
    }
}

/// An origin web server: one IP address hosting one or more virtual hosts.
///
/// Each render is stamped with an incrementing nonce so dynamic meta tags
/// actually vary between requests.
///
/// # Example
///
/// ```
/// use remnant_http::{HttpRequest, OriginServer, PageTemplate};
///
/// let addr = "203.0.113.10".parse()?;
/// let mut origin = OriginServer::new(addr);
/// origin.host_site("www.example.com", PageTemplate::generate("example.com", 1));
/// let resp = origin
///     .handle(&HttpRequest::landing("198.51.100.1".parse()?, "www.example.com"))
///     .expect("open firewall");
/// assert!(resp.is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct OriginServer {
    addr: Ipv4Addr,
    sites: BTreeMap<String, PageTemplate>,
    firewall: FirewallPolicy,
    render_nonce: u64,
    requests_served: u64,
}

impl OriginServer {
    /// Creates an origin at `addr` with an open firewall and no sites.
    pub fn new(addr: Ipv4Addr) -> Self {
        OriginServer {
            addr,
            sites: BTreeMap::new(),
            firewall: FirewallPolicy::Open,
            render_nonce: 0,
            requests_served: 0,
        }
    }

    /// The server's address.
    pub const fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// Serves `template` for the virtual host `host`.
    pub fn host_site(&mut self, host: impl Into<String>, template: PageTemplate) {
        self.sites.insert(host.into(), template);
    }

    /// Stops serving `host`, returning its template.
    pub fn unhost_site(&mut self, host: &str) -> Option<PageTemplate> {
        self.sites.remove(host)
    }

    /// The template served for `host`, if any.
    pub fn site(&self, host: &str) -> Option<&PageTemplate> {
        self.sites.get(host)
    }

    /// Replaces the firewall policy.
    pub fn set_firewall(&mut self, policy: FirewallPolicy) {
        self.firewall = policy;
    }

    /// The current firewall policy.
    pub fn firewall(&self) -> &FirewallPolicy {
        &self.firewall
    }

    /// Number of requests that passed the firewall.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Handles a GET. `None` models a firewall drop (connection timeout).
    pub fn handle(&mut self, request: &HttpRequest) -> Option<HttpResponse> {
        if !self.firewall.allows(request.src) {
            return None;
        }
        self.requests_served += 1;
        match self.sites.get(&request.host) {
            Some(template) if request.path == "/" => {
                self.render_nonce += 1;
                Some(HttpResponse::ok(
                    template.render(self.render_nonce),
                    self.addr,
                ))
            }
            Some(_) => Some(HttpResponse::status(HttpStatus::NotFound, self.addr)),
            None => Some(HttpResponse::status(HttpStatus::NotFound, self.addr)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin() -> OriginServer {
        let mut o = OriginServer::new(Ipv4Addr::new(203, 0, 113, 10));
        o.host_site("www.example.com", PageTemplate::generate("example.com", 1));
        o
    }

    fn req(host: &str) -> HttpRequest {
        HttpRequest::landing(Ipv4Addr::new(198, 51, 100, 1), host)
    }

    #[test]
    fn serves_hosted_site() {
        let mut o = origin();
        let resp = o.handle(&req("www.example.com")).unwrap();
        assert!(resp.is_ok());
        assert_eq!(resp.served_by, o.addr());
        assert_eq!(o.requests_served(), 1);
    }

    #[test]
    fn unknown_host_is_404() {
        let mut o = origin();
        let resp = o.handle(&req("www.other.org")).unwrap();
        assert_eq!(resp.status, HttpStatus::NotFound);
    }

    #[test]
    fn unknown_path_is_404() {
        let mut o = origin();
        let mut r = req("www.example.com");
        r.path = "/hidden".to_owned();
        assert_eq!(o.handle(&r).unwrap().status, HttpStatus::NotFound);
    }

    #[test]
    fn dps_only_firewall_drops_strangers() {
        let mut o = origin();
        let edge = Ipv4Addr::new(104, 16, 0, 1);
        o.set_firewall(FirewallPolicy::DpsOnly {
            allowed: [edge].into_iter().collect(),
        });
        assert!(
            o.handle(&req("www.example.com")).is_none(),
            "stranger dropped"
        );
        let mut from_edge = req("www.example.com");
        from_edge.src = edge;
        assert!(o.handle(&from_edge).unwrap().is_ok());
        assert_eq!(o.requests_served(), 1);
    }

    #[test]
    fn unhost_removes_site() {
        let mut o = origin();
        assert!(o.unhost_site("www.example.com").is_some());
        assert_eq!(
            o.handle(&req("www.example.com")).unwrap().status,
            HttpStatus::NotFound
        );
    }

    #[test]
    fn dynamic_meta_differs_across_requests() {
        let mut o = origin();
        let mut template = o.unhost_site("www.example.com").unwrap();
        template.add_dynamic_meta("visitor-id");
        o.host_site("www.example.com", template);
        let a = o.handle(&req("www.example.com")).unwrap();
        let b = o.handle(&req("www.example.com")).unwrap();
        assert_ne!(
            a.document.unwrap().meta["visitor-id"],
            b.document.unwrap().meta["visitor-id"]
        );
    }

    #[test]
    fn firewall_allows_helper() {
        assert!(FirewallPolicy::Open.allows(Ipv4Addr::new(1, 1, 1, 1)));
        let policy = FirewallPolicy::DpsOnly {
            allowed: HashSet::new(),
        };
        assert!(!policy.allows(Ipv4Addr::new(1, 1, 1, 1)));
    }
}
