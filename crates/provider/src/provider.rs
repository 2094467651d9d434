//! The DPS provider: infrastructure, control plane, and DNS answer policy.
//!
//! A [`DpsProvider`] owns:
//!
//! * **infrastructure** — PoPs across regions, anycast edge addresses with
//!   reverse proxies, an anycast nameserver fleet (Cloudflare's 391
//!   `*.ns.cloudflare.com` hosts, Sec V-A.1), and per-PoP scrubbing centers;
//! * **control plane** — customer accounts with
//!   enroll / pause / resume / update-origin / terminate transitions;
//! * **answer policy** — the authoritative DNS behavior, including the
//!   residual-resolution misconfiguration: after an *informed* termination,
//!   Cloudflare- and Incapsula-configured providers keep answering with the
//!   stored **origin** address until the record is purged; after an
//!   *uninformed* leave the configuration is simply untouched and queries
//!   keep returning the **edge** address (footnote 9).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use remnant_dns::{
    Authoritative, DomainName, Query, Rcode, RecordData, RecordSet, RecordType, ResourceRecord,
    Response, Ttl,
};
use remnant_http::{HttpRequest, HttpResponse, HttpTransport, ReverseProxy};
use remnant_net::hash::WordMap;
use remnant_net::{AnycastMap, IpAllocator, Ipv4Cidr, Pop, PopId, Region};
use remnant_sim::{SeedSeq, SimDuration, SimTime};

use crate::account::{CustomerAccount, ServiceStatus};
use crate::catalog::{ProviderId, ProviderInfo};
use crate::error::ProviderError;
use crate::plan::ServicePlan;
use crate::rerouting::{assign_ns_pair, mint_cname_token, nameserver_fleet, ReroutingMethod};
use crate::residual::ResidualPolicy;
use crate::scrub::{ScrubOutcome, ScrubbingCenter};

/// TTL of customer A records served by providers (short, as the paper notes
/// in footnote 13).
const CUSTOMER_A_TTL: Ttl = Ttl::secs(300);
/// TTL of the NS records a provider serves for NS-based customers.
const CUSTOMER_NS_TTL: Ttl = Ttl::days(1);
/// How long an uninformed leaver's untouched configuration survives before
/// the provider notices (billing lapse) and removes it.
const UNINFORMED_GRACE: SimDuration = SimDuration::weeks(5);

/// What the provider hands the customer at enrollment, to be applied to the
/// customer's own DNS configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Enrollment {
    /// NS-based: delegate the apex to these nameservers (name + glue).
    NsBased {
        /// Assigned nameserver pair with glue addresses.
        nameservers: Vec<(DomainName, Ipv4Addr)>,
    },
    /// CNAME-based: point the host's CNAME at this token.
    CnameBased {
        /// The minted canonical name.
        token: DomainName,
    },
    /// A-based: point the host's A record at this edge address.
    ABased {
        /// The assigned edge address.
        edge: Ipv4Addr,
    },
}

impl Enrollment {
    /// Assigned nameservers (empty unless NS-based).
    pub fn nameservers(&self) -> &[(DomainName, Ipv4Addr)] {
        match self {
            Enrollment::NsBased { nameservers } => nameservers,
            _ => &[],
        }
    }

    /// The CNAME token (None unless CNAME-based).
    pub fn cname_token(&self) -> Option<&DomainName> {
        match self {
            Enrollment::CnameBased { token } => Some(token),
            _ => None,
        }
    }
}

/// A terminated customer's frozen state — the *remnant* of the title.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResidualRecord {
    /// The account as it was at termination.
    pub account: CustomerAccount,
    /// True if the customer told the provider it was leaving. Informed
    /// terminations flip the answer to the origin address; uninformed ones
    /// leave the edge answer in place.
    pub informed: bool,
    /// When the customer left.
    pub terminated_at: SimTime,
    /// When the provider purges the record (`None` = never).
    pub purge_at: Option<SimTime>,
    /// Set by the revalidation countermeasure when the stale answer no
    /// longer matches public DNS.
    pub disabled: bool,
}

impl ResidualRecord {
    /// True if the record still answers at `now`.
    pub fn is_live(&self, now: SimTime) -> bool {
        !self.disabled && self.purge_at.is_none_or(|purge| now < purge)
    }

    /// The address this record answers with while live.
    pub fn answer_address(&self) -> Ipv4Addr {
        if self.informed {
            self.account.origin
        } else {
            self.account.edge
        }
    }
}

/// Sizing knobs for a provider's simulated infrastructure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InfraConfig {
    /// Number of PoPs (Cloudflare: "over 100", Sec V-A.1).
    pub pops: usize,
    /// Number of anycast edge addresses.
    pub edge_ips: usize,
    /// Number of nameserver hosts (Cloudflare: 391 extracted in the paper).
    pub nameservers: usize,
    /// Per-PoP scrubbing capacity in Gbps.
    pub scrub_capacity_gbps: f64,
}

impl InfraConfig {
    /// Default sizing per provider, scaled to the paper's descriptions.
    pub fn for_provider(id: ProviderId) -> Self {
        match id {
            ProviderId::Cloudflare => InfraConfig {
                pops: 120,
                edge_ips: 32,
                nameservers: 391,
                scrub_capacity_gbps: 150.0,
            },
            ProviderId::Akamai => InfraConfig {
                pops: 60,
                edge_ips: 24,
                nameservers: 12,
                scrub_capacity_gbps: 120.0,
            },
            ProviderId::Incapsula => InfraConfig {
                pops: 32,
                edge_ips: 12,
                nameservers: 8,
                scrub_capacity_gbps: 100.0,
            },
            ProviderId::Cloudfront | ProviderId::Fastly => InfraConfig {
                pops: 40,
                edge_ips: 16,
                nameservers: 8,
                scrub_capacity_gbps: 80.0,
            },
            _ => InfraConfig {
                pops: 16,
                edge_ips: 8,
                nameservers: 4,
                scrub_capacity_gbps: 60.0,
            },
        }
    }
}

/// One simulated DPS/CDN provider (see module docs).
#[derive(Clone, Debug)]
pub struct DpsProvider {
    info: &'static ProviderInfo,
    seed: u64,
    policy: ResidualPolicy,
    // Infrastructure.
    pops: Vec<Pop>,
    anycast: AnycastMap,
    edge_ips: Vec<Ipv4Addr>,
    edges: WordMap<Ipv4Addr, ReverseProxy>,
    ns_hosts: Vec<DomainName>,
    ns_ips: Vec<Ipv4Addr>,
    ns_glue: WordMap<DomainName, Ipv4Addr>,
    scrubbers: WordMap<PopId, ScrubbingCenter>,
    infra_apexes: Vec<DomainName>,
    // Control plane. An apex holds an account or a residual, never both.
    accounts: WordMap<DomainName, CustomerAccount>,
    residuals: WordMap<DomainName, ResidualRecord>,
    /// CNAME token -> apex, for accounts and residuals alike. Every other
    /// name a customer answers for lies under its apex.
    tokens: WordMap<DomainName, DomainName>,
    generations: WordMap<DomainName, u32>,
}

impl DpsProvider {
    /// Builds a provider with its observed residual policy and default
    /// infrastructure sizing.
    pub fn build(id: ProviderId, seed: u64) -> Self {
        let policy = match id {
            ProviderId::Cloudflare => ResidualPolicy::cloudflare_observed(),
            ProviderId::Incapsula => ResidualPolicy::incapsula_observed(),
            _ => ResidualPolicy::deny(),
        };
        Self::build_with(id, seed, InfraConfig::for_provider(id), policy)
    }

    /// Builds a provider with explicit sizing and residual policy (used by
    /// the countermeasure experiments).
    ///
    /// # Panics
    ///
    /// Panics if the provider's catalog IP blocks cannot supply the
    /// requested number of addresses (catalog blocks are far larger than
    /// any realistic config).
    pub fn build_with(
        id: ProviderId,
        seed: u64,
        config: InfraConfig,
        policy: ResidualPolicy,
    ) -> Self {
        let info = id.info();
        let blocks: Vec<Ipv4Cidr> = info
            .ip_blocks
            .iter()
            .map(|s| s.parse().expect("catalog blocks are valid"))
            .collect();
        let mut allocator = IpAllocator::new(info.name, blocks);

        // PoPs spread round-robin over all regions.
        let pops: Vec<Pop> = (0..config.pops)
            .map(|i| {
                let region = Region::ALL[i % Region::ALL.len()];
                Pop::new(
                    PopId(i as u32),
                    region,
                    format!(
                        "{}-{}-{}",
                        info.name.to_lowercase(),
                        region.name().to_lowercase().replace(' ', ""),
                        i
                    ),
                )
            })
            .collect();
        let scrubbers = pops
            .iter()
            .map(|p| {
                (
                    p.id(),
                    ScrubbingCenter::new(config.scrub_capacity_gbps, 1.0),
                )
            })
            .collect();

        // Nameserver fleet, then edges, from the provider's blocks.
        let ns_hosts = nameserver_fleet(info.ns_domain, config.nameservers);
        let ns_ips = allocator
            .allocate_n(config.nameservers)
            .expect("catalog blocks cover the fleet");
        let edge_ips = allocator
            .allocate_n(config.edge_ips)
            .expect("catalog blocks cover the edges");

        // Announce every service address from one PoP per region.
        let seq = SeedSeq::new(seed).child(info.name);
        let mut anycast = AnycastMap::new();
        let mut pops_by_region: HashMap<Region, Vec<PopId>> = HashMap::new();
        for pop in &pops {
            pops_by_region
                .entry(pop.region())
                .or_default()
                .push(pop.id());
        }
        for (i, addr) in ns_ips.iter().chain(edge_ips.iter()).enumerate() {
            for (region, region_pops) in &pops_by_region {
                let pick = seq.derive_indexed("announce", (i as u64) << 8 | region.index() as u64);
                let pop = region_pops[(pick % region_pops.len() as u64) as usize];
                anycast.announce(*addr, *region, pop);
            }
        }

        let edges = edge_ips
            .iter()
            .map(|addr| (*addr, ReverseProxy::new(*addr)))
            .collect();
        let ns_glue = ns_hosts
            .iter()
            .cloned()
            .zip(ns_ips.iter().copied())
            .collect();

        let mut infra_apexes: Vec<DomainName> = Vec::new();
        for domain in [info.cname_domain, info.ns_domain] {
            if !domain.is_empty() {
                let apex = DomainName::parse(domain)
                    .expect("catalog domains are valid")
                    .apex();
                if !infra_apexes.contains(&apex) {
                    infra_apexes.push(apex);
                }
            }
        }

        DpsProvider {
            info,
            seed,
            policy,
            pops,
            anycast,
            edge_ips,
            edges,
            ns_hosts,
            ns_ips,
            ns_glue,
            scrubbers,
            infra_apexes,
            accounts: WordMap::default(),
            residuals: WordMap::default(),
            tokens: WordMap::default(),
            generations: WordMap::default(),
        }
    }

    /// The provider's identity.
    pub fn id(&self) -> ProviderId {
        self.info.id
    }

    /// The provider's Table II fingerprint data.
    pub fn info(&self) -> &'static ProviderInfo {
        self.info
    }

    /// The active residual policy.
    pub fn policy(&self) -> &ResidualPolicy {
        &self.policy
    }

    /// Replaces the residual policy (countermeasure experiments).
    pub fn set_policy(&mut self, policy: ResidualPolicy) {
        self.policy = policy;
    }

    /// Nameserver fleet as (hostname, address) pairs.
    pub fn nameservers(&self) -> impl Iterator<Item = (&DomainName, Ipv4Addr)> {
        self.ns_hosts.iter().zip(self.ns_ips.iter().copied())
    }

    /// The address of the fleet nameserver `host`, if it is one.
    pub fn ns_address(&self, host: &DomainName) -> Option<Ipv4Addr> {
        self.ns_glue.get(host).copied()
    }

    /// Addresses of the nameserver fleet.
    pub fn ns_addresses(&self) -> &[Ipv4Addr] {
        &self.ns_ips
    }

    /// Anycast edge addresses.
    pub fn edge_addresses(&self) -> &[Ipv4Addr] {
        &self.edge_ips
    }

    /// True if `addr` is one of this provider's edges.
    pub fn is_edge_address(&self, addr: Ipv4Addr) -> bool {
        self.edges.contains_key(&addr)
    }

    /// The provider's announced CIDR blocks.
    pub fn ip_blocks(&self) -> Vec<Ipv4Cidr> {
        self.info
            .ip_blocks
            .iter()
            .map(|s| s.parse().expect("catalog blocks are valid"))
            .collect()
    }

    /// The PoPs of this provider.
    pub fn pops(&self) -> &[Pop] {
        &self.pops
    }

    /// Which PoP serves a query for anycast address `addr` from `region`
    /// (Fig 7's vantage-point catchment).
    pub fn pop_for(&self, addr: Ipv4Addr, region: Region) -> Option<&Pop> {
        let id = self.anycast.catchment(addr, region).ok()?;
        self.pops.iter().find(|p| p.id() == id)
    }

    /// Scrubs attack traffic arriving at `pop`.
    pub fn scrub_at(
        &self,
        pop: PopId,
        malicious_gbps: f64,
        legit_gbps: f64,
    ) -> Option<ScrubOutcome> {
        self.scrubbers
            .get(&pop)
            .map(|s| s.scrub(malicious_gbps, legit_gbps))
    }

    // ------------------------------------------------------------------
    // Control plane.
    // ------------------------------------------------------------------

    /// Enrolls `domain` with the given origin, plan and rerouting method.
    ///
    /// # Errors
    ///
    /// * [`ProviderError::AlreadyEnrolled`] if the domain has an account;
    /// * [`ProviderError::ReroutingUnavailable`] if the method is not
    ///   offered, or gated by plan (Cloudflare CNAME needs business+);
    /// * [`ProviderError::Provisioning`] on name-minting failures.
    pub fn enroll(
        &mut self,
        now: SimTime,
        domain: &DomainName,
        origin: Ipv4Addr,
        plan: ServicePlan,
        rerouting: ReroutingMethod,
    ) -> Result<Enrollment, ProviderError> {
        if self.accounts.contains_key(domain) {
            return Err(ProviderError::AlreadyEnrolled {
                domain: domain.to_string(),
            });
        }
        if !self.info.supports(rerouting) {
            return Err(ProviderError::ReroutingUnavailable {
                provider: self.info.name.to_owned(),
                method: rerouting.to_string(),
                reason: "not offered".to_owned(),
            });
        }
        if self.info.id == ProviderId::Cloudflare
            && rerouting == ReroutingMethod::Cname
            && !plan.allows_cname_setup()
        {
            return Err(ProviderError::ReroutingUnavailable {
                provider: self.info.name.to_owned(),
                method: rerouting.to_string(),
                reason: "requires business or enterprise plan".to_owned(),
            });
        }

        let host = domain
            .prepend("www")
            .map_err(|e| ProviderError::Provisioning {
                domain: domain.to_string(),
                reason: e.to_string(),
            })?;
        let generation = *self.generations.entry(domain.clone()).or_insert(0);
        *self.generations.get_mut(domain).expect("just inserted") += 1;

        let seq = SeedSeq::new(self.seed).child(domain.as_str());
        let edge = self.edge_ips[(seq.derive("edge") % self.edge_ips.len() as u64) as usize];

        let mut account = CustomerAccount {
            domain: domain.clone(),
            host: host.clone(),
            origin,
            plan,
            rerouting,
            status: ServiceStatus::Active,
            edge,
            cname_token: None,
            nameservers: Vec::new(),
            enrolled_at: now,
            generation,
            dns_only_a: Vec::new(),
            mx_exchange: None,
        };

        // A fresh enrollment supersedes any residual state for the domain.
        self.drop_residual(domain);

        let enrollment = match rerouting {
            ReroutingMethod::Ns => {
                let pair: Vec<DomainName> = assign_ns_pair(self.seed, &self.ns_hosts, domain)
                    .into_iter()
                    .cloned()
                    .collect();
                let with_glue: Vec<(DomainName, Ipv4Addr)> =
                    pair.iter().map(|h| (h.clone(), self.ns_glue[h])).collect();
                account.nameservers = pair;
                Enrollment::NsBased {
                    nameservers: with_glue,
                }
            }
            ReroutingMethod::Cname => {
                let token =
                    mint_cname_token(self.seed, self.info.cname_domain, domain, generation)?;
                account.cname_token = Some(token.clone());
                self.tokens.insert(token.clone(), domain.clone());
                Enrollment::CnameBased { token }
            }
            ReroutingMethod::A => Enrollment::ABased { edge },
        };

        self.edges
            .get_mut(&edge)
            .expect("edge addresses all have proxies")
            .route(host.as_str(), origin);
        self.accounts.insert(domain.clone(), account);
        Ok(enrollment)
    }

    /// Pauses protection: resolution starts returning the origin address
    /// (the Cloudflare/Incapsula pause behavior, Sec IV-C.1).
    ///
    /// # Errors
    ///
    /// Returns [`ProviderError::NotEnrolled`] for unknown domains.
    pub fn pause(&mut self, domain: &DomainName) -> Result<(), ProviderError> {
        self.account_mut(domain)?.status = ServiceStatus::Paused;
        Ok(())
    }

    /// Resumes paused protection.
    ///
    /// # Errors
    ///
    /// Returns [`ProviderError::NotEnrolled`] for unknown domains.
    pub fn resume(&mut self, domain: &DomainName) -> Result<(), ProviderError> {
        self.account_mut(domain)?.status = ServiceStatus::Active;
        Ok(())
    }

    /// Adds a DNS-only ("gray cloud") A record to an NS-based customer's
    /// provider-hosted zone: the name resolves to `addr` directly, without
    /// edge proxying. This is how unprotected subdomains and co-located
    /// mail hosts leak origins (Table I's "Subdomains" / "DNS Records"
    /// vectors).
    ///
    /// # Errors
    ///
    /// * [`ProviderError::NotEnrolled`] for unknown domains;
    /// * [`ProviderError::ReroutingUnavailable`] for non-NS-based accounts
    ///   (their zones live in the customer's own DNS);
    /// * [`ProviderError::OutsideZone`] for a `name` whose apex is not
    ///   `domain`: the zone could never answer for it.
    pub fn add_dns_only_record(
        &mut self,
        domain: &DomainName,
        name: DomainName,
        addr: Ipv4Addr,
    ) -> Result<(), ProviderError> {
        let account = self.account_mut(domain)?;
        if account.rerouting != ReroutingMethod::Ns {
            return Err(ProviderError::ReroutingUnavailable {
                provider: account.rerouting.to_string(),
                method: "DNS-only record".to_owned(),
                reason: "provider only hosts zones for NS-based customers".to_owned(),
            });
        }
        if name.apex() != *domain {
            return Err(ProviderError::OutsideZone {
                domain: domain.to_string(),
                name: name.to_string(),
            });
        }
        account.dns_only_a.push((name, addr));
        Ok(())
    }

    /// Sets the apex MX exchange host for an NS-based customer.
    ///
    /// # Errors
    ///
    /// As for [`DpsProvider::add_dns_only_record`].
    pub fn set_mx(
        &mut self,
        domain: &DomainName,
        exchange: DomainName,
    ) -> Result<(), ProviderError> {
        let account = self.account_mut(domain)?;
        if account.rerouting != ReroutingMethod::Ns {
            return Err(ProviderError::ReroutingUnavailable {
                provider: account.rerouting.to_string(),
                method: "MX record".to_owned(),
                reason: "provider only hosts zones for NS-based customers".to_owned(),
            });
        }
        account.mx_exchange = Some(exchange);
        Ok(())
    }

    /// The customer notifies the provider of a new origin address (the best
    /// practice of Sec IV-C.3 \[19\]\[20\]). DNS-only records co-located with
    /// the old origin move with it.
    ///
    /// # Errors
    ///
    /// Returns [`ProviderError::NotEnrolled`] for unknown domains.
    pub fn update_origin(
        &mut self,
        domain: &DomainName,
        new_origin: Ipv4Addr,
    ) -> Result<(), ProviderError> {
        let (host, edge) = {
            let account = self.account_mut(domain)?;
            let old_origin = account.origin;
            account.origin = new_origin;
            for (_, addr) in &mut account.dns_only_a {
                if *addr == old_origin {
                    *addr = new_origin;
                }
            }
            (account.host.clone(), account.edge)
        };
        self.edges
            .get_mut(&edge)
            .expect("edge addresses all have proxies")
            .route(host.as_str(), new_origin);
        Ok(())
    }

    /// Terminates the account. `informed == true` models the customer
    /// explicitly leaving via the portal (footnote 10) — the provider then
    /// flips the record to the origin address for "service continuity"
    /// (the residual-resolution vulnerability). `informed == false` leaves
    /// the configuration untouched until a billing-lapse grace expires.
    ///
    /// # Errors
    ///
    /// Returns [`ProviderError::NotEnrolled`] for unknown domains.
    pub fn terminate(
        &mut self,
        now: SimTime,
        domain: &DomainName,
        informed: bool,
    ) -> Result<(), ProviderError> {
        let account = self
            .accounts
            .remove(domain)
            .ok_or_else(|| ProviderError::NotEnrolled {
                domain: domain.to_string(),
            })?;
        let keeps_answering = if informed {
            self.policy.answer_after_termination
        } else {
            true // unaware, so nothing changes yet
        };
        if keeps_answering && account.delegates_resolution() {
            let purge_at = if informed {
                self.policy
                    .purge_after(account.plan)
                    .map(|delay| now + delay)
            } else {
                Some(now + UNINFORMED_GRACE)
            };
            let record = ResidualRecord {
                informed,
                terminated_at: now,
                purge_at,
                disabled: false,
                account: account.clone(),
            };
            self.residuals.insert(domain.clone(), record);
        } else if let Some(token) = &account.cname_token {
            // Nothing answers for the token any more.
            self.tokens.remove(token);
        }
        if informed {
            // Service stops: the edge no longer proxies for this host.
            self.edges
                .get_mut(&account.edge)
                .expect("edge addresses all have proxies")
                .unroute(account.host.as_str());
        }
        Ok(())
    }

    /// The account for `domain`, if enrolled.
    pub fn account(&self, domain: &DomainName) -> Option<&CustomerAccount> {
        self.accounts.get(domain)
    }

    /// Iterates enrolled accounts in unspecified order.
    pub fn accounts(&self) -> impl Iterator<Item = &CustomerAccount> {
        self.accounts.values()
    }

    /// Number of enrolled customers.
    pub fn customer_count(&self) -> usize {
        self.accounts.len()
    }

    /// The residual record for `domain`, if any.
    pub fn residual(&self, domain: &DomainName) -> Option<&ResidualRecord> {
        self.residuals.get(domain)
    }

    /// Runs the revalidation countermeasure (Sec VI-B-1): for every residual
    /// record, `public_lookup` performs a normal resolution of the record's
    /// host; a mismatch with the stored answer disables the record.
    ///
    /// No-op unless the policy enables revalidation.
    pub fn revalidate_residuals<F>(&mut self, mut public_lookup: F)
    where
        F: FnMut(&DomainName) -> Vec<Ipv4Addr>,
    {
        if !self.policy.revalidate_against_public_dns {
            return;
        }
        for record in self.residuals.values_mut() {
            if record.disabled {
                continue;
            }
            let current = public_lookup(&record.account.host);
            if !current.contains(&record.answer_address()) {
                record.disabled = true;
            }
        }
    }

    /// Serves an HTTP request arriving at edge address `edge`, fetching
    /// misses from the customer origin via `upstream`.
    pub fn serve_http<T: HttpTransport>(
        &mut self,
        now: SimTime,
        upstream: &mut T,
        edge: Ipv4Addr,
        request: &HttpRequest,
    ) -> Option<HttpResponse> {
        self.edges
            .get_mut(&edge)
            .map(|proxy| proxy.handle(now, upstream, request))
    }

    fn account_mut(&mut self, domain: &DomainName) -> Result<&mut CustomerAccount, ProviderError> {
        self.accounts
            .get_mut(domain)
            .ok_or_else(|| ProviderError::NotEnrolled {
                domain: domain.to_string(),
            })
    }

    fn drop_residual(&mut self, domain: &DomainName) {
        if let Some(token) = self
            .residuals
            .remove(domain)
            .and_then(|record| record.account.cname_token)
        {
            self.tokens.remove(&token);
        }
    }

    // ------------------------------------------------------------------
    // DNS answering.
    // ------------------------------------------------------------------

    fn answer_for_account(&self, account: &CustomerAccount, query: &Query) -> Option<Response> {
        let serving = account.serving_address();
        match account.rerouting {
            ReroutingMethod::Ns => {
                // The provider hosts the whole zone, including any
                // DNS-only (unproxied) records the customer configured.
                if let Some((name, addr)) = account
                    .dns_only_a
                    .iter()
                    .find(|(name, _)| *name == query.name)
                {
                    return Some(match query.rtype {
                        RecordType::A => Response::answer(
                            query.clone(),
                            [ResourceRecord::new(
                                name.clone(),
                                CUSTOMER_A_TTL,
                                RecordData::A(*addr),
                            )],
                        ),
                        _ => Response::empty(query.clone(), Rcode::NoError),
                    });
                }
                if query.name == account.host || query.name == account.domain {
                    match query.rtype {
                        RecordType::A => Some(Response::answer(
                            query.clone(),
                            [ResourceRecord::new(
                                query.name.clone(),
                                CUSTOMER_A_TTL,
                                RecordData::A(serving),
                            )],
                        )),
                        RecordType::Ns if query.name == account.domain => Some(Response::answer(
                            query.clone(),
                            account
                                .nameservers
                                .iter()
                                .map(|h| {
                                    ResourceRecord::new(
                                        account.domain.clone(),
                                        CUSTOMER_NS_TTL,
                                        RecordData::Ns(h.clone()),
                                    )
                                })
                                .collect::<RecordSet>(),
                        )),
                        RecordType::Mx if query.name == account.domain => {
                            match &account.mx_exchange {
                                Some(exchange) => Some(Response::answer(
                                    query.clone(),
                                    [ResourceRecord::new(
                                        account.domain.clone(),
                                        CUSTOMER_NS_TTL,
                                        RecordData::Mx {
                                            preference: 10,
                                            exchange: exchange.clone(),
                                        },
                                    )],
                                )),
                                None => Some(Response::empty(query.clone(), Rcode::NoError)),
                            }
                        }
                        _ => Some(Response::empty(query.clone(), Rcode::NoError)),
                    }
                } else if query.name.is_subdomain_of(&account.domain) {
                    Some(Response::empty(query.clone(), Rcode::NxDomain))
                } else {
                    None
                }
            }
            ReroutingMethod::Cname => {
                // The provider only answers for the token.
                let token = account.cname_token.as_ref()?;
                if query.name == *token {
                    match query.rtype {
                        RecordType::A => Some(Response::answer(
                            query.clone(),
                            [ResourceRecord::new(
                                token.clone(),
                                CUSTOMER_A_TTL,
                                RecordData::A(serving),
                            )],
                        )),
                        _ => Some(Response::empty(query.clone(), Rcode::NoError)),
                    }
                } else {
                    None
                }
            }
            ReroutingMethod::A => None,
        }
    }

    fn answer_for_residual(
        &self,
        record: &ResidualRecord,
        now: SimTime,
        query: &Query,
    ) -> Option<Response> {
        if !record.is_live(now) {
            return None;
        }
        // Policy is enforced at answer time as well: deploying the
        // "never answer after termination" countermeasure silences even
        // remnants created before the deployment.
        if record.informed && !self.policy.answer_after_termination {
            return None;
        }
        let queried_name_matches = query.name == record.account.host
            || query.name == record.account.domain
            || record.account.cname_token.as_ref() == Some(&query.name);
        if !queried_name_matches {
            return None;
        }
        match query.rtype {
            RecordType::A => Some(Response::answer(
                query.clone(),
                [ResourceRecord::new(
                    query.name.clone(),
                    CUSTOMER_A_TTL,
                    RecordData::A(record.answer_address()),
                )],
            )),
            // Stale NS data also keeps being served for NS-based remnants.
            RecordType::Ns if query.name == record.account.domain => Some(Response::answer(
                query.clone(),
                record
                    .account
                    .nameservers
                    .iter()
                    .map(|h| {
                        ResourceRecord::new(
                            record.account.domain.clone(),
                            CUSTOMER_NS_TTL,
                            RecordData::Ns(h.clone()),
                        )
                    })
                    .collect::<RecordSet>(),
            )),
            _ => Some(Response::empty(query.clone(), Rcode::NoError)),
        }
    }

    /// Answers infrastructure queries: the provider's own nameserver host
    /// addresses and NXDOMAIN within its own service domains.
    fn answer_infra(&self, query: &Query) -> Option<Response> {
        if let Some(addr) = self.ns_glue.get(&query.name) {
            return Some(match query.rtype {
                RecordType::A => Response::answer(
                    query.clone(),
                    [ResourceRecord::new(
                        query.name.clone(),
                        CUSTOMER_NS_TTL,
                        RecordData::A(*addr),
                    )],
                ),
                _ => Response::empty(query.clone(), Rcode::NoError),
            });
        }
        if self
            .infra_apexes
            .iter()
            .any(|apex| query.name.is_subdomain_of(apex))
        {
            // An unknown (e.g. purged or never-minted) token.
            return Some(Response::empty(query.clone(), Rcode::NxDomain));
        }
        None
    }
}

impl Authoritative for DpsProvider {
    /// The provider's nameserver answer policy. Unknown names are silently
    /// ignored — the behavior the paper observed from Cloudflare's fleet
    /// (Sec V-A.2).
    ///
    /// Answering is read-only, so concurrent scan workers can all query
    /// one provider: an expired residual is treated as absent
    /// ([`ResidualRecord::is_live`]) but stays in the maps until the
    /// domain re-enrolls. Nothing is counted here: senders count their
    /// own queries.
    fn answer(&self, now: SimTime, query: &Query) -> Option<Response> {
        // A token names its customer's apex; any other customer name lies
        // under it. The apex holds an account or a residual, and each
        // answers only for its own names.
        let apex = self
            .tokens
            .get(&query.name)
            .cloned()
            .unwrap_or_else(|| query.name.apex());
        self.accounts
            .get(&apex)
            .and_then(|account| self.answer_for_account(account, query))
            .or_else(|| {
                self.residuals
                    .get(&apex)
                    .and_then(|record| self.answer_for_residual(record, now, query))
            })
            .or_else(|| self.answer_infra(query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    const ORIGIN: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

    fn cloudflare() -> DpsProvider {
        DpsProvider::build(ProviderId::Cloudflare, 42)
    }

    fn incapsula() -> DpsProvider {
        DpsProvider::build(ProviderId::Incapsula, 42)
    }

    fn ask(p: &DpsProvider, now: SimTime, qname: &str, rtype: RecordType) -> Option<Response> {
        p.answer(now, &Query::new(name(qname), rtype))
    }

    #[test]
    fn build_sizes_match_config() {
        let cf = cloudflare();
        assert_eq!(cf.ns_addresses().len(), 391);
        assert_eq!(cf.edge_addresses().len(), 32);
        assert_eq!(cf.pops().len(), 120);
    }

    #[test]
    fn ns_enrollment_serves_edge_address() {
        let mut cf = cloudflare();
        let enrollment = cf
            .enroll(
                SimTime::EPOCH,
                &name("example.com"),
                ORIGIN,
                ServicePlan::Free,
                ReroutingMethod::Ns,
            )
            .unwrap();
        assert_eq!(enrollment.nameservers().len(), 2);
        let resp = ask(&cf, SimTime::EPOCH, "www.example.com", RecordType::A).unwrap();
        let addr = resp.answer_addresses()[0];
        assert!(cf.is_edge_address(addr));
        assert_ne!(addr, ORIGIN);
        // The apex NS query returns the assigned pair.
        let ns = ask(&cf, SimTime::EPOCH, "example.com", RecordType::Ns).unwrap();
        assert_eq!(ns.answers.len(), 2);
    }

    #[test]
    fn uninformed_termination_keeps_serving_stale_apex_ns() {
        let mut cf = cloudflare();
        let enrollment = cf
            .enroll(
                SimTime::EPOCH,
                &name("example.com"),
                ORIGIN,
                ServicePlan::Free,
                ReroutingMethod::Ns,
            )
            .unwrap();
        cf.terminate(SimTime::EPOCH, &name("example.com"), false)
            .unwrap();
        assert!(cf.account(&name("example.com")).is_none());
        // The apex query finds the residual under its own name.
        let ns = ask(&cf, SimTime::from_days(7), "example.com", RecordType::Ns).unwrap();
        let served: Vec<(DomainName, DomainName)> = ns
            .answers
            .iter()
            .map(|rr| match &rr.data {
                RecordData::Ns(host) => (rr.name.clone(), host.clone()),
                other => panic!("expected NS, got {other:?}"),
            })
            .collect();
        let assigned: Vec<(DomainName, DomainName)> = enrollment
            .nameservers()
            .iter()
            .map(|(host, _)| (name("example.com"), host.clone()))
            .collect();
        assert_eq!(served, assigned, "the stale NS set is served as assigned");
        // A non-customer apex is ignored, live or residual alike.
        assert!(ask(&cf, SimTime::from_days(7), "stranger.org", RecordType::Ns).is_none());
    }

    #[test]
    fn cname_enrollment_mints_fingerprinted_token() {
        let mut inc = incapsula();
        let enrollment = inc
            .enroll(
                SimTime::EPOCH,
                &name("example.com"),
                ORIGIN,
                ServicePlan::Pro,
                ReroutingMethod::Cname,
            )
            .unwrap();
        let token = enrollment.cname_token().unwrap().clone();
        assert!(token.contains_label_substring("incapdns"));
        let resp = ask(&inc, SimTime::EPOCH, token.as_str(), RecordType::A).unwrap();
        assert!(inc.is_edge_address(resp.answer_addresses()[0]));
        // The customer's own names live in its own DNS, not here.
        for qname in ["www.example.com", "example.com"] {
            assert!(ask(&inc, SimTime::EPOCH, qname, RecordType::A).is_none());
        }
    }

    #[test]
    fn cloudflare_cname_gated_by_plan() {
        let mut cf = cloudflare();
        let err = cf
            .enroll(
                SimTime::EPOCH,
                &name("example.com"),
                ORIGIN,
                ServicePlan::Free,
                ReroutingMethod::Cname,
            )
            .unwrap_err();
        assert!(matches!(err, ProviderError::ReroutingUnavailable { .. }));
        assert!(cf
            .enroll(
                SimTime::EPOCH,
                &name("example.com"),
                ORIGIN,
                ServicePlan::Business,
                ReroutingMethod::Cname
            )
            .is_ok());
    }

    #[test]
    fn unsupported_rerouting_rejected() {
        let mut inc = incapsula();
        assert!(inc
            .enroll(
                SimTime::EPOCH,
                &name("x.com"),
                ORIGIN,
                ServicePlan::Free,
                ReroutingMethod::Ns
            )
            .is_err());
        let mut dos = DpsProvider::build(ProviderId::DosArrest, 1);
        assert!(dos
            .enroll(
                SimTime::EPOCH,
                &name("x.com"),
                ORIGIN,
                ServicePlan::Free,
                ReroutingMethod::Cname
            )
            .is_err());
        let e = dos
            .enroll(
                SimTime::EPOCH,
                &name("x.com"),
                ORIGIN,
                ServicePlan::Free,
                ReroutingMethod::A,
            )
            .unwrap();
        assert!(matches!(e, Enrollment::ABased { edge } if dos.is_edge_address(edge)));
        // An A-based customer points its own records at the edge; the
        // provider's nameservers answer none of its names.
        for qname in ["www.x.com", "x.com"] {
            assert!(ask(&dos, SimTime::EPOCH, qname, RecordType::A).is_none());
        }
    }

    #[test]
    fn double_enrollment_rejected() {
        let mut cf = cloudflare();
        cf.enroll(
            SimTime::EPOCH,
            &name("x.com"),
            ORIGIN,
            ServicePlan::Free,
            ReroutingMethod::Ns,
        )
        .unwrap();
        assert!(matches!(
            cf.enroll(
                SimTime::EPOCH,
                &name("x.com"),
                ORIGIN,
                ServicePlan::Free,
                ReroutingMethod::Ns
            ),
            Err(ProviderError::AlreadyEnrolled { .. })
        ));
    }

    #[test]
    fn pause_exposes_origin_resume_hides_it() {
        let mut cf = cloudflare();
        cf.enroll(
            SimTime::EPOCH,
            &name("example.com"),
            ORIGIN,
            ServicePlan::Free,
            ReroutingMethod::Ns,
        )
        .unwrap();
        cf.pause(&name("example.com")).unwrap();
        let resp = ask(&cf, SimTime::EPOCH, "www.example.com", RecordType::A).unwrap();
        assert_eq!(
            resp.answer_addresses(),
            vec![ORIGIN],
            "pause leaks the origin"
        );
        cf.resume(&name("example.com")).unwrap();
        let resp = ask(&cf, SimTime::EPOCH, "www.example.com", RecordType::A).unwrap();
        assert!(cf.is_edge_address(resp.answer_addresses()[0]));
    }

    #[test]
    fn informed_termination_leaves_origin_answering_remnant() {
        let mut cf = cloudflare();
        cf.enroll(
            SimTime::EPOCH,
            &name("example.com"),
            ORIGIN,
            ServicePlan::Free,
            ReroutingMethod::Ns,
        )
        .unwrap();
        cf.terminate(SimTime::from_days(10), &name("example.com"), true)
            .unwrap();
        assert_eq!(cf.customer_count(), 0);
        assert!(cf.residual(&name("example.com")).is_some());
        let resp = ask(
            &cf,
            SimTime::from_days(11),
            "www.example.com",
            RecordType::A,
        )
        .unwrap();
        assert_eq!(resp.answer_addresses(), vec![ORIGIN], "residual resolution");
    }

    #[test]
    fn free_plan_remnant_purges_at_four_weeks() {
        let mut cf = cloudflare();
        cf.enroll(
            SimTime::EPOCH,
            &name("example.com"),
            ORIGIN,
            ServicePlan::Free,
            ReroutingMethod::Ns,
        )
        .unwrap();
        cf.terminate(SimTime::EPOCH, &name("example.com"), true)
            .unwrap();
        // Week 3: still answering.
        assert!(ask(
            &cf,
            SimTime::from_days(27),
            "www.example.com",
            RecordType::A
        )
        .is_some());
        // Week 4+: purged, queries are ignored.
        assert!(ask(
            &cf,
            SimTime::from_days(28),
            "www.example.com",
            RecordType::A
        )
        .is_none());
        assert!(
            !cf.residual(&name("example.com"))
                .unwrap()
                .is_live(SimTime::from_days(28)),
            "the purged record is dead until the domain re-enrolls"
        );
    }

    #[test]
    fn enterprise_remnant_never_purges() {
        let mut cf = cloudflare();
        cf.enroll(
            SimTime::EPOCH,
            &name("example.com"),
            ORIGIN,
            ServicePlan::Enterprise,
            ReroutingMethod::Ns,
        )
        .unwrap();
        cf.terminate(SimTime::EPOCH, &name("example.com"), true)
            .unwrap();
        assert!(ask(
            &cf,
            SimTime::from_days(365),
            "www.example.com",
            RecordType::A
        )
        .is_some());
    }

    #[test]
    fn uninformed_leave_keeps_answering_edge() {
        let mut cf = cloudflare();
        cf.enroll(
            SimTime::EPOCH,
            &name("example.com"),
            ORIGIN,
            ServicePlan::Free,
            ReroutingMethod::Ns,
        )
        .unwrap();
        cf.terminate(SimTime::EPOCH, &name("example.com"), false)
            .unwrap();
        let resp = ask(&cf, SimTime::from_days(7), "www.example.com", RecordType::A).unwrap();
        let addr = resp.answer_addresses()[0];
        assert!(
            cf.is_edge_address(addr),
            "footnote 9: config untouched, edge answered"
        );
        // After the grace window the provider notices and purges.
        assert!(ask(
            &cf,
            SimTime::from_days(36),
            "www.example.com",
            RecordType::A
        )
        .is_none());
    }

    #[test]
    fn deny_policy_provider_goes_silent_after_informed_termination() {
        let mut fastly = DpsProvider::build(ProviderId::Fastly, 1);
        let e = fastly
            .enroll(
                SimTime::EPOCH,
                &name("example.com"),
                ORIGIN,
                ServicePlan::Pro,
                ReroutingMethod::Cname,
            )
            .unwrap();
        let token = e.cname_token().unwrap().clone();
        fastly
            .terminate(SimTime::EPOCH, &name("example.com"), true)
            .unwrap();
        let resp = ask(
            &fastly,
            SimTime::from_days(1),
            token.as_str(),
            RecordType::A,
        );
        // Fastly's own infra apex covers the token, so it answers NXDOMAIN
        // rather than leaking anything.
        assert!(matches!(resp, Some(r) if r.rcode == Rcode::NxDomain && r.answers.is_empty()));
        assert!(fastly.residual(&name("example.com")).is_none());
    }

    #[test]
    fn incapsula_remnant_token_keeps_resolving_to_origin() {
        let mut inc = incapsula();
        let e = inc
            .enroll(
                SimTime::EPOCH,
                &name("example.com"),
                ORIGIN,
                ServicePlan::Pro,
                ReroutingMethod::Cname,
            )
            .unwrap();
        let token = e.cname_token().unwrap().clone();
        inc.terminate(SimTime::from_days(5), &name("example.com"), true)
            .unwrap();
        // The remnant answers for its token, its host and its apex.
        for qname in [token.as_str(), "www.example.com", "example.com"] {
            let resp = ask(&inc, SimTime::from_days(20), qname, RecordType::A).unwrap();
            assert_eq!(resp.answer_addresses(), vec![ORIGIN], "{qname}");
        }
    }

    #[test]
    fn reenrollment_rotates_token_and_clears_remnant() {
        let mut inc = incapsula();
        let e1 = inc
            .enroll(
                SimTime::EPOCH,
                &name("example.com"),
                ORIGIN,
                ServicePlan::Pro,
                ReroutingMethod::Cname,
            )
            .unwrap();
        let t1 = e1.cname_token().unwrap().clone();
        inc.terminate(SimTime::from_days(1), &name("example.com"), true)
            .unwrap();
        let e2 = inc
            .enroll(
                SimTime::from_days(2),
                &name("example.com"),
                ORIGIN,
                ServicePlan::Pro,
                ReroutingMethod::Cname,
            )
            .unwrap();
        let t2 = e2.cname_token().unwrap().clone();
        assert_ne!(t1, t2);
        assert!(inc.residual(&name("example.com")).is_none());
        // The old token is dead (NXDOMAIN within infra apex)...
        let resp = ask(&inc, SimTime::from_days(3), t1.as_str(), RecordType::A).unwrap();
        assert_eq!(resp.rcode, Rcode::NxDomain);
        assert!(resp.answers.is_empty());
        // ...and the new one answers with an edge.
        let resp = ask(&inc, SimTime::from_days(3), t2.as_str(), RecordType::A).unwrap();
        assert!(inc.is_edge_address(resp.answer_addresses()[0]));
    }

    #[test]
    fn update_origin_changes_answer_while_paused() {
        let mut cf = cloudflare();
        cf.enroll(
            SimTime::EPOCH,
            &name("example.com"),
            ORIGIN,
            ServicePlan::Free,
            ReroutingMethod::Ns,
        )
        .unwrap();
        let new_origin = Ipv4Addr::new(198, 51, 100, 77);
        cf.update_origin(&name("example.com"), new_origin).unwrap();
        cf.pause(&name("example.com")).unwrap();
        let resp = ask(&cf, SimTime::EPOCH, "www.example.com", RecordType::A).unwrap();
        assert_eq!(resp.answer_addresses(), vec![new_origin]);
    }

    #[test]
    fn revalidation_countermeasure_disables_mismatched_remnants() {
        let mut cf = DpsProvider::build_with(
            ProviderId::Cloudflare,
            42,
            InfraConfig::for_provider(ProviderId::Cloudflare),
            ResidualPolicy::countermeasure_revalidate(ResidualPolicy::cloudflare_observed()),
        );
        cf.enroll(
            SimTime::EPOCH,
            &name("example.com"),
            ORIGIN,
            ServicePlan::Free,
            ReroutingMethod::Ns,
        )
        .unwrap();
        cf.terminate(SimTime::EPOCH, &name("example.com"), true)
            .unwrap();
        // Public DNS now points at a *different* provider's edge.
        cf.revalidate_residuals(|_| vec![Ipv4Addr::new(151, 101, 4, 4)]);
        assert!(
            ask(&cf, SimTime::from_days(1), "www.example.com", RecordType::A).is_none(),
            "mismatch disables the stale answer"
        );
    }

    #[test]
    fn revalidation_keeps_matching_remnants() {
        let mut cf = DpsProvider::build_with(
            ProviderId::Cloudflare,
            42,
            InfraConfig::for_provider(ProviderId::Cloudflare),
            ResidualPolicy::countermeasure_revalidate(ResidualPolicy::cloudflare_observed()),
        );
        cf.enroll(
            SimTime::EPOCH,
            &name("example.com"),
            ORIGIN,
            ServicePlan::Free,
            ReroutingMethod::Ns,
        )
        .unwrap();
        cf.terminate(SimTime::EPOCH, &name("example.com"), true)
            .unwrap();
        // The site now self-hosts on the same origin: continuity is safe.
        cf.revalidate_residuals(|_| vec![ORIGIN]);
        assert!(ask(&cf, SimTime::from_days(1), "www.example.com", RecordType::A).is_some());
    }

    #[test]
    fn unknown_names_are_ignored_silently() {
        let cf = cloudflare();
        assert!(ask(&cf, SimTime::EPOCH, "www.stranger.org", RecordType::A).is_none());
    }

    #[test]
    fn ns_host_glue_is_answerable() {
        let cf = cloudflare();
        let (host, addr) = {
            let (h, a) = cf.nameservers().next().unwrap();
            (h.clone(), a)
        };
        let resp = ask(&cf, SimTime::EPOCH, host.as_str(), RecordType::A).unwrap();
        assert_eq!(resp.answer_addresses(), vec![addr]);
    }

    #[test]
    fn anycast_catchment_reaches_all_vantage_points() {
        let cf = cloudflare();
        let ns = cf.ns_addresses()[0];
        for region in Region::VANTAGE_POINTS {
            assert!(cf.pop_for(ns, region).is_some(), "{region}");
        }
    }

    #[test]
    fn edge_ips_fall_inside_announced_blocks() {
        let cf = cloudflare();
        let blocks = cf.ip_blocks();
        for addr in cf.edge_addresses() {
            assert!(blocks.iter().any(|b| b.contains(*addr)), "{addr}");
        }
        for addr in cf.ns_addresses() {
            assert!(blocks.iter().any(|b| b.contains(*addr)), "{addr}");
        }
    }

    #[test]
    fn dns_only_records_leak_their_literal_address() {
        let mut cf = cloudflare();
        cf.enroll(
            SimTime::EPOCH,
            &name("example.com"),
            ORIGIN,
            ServicePlan::Free,
            ReroutingMethod::Ns,
        )
        .unwrap();
        cf.add_dns_only_record(&name("example.com"), name("dev.example.com"), ORIGIN)
            .unwrap();
        // The proxied host answers with an edge...
        let www = ask(&cf, SimTime::EPOCH, "www.example.com", RecordType::A).unwrap();
        assert!(cf.is_edge_address(www.answer_addresses()[0]));
        // ...but the gray record answers with the origin itself.
        let dev = ask(&cf, SimTime::EPOCH, "dev.example.com", RecordType::A).unwrap();
        assert_eq!(dev.answer_addresses(), vec![ORIGIN]);
    }

    #[test]
    fn dns_only_records_outside_the_zone_are_rejected() {
        let mut cf = cloudflare();
        cf.enroll(
            SimTime::EPOCH,
            &name("example.com"),
            ORIGIN,
            ServicePlan::Free,
            ReroutingMethod::Ns,
        )
        .unwrap();
        for outside in ["dev.other.com", "other.com", "com", "dev.example.org"] {
            assert_eq!(
                cf.add_dns_only_record(&name("example.com"), name(outside), ORIGIN),
                Err(ProviderError::OutsideZone {
                    domain: "example.com".to_owned(),
                    name: outside.to_owned(),
                })
            );
            assert!(ask(&cf, SimTime::EPOCH, outside, RecordType::A).is_none());
        }
        // Any depth under the apex is in the zone and answers.
        cf.add_dns_only_record(&name("example.com"), name("a.dev.example.com"), ORIGIN)
            .unwrap();
        let deep = ask(&cf, SimTime::EPOCH, "a.dev.example.com", RecordType::A).unwrap();
        assert_eq!(deep.answer_addresses(), vec![ORIGIN]);
    }

    #[test]
    fn mx_record_is_served_for_ns_customers() {
        let mut cf = cloudflare();
        cf.enroll(
            SimTime::EPOCH,
            &name("example.com"),
            ORIGIN,
            ServicePlan::Free,
            ReroutingMethod::Ns,
        )
        .unwrap();
        cf.set_mx(&name("example.com"), name("mail.example.com"))
            .unwrap();
        cf.add_dns_only_record(&name("example.com"), name("mail.example.com"), ORIGIN)
            .unwrap();
        let mx = ask(&cf, SimTime::EPOCH, "example.com", RecordType::Mx).unwrap();
        let exchange = mx.answers[0].data.clone();
        assert!(
            matches!(exchange, RecordData::Mx { exchange, .. } if exchange == name("mail.example.com"))
        );
        let mail = ask(&cf, SimTime::EPOCH, "mail.example.com", RecordType::A).unwrap();
        assert_eq!(mail.answer_addresses(), vec![ORIGIN]);
    }

    #[test]
    fn gray_records_rejected_for_cname_customers() {
        let mut inc = incapsula();
        inc.enroll(
            SimTime::EPOCH,
            &name("example.com"),
            ORIGIN,
            ServicePlan::Pro,
            ReroutingMethod::Cname,
        )
        .unwrap();
        assert!(inc
            .add_dns_only_record(&name("example.com"), name("dev.example.com"), ORIGIN)
            .is_err());
        assert!(inc
            .set_mx(&name("example.com"), name("mail.example.com"))
            .is_err());
    }

    #[test]
    fn update_origin_moves_colocated_gray_records() {
        let mut cf = cloudflare();
        cf.enroll(
            SimTime::EPOCH,
            &name("example.com"),
            ORIGIN,
            ServicePlan::Free,
            ReroutingMethod::Ns,
        )
        .unwrap();
        let elsewhere = Ipv4Addr::new(198, 18, 7, 7);
        cf.add_dns_only_record(&name("example.com"), name("dev.example.com"), ORIGIN)
            .unwrap();
        cf.add_dns_only_record(&name("example.com"), name("mail.example.com"), elsewhere)
            .unwrap();
        let new_origin = Ipv4Addr::new(198, 51, 100, 99);
        cf.update_origin(&name("example.com"), new_origin).unwrap();
        let dev = ask(&cf, SimTime::EPOCH, "dev.example.com", RecordType::A).unwrap();
        assert_eq!(
            dev.answer_addresses(),
            vec![new_origin],
            "co-located record moved"
        );
        let mail = ask(&cf, SimTime::EPOCH, "mail.example.com", RecordType::A).unwrap();
        assert_eq!(
            mail.answer_addresses(),
            vec![elsewhere],
            "separate host untouched"
        );
    }

    #[test]
    fn gray_records_die_with_the_account() {
        let mut cf = cloudflare();
        cf.enroll(
            SimTime::EPOCH,
            &name("example.com"),
            ORIGIN,
            ServicePlan::Free,
            ReroutingMethod::Ns,
        )
        .unwrap();
        cf.add_dns_only_record(&name("example.com"), name("dev.example.com"), ORIGIN)
            .unwrap();
        cf.terminate(SimTime::EPOCH, &name("example.com"), true)
            .unwrap();
        // The remnant answers for www, but the gray subdomain is gone.
        assert!(ask(&cf, SimTime::from_days(1), "www.example.com", RecordType::A).is_some());
        let dev = ask(&cf, SimTime::from_days(1), "dev.example.com", RecordType::A);
        assert!(
            dev.is_none(),
            "gray subdomain queries are ignored after termination"
        );
    }

    #[test]
    fn scrubbing_is_available_at_every_pop() {
        let cf = cloudflare();
        for pop in cf.pops() {
            let outcome = cf.scrub_at(pop.id(), 10.0, 1.0).unwrap();
            assert!(outcome.attack_mitigated());
        }
    }
}
