//! The wired-together synthetic Internet.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use remnant_dns::transport::ROOT_SERVER;
use remnant_dns::{
    DnsTransport, DomainName, Query, QueryStats, Rcode, RecordData, RecordType, ResourceRecord,
    Response, ShardableTransport, Ttl, ZoneGenerationProbe,
};
use remnant_http::{
    FirewallPolicy, HttpRequest, HttpResponse, HttpTransport, OriginServer, PageTemplate,
};
use remnant_net::{IpAllocator, Region};
use remnant_obs::{transport_counters, Instrumented, MetricKey};
use remnant_provider::{DpsProvider, ProviderId, ReroutingMethod, ServicePlan};
use remnant_sim::{SeedSeq, SimClock, SimDuration, SimTime};

use crate::config::WorldConfig;
use crate::dynamics::BehaviorEvent;
use crate::names::{apex_for_rank, hosting_ns_name, www_host};
use crate::site::{SiteId, SiteState, Website};

/// Number of shared hosting-DNS servers serving self-hosted zones.
const HOSTING_SERVERS: usize = 8;
/// Base address of the hosting-DNS servers (TEST-NET-2).
const HOSTING_NS_BASE: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 10);
/// Address of the shared parking service dark sites point at (TEST-NET-1).
pub const PARKING_IP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 80);
/// Address of the shared hosted-mail farm serving sites whose MX is *not*
/// co-located with the web origin. Speaks SMTP only — HTTP probes get
/// nothing, so non-co-located mail hosts never verify as origins.
pub const MAIL_FARM_IP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 25);
/// Nameserver of the multi-CDN balancing service (Cedexis stand-in). Its
/// CNAMEs carry the `cedexis` fingerprint, which is how the paper
/// identified and filtered multi-CDN customers (Sec IV-B.3).
pub const CEDEXIS_NS_IP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);
/// TTL of self-hosted A records.
const SELF_A_TTL: Ttl = Ttl::secs(3600);
/// TTL of self-hosted CNAME records pointing at DPS tokens.
const SELF_CNAME_TTL: Ttl = Ttl::secs(3600);
/// TTL of apex NS records served by hosting DNS.
const SELF_NS_TTL: Ttl = Ttl::days(1);

/// The synthetic Internet: population, providers, DNS and HTTP fabric.
///
/// See the crate docs for the big picture. `World` implements
/// [`DnsTransport`] and [`HttpTransport`]; the measurement toolkit talks to
/// it exactly like the authors' tools talked to the live Internet.
pub struct World {
    pub(crate) clock: SimClock,
    pub(crate) config: WorldConfig,
    pub(crate) rng: StdRng,
    pub(crate) sites: Vec<Website>,
    pub(crate) by_apex: HashMap<DomainName, SiteId>,
    pub(crate) origin_owner: HashMap<Ipv4Addr, SiteId>,
    origins: HashMap<Ipv4Addr, OriginServer>,
    pub(crate) providers: Vec<DpsProvider>,
    ns_owner: HashMap<Ipv4Addr, ProviderId>,
    edge_owner: HashMap<Ipv4Addr, ProviderId>,
    all_edges: HashSet<Ipv4Addr>,
    hosting_ns: Vec<(DomainName, Ipv4Addr)>,
    /// Apex of each `hosting_ns` host, in the same order.
    hosting_apexes: Vec<DomainName>,
    hosting_owner: HashMap<Ipv4Addr, usize>,
    /// Delegations for provider infrastructure domains (incapdns.net, …).
    infra_delegation: HashMap<DomainName, ProviderId>,
    /// Multi-CDN balancer tokens: cedexis hostname -> site.
    cedexis_index: HashMap<DomainName, SiteId>,
    /// The balancer's domain and its nameserver host, parsed once so the
    /// answer path never parses.
    cedexis_apex: DomainName,
    cedexis_ns: DomainName,
    pub(crate) origin_alloc: IpAllocator,
    pub(crate) events: Vec<BehaviorEvent>,
    pub(crate) resume_schedule: Vec<(SimTime, SiteId, ProviderId)>,
    /// Per-site zone generation, bumped by every dynamics event that can
    /// change the answers the fabric serves for the site's apex (enrollment,
    /// provider switch, origin move, pause/resume, going dark). Read through
    /// [`ZoneGenerationProbe`] by delta-mode collection.
    zone_generations: Vec<u64>,
    parking_template: PageTemplate,
    parking_nonce: u64,
    dns_queries: AtomicU64,
    dns_answered: AtomicU64,
    /// Answers broken down by server class, indexed by [`ServerClass`].
    dns_answers_by_class: [AtomicU64; ServerClass::ALL.len()],
    http_requests: u64,
    http_answered: u64,
}

/// The class of authoritative server that answered a fabric query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ServerClass {
    /// The root/TLD registry.
    Registry,
    /// A DPS provider's name server.
    Provider,
    /// A hosting-DNS server.
    Hosting,
    /// The multi-CDN balancer.
    Cedexis,
}

impl ServerClass {
    const ALL: [ServerClass; 4] = [
        ServerClass::Registry,
        ServerClass::Provider,
        ServerClass::Hosting,
        ServerClass::Cedexis,
    ];

    const fn label(self) -> &'static str {
        match self {
            ServerClass::Registry => "registry",
            ServerClass::Provider => "provider",
            ServerClass::Hosting => "hosting",
            ServerClass::Cedexis => "cedexis",
        }
    }
}

impl World {
    /// Generates a world per `config`, runs the configured warmup, and
    /// clears the event log so measurement starts from a steady state.
    pub fn generate(config: WorldConfig) -> Self {
        let seeds = SeedSeq::new(config.seed).child("world");
        let clock = SimClock::new();
        let mut rng = StdRng::seed_from_u64(seeds.derive("dynamics"));

        // Providers and their address indexes.
        let providers: Vec<DpsProvider> = ProviderId::ALL
            .into_iter()
            .map(|id| DpsProvider::build(id, seeds.derive(id.name())))
            .collect();
        let mut ns_owner = HashMap::new();
        let mut edge_owner = HashMap::new();
        let mut all_edges = HashSet::new();
        let mut infra_delegation = HashMap::new();
        for provider in &providers {
            for addr in provider.ns_addresses() {
                ns_owner.insert(*addr, provider.id());
            }
            for addr in provider.edge_addresses() {
                edge_owner.insert(*addr, provider.id());
                all_edges.insert(*addr);
            }
            let info = provider.info();
            for domain in [info.cname_domain, info.ns_domain] {
                if !domain.is_empty() {
                    let apex = DomainName::parse(domain)
                        .expect("catalog domains are valid")
                        .apex();
                    infra_delegation.entry(apex).or_insert(provider.id());
                }
            }
        }

        // Hosting DNS servers.
        let hosting_ns: Vec<(DomainName, Ipv4Addr)> = (0..HOSTING_SERVERS)
            .map(|i| {
                let addr = Ipv4Addr::from(u32::from(HOSTING_NS_BASE) + i as u32);
                (hosting_ns_name(i), addr)
            })
            .collect();
        let hosting_apexes = hosting_ns.iter().map(|(host, _)| host.apex()).collect();
        let hosting_owner = hosting_ns
            .iter()
            .enumerate()
            .map(|(i, (_, addr))| (*addr, i))
            .collect();

        let origin_alloc = IpAllocator::new(
            "origin-hosting",
            vec![
                "100.64.0.0/10".parse().expect("static cidr"),
                "198.18.0.0/15".parse().expect("static cidr"),
            ],
        );

        let mut world = World {
            clock,
            sites: Vec::with_capacity(config.population),
            by_apex: HashMap::with_capacity(config.population),
            origin_owner: HashMap::with_capacity(config.population),
            origins: HashMap::new(),
            providers,
            ns_owner,
            edge_owner,
            all_edges,
            hosting_ns,
            hosting_apexes,
            hosting_owner,
            infra_delegation,
            cedexis_index: HashMap::new(),
            cedexis_apex: DomainName::parse("cedexis.net").expect("static name"),
            cedexis_ns: DomainName::parse("ns1.cedexis.net").expect("static name"),
            origin_alloc,
            events: Vec::new(),
            resume_schedule: Vec::new(),
            zone_generations: vec![0; config.population],
            parking_template: PageTemplate::generate("parked.example", config.seed),
            parking_nonce: 0,
            dns_queries: AtomicU64::new(0),
            dns_answered: AtomicU64::new(0),
            dns_answers_by_class: Default::default(),
            http_requests: 0,
            http_answered: 0,
            config,
            rng: StdRng::seed_from_u64(0), // replaced below
        };
        world.rng = rng.clone();

        // Population.
        let population = world.config.population;
        for rank in 0..population {
            let id = SiteId(rank as u32);
            let apex = apex_for_rank(world.config.seed, rank);
            let www = www_host(&apex);
            let origin = world
                .origin_alloc
                .allocate()
                .expect("origin pool covers the population");
            let cal = &world.config.calibration;
            let firewalled = rng.gen_bool(cal.firewalled_fraction);
            let dynamic_meta = rng.gen_bool(cal.dynamic_meta_fraction);
            let has_mx = rng.gen_bool(cal.mx_fraction);
            let mx_colocated = has_mx && rng.gen_bool(cal.mx_colocated_fraction);
            let leaky_subdomain = rng.gen_bool(cal.leaky_subdomain_fraction);
            let site = Website {
                id,
                apex: apex.clone(),
                www,
                origin,
                hosting: (rank % HOSTING_SERVERS) as u8,
                firewalled,
                has_mx,
                mx_colocated,
                leaky_subdomain,
                multi_cdn: None,
                dynamic_meta,
                state: SiteState::SelfHosted,
                scheduled_resume: None,
            };
            world.by_apex.insert(apex, id);
            world.origin_owner.insert(origin, id);
            world.sites.push(site);
        }

        // Initial adoption.
        for rank in 0..population {
            let adopt = {
                let cal = &world.config.calibration;
                rng.gen_bool(cal.adoption_probability(rank, population))
            };
            if adopt {
                let id = SiteId(rank as u32);
                let multi_cdn = rng.gen_bool(world.config.calibration.multi_cdn_fraction);
                if multi_cdn {
                    world.make_multi_cdn(id, &mut rng);
                } else {
                    let (provider, rerouting, plan) = {
                        let cal = &world.config.calibration;
                        let provider = cal.sample_provider(&mut rng);
                        let (rerouting, plan) = cal.sample_rerouting_and_plan(&mut rng, provider);
                        (provider, rerouting, plan)
                    };
                    world.enroll_site(id, provider, rerouting, plan);
                }
            }
        }

        // Warmup to steady state, then forget the history.
        let warmup = world.config.warmup_days;
        world.step_days(warmup);
        world.events.clear();
        world
    }

    /// The shared simulation clock.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Forks this world into an independent timeline.
    ///
    /// The fork observes the same instant, population, provider fabric,
    /// dynamics-RNG state and zone generations as `self` — stepping both
    /// worlds identically produces identical histories — but owns a
    /// **fresh clock** and fresh traffic counters, so advancing one
    /// timeline never moves the other. `self` is untouched; forking the
    /// same base repeatedly yields byte-identical starting states, which
    /// is what lets a multi-tenant service hand every session its own
    /// world from one generated substrate.
    ///
    /// Cheap relative to [`World::generate`]: the heavyweight payloads —
    /// interned [`DomainName`]s, `Arc`-backed record sets inside the
    /// provider fabric — are shared structurally, so a fork copies index
    /// maps and counters, not record data, and skips generation + warmup
    /// entirely.
    pub fn fork(&self) -> World {
        World {
            clock: SimClock::starting_at(self.clock.now()),
            config: self.config.clone(),
            rng: self.rng.clone(),
            sites: self.sites.clone(),
            by_apex: self.by_apex.clone(),
            origin_owner: self.origin_owner.clone(),
            origins: self.origins.clone(),
            providers: self.providers.clone(),
            ns_owner: self.ns_owner.clone(),
            edge_owner: self.edge_owner.clone(),
            all_edges: self.all_edges.clone(),
            hosting_ns: self.hosting_ns.clone(),
            hosting_apexes: self.hosting_apexes.clone(),
            hosting_owner: self.hosting_owner.clone(),
            infra_delegation: self.infra_delegation.clone(),
            cedexis_index: self.cedexis_index.clone(),
            cedexis_apex: self.cedexis_apex.clone(),
            cedexis_ns: self.cedexis_ns.clone(),
            origin_alloc: self.origin_alloc.clone(),
            events: self.events.clone(),
            resume_schedule: self.resume_schedule.clone(),
            zone_generations: self.zone_generations.clone(),
            parking_template: self.parking_template.clone(),
            parking_nonce: self.parking_nonce,
            dns_queries: AtomicU64::new(0),
            dns_answered: AtomicU64::new(0),
            dns_answers_by_class: Default::default(),
            http_requests: 0,
            http_answered: 0,
        }
    }

    /// The configuration this world was generated from.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Number of sites.
    pub fn population(&self) -> usize {
        self.sites.len()
    }

    /// All sites, in rank order.
    pub fn sites(&self) -> &[Website] {
        &self.sites
    }

    /// One site.
    pub fn site(&self, id: SiteId) -> &Website {
        &self.sites[id.0 as usize]
    }

    /// Looks a site up by apex domain.
    pub fn site_by_apex(&self, apex: &DomainName) -> Option<&Website> {
        self.by_apex.get(apex).map(|id| self.site(*id))
    }

    /// The provider instance for `id`.
    pub fn provider(&self, id: ProviderId) -> &DpsProvider {
        &self.providers[id.index()]
    }

    /// Mutable provider access (countermeasure experiments).
    pub fn provider_mut(&mut self, id: ProviderId) -> &mut DpsProvider {
        &mut self.providers[id.index()]
    }

    /// Ground-truth behavior log since the last [`World::clear_events`]
    /// (warmup events are cleared automatically).
    pub fn events(&self) -> &[BehaviorEvent] {
        &self.events
    }

    /// Clears the ground-truth log.
    pub fn clear_events(&mut self) {
        self.events.clear();
    }

    /// `(DNS queries, HTTP requests)` served by the fabric so far.
    pub fn traffic_stats(&self) -> (u64, u64) {
        (self.dns_queries.load(Ordering::Relaxed), self.http_requests)
    }

    /// Advances time by whole days of dynamics.
    pub fn step_days(&mut self, days: u64) {
        self.step_hours(days * 24);
    }

    /// Advances time hour by hour, applying usage dynamics continuously
    /// (so uneven measurement intervals accumulate proportionally more
    /// behavior changes, the effect the paper observed in Fig 3).
    pub fn step_hours(&mut self, hours: u64) {
        for _ in 0..hours {
            self.clock.advance(SimDuration::hours(1));
            self.apply_hour();
        }
    }

    // ------------------------------------------------------------------
    // DNS answering.
    // ------------------------------------------------------------------

    /// Answers like the root/TLD layer: a referral for any registered apex,
    /// derived live from the site's current delegation state.
    fn registry_answer(&self, query: &Query) -> Response {
        let apex = query.name.apex();
        // Provider infrastructure domains.
        if let Some(provider_id) = self.infra_delegation.get(&apex) {
            let provider = &self.providers[provider_id.index()];
            let nameservers: Vec<(DomainName, Ipv4Addr)> = provider
                .nameservers()
                .take(4)
                .map(|(h, a)| (h.clone(), a))
                .collect();
            return referral(query, &apex, &nameservers);
        }
        // The multi-CDN balancer's own domain.
        if apex == self.cedexis_apex {
            return referral(query, &apex, &[(self.cedexis_ns.clone(), CEDEXIS_NS_IP)]);
        }
        // Hosting providers' own domains.
        for ((host, addr), host_apex) in self.hosting_ns.iter().zip(&self.hosting_apexes) {
            if apex == *host_apex {
                return referral(query, &apex, &[(host.clone(), *addr)]);
            }
        }
        // Websites.
        let Some(site_id) = self.by_apex.get(&apex) else {
            return Response::empty(query.clone(), Rcode::NxDomain);
        };
        let site = &self.sites[site_id.0 as usize];
        match &site.state {
            SiteState::Dps {
                provider,
                rerouting: ReroutingMethod::Ns,
                ..
            } => {
                let dps = &self.providers[provider.index()];
                if let Some(account) = dps.account(&site.apex) {
                    let nameservers: Vec<(DomainName, Ipv4Addr)> = account
                        .nameservers
                        .iter()
                        .filter_map(|h| dps.nameservers().find(|(n, _)| *n == h))
                        .map(|(h, a)| (h.clone(), a))
                        .collect();
                    return referral(query, &apex, &nameservers);
                }
                // Inconsistent state; fall through to hosting.
                self.hosting_referral(query, &apex, site.hosting)
            }
            _ => self.hosting_referral(query, &apex, site.hosting),
        }
    }

    fn hosting_referral(&self, query: &Query, apex: &DomainName, hosting: u8) -> Response {
        let (primary, secondary) = hosting_pair(hosting);
        let nameservers = vec![
            self.hosting_ns[primary].clone(),
            self.hosting_ns[secondary].clone(),
        ];
        referral(query, apex, &nameservers)
    }

    /// Answers as the `hosting`-th shared hosting-DNS server.
    fn hosting_answer(&self, hosting: usize, query: &Query) -> Response {
        let apex = query.name.apex();
        let Some(site_id) = self.by_apex.get(&apex).copied() else {
            return Response::empty(query.clone(), Rcode::Refused);
        };
        let site = &self.sites[site_id.0 as usize];
        let (primary, secondary) = hosting_pair(site.hosting);
        if hosting != primary && hosting != secondary {
            return Response::empty(query.clone(), Rcode::Refused);
        }
        // The zone only lives here while resolution is NOT delegated to a
        // DPS provider.
        let zone_here = !matches!(
            site.state,
            SiteState::Dps {
                rerouting: ReroutingMethod::Ns,
                ..
            }
        );
        if !zone_here {
            return Response::empty(query.clone(), Rcode::Refused);
        }

        let is_www = query.name == site.www;
        let is_apex = query.name == site.apex;
        let is_dev = site.leaky_subdomain && query.name.is_child_of(&site.apex, DEV_LABEL);
        let is_mail = site.has_mx && query.name.is_child_of(&site.apex, MAIL_LABEL);
        if !is_www && !is_apex && !is_dev && !is_mail {
            return Response::empty(query.clone(), Rcode::NxDomain);
        }

        match query.rtype {
            RecordType::Ns if is_apex => {
                let answers = vec![
                    ResourceRecord::new(
                        site.apex.clone(),
                        SELF_NS_TTL,
                        RecordData::Ns(self.hosting_ns[primary].0.clone()),
                    ),
                    ResourceRecord::new(
                        site.apex.clone(),
                        SELF_NS_TTL,
                        RecordData::Ns(self.hosting_ns[secondary].0.clone()),
                    ),
                ];
                Response::answer(query.clone(), answers)
            }
            RecordType::Mx if is_apex && site.has_mx => {
                let exchange = mail_host(site).expect("has_mx implies a mail host");
                Response::answer(
                    query.clone(),
                    vec![ResourceRecord::new(
                        site.apex.clone(),
                        SELF_NS_TTL,
                        RecordData::Mx {
                            preference: 10,
                            exchange,
                        },
                    )],
                )
            }
            RecordType::A if is_dev => Response::answer(
                query.clone(),
                vec![ResourceRecord::new(
                    query.name.clone(),
                    SELF_A_TTL,
                    RecordData::A(auxiliary_address(site, true)),
                )],
            ),
            RecordType::A if is_mail => Response::answer(
                query.clone(),
                vec![ResourceRecord::new(
                    query.name.clone(),
                    SELF_A_TTL,
                    RecordData::A(auxiliary_address(site, false)),
                )],
            ),
            RecordType::A | RecordType::Cname if is_www || is_apex => {
                self.hosting_address_answer(site, query)
            }
            _ => Response::empty(query.clone(), Rcode::NoError),
        }
    }

    /// The A/CNAME content of a self-hosted zone, derived from site state.
    fn hosting_address_answer(&self, site: &Website, query: &Query) -> Response {
        match &site.state {
            SiteState::SelfHosted => match query.rtype {
                RecordType::A => Response::answer(
                    query.clone(),
                    vec![ResourceRecord::new(
                        query.name.clone(),
                        SELF_A_TTL,
                        RecordData::A(site.origin),
                    )],
                ),
                _ => Response::empty(query.clone(), Rcode::NoError),
            },
            SiteState::Dark => match query.rtype {
                RecordType::A => Response::answer(
                    query.clone(),
                    vec![ResourceRecord::new(
                        query.name.clone(),
                        SELF_A_TTL,
                        RecordData::A(PARKING_IP),
                    )],
                ),
                _ => Response::empty(query.clone(), Rcode::NoError),
            },
            SiteState::Dps {
                provider,
                rerouting,
                ..
            } => {
                // Multi-CDN customers CNAME to the balancer, which picks
                // the serving CDN per query (see `cedexis_answer`).
                if site.multi_cdn.is_some() {
                    return match query.rtype {
                        RecordType::A | RecordType::Cname => Response::answer(
                            query.clone(),
                            vec![ResourceRecord::new(
                                query.name.clone(),
                                SELF_CNAME_TTL,
                                RecordData::Cname(cedexis_token(&site.apex)),
                            )],
                        ),
                        _ => Response::empty(query.clone(), Rcode::NoError),
                    };
                }
                let dps = &self.providers[provider.index()];
                let account = dps.account(&site.apex);
                match rerouting {
                    ReroutingMethod::A => match (query.rtype, account) {
                        (RecordType::A, Some(account)) => Response::answer(
                            query.clone(),
                            vec![ResourceRecord::new(
                                query.name.clone(),
                                SELF_A_TTL,
                                RecordData::A(account.serving_address()),
                            )],
                        ),
                        (RecordType::A, None) => Response::empty(query.clone(), Rcode::ServFail),
                        _ => Response::empty(query.clone(), Rcode::NoError),
                    },
                    ReroutingMethod::Cname => match account.and_then(|a| a.cname_token.clone()) {
                        Some(token) => Response::answer(
                            query.clone(),
                            vec![ResourceRecord::new(
                                query.name.clone(),
                                SELF_CNAME_TTL,
                                RecordData::Cname(token),
                            )],
                        ),
                        None => Response::empty(query.clone(), Rcode::ServFail),
                    },
                    // NS-based zones never answer from hosting (handled by
                    // the zone_here check above).
                    ReroutingMethod::Ns => Response::empty(query.clone(), Rcode::Refused),
                }
            }
        }
    }

    /// Answers as the multi-CDN balancer: each balancer token CNAMEs to
    /// one of the customer's two CDNs, alternating daily (the front-end
    /// redirection that makes usage behaviors unidentifiable, Sec IV-B.3).
    fn cedexis_answer(&self, query: &Query) -> Response {
        let Some(site_id) = self.cedexis_index.get(&query.name) else {
            return if query.name.is_subdomain_of(&self.cedexis_apex) {
                Response::empty(query.clone(), Rcode::NxDomain)
            } else {
                Response::empty(query.clone(), Rcode::Refused)
            };
        };
        let site = &self.sites[site_id.0 as usize];
        let Some((first, second)) = site.multi_cdn else {
            return Response::empty(query.clone(), Rcode::NxDomain);
        };
        let provider = if self.clock.now().as_days().is_multiple_of(2) {
            first
        } else {
            second
        };
        let token = self.providers[provider.index()]
            .account(&site.apex)
            .and_then(|a| a.cname_token.clone());
        match (query.rtype, token) {
            (RecordType::A | RecordType::Cname, Some(token)) => Response::answer(
                query.clone(),
                vec![ResourceRecord::new(
                    query.name.clone(),
                    Ttl::secs(60),
                    RecordData::Cname(token),
                )],
            ),
            _ => Response::empty(query.clone(), Rcode::NoError),
        }
    }

    // ------------------------------------------------------------------
    // Internal wiring used by the dynamics engine.
    // ------------------------------------------------------------------

    /// Marks the site's zone as changed: every dynamics event that can
    /// alter the fabric's answers for the apex must call this (directly or
    /// via [`World::enroll_site`] / [`World::move_origin`] /
    /// [`World::take_dark`]).
    ///
    /// Out-of-band provider edits through [`World::provider_mut`] are *not*
    /// tracked — delta collection's refresh stratum exists to bound the
    /// staleness such untracked edits could cause.
    pub(crate) fn touch_zone(&mut self, id: SiteId) {
        let generation = &mut self.zone_generations[id.0 as usize];
        *generation = generation.wrapping_add(1);
    }

    /// Enrolls a site at a provider and updates its state.
    pub(crate) fn enroll_site(
        &mut self,
        id: SiteId,
        provider: ProviderId,
        rerouting: ReroutingMethod,
        plan: ServicePlan,
    ) {
        let now = self.clock.now();
        let (apex, origin) = {
            let site = &self.sites[id.0 as usize];
            (site.apex.clone(), site.origin)
        };
        self.providers[provider.index()]
            .enroll(now, &apex, origin, plan, rerouting)
            .expect("dynamics only enrolls eligible sites");
        // NS-based zones move wholesale to the provider, including the
        // customer's DNS-only auxiliary records — the origin-exposure
        // surface of Table I survives the migration.
        if rerouting == ReroutingMethod::Ns {
            let dps = &mut self.providers[provider.index()];
            let site = &self.sites[id.0 as usize];
            if site.leaky_subdomain {
                if let Some(dev) = dev_host(site) {
                    dps.add_dns_only_record(&apex, dev, auxiliary_address(site, true))
                        .expect("freshly enrolled NS account accepts records");
                }
            }
            if site.has_mx {
                if let Some(mail) = mail_host(site) {
                    dps.set_mx(&apex, mail.clone())
                        .expect("freshly enrolled NS account accepts records");
                    dps.add_dns_only_record(&apex, mail, auxiliary_address(site, false))
                        .expect("freshly enrolled NS account accepts records");
                }
            }
        }
        let site = &mut self.sites[id.0 as usize];
        site.state = SiteState::Dps {
            provider,
            rerouting,
            plan,
            paused: false,
        };
        site.scheduled_resume = None;
        self.touch_zone(id);
    }

    /// Converts a site into a multi-CDN (Cedexis-style) customer: CNAME
    /// rerouting through two providers, alternating daily.
    fn make_multi_cdn(&mut self, id: SiteId, rng: &mut StdRng) {
        /// Providers usable behind a multi-CDN front (CNAME-capable
        /// without plan gating).
        const MULTI_CDN_POOL: [ProviderId; 6] = [
            ProviderId::Cloudfront,
            ProviderId::Fastly,
            ProviderId::Edgecast,
            ProviderId::Stackpath,
            ProviderId::Cdn77,
            ProviderId::Limelight,
        ];
        let first = MULTI_CDN_POOL[rng.gen_range(0..MULTI_CDN_POOL.len())];
        let second = loop {
            let candidate = MULTI_CDN_POOL[rng.gen_range(0..MULTI_CDN_POOL.len())];
            if candidate != first {
                break candidate;
            }
        };
        self.enroll_site(id, first, ReroutingMethod::Cname, ServicePlan::Pro);
        let now = self.clock.now();
        let (apex, origin) = {
            let site = &self.sites[id.0 as usize];
            (site.apex.clone(), site.origin)
        };
        self.providers[second.index()]
            .enroll(now, &apex, origin, ServicePlan::Pro, ReroutingMethod::Cname)
            .expect("multi-cdn pool providers accept CNAME enrollments");
        self.sites[id.0 as usize].multi_cdn = Some((first, second));
        self.cedexis_index.insert(cedexis_token(&apex), id);
    }

    /// Rotates a site's origin to a fresh address, informing the *current*
    /// provider only — the admin-side countermeasure of Sec VI-B-2 (any
    /// previous provider's remnant keeps pointing at the dead address).
    pub fn rotate_origin(&mut self, id: SiteId) -> Ipv4Addr {
        let new_ip = self.move_origin(id);
        if let Some(provider) = self.sites[id.0 as usize].state.provider() {
            let apex = self.sites[id.0 as usize].apex.clone();
            self.providers[provider.index()]
                .update_origin(&apex, new_ip)
                .expect("enrolled sites have provider accounts");
        }
        new_ip
    }

    /// Moves a site's origin to a freshly allocated address, invalidating
    /// materialized servers and ownership indexes.
    pub(crate) fn move_origin(&mut self, id: SiteId) -> Ipv4Addr {
        let new_ip = self
            .origin_alloc
            .allocate()
            .expect("origin pool outlives any simulation");
        let site = &mut self.sites[id.0 as usize];
        let old_ip = site.origin;
        site.origin = new_ip;
        self.origin_owner.remove(&old_ip);
        self.origins.remove(&old_ip);
        self.origin_owner.insert(new_ip, id);
        self.touch_zone(id);
        new_ip
    }

    /// Takes a site dark: its origin stops serving and its public A record
    /// points at the parking service.
    pub(crate) fn take_dark(&mut self, id: SiteId) {
        let origin = self.sites[id.0 as usize].origin;
        self.origin_owner.remove(&origin);
        self.origins.remove(&origin);
        self.sites[id.0 as usize].state = SiteState::Dark;
        self.touch_zone(id);
    }

    /// Materializes (or retrieves) the origin server at `addr`.
    fn origin_server<'a>(
        origins: &'a mut HashMap<Ipv4Addr, OriginServer>,
        origin_owner: &HashMap<Ipv4Addr, SiteId>,
        sites: &[Website],
        all_edges: &HashSet<Ipv4Addr>,
        seed: u64,
        addr: Ipv4Addr,
    ) -> Option<&'a mut OriginServer> {
        let site_id = *origin_owner.get(&addr)?;
        Some(origins.entry(addr).or_insert_with(|| {
            let site = &sites[site_id.0 as usize];
            let mut template = PageTemplate::generate(site.apex.as_str(), seed);
            if site.dynamic_meta {
                template.add_dynamic_meta("visitor-id");
            }
            let mut server = OriginServer::new(addr);
            server.host_site(site.www.as_str(), template);
            if site.firewalled {
                server.set_firewall(FirewallPolicy::DpsOnly {
                    allowed: all_edges.iter().copied().collect(),
                });
            }
            server
        }))
    }
}

/// Builds a registry-style referral response.
fn referral(query: &Query, apex: &DomainName, nameservers: &[(DomainName, Ipv4Addr)]) -> Response {
    let ttl = remnant_dns::registry::DELEGATION_TTL;
    let authority = nameservers
        .iter()
        .map(|(host, _)| ResourceRecord::new(apex.clone(), ttl, RecordData::Ns(host.clone())))
        .collect::<Vec<_>>();
    let additional = nameservers
        .iter()
        .map(|(host, addr)| ResourceRecord::new(host.clone(), ttl, RecordData::A(*addr)))
        .collect::<Vec<_>>();
    Response::referral(query.clone(), authority, additional)
}

/// The balancer hostname for a multi-CDN customer, carrying the
/// `cedexis` fingerprint the paper filtered on.
fn cedexis_token(apex: &DomainName) -> DomainName {
    let h = remnant_sim::SeedSeq::new(0xced).derive(apex.as_str());
    DomainName::parse(&format!("b{h:012x}.cdx.cedexis.net")).expect("generated names are valid")
}

/// Leftmost label of a leaky site's unproxied auxiliary subdomain.
const DEV_LABEL: &str = "dev";
/// Leftmost label of a site's mail host.
const MAIL_LABEL: &str = "mail";

/// The unproxied auxiliary subdomain of a leaky site.
fn dev_host(site: &Website) -> Option<DomainName> {
    site.apex.prepend(DEV_LABEL).ok()
}

/// The mail host of a site with mail.
fn mail_host(site: &Website) -> Option<DomainName> {
    site.apex.prepend(MAIL_LABEL).ok()
}

/// Where a site's auxiliary host actually lives: `dev` always sits on the
/// origin box; `mail` only when co-located.
fn auxiliary_address(site: &Website, is_dev: bool) -> Ipv4Addr {
    if is_dev || site.mx_colocated {
        site.origin
    } else {
        MAIL_FARM_IP
    }
}

/// The two hosting servers serving a site's zone.
fn hosting_pair(hosting: u8) -> (usize, usize) {
    let primary = hosting as usize % HOSTING_SERVERS;
    (primary, primary ^ 1)
}

impl ShardableTransport for World {
    /// The shared-read DNS fabric. Answering is a pure function of world
    /// state (counters aside), so any number of scan workers may query
    /// concurrently; providers answer through [`DpsProvider::answer_shared`],
    /// which treats expired residuals as absent without compacting them.
    fn query_shared(
        &self,
        now: SimTime,
        server: Ipv4Addr,
        _region: Region,
        query: &Query,
    ) -> Option<Response> {
        self.dns_queries.fetch_add(1, Ordering::Relaxed);
        let (class, response) = if server == ROOT_SERVER {
            (ServerClass::Registry, Some(self.registry_answer(query)))
        } else if let Some(provider_id) = self.ns_owner.get(&server).copied() {
            (
                ServerClass::Provider,
                self.providers[provider_id.index()].answer_shared(now, query),
            )
        } else if let Some(hosting) = self.hosting_owner.get(&server).copied() {
            (
                ServerClass::Hosting,
                Some(self.hosting_answer(hosting, query)),
            )
        } else if server == CEDEXIS_NS_IP {
            (ServerClass::Cedexis, Some(self.cedexis_answer(query)))
        } else {
            return None;
        };
        if response.is_some() {
            self.dns_answered.fetch_add(1, Ordering::Relaxed);
            self.dns_answers_by_class[class as usize].fetch_add(1, Ordering::Relaxed);
        }
        response
    }

    fn query_stats(&self) -> QueryStats {
        QueryStats {
            sent: self.dns_queries.load(Ordering::Relaxed),
            answered: self.dns_answered.load(Ordering::Relaxed),
        }
    }
}

impl DnsTransport for World {
    fn query(
        &mut self,
        now: SimTime,
        server: Ipv4Addr,
        region: Region,
        query: &Query,
    ) -> Option<Response> {
        self.query_shared(now, server, region, query)
    }

    fn query_stats(&self) -> QueryStats {
        ShardableTransport::query_stats(self)
    }
}

/// An upstream HTTP view over just the origin servers, handed to provider
/// edges so they can fetch cache misses while the provider itself is
/// mutably borrowed.
struct OriginBackend<'a> {
    origins: &'a mut HashMap<Ipv4Addr, OriginServer>,
    origin_owner: &'a HashMap<Ipv4Addr, SiteId>,
    sites: &'a [Website],
    all_edges: &'a HashSet<Ipv4Addr>,
    seed: u64,
}

impl HttpTransport for OriginBackend<'_> {
    fn get(&mut self, _now: SimTime, dst: Ipv4Addr, request: &HttpRequest) -> Option<HttpResponse> {
        World::origin_server(
            self.origins,
            self.origin_owner,
            self.sites,
            self.all_edges,
            self.seed,
            dst,
        )?
        .handle(request)
    }
}

impl HttpTransport for World {
    fn get(&mut self, now: SimTime, dst: Ipv4Addr, request: &HttpRequest) -> Option<HttpResponse> {
        self.http_requests += 1;
        let response = self.serve_fabric_http(now, dst, request);
        if response.is_some() {
            self.http_answered += 1;
        }
        response
    }
}

impl World {
    /// Routes one HTTP GET through the fabric: provider edges, the parking
    /// page, then bare origin servers.
    fn serve_fabric_http(
        &mut self,
        now: SimTime,
        dst: Ipv4Addr,
        request: &HttpRequest,
    ) -> Option<HttpResponse> {
        if let Some(provider_id) = self.edge_owner.get(&dst).copied() {
            let World {
                providers,
                origins,
                origin_owner,
                sites,
                all_edges,
                config,
                ..
            } = self;
            let mut backend = OriginBackend {
                origins,
                origin_owner,
                sites,
                all_edges,
                seed: config.seed,
            };
            return providers[provider_id.index()].serve_http(now, &mut backend, dst, request);
        }
        if dst == PARKING_IP {
            self.parking_nonce += 1;
            return Some(HttpResponse::ok(
                self.parking_template.render(self.parking_nonce),
                PARKING_IP,
            ));
        }
        World::origin_server(
            &mut self.origins,
            &self.origin_owner,
            &self.sites,
            &self.all_edges,
            self.config.seed,
            dst,
        )?
        .handle(request)
    }
}

/// Cheap change detection for delta-mode collection.
///
/// The reported generation changes whenever the fabric's answers for the
/// apex could have changed: every tracked dynamics event bumps the stored
/// counter (see `World::touch_zone`), and multi-CDN sites additionally
/// fold the current day's parity into the value because their balancer
/// alternates serving CDNs daily (Sec IV-B.3) without any zone edit.
/// Generations are compared only for equality, so the parity mix-in just
/// has to differ between consecutive parities — it does not need ordering.
impl ZoneGenerationProbe for World {
    fn generation_of(&self, apex: &DomainName) -> u64 {
        let Some(id) = self.by_apex.get(apex) else {
            return 0;
        };
        let rank = id.0 as usize;
        let generation = self.zone_generations[rank];
        if self.sites[rank].multi_cdn.is_some() {
            generation
                .wrapping_mul(2)
                .wrapping_add(self.clock.now().as_days() & 1)
        } else {
            generation.wrapping_mul(2)
        }
    }
}

impl Instrumented for World {
    fn component(&self) -> &'static str {
        "world.fabric"
    }

    /// Both transport surfaces on the unified `transport.*` names,
    /// distinguished by a `proto` label, plus per-server-class DNS answer
    /// counts.
    fn counters(&self) -> Vec<(MetricKey, u64)> {
        let dns = ShardableTransport::query_stats(self);
        let mut counters: Vec<(MetricKey, u64)> = transport_counters(dns.sent, dns.answered)
            .into_iter()
            .map(|(key, value)| (key.with_label("proto", "dns"), value))
            .collect();
        counters.extend(
            transport_counters(self.http_requests, self.http_answered)
                .into_iter()
                .map(|(key, value)| (key.with_label("proto", "http"), value)),
        );
        for class in ServerClass::ALL {
            counters.push((
                MetricKey::labeled("dns.answers", &[("class", class.label())]),
                self.dns_answers_by_class[class as usize].load(Ordering::Relaxed),
            ));
        }
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remnant_dns::RecursiveResolver;

    fn small_world() -> World {
        World::generate(WorldConfig {
            population: 300,
            seed: 11,
            warmup_days: 0,
            calibration: crate::config::Calibration::paper(),
        })
    }

    fn resolver(world: &World) -> RecursiveResolver {
        RecursiveResolver::new(world.clock(), Region::Oregon)
    }

    #[test]
    fn fork_is_an_independent_identical_timeline() {
        let base = small_world();
        let t0 = base.now();
        let mut a = base.fork();
        let mut b = base.fork();

        // Same starting state, own clocks.
        assert_eq!(a.now(), t0);
        assert_eq!(b.now(), t0);
        a.step_hours(24);
        assert_eq!(a.now(), t0 + SimDuration::hours(24));
        assert_eq!(base.now(), t0, "advancing a fork never moves the base");
        assert_eq!(b.now(), t0, "or a sibling fork");

        // Identically stepped forks replay identical histories.
        b.step_hours(24);
        let events_a: Vec<_> = a.events().to_vec();
        let events_b: Vec<_> = b.events().to_vec();
        assert_eq!(events_a, events_b);
        assert_eq!(
            a.sites()
                .iter()
                .map(|s| s.state.clone())
                .collect::<Vec<_>>(),
            b.sites()
                .iter()
                .map(|s| s.state.clone())
                .collect::<Vec<_>>()
        );
        for (site_a, site_b) in a.sites().iter().zip(b.sites()) {
            assert_eq!(a.generation_of(&site_a.apex), b.generation_of(&site_b.apex));
        }
    }

    #[test]
    fn zone_generations_track_answer_changing_events() {
        let mut world = small_world();
        let site = world
            .sites()
            .iter()
            .find(|s| {
                matches!(s.state, SiteState::Dps { paused: false, .. }) && s.multi_cdn.is_none()
            })
            .expect("enrolled single-CDN sites exist")
            .clone();
        let before = world.generation_of(&site.apex);
        world.force_pause(site.id);
        let paused = world.generation_of(&site.apex);
        assert_ne!(before, paused, "pausing changes the generation");
        world.force_resume(site.id);
        let resumed = world.generation_of(&site.apex);
        assert_ne!(paused, resumed, "resuming changes the generation");
        world.force_leave(site.id, true);
        assert_ne!(resumed, world.generation_of(&site.apex));
        // Untouched sites keep their generation across time steps.
        let other = world
            .sites()
            .iter()
            .find(|s| s.state == SiteState::SelfHosted && s.multi_cdn.is_none())
            .expect("self-hosted sites exist")
            .clone();
        let stable = world.generation_of(&other.apex);
        world.step_hours(48);
        assert_eq!(stable, world.generation_of(&other.apex));
        // Unknown apexes probe as 0 and batched probes keep input order.
        let unknown: DomainName = "no-such-site.example".parse().unwrap();
        assert_eq!(world.generation_of(&unknown), 0);
        assert_eq!(
            world.generations_for(&[&unknown, &other.apex]),
            vec![0, stable]
        );
    }

    #[test]
    fn multi_cdn_generations_flip_with_day_parity() {
        let mut calibration = crate::config::Calibration::paper();
        calibration.multi_cdn_fraction = 0.5; // make them common for the test
        let mut world = World::generate(WorldConfig {
            population: 400,
            seed: 77,
            warmup_days: 0,
            calibration,
        });
        let site = world
            .sites()
            .iter()
            .find(|s| s.multi_cdn.is_some())
            .expect("multi-cdn sites exist at this fraction")
            .clone();
        let day0 = world.generation_of(&site.apex);
        world.step_hours(24);
        let day1 = world.generation_of(&site.apex);
        world.step_hours(24);
        let day2 = world.generation_of(&site.apex);
        assert_ne!(day0, day1, "the serving CDN alternates daily");
        assert_eq!(day0, day2, "same parity, same answers, same generation");
    }

    #[test]
    fn population_has_requested_size_and_unique_origins() {
        let world = small_world();
        assert_eq!(world.population(), 300);
        let origins: std::collections::BTreeSet<Ipv4Addr> =
            world.sites().iter().map(|s| s.origin).collect();
        assert_eq!(origins.len(), 300);
    }

    #[test]
    fn self_hosted_sites_resolve_to_their_origin() {
        let mut world = small_world();
        let site = world
            .sites()
            .iter()
            .find(|s| s.state == SiteState::SelfHosted)
            .expect("most sites are self-hosted")
            .clone();
        let mut r = resolver(&world);
        let res = r.resolve(&mut world, &site.www, RecordType::A).unwrap();
        assert_eq!(res.addresses(), vec![site.origin]);
    }

    #[test]
    fn ns_based_dps_sites_resolve_to_provider_edges() {
        let mut world = small_world();
        let site = world
            .sites()
            .iter()
            .find(|s| {
                matches!(
                    s.state,
                    SiteState::Dps {
                        rerouting: ReroutingMethod::Ns,
                        paused: false,
                        ..
                    }
                )
            })
            .expect("cloudflare NS customers exist at this scale")
            .clone();
        let provider = site.state.provider().unwrap();
        let mut r = resolver(&world);
        let res = r.resolve(&mut world, &site.www, RecordType::A).unwrap();
        let addr = res.addresses()[0];
        assert!(world.provider(provider).is_edge_address(addr));
        // And the public NS records carry the provider's fingerprint.
        let ns = r.resolve(&mut world, &site.apex, RecordType::Ns).unwrap();
        assert!(ns
            .ns_hosts()
            .iter()
            .all(|h| h.contains_label_substring("cloudflare")));
    }

    #[test]
    fn cname_based_dps_sites_resolve_through_their_token() {
        let mut world = small_world();
        let site = world
            .sites()
            .iter()
            .find(|s| {
                matches!(
                    s.state,
                    SiteState::Dps {
                        rerouting: ReroutingMethod::Cname,
                        paused: false,
                        ..
                    }
                )
            })
            .expect("cname customers exist at this scale")
            .clone();
        let provider = site.state.provider().unwrap();
        let mut r = resolver(&world);
        let res = r.resolve(&mut world, &site.www, RecordType::A).unwrap();
        let cnames = res.cnames();
        assert_eq!(cnames.len(), 1, "www CNAME token chain");
        let addr = *res.addresses().last().unwrap();
        assert!(world.provider(provider).is_edge_address(addr));
    }

    #[test]
    fn http_fetch_through_edge_matches_direct_origin_fetch() {
        let mut world = small_world();
        let site = world
            .sites()
            .iter()
            .find(|s| s.state.is_protected() && !s.firewalled && !s.dynamic_meta)
            .expect("unfirewalled protected site exists")
            .clone();
        let mut r = resolver(&world);
        let now = world.now();
        let res = r.resolve(&mut world, &site.www, RecordType::A).unwrap();
        let edge = *res.addresses().last().unwrap();
        let client = Ipv4Addr::new(192, 0, 2, 200);
        let via_edge = HttpTransport::get(
            &mut world,
            now,
            edge,
            &HttpRequest::landing(client, site.www.as_str()),
        )
        .expect("edge serves");
        let direct = HttpTransport::get(
            &mut world,
            now,
            site.origin,
            &HttpRequest::landing(client, site.www.as_str()),
        )
        .expect("origin serves");
        assert!(via_edge.is_ok() && direct.is_ok());
        assert!(remnant_http::pages_match(
            via_edge.document.as_ref().unwrap(),
            direct.document.as_ref().unwrap()
        ));
    }

    #[test]
    fn firewalled_origin_drops_direct_fetch_but_serves_edge() {
        let mut world = small_world();
        let site = world
            .sites()
            .iter()
            .find(|s| s.state.is_protected() && s.firewalled)
            .cloned();
        let Some(site) = site else {
            return; // firewalled fraction is small; absent at tiny scale
        };
        let now = world.now();
        let direct = HttpTransport::get(
            &mut world,
            now,
            site.origin,
            &HttpRequest::landing(Ipv4Addr::new(192, 0, 2, 200), site.www.as_str()),
        );
        assert!(direct.is_none(), "scanner is dropped by the firewall");
    }

    #[test]
    fn parking_ip_serves_any_host() {
        let mut world = small_world();
        let now = world.now();
        let resp = HttpTransport::get(
            &mut world,
            now,
            PARKING_IP,
            &HttpRequest::landing(Ipv4Addr::new(192, 0, 2, 200), "www.whatever.com"),
        )
        .unwrap();
        assert!(resp.is_ok());
    }

    #[test]
    fn unknown_addresses_time_out() {
        let mut world = small_world();
        let now = world.now();
        assert!(HttpTransport::get(
            &mut world,
            now,
            Ipv4Addr::new(203, 0, 113, 99),
            &HttpRequest::landing(Ipv4Addr::new(192, 0, 2, 200), "www.x.com"),
        )
        .is_none());
        let q = Query::new("www.x.com".parse().unwrap(), RecordType::A);
        assert!(DnsTransport::query(
            &mut world,
            now,
            Ipv4Addr::new(203, 0, 113, 99),
            Region::Oregon,
            &q
        )
        .is_none());
    }

    #[test]
    fn multi_cdn_sites_alternate_providers_through_cedexis() {
        let mut calibration = crate::config::Calibration::paper();
        calibration.multi_cdn_fraction = 0.5; // make them common for the test
        let mut world = World::generate(WorldConfig {
            population: 400,
            seed: 77,
            warmup_days: 0,
            calibration,
        });
        let site = world
            .sites()
            .iter()
            .find(|s| s.multi_cdn.is_some())
            .expect("multi-cdn sites exist at this fraction")
            .clone();
        let (first, second) = site.multi_cdn.unwrap();

        let mut resolver = RecursiveResolver::new(world.clock(), Region::Oregon);
        let res = resolver
            .resolve(&mut world, &site.www, RecordType::A)
            .unwrap();
        // The chain shows the balancer fingerprint plus a provider token.
        assert!(
            res.cnames()
                .iter()
                .any(|c| c.contains_label_substring("cedexis")),
            "balancer CNAME visible: {:?}",
            res.cnames()
        );
        let addr_day0 = *res.addresses().last().unwrap();

        world.step_days(1);
        resolver.purge_cache();
        let res = resolver
            .resolve(&mut world, &site.www, RecordType::A)
            .unwrap();
        let addr_day1 = *res.addresses().last().unwrap();

        let owner = |addr: Ipv4Addr, w: &World| {
            ProviderId::ALL
                .into_iter()
                .find(|p| w.provider(*p).is_edge_address(addr))
                .expect("edges belong to providers")
        };
        let day0 = owner(addr_day0, &world);
        let day1 = owner(addr_day1, &world);
        assert_ne!(day0, day1, "serving CDN alternates daily");
        assert!([first, second].contains(&day0));
        assert!([first, second].contains(&day1));
    }

    #[test]
    fn adoption_rate_is_calibrated() {
        let world = World::generate(WorldConfig {
            population: 20_000,
            seed: 5,
            warmup_days: 0,
            calibration: crate::config::Calibration::paper(),
        });
        let enrolled = world
            .sites()
            .iter()
            .filter(|s| s.state.is_enrolled())
            .count();
        let rate = enrolled as f64 / world.population() as f64;
        assert!((rate - 0.1485).abs() < 0.015, "adoption {rate}");
        // Top band adopts much more.
        let band = world.population() / 100;
        let top = world.sites()[..band]
            .iter()
            .filter(|s| s.state.is_enrolled())
            .count() as f64
            / band as f64;
        assert!((top - 0.3898).abs() < 0.08, "top-band adoption {top}");
    }

    #[test]
    fn cloudflare_dominates_adoption() {
        let world = World::generate(WorldConfig {
            population: 20_000,
            seed: 6,
            warmup_days: 0,
            calibration: crate::config::Calibration::paper(),
        });
        let cf = world.provider(ProviderId::Cloudflare).customer_count() as f64;
        let total: usize = ProviderId::ALL
            .iter()
            .map(|p| world.provider(*p).customer_count())
            .sum();
        let share = cf / total as f64;
        assert!((share - 0.79).abs() < 0.03, "cloudflare share {share}");
    }

    #[test]
    fn fabric_counters_split_by_proto_and_server_class() {
        let mut w = small_world();
        let site = w.sites()[0].clone();
        let mut r = resolver(&w);
        let addr = r
            .resolve(&mut w, &site.www, RecordType::A)
            .unwrap()
            .addresses()[0];
        let now = w.now();
        let _ = HttpTransport::get(
            &mut w,
            now,
            addr,
            &HttpRequest::landing(Ipv4Addr::new(1, 2, 3, 4), site.www.as_str()),
        );

        let mut registry = remnant_obs::MetricsRegistry::new();
        w.export_into(&mut registry);
        let count =
            |key: MetricKey| registry.counter_key(&key.with_label("component", "world.fabric"));

        let (dns_total, http_total) = w.traffic_stats();
        assert_eq!(
            count(MetricKey::labeled(
                remnant_obs::TRANSPORT_SENT,
                &[("proto", "dns")]
            )),
            dns_total
        );
        assert_eq!(
            count(MetricKey::labeled(
                remnant_obs::TRANSPORT_SENT,
                &[("proto", "http")]
            )),
            http_total
        );
        assert_eq!(
            count(MetricKey::labeled(
                remnant_obs::TRANSPORT_IGNORED,
                &[("proto", "http")]
            )),
            0,
            "a resolved serving address answers"
        );
        // Delegation walked the registry; the answer came from a provider
        // or hosting server.
        assert!(count(MetricKey::labeled("dns.answers", &[("class", "registry")])) > 0);
        let answered: u64 = ["registry", "provider", "hosting", "cedexis"]
            .iter()
            .map(|class| count(MetricKey::labeled("dns.answers", &[("class", class)])))
            .sum();
        assert_eq!(
            answered,
            ShardableTransport::query_stats(&w).answered,
            "per-class answers partition the total"
        );
    }
}
