//! Interning from several threads at once.
//!
//! Threads that race to intern the same fresh name must all get the one
//! payload the winner created, and every payload's parent link must
//! reach its parent's unique payload. This file holds exactly one test,
//! so the interner's size is not moved by anything else in the binary.

use std::sync::{Arc, Barrier};
use std::thread;

use remnant_dns::DomainName;

const THREADS: usize = 4;
/// Races run, each over names no earlier race interned.
const RACES: usize = 4;
/// Sites in one race. Thread `t` skips every site `s` with
/// `s % THREADS == t`, so each site is interned by all threads but one,
/// and the threads walk the sites in the same order at the same time.
const SITES: usize = 4_000;
/// Apexes the sites hang under, so parents are contended too.
const APEXES: usize = 37;

/// The apex of `site` in race `race`.
fn apex(race: usize, site: usize) -> String {
    format!("apex{}.race{race}.name-threads.example", site % APEXES)
}

/// The spelling of `site` in race `race` as thread `thread` writes it:
/// odd threads use upper case, which takes the lowercasing path of
/// `parse`.
fn spelling(thread: usize, race: usize, site: usize) -> String {
    let text = format!("h{site}.{}", apex(race, site));
    if thread % 2 == 1 {
        text.to_ascii_uppercase()
    } else {
        text
    }
}

/// Runs one race: every thread parses its sites once all have their
/// spellings ready. Returns each thread's `(site, handle)` pairs.
fn race(race: usize) -> Vec<Vec<(usize, DomainName)>> {
    let start = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|thread| {
            let start = Arc::clone(&start);
            thread::spawn(move || {
                let texts: Vec<(usize, String)> = (0..SITES)
                    .filter(|site| site % THREADS != thread)
                    .map(|site| (site, spelling(thread, race, site)))
                    .collect();
                start.wait();
                texts
                    .into_iter()
                    .map(|(site, text)| (site, DomainName::parse(&text).expect("valid name")))
                    .collect()
            })
        })
        .collect();
    workers
        .into_iter()
        .map(|worker| worker.join().expect("interning thread"))
        .collect()
}

#[test]
fn racing_threads_share_one_payload_per_name() {
    let before = DomainName::interned_count();
    for race_index in 0..RACES {
        let mut first_seen: Vec<Option<DomainName>> = vec![None; SITES];
        for (site, name) in race(race_index).iter().flatten() {
            let canonical = first_seen[*site].get_or_insert_with(|| name.clone());
            assert!(
                std::ptr::eq(canonical.as_str(), name.as_str()),
                "two payloads for {name}"
            );
        }
        for (site, name) in first_seen.iter().enumerate() {
            let name = name.as_ref().expect("every site was interned");
            assert_eq!(name.as_str(), spelling(0, race_index, site));
            assert_eq!(name.label_count(), 5);
            assert_eq!(name.tld(), "example");
            let parent = name.parent().expect("a site has a parent");
            assert_eq!(parent, DomainName::parse(&apex(race_index, site)).unwrap());
            assert!(name.is_child_of(&parent, &format!("h{site}")));
            for suffix in name.suffixes() {
                let reparsed = DomainName::parse(suffix.as_str()).expect("suffixes are valid");
                assert!(std::ptr::eq(suffix.as_str(), reparsed.as_str()), "{suffix}");
            }
        }
    }
    // Each race's sites, apexes and race name, and the shared parent and
    // TLD, were interned once: a thread that lost a race created nothing.
    assert_eq!(
        DomainName::interned_count() - before,
        RACES * (SITES + APEXES + 1) + 2
    );
}
