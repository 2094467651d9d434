//! RFC 1035 wire codec and a servable resolver front.
//!
//! The rest of the workspace passes typed [`Query`]/[`Response`] values
//! in-process; this crate gives them a network shape. It has three
//! layers, each usable on its own:
//!
//! | Layer | Entry points | What it does |
//! |---|---|---|
//! | codec | [`Message`], [`decode_name`], [`WireError`] | canonical RFC 1035 encode with name compression; bounded, typed, non-panicking parse |
//! | adapter | [`WireTransport`] | drives any existing transport through encoded frames, so wire-path results can be diffed byte-for-byte against the in-process path |
//! | server | [`ServerCore`], [`WireServer`], [`ResolverService`] | real UDP/TCP sockets (TC-bit truncation at 512 bytes, 2-byte length-prefixed TCP framing) over a cache of pre-encoded answers |
//!
//! Determinism contract: encoding is canonical (same message, same
//! bytes — compression included), transaction IDs on the adapter path
//! are derived from the query, and the server's answer cache stores
//! encoded frames keyed by normalized name, so a sweep through the wire
//! path at any worker count produces the same snapshot bytes as the
//! in-process path.
//!
//! Robustness contract: parsing never panics and never allocates
//! proportionally to attacker-controlled lengths. Compression pointers
//! must be strictly backward and within a 16-hop budget; expanded names
//! are capped at the RFC's 255 wire octets; every failure is a
//! [`WireError`] carrying the byte offset it was detected at.
//!
//! [`Query`]: remnant_dns::Query
//! [`Response`]: remnant_dns::Response

pub mod error;
pub mod message;
pub mod name;
pub mod serve;
pub mod transport;
pub mod types;

pub use error::WireError;
pub use message::{patch_id, Message};
pub use name::{decode_name, decode_name_into, NameScratch, MAX_POINTER_JUMPS, MAX_PRESENTATION};
pub use serve::{DnsService, ResolverService, ServerCore, WireServer};
pub use transport::{
    query_id, WireTransport, WIRE_CODEC_ERRORS, WIRE_FRAMES_DECODED, WIRE_FRAMES_ENCODED,
};
pub use types::{Flags, Header, CLASS_IN, HEADER_LEN, MAX_UDP_PAYLOAD};
