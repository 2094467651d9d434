//! HTML landing pages: templates, rendering, generation.

use std::collections::BTreeMap;
use std::fmt;

use remnant_sim::SeedSeq;

/// A rendered HTML document: the parts the paper's verifier inspects
/// (title and meta tags) plus the raw markup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HtmlDocument {
    /// `<title>` content.
    pub title: String,
    /// `<meta name="..." content="...">` pairs, in name order.
    pub meta: BTreeMap<String, String>,
    /// Full rendered markup.
    pub raw: String,
}

impl fmt::Display for HtmlDocument {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

/// A landing-page template: static title/meta/body plus optional *dynamic*
/// meta keys whose values change on every request (the paper's
/// false-negative source for HTML verification).
///
/// # Example
///
/// ```
/// use remnant_http::PageTemplate;
///
/// let mut template = PageTemplate::generate("shop-site.com", 42);
/// template.add_dynamic_meta("csrf-token");
/// let a = template.render(1);
/// let b = template.render(2);
/// assert_eq!(a.title, b.title);
/// assert_ne!(a.meta["csrf-token"], b.meta["csrf-token"]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageTemplate {
    title: String,
    static_meta: BTreeMap<String, String>,
    dynamic_meta: Vec<String>,
    body: String,
}

impl PageTemplate {
    /// Creates a template from explicit parts.
    pub fn new(
        title: impl Into<String>,
        static_meta: BTreeMap<String, String>,
        body: impl Into<String>,
    ) -> Self {
        PageTemplate {
            title: title.into(),
            static_meta,
            dynamic_meta: Vec::new(),
            body: body.into(),
        }
    }

    /// Deterministically generates a realistic landing page for `domain`.
    /// The same `(domain, seed)` always yields the same template; different
    /// domains yield distinguishable titles and meta sets.
    pub fn generate(domain: &str, seed: u64) -> Self {
        let seq = SeedSeq::new(seed).child(domain);
        let sld = domain.split('.').next().unwrap_or(domain);
        let flavor = FLAVORS[(seq.derive("flavor") % FLAVORS.len() as u64) as usize];
        let title = format!("{} — {}", capitalize(sld), flavor);
        let mut static_meta = BTreeMap::new();
        static_meta.insert(
            "description".to_owned(),
            format!(
                "{flavor} by {sld}; established site #{:06x}",
                seq.derive("id") & 0xff_ffff
            ),
        );
        static_meta.insert(
            "keywords".to_owned(),
            format!(
                "{sld},{},{}",
                flavor.to_ascii_lowercase(),
                KEYWORDS[(seq.derive("kw") % KEYWORDS.len() as u64) as usize]
            ),
        );
        static_meta.insert(
            "generator".to_owned(),
            GENERATORS[(seq.derive("gen") % GENERATORS.len() as u64) as usize].to_owned(),
        );
        static_meta.insert("og:site_name".to_owned(), capitalize(sld));
        let body = format!(
            "<h1>Welcome to {sld}</h1><p>{flavor}.</p><p>ref {:08x}</p>",
            seq.derive("body")
        );
        PageTemplate::new(title, static_meta, body)
    }

    /// The page title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Declares `key` as a dynamic meta tag: each render gets a different
    /// value for it.
    pub fn add_dynamic_meta(&mut self, key: impl Into<String>) {
        self.dynamic_meta.push(key.into());
    }

    /// Renders a concrete document. `nonce` feeds the dynamic meta values
    /// (real servers use timestamps, visitor IDs, CSRF tokens, …).
    pub fn render(&self, nonce: u64) -> HtmlDocument {
        let mut meta = self.static_meta.clone();
        for key in &self.dynamic_meta {
            let value = SeedSeq::new(nonce).derive(key);
            meta.insert(key.clone(), format!("{value:016x}"));
        }
        let meta_markup: String = meta
            .iter()
            .map(|(k, v)| format!("<meta name=\"{k}\" content=\"{v}\">"))
            .collect();
        let raw = format!(
            "<!doctype html><html><head><title>{}</title>{}</head><body>{}</body></html>",
            self.title, meta_markup, self.body
        );
        HtmlDocument {
            title: self.title.clone(),
            meta,
            raw,
        }
    }
}

/// Site flavors for generated titles.
const FLAVORS: [&str; 8] = [
    "Online Store",
    "News & Media",
    "Community Forum",
    "Tech Blog",
    "Travel Portal",
    "Game Hub",
    "Finance Tracker",
    "Photo Gallery",
];

/// Keyword fillers for generated meta.
const KEYWORDS: [&str; 6] = ["shop", "news", "forum", "blog", "travel", "games"];

/// Generator strings (CMS fingerprints) for generated meta.
const GENERATORS: [&str; 5] = [
    "WordPress 4.9",
    "Drupal 8",
    "Joomla 3.8",
    "Hugo 0.36",
    "custom",
];

/// Uppercases the first ASCII character.
fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_ascii_uppercase().to_string() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = PageTemplate::generate("example.com", 1);
        let b = PageTemplate::generate("example.com", 1);
        assert_eq!(a, b);
    }

    #[test]
    fn different_domains_get_different_pages() {
        let a = PageTemplate::generate("alpha.com", 1);
        let b = PageTemplate::generate("beta.com", 1);
        assert_ne!(a.render(0).title, b.render(0).title);
    }

    #[test]
    fn static_renders_are_nonce_independent() {
        let t = PageTemplate::generate("example.com", 1);
        assert_eq!(t.render(1), t.render(99));
    }

    #[test]
    fn dynamic_meta_varies_per_render() {
        let mut t = PageTemplate::generate("example.com", 1);
        t.add_dynamic_meta("visitor-id");
        let a = t.render(1);
        let b = t.render(2);
        assert_eq!(a.title, b.title);
        assert_ne!(a.meta["visitor-id"], b.meta["visitor-id"]);
        // Same nonce reproduces the same value.
        assert_eq!(t.render(5), t.render(5));
    }

    #[test]
    fn render_embeds_title_and_meta_in_markup() {
        let t = PageTemplate::generate("example.com", 1);
        let doc = t.render(0);
        assert!(doc.raw.contains(&format!("<title>{}</title>", doc.title)));
        for (k, v) in &doc.meta {
            assert!(doc.raw.contains(&format!("name=\"{k}\" content=\"{v}\"")));
        }
    }

    #[test]
    fn generated_meta_has_expected_keys() {
        let doc = PageTemplate::generate("example.com", 3).render(0);
        for key in ["description", "keywords", "generator", "og:site_name"] {
            assert!(doc.meta.contains_key(key), "missing {key}");
        }
    }

    #[test]
    fn capitalize_edge_cases() {
        assert_eq!(capitalize(""), "");
        assert_eq!(capitalize("x"), "X");
        assert_eq!(capitalize("abc"), "Abc");
    }
}
