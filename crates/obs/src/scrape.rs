//! A parser for the Prometheus text exposition format — enough for the
//! workspace's own tooling (`mobipriv-loadgen`, the smoke harness, the
//! socket tests) to read back what [`crate::metrics`] renders.

use std::collections::BTreeMap;

use crate::metrics::{HistogramSnapshot, Registry, Value, BUCKET_BOUNDS};

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapedSample {
    /// Sample name (for histograms this is the suffixed
    /// `…_bucket`/`…_sum`/`…_count` name).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The value (`+Inf` in a *value* position parses as infinity).
    pub value: f64,
}

/// A parsed scrape.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    samples: Vec<ScrapedSample>,
    /// `# TYPE` declarations: family name → `counter|gauge|histogram`.
    types: BTreeMap<String, String>,
    /// `# HELP` declarations: family name → help text.
    helps: BTreeMap<String, String>,
}

/// Parses a text exposition document. `# TYPE` and `# HELP` comment
/// lines are captured (they drive the reconstruction of typed series
/// behind [`Scrape::fold`] and [`Scrape::histogram_quantile`]); other
/// comments are skipped.
///
/// # Errors
///
/// Returns a one-line description naming the first malformed line.
pub fn parse(text: &str) -> Result<Scrape, String> {
    let mut samples = Vec::new();
    let mut types = BTreeMap::new();
    let mut helps = BTreeMap::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                if let Some((name, kind)) = decl.trim().split_once(' ') {
                    types.insert(name.to_owned(), kind.trim().to_owned());
                }
            } else if let Some(decl) = comment.strip_prefix("HELP ") {
                if let Some((name, help)) = decl.trim().split_once(' ') {
                    helps.insert(name.to_owned(), help.to_owned());
                }
            }
            continue;
        }
        let sample =
            parse_sample(line).map_err(|e| format!("line {}: {e}: `{line}`", number + 1))?;
        samples.push(sample);
    }
    Ok(Scrape {
        samples,
        types,
        helps,
    })
}

fn parse_sample(line: &str) -> Result<ScrapedSample, String> {
    let (name, rest) = match line.find('{') {
        Some(brace) => {
            let close = line.rfind('}').ok_or("unclosed label block")?;
            (
                &line[..brace],
                (&line[brace + 1..close], &line[close + 1..]),
            )
        }
        None => {
            let space = line.find(' ').ok_or("missing value")?;
            (&line[..space], ("", &line[space..]))
        }
    };
    if name.is_empty() {
        return Err("empty metric name".into());
    }
    let (label_block, value_part) = rest;
    let mut labels = parse_labels(label_block)?;
    labels.sort();
    let value_text = value_part.trim();
    let value = match value_text {
        "+Inf" | "Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse::<f64>().map_err(|_| "unparsable value")?,
    };
    Ok(ScrapedSample {
        name: name.to_owned(),
        labels,
        value,
    })
}

fn parse_labels(block: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = block.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return Err("label value must be quoted".into());
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => return Err("bad escape in label value".into()),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err("unterminated label value".into()),
            }
        }
        labels.push((key, value));
    }
}

impl Scrape {
    /// All parsed samples.
    pub fn samples(&self) -> &[ScrapedSample] {
        &self.samples
    }

    /// The `# TYPE` declaration for a family, if the document had one.
    pub fn kind_of(&self, name: &str) -> Option<&str> {
        self.types.get(name).map(String::as_str)
    }

    /// Folds several scrapes into one [`Registry`]: each scrape becomes
    /// a registry of its own, absorbed with [`Registry::absorb`], so
    /// counters and gauges add (a cluster-wide queue depth is the *sum*
    /// of the shards' depths) and histograms merge bucket by bucket
    /// (exact — every node uses the same fixed bucket ladder).
    pub fn fold(scrapes: &[&Scrape]) -> Registry {
        let registry = Registry::new();
        for scrape in scrapes {
            registry.absorb(&scrape.to_registry());
        }
        registry
    }

    /// This scrape as a registry: every family with a `# TYPE`
    /// declaration, with its help text. A histogram is reassembled from
    /// its `_bucket`/`_sum`/`_count` lines; buckets whose `le` is not
    /// on the shared ladder are skipped. Rendering the registry of a
    /// rendered registry reproduces it byte for byte.
    fn to_registry(&self) -> Registry {
        let registry = Registry::new();
        // (family, labels-without-le) → snapshot under assembly.
        type Key = (String, Vec<(String, String)>);
        let mut histograms: BTreeMap<Key, HistogramSnapshot> = BTreeMap::new();
        for sample in &self.samples {
            let (family, kind) = match self.types.get(&sample.name) {
                Some(kind) => (sample.name.clone(), kind.as_str()),
                // Histogram sample lines carry suffixed names; map them
                // back to their declared family.
                None => match histogram_family(self, &sample.name) {
                    Some(family) => (family, "histogram"),
                    None => continue,
                },
            };
            if kind == "histogram" {
                let labels = sample.labels.iter().filter(|(k, _)| k != "le").cloned();
                let snap = histograms
                    .entry((family, labels.collect()))
                    .or_insert_with(|| HistogramSnapshot {
                        buckets: vec![0; BUCKET_BOUNDS.len()],
                        inf: 0,
                        count: 0,
                        sum_nanos: 0,
                    });
                absorb_histogram_sample(snap, sample);
                continue;
            }
            let help = self.helps.get(&family).map_or("", String::as_str);
            let labels: Vec<(&str, &str)> = sample
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            match kind {
                "counter" => registry
                    .counter(&family, &labels, help)
                    .add(sample.value.max(0.0) as u64),
                "gauge" => registry
                    .gauge(&family, &labels, help)
                    .set(sample.value as i64),
                _ => {}
            }
        }
        for ((family, labels), mut snap) in histograms {
            // The wire carries cumulative buckets; the snapshot wants
            // per-bucket counts.
            let mut previous = 0;
            for bucket in &mut snap.buckets {
                let cumulative = *bucket;
                *bucket = cumulative.saturating_sub(previous);
                previous = cumulative;
            }
            snap.inf = snap.inf.saturating_sub(previous);
            let labels: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let help = self.helps.get(&family).map_or("", String::as_str);
            registry.histogram(&family, &labels, help).absorb(&snap);
        }
        registry
    }

    /// The value of `name{labels}` (labels must match exactly, in any
    /// order).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        want.sort();
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == want)
            .map(|s| s.value)
    }

    /// Sum of `name` across every label set (e.g. requests regardless
    /// of status).
    pub fn total(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// The label sets carrying `name`, with their values — e.g. the
    /// per-status request counts.
    pub fn by_label(&self, name: &str, label: &str) -> Vec<(String, f64)> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for s in self.samples.iter().filter(|s| s.name == name) {
            if let Some((_, v)) = s.labels.iter().find(|(k, _)| k == label) {
                *out.entry(v.clone()).or_insert(0.0) += s.value;
            }
        }
        out.into_iter().collect()
    }

    /// Estimates a quantile of histogram `name{labels}` with
    /// [`HistogramSnapshot::quantile`], optionally over the window since
    /// a `baseline` scrape (subtracting the baseline's snapshot isolates
    /// one run's observations from a server's lifetime totals). `None`
    /// when the histogram is absent or empty over the window.
    pub fn histogram_quantile(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        q: f64,
        baseline: Option<&Scrape>,
    ) -> Option<f64> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        want.sort();
        let histogram = |scrape: &Scrape| {
            let samples = scrape.to_registry().snapshot();
            samples.into_iter().find_map(|s| match s.value {
                Value::Histogram(h) if s.name == name && s.labels == want => Some(h),
                _ => None,
            })
        };
        let mut window = histogram(self)?;
        if let Some(base) = baseline.and_then(&histogram) {
            for (n, b) in window.buckets.iter_mut().zip(&base.buckets) {
                *n = n.saturating_sub(*b);
            }
            window.inf = window.inf.saturating_sub(base.inf);
            window.count = window.count.saturating_sub(base.count);
            window.sum_nanos = window.sum_nanos.saturating_sub(base.sum_nanos);
        }
        window.quantile(q)
    }
}

/// Maps a suffixed histogram sample name (`…_bucket`, `…_sum`,
/// `…_count`) back to its declared family, when that family carries a
/// `# TYPE … histogram` declaration in this scrape.
fn histogram_family(scrape: &Scrape, sample_name: &str) -> Option<String> {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(family) = sample_name.strip_suffix(suffix) {
            if scrape.types.get(family).map(String::as_str) == Some("histogram") {
                return Some(family.to_owned());
            }
        }
    }
    None
}

/// Copies one histogram wire sample into the snapshot under assembly.
/// Bucket values stay *cumulative* here; [`Scrape::fold`] converts to
/// per-bucket counts once the whole series has been seen.
fn absorb_histogram_sample(snap: &mut HistogramSnapshot, sample: &ScrapedSample) {
    let value = sample.value.max(0.0);
    if sample.name.ends_with("_bucket") {
        let le = sample
            .labels
            .iter()
            .find(|(k, _)| k == "le")
            .map(|(_, v)| v.as_str());
        match le {
            Some("+Inf") | Some("Inf") => snap.inf = value as u64,
            Some(bound) => {
                if let Ok(bound) = bound.parse::<f64>() {
                    if let Some(i) = BUCKET_BOUNDS.iter().position(|b| *b == bound) {
                        snap.buckets[i] = value as u64;
                    }
                }
            }
            None => {}
        }
    } else if sample.name.ends_with("_sum") {
        snap.sum_nanos = (value * 1e9).round() as u64;
    } else if sample.name.ends_with("_count") {
        snap.count = value as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn round_trips_rendered_output() {
        let registry = Registry::new();
        registry
            .counter("req_total", &[("status", "200")], "requests")
            .add(7);
        registry
            .counter("req_total", &[("status", "503")], "requests")
            .add(2);
        registry.gauge("depth", &[], "queue").set(-1);
        let h = registry.histogram("lat_seconds", &[("stage", "compute")], "latency");
        h.observe(3e-3);
        h.observe(3e-3);
        h.observe(0.2);
        let scrape = parse(&registry.render_prometheus()).expect("parses");
        assert_eq!(scrape.value("req_total", &[("status", "200")]), Some(7.0));
        assert_eq!(scrape.total("req_total"), 9.0);
        assert_eq!(scrape.value("depth", &[]), Some(-1.0));
        assert_eq!(
            scrape.by_label("req_total", "status"),
            vec![("200".to_owned(), 7.0), ("503".to_owned(), 2.0)]
        );
        assert_eq!(
            scrape.value("lat_seconds_count", &[("stage", "compute")]),
            Some(3.0)
        );
        assert_eq!(
            scrape.histogram_quantile("lat_seconds", &[("stage", "compute")], 0.5, None),
            Some(5e-3)
        );
        assert_eq!(
            scrape.histogram_quantile("lat_seconds", &[("stage", "compute")], 0.99, None),
            Some(0.2)
        );
    }

    #[test]
    fn escaped_labels_round_trip() {
        let registry = Registry::new();
        registry
            .counter("c_total", &[("k", "a\"b\\c\nd")], "escapes")
            .inc();
        let scrape = parse(&registry.render_prometheus()).expect("parses");
        assert_eq!(scrape.value("c_total", &[("k", "a\"b\\c\nd")]), Some(1.0));
    }

    #[test]
    fn baseline_subtraction_isolates_a_window() {
        let registry = Registry::new();
        let h = registry.histogram("w_seconds", &[], "window");
        h.observe(1e-3);
        let before = parse(&registry.render_prometheus()).unwrap();
        for _ in 0..10 {
            h.observe(0.4);
        }
        let after = parse(&registry.render_prometheus()).unwrap();
        // Lifetime p50 is polluted by the 1 ms sample; the windowed
        // quantile sees only the ten 0.4 s observations.
        assert_eq!(
            after.histogram_quantile("w_seconds", &[], 0.5, Some(&before)),
            Some(0.5)
        );
    }

    #[test]
    fn fold_sums_counters_gauges_and_histograms_across_documents() {
        let make = |requests: u64, depth: i64, slow: usize| {
            let r = Registry::new();
            r.counter("req_total", &[("status", "200")], "requests")
                .add(requests);
            r.gauge("depth", &[], "queue depth").set(depth);
            let h = r.histogram("lat_seconds", &[], "latency");
            h.observe(3e-3);
            for _ in 0..slow {
                h.observe(0.2);
            }
            r
        };
        let a = make(3, 2, 1);
        let b = make(4, 5, 0);
        let sa = parse(&a.render_prometheus()).unwrap();
        let sb = parse(&b.render_prometheus()).unwrap();
        assert_eq!(sa.kind_of("req_total"), Some("counter"));
        assert_eq!(sa.kind_of("lat_seconds"), Some("histogram"));
        let folded = parse(&Scrape::fold(&[&sa, &sb]).render_prometheus()).unwrap();
        assert_eq!(folded.value("req_total", &[("status", "200")]), Some(7.0));
        assert_eq!(folded.value("depth", &[]), Some(7.0), "gauges sum");
        assert_eq!(folded.value("lat_seconds_count", &[]), Some(3.0));
        assert_eq!(
            folded.histogram_quantile("lat_seconds", &[], 0.99, None),
            Some(0.2)
        );
        // Folding a single document reconstructs it byte-identically —
        // counters, gauge values, cumulative buckets, sums and help
        // text all survive the wire round trip.
        assert_eq!(
            Scrape::fold(&[&sa]).render_prometheus(),
            a.render_prometheus()
        );
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let err = parse("ok_total 1\nbroken{x=unquoted} 2\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}
