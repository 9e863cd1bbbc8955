//! The exposition parser: `hfz stats --watch`, the router's fleet `STATS`/`METRICS`
//! and the exporter tests read the rendered text through [`parse_prometheus`].

/// One sample parsed from Prometheus text exposition: a metric name, its labels in
/// appearance order, and the value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (`hfz_decode_seconds_bucket`, ...).
    pub name: String,
    /// Label pairs, in appearance order.
    pub labels: Vec<(String, String)>,
    /// The sample value (`+Inf`/`-Inf`/`NaN` parse to the matching floats).
    pub value: f64,
}

impl Sample {
    /// The value of the label `key`, when present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether this sample is a series of `name` whose labels include every pair in
    /// `labels` (subset match).
    fn matches(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        self.name == name && labels.iter().all(|(k, v)| self.label(k) == Some(*v))
    }
}

/// Parses a Prometheus text exposition document into its samples, validating the
/// syntax line by line: `# HELP` / `# TYPE` comments, metric names, label quoting, and
/// numeric values. Anything malformed is an error naming the offending line.
pub fn parse_prometheus(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if rest.starts_with("HELP") || rest.starts_with("TYPE") {
                let mut parts = rest.splitn(3, ' ');
                let keyword = parts.next().unwrap_or("");
                let name = parts.next().unwrap_or("");
                let payload = parts.next().unwrap_or("");
                if name.is_empty() || !is_metric_name(name) {
                    return Err(format!(
                        "line {}: # {} without a metric name",
                        lineno, keyword
                    ));
                }
                if keyword == "TYPE"
                    && !matches!(
                        payload,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    )
                {
                    return Err(format!("line {}: unknown TYPE '{}'", lineno, payload));
                }
            }
            continue; // other comments are legal and ignored
        }
        samples.push(parse_sample(line).map_err(|e| format!("line {}: {}", lineno, e))?);
    }
    Ok(samples)
}

fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_and_labels, value_str) = match line.find('{') {
        Some(_) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unterminated label block".to_string())?;
            (&line[..close + 1], line[close + 1..].trim())
        }
        None => {
            let space = line
                .find(' ')
                .ok_or_else(|| "sample line has no value".to_string())?;
            (&line[..space], line[space + 1..].trim())
        }
    };
    let (name, labels) = match name_and_labels.find('{') {
        Some(brace) => {
            let name = &name_and_labels[..brace];
            let body = &name_and_labels[brace + 1..name_and_labels.len() - 1];
            (name, parse_labels(body)?)
        }
        None => (name_and_labels, Vec::new()),
    };
    if !is_metric_name(name) {
        return Err(format!("invalid metric name '{}'", name));
    }
    // A timestamp (second token) is legal exposition; we never emit one but accept it.
    let value_token = value_str.split(' ').next().unwrap_or("");
    let value = match value_token {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other
            .parse::<f64>()
            .map_err(|_| format!("invalid sample value '{}'", other))?,
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| "label without '='".to_string())?;
        let key = rest[..eq].trim();
        if key.is_empty() || !is_metric_name(key) {
            return Err(format!("invalid label name '{}'", key));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err("label value is not quoted".to_string());
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    _ => return Err("bad escape in label value".to_string()),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                other => value.push(other),
            }
        }
        let end = end.ok_or_else(|| "unterminated label value".to_string())?;
        labels.push((key.to_string(), value));
        rest = rest[end + 1..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err("labels not comma-separated".to_string());
        }
    }
    Ok(labels)
}

/// Finds the value of the first sample matching `name` whose labels include every pair
/// in `labels` (subset match). The exporter tests read single series with it.
pub fn sample_value(samples: &[Sample], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.matches(name, labels))
        .map(|s| s.value)
}

/// Sums every sample of `name` whose labels include every pair in `labels` (subset
/// match; `0.0` when none does): a labelled family's total, across decoders or across
/// one shard's series. The router's fleet `STATS` and `hfz stats --watch` read with it.
pub fn sum_samples(samples: &[Sample], name: &str, labels: &[(&str, &str)]) -> f64 {
    samples
        .iter()
        .filter(|s| s.matches(name, labels))
        .map(|s| s.value)
        .sum()
}

/// How a scraped document's decode seconds were timed, as its `hfz_backend{name}` series
/// says (only the series labelled `shard="<shard>"` when `shard` is given): `"modeled"`
/// for `sim`, `"measured"` for `cpu`, `"mixed-clock"` when the series disagree and
/// `"unknown-clock"` when none is there. `hfz stats --watch` prints it beside every mean.
pub fn decode_clock(samples: &[Sample], shard: Option<&str>) -> &'static str {
    let mut backends = samples
        .iter()
        .filter(|s| s.name == "hfz_backend" && s.value > 0.0)
        .filter(|s| shard.is_none() || s.label("shard") == shard)
        .filter_map(|s| s.label("name"));
    let Some(first) = backends.next() else {
        return "unknown-clock";
    };
    if backends.any(|name| name != first) {
        return "mixed-clock";
    }
    match first {
        "sim" => "modeled",
        "cpu" => "measured",
        _ => "unknown-clock",
    }
}

/// Merges several Prometheus text expositions into one fleet document, tagging every
/// sample of part *i* with an extra `shard="<label>"` label.
///
/// This is the `hfzr` router's `/metrics` aggregation: each `hfzd` shard renders its
/// own registry, the router labels and concatenates the families so a scraper sees one
/// well-formed document where per-shard series stay distinguishable (and sums over a
/// family ignore the label, so fleet totals fall out of the usual `sum by` queries).
/// Every family keeps exactly one `# HELP`/`# TYPE` header (first shard's copy wins);
/// family order follows first appearance across the parts.
///
/// Each input must itself parse as an exposition ([`parse_prometheus`]); a part that
/// does not is reported as an error rather than corrupting the merged document. Labels
/// must not contain `"`, `\` or newlines.
pub fn merge_expositions(parts: &[(&str, &str)]) -> Result<String, String> {
    struct Family {
        help: Option<String>,
        kind: Option<String>,
        samples: Vec<String>,
    }
    let mut order: Vec<String> = Vec::new();
    let mut families: Vec<Family> = Vec::new();
    let mut index: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    let mut family_at =
        |name: &str, order: &mut Vec<String>, families: &mut Vec<Family>| -> usize {
            *index.entry(name.to_string()).or_insert_with(|| {
                order.push(name.to_string());
                families.push(Family {
                    help: None,
                    kind: None,
                    samples: Vec::new(),
                });
                families.len() - 1
            })
        };
    for (label, text) in parts {
        if label.contains(['"', '\\', '\n']) {
            return Err(format!("shard label {:?} needs escaping", label));
        }
        parse_prometheus(text).map_err(|e| format!("shard {:?}: {}", label, e))?;
        // Families arrive contiguously (HELP/TYPE headers, then their samples); track
        // the current one so `_bucket`/`_sum`/`_count` series land with their base.
        let mut current: Option<String> = None;
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, payload) = rest.split_once(' ').unwrap_or((rest, ""));
                let slot = family_at(name, &mut order, &mut families);
                families[slot]
                    .help
                    .get_or_insert_with(|| payload.to_string());
                current = Some(name.to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, payload) = rest.split_once(' ').unwrap_or((rest, ""));
                let slot = family_at(name, &mut order, &mut families);
                families[slot]
                    .kind
                    .get_or_insert_with(|| payload.to_string());
                current = Some(name.to_string());
                continue;
            }
            if line.starts_with('#') {
                continue; // other comments carry no cross-shard meaning
            }
            let split = line
                .find(['{', ' '])
                .ok_or_else(|| format!("shard {:?}: sample line {:?} has no value", label, line))?;
            let (series, rest) = line.split_at(split);
            let labelled = if let Some(inner) = rest.strip_prefix('{') {
                if let Some(empty) = inner.strip_prefix('}') {
                    format!("{}{{shard=\"{}\"}}{}", series, label, empty)
                } else {
                    format!("{}{{shard=\"{}\",{}", series, label, inner)
                }
            } else {
                format!("{}{{shard=\"{}\"}}{}", series, label, rest)
            };
            let family = match &current {
                Some(name) if series == name || series.starts_with(&format!("{}_", name)) => {
                    name.clone()
                }
                // A bare sample with no preceding header forms its own family.
                _ => series.to_string(),
            };
            let slot = family_at(&family, &mut order, &mut families);
            families[slot].samples.push(labelled);
        }
    }
    let mut out = String::new();
    for name in &order {
        let family = &families[index[name]];
        if let Some(help) = &family.help {
            out.push_str(&format!("# HELP {} {}\n", name, help));
        }
        if let Some(kind) = &family.kind {
            out.push_str(&format!("# TYPE {} {}\n", name, kind));
        }
        for sample in &family.samples {
            out.push_str(sample);
            out.push('\n');
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecoderKind, Metrics};

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("hfz_x 1\n").is_ok());
        assert!(parse_prometheus("1bad_name 1\n").is_err());
        assert!(
            parse_prometheus("hfz_x{l=\"v\" 1\n").is_err(),
            "unterminated labels"
        );
        assert!(
            parse_prometheus("hfz_x{l=v} 1\n").is_err(),
            "unquoted value"
        );
        assert!(
            parse_prometheus("hfz_x{=\"v\"} 1\n").is_err(),
            "empty label name"
        );
        assert!(parse_prometheus("hfz_x notanumber\n").is_err());
        assert!(parse_prometheus("# TYPE hfz_x flurble\n").is_err());
        assert!(parse_prometheus("# arbitrary comment\n").is_ok());
        let samples = parse_prometheus("hfz_x{a=\"with \\\"quotes\\\" and \\\\\"} 2.5\n").unwrap();
        assert_eq!(samples[0].label("a"), Some("with \"quotes\" and \\"));
        assert_eq!(samples[0].value, 2.5);
        let inf = parse_prometheus("hfz_x_bucket{le=\"+Inf\"} 7\n").unwrap();
        assert_eq!(inf[0].label("le"), Some("+Inf"));
    }

    #[test]
    fn decode_clock_follows_the_backend_series() {
        let rendered = |backend: Option<&str>| {
            let m = Metrics::new();
            m.update(|m| m.observe_decode(DecoderKind::OptimizedGapArray, 1e-3));
            if let Some(name) = backend {
                m.set_backend(name);
            }
            m.render_prometheus()
        };
        let clock = |text: &str, shard| decode_clock(&parse_prometheus(text).unwrap(), shard);
        let (sim, cpu, none) = (rendered(Some("sim")), rendered(Some("cpu")), rendered(None));
        assert_eq!(clock(&sim, None), "modeled");
        assert_eq!(clock(&cpu, None), "measured");
        assert_eq!(clock(&none, None), "unknown-clock");

        let fleet = merge_expositions(&[("0", &sim), ("1", &cpu), ("2", &cpu)]).unwrap();
        assert_eq!(clock(&fleet, Some("0")), "modeled");
        assert_eq!(clock(&fleet, Some("1")), "measured");
        assert_eq!(clock(&fleet, Some("7")), "unknown-clock");
        assert_eq!(clock(&fleet, None), "mixed-clock");
        let cpus = merge_expositions(&[("0", &cpu), ("1", &cpu)]).unwrap();
        assert_eq!(clock(&cpus, None), "measured");
    }

    #[test]
    fn merge_expositions_labels_every_sample() {
        let a = Metrics::new();
        a.update(|m| {
            m.requests += 3;
            m.observe_decode(DecoderKind::CuszBaseline, 0.5);
        });
        a.set_backend("gpu-sim (sim)");
        let b = Metrics::new();
        b.update(|m| {
            m.requests += 4;
            m.observe_decode(DecoderKind::CuszBaseline, 0.25);
        });
        b.set_backend("gpu-sim (sim)");
        let docs = [a.render_prometheus(), b.render_prometheus()];
        let merged = merge_expositions(&[("0", &docs[0]), ("1", &docs[1])]).unwrap();

        // The merged document is itself a valid exposition…
        let samples = parse_prometheus(&merged).unwrap();
        // …every sample carries the shard label…
        assert!(samples.iter().all(|s| s.label("shard").is_some()));
        // …per-shard series stay addressable…
        assert_eq!(
            sample_value(&samples, "hfz_requests_total", &[("shard", "0")]),
            Some(3.0)
        );
        assert_eq!(
            sample_value(&samples, "hfz_requests_total", &[("shard", "1")]),
            Some(4.0)
        );
        // …and fleet totals are plain sums over the family.
        assert_eq!(sum_samples(&samples, "hfz_requests_total", &[]), 7.0);
        assert_eq!(sum_samples(&samples, "hfz_decode_seconds_count", &[]), 2.0);
        assert_eq!(
            sum_samples(&samples, "hfz_decode_seconds_count", &[("shard", "1")]),
            1.0
        );
        assert_eq!(sum_samples(&samples, "hfz_nope_total", &[]), 0.0);
        // Histogram series keep their original labels next to the shard label.
        assert!(merged.contains("hfz_decode_seconds_bucket{shard=\"0\",decoder="));

        // Exactly one HELP/TYPE header per family, even with two shards contributing.
        for header in ["# HELP hfz_requests_total", "# TYPE hfz_decode_seconds"] {
            assert_eq!(merged.matches(header).count(), 1, "duplicate {}", header);
        }

        // Broken inputs are reported, not merged.
        assert!(merge_expositions(&[("0", "hfz_x notanumber\n")]).is_err());
        assert!(merge_expositions(&[("bad\"label", &docs[0])]).is_err());
    }
}
