//! Run-manifest comparison: the output checks work on the manifests
//! `titreplay --manifest` writes and `titserved` returns.

use serde::Value;

/// Fields that legitimately differ between two replays of one question:
/// the measured wall time everywhere, and — across the `lu-c64.*`
/// ingestion/threading variants — how the trace was named and how many
/// threads were asked for.
pub const DROP_WALL: &[&str] = &["wall_time_s"];
pub const DROP_VARIANT: &[&str] = &["wall_time_s", "trace_signature", "threads"];

pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(text).map_err(|e| format!("manifest is not JSON: {e}"))
}

/// `s` as a quoted JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` without any object entry whose key is in `drop`, at any depth.
pub fn normalise(v: &Value, drop: &[&str]) -> Value {
    match v {
        Value::Object(pairs) => Value::Object(
            pairs
                .iter()
                .filter(|(k, _)| !drop.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), normalise(v, drop)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(|v| normalise(v, drop)).collect()),
        other => other.clone(),
    }
}

/// Path of the first place two documents differ, `None` when equal.
fn first_diff(a: &Value, b: &Value) -> Option<String> {
    fn walk(a: &Value, b: &Value, path: &str) -> Option<String> {
        match (a, b) {
            (Value::Object(x), Value::Object(y)) => {
                for ((ka, va), (kb, vb)) in x.iter().zip(y) {
                    if ka != kb {
                        return Some(format!("{path}: key '{ka}' vs '{kb}'"));
                    }
                    if let Some(d) = walk(va, vb, &format!("{path}.{ka}")) {
                        return Some(d);
                    }
                }
                (x.len() != y.len()).then(|| format!("{path}: {} vs {} keys", x.len(), y.len()))
            }
            (Value::Array(x), Value::Array(y)) => {
                for (i, (va, vb)) in x.iter().zip(y).enumerate() {
                    if let Some(d) = walk(va, vb, &format!("{path}[{i}]")) {
                        return Some(d);
                    }
                }
                (x.len() != y.len()).then(|| format!("{path}: {} vs {} items", x.len(), y.len()))
            }
            (Value::Number(x), Value::Number(y)) if x.to_bits() == y.to_bits() => None,
            (a, b) if a == b && !matches!(a, Value::Number(_)) => None,
            (a, b) => Some(format!("{path}: {a:?} vs {b:?}")),
        }
    }
    walk(a, b, "$")
}

/// Checks two manifests are identical once `drop` is removed from both.
pub fn same_modulo(a: &Value, b: &Value, drop: &[&str]) -> Result<(), String> {
    match first_diff(&normalise(a, drop), &normalise(b, drop)) {
        None => Ok(()),
        Some(d) => Err(d),
    }
}

fn number(v: &Value, path: &[&str]) -> Result<f64, String> {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("manifest has no '{}'", path.join(".")))?;
    }
    cur.as_f64()
        .ok_or_else(|| format!("manifest '{}' is not a number", path.join(".")))
}

/// What a manifest says happened: the golden triple checked against
/// `expected.json`, plus the exact per-layer counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Facts {
    pub simulated_time_s: f64,
    pub messages: u64,
    pub bytes: u64,
    pub events: u64,
    pub flows: u64,
    pub sharing_resolves: u64,
    pub sharing_rate_updates: u64,
    pub live_entity_hwm: u64,
}

impl Facts {
    pub fn of(manifest: &Value) -> Result<Facts, String> {
        let count = |path: &[&str]| number(manifest, path).map(|n| n as u64);
        Ok(Facts {
            simulated_time_s: number(manifest, &["simulated_time_s"])?,
            messages: count(&["metrics", "replay", "messages"])?,
            bytes: count(&["metrics", "replay", "bytes"])?,
            events: count(&["metrics", "kernel", "events_processed"])?,
            flows: count(&["metrics", "network", "flows_created"])?,
            sharing_resolves: count(&["metrics", "network", "sharing_resolves"])?,
            sharing_rate_updates: count(&["metrics", "network", "sharing_rate_updates"])?,
            live_entity_hwm: count(&["metrics", "aggregation", "live_entity_hwm"])?,
        })
    }

    pub fn golden(&self) -> Golden {
        Golden {
            simulated_time_bits: self.simulated_time_s.to_bits(),
            messages: self.messages,
            bytes: self.bytes,
        }
    }
}

/// The checked-in part of [`Facts`]. Event counts are left out on
/// purpose: an exact optimisation may change them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Golden {
    pub simulated_time_bits: u64,
    pub messages: u64,
    pub bytes: u64,
}

impl Golden {
    pub fn to_json(self) -> String {
        format!(
            "{{\"simulated_time_bits\": \"{:#018x}\", \"messages\": {}, \"bytes\": {}}}",
            self.simulated_time_bits, self.messages, self.bytes
        )
    }

    fn from_value(v: &Value) -> Result<Golden, String> {
        let bits = v
            .get("simulated_time_bits")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
            .ok_or("expected entry needs a hex 'simulated_time_bits'")?;
        Ok(Golden {
            simulated_time_bits: bits,
            messages: number(v, &["messages"])? as u64,
            bytes: number(v, &["bytes"])? as u64,
        })
    }
}

/// `expected.json`: the seed it was recorded with and, per workload, one
/// golden per manifest the workload produces (eight for `serve.sweep`).
pub struct Expected {
    pub seed: u64,
    workloads: Vec<(String, Vec<Golden>)>,
}

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let v = parse(text)?;
        let seed = number(&v, &["seed"])? as u64;
        let mut workloads = Vec::new();
        for (name, list) in v
            .get("workloads")
            .and_then(Value::as_object)
            .ok_or("expected.json needs a 'workloads' object")?
        {
            let Value::Array(items) = list else {
                return Err(format!("expected.json: '{name}' must be an array"));
            };
            let goldens: Result<Vec<Golden>, String> =
                items.iter().map(Golden::from_value).collect();
            workloads.push((name.clone(), goldens?));
        }
        Ok(Expected { seed, workloads })
    }

    pub fn get(&self, workload: &str) -> Option<&[Golden]> {
        self.workloads
            .iter()
            .find(|(n, _)| n == workload)
            .map(|(_, g)| g.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = r#"{
      "tool": "titreplay 0.3.0",
      "trace_signature": "text:lu.txt:100 bytes,4 ranks",
      "config": {"engine": "Smpi", "threads": "1", "collective_agg": "false"},
      "simulated_time_s": 5.204477240924546,
      "wall_time_s": 1.884099302,
      "metrics": {
        "kernel": {"events_processed": 4389189, "queue_compactions": 9042},
        "replay": {"messages": 1096575, "bytes": 1763645400, "collectives": 256},
        "network": {"flows_created": 1096575, "sharing_resolves": 2193150, "sharing_rate_updates": 22814687},
        "aggregation": {"live_flow_hwm": 64, "live_entity_hwm": 60}
      }
    }"#;

    fn variant() -> String {
        A.replace("text:lu.txt:100 bytes", "titb:lu.titb:30 bytes")
            .replace("\"threads\": \"1\"", "\"threads\": \"2\"")
            .replace("1.884099302", "0.5")
    }

    #[test]
    fn normaliser_drops_named_fields_at_any_depth_and_nothing_else() {
        let n = normalise(&parse(A).unwrap(), DROP_VARIANT);
        assert!(n.get("wall_time_s").is_none());
        assert!(n.get("trace_signature").is_none());
        let config = n.get("config").unwrap();
        assert!(config.get("threads").is_none());
        assert_eq!(config.get("engine").and_then(Value::as_str), Some("Smpi"));
        assert_eq!(config.as_object().unwrap().len(), 2);
        assert!(n.get("simulated_time_s").is_some());
        assert_eq!(n.as_object().unwrap().len(), 4);
    }

    #[test]
    fn variants_compare_equal_only_modulo_their_fields() {
        let (a, b) = (parse(A).unwrap(), parse(&variant()).unwrap());
        assert_eq!(same_modulo(&a, &b, DROP_VARIANT), Ok(()));
        let err = same_modulo(&a, &b, DROP_WALL).unwrap_err();
        assert!(err.starts_with("$.trace_signature"), "{err}");
    }

    #[test]
    fn a_one_ulp_change_in_simulated_time_is_a_difference() {
        let a = parse(A).unwrap();
        let b = parse(&A.replace("5.204477240924546", "5.204477240924547")).unwrap();
        let err = same_modulo(&a, &b, DROP_VARIANT).unwrap_err();
        assert!(err.starts_with("$.simulated_time_s"), "{err}");
        let c = parse(&A.replace("\"collectives\": 256", "\"collectives\": 257")).unwrap();
        let err = same_modulo(&a, &c, DROP_VARIANT).unwrap_err();
        assert!(err.starts_with("$.metrics.replay.collectives"), "{err}");
        let d = parse(&A.replace(", \"collectives\": 256", "")).unwrap();
        assert!(same_modulo(&a, &d, DROP_VARIANT).is_err());
    }

    #[test]
    fn json_strings_round_trip_through_the_parser() {
        let text = "a \"quoted\" back\\slash\nnewline";
        let parsed = parse(&json_string(text)).unwrap();
        assert_eq!(parsed.as_str(), Some(text));
    }

    #[test]
    fn facts_and_goldens_round_trip() {
        let f = Facts::of(&parse(A).unwrap()).unwrap();
        assert_eq!(f.messages, 1096575);
        assert_eq!(f.bytes, 1763645400);
        assert_eq!(f.events, 4389189);
        assert_eq!((f.sharing_rate_updates, f.live_entity_hwm), (22814687, 60));
        let text = format!(
            "{{\"seed\": 1, \"workloads\": {{\"w\": [{}]}}}}",
            f.golden().to_json()
        );
        let e = Expected::parse(&text).unwrap();
        assert_eq!(e.seed, 1);
        assert_eq!(e.get("w"), Some(&[f.golden()][..]));
        assert_eq!(
            e.get("w").unwrap()[0].simulated_time_bits,
            5.204477240924546f64.to_bits()
        );
        assert!(e.get("other").is_none());
        assert!(Facts::of(&parse("{\"simulated_time_s\": 1}").unwrap()).is_err());
    }
}
