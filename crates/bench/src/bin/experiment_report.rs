//! Consolidates all JSON records under `target/experiments/` into one
//! summary table — run after `figs` (or any subset of its entries).

use serde_json::Value;
use std::fs;
use std::path::Path;

fn main() {
    let dir = Path::new("target/experiments");
    if !dir.is_dir() {
        eprintln!("no target/experiments/ directory; run the figs binary first");
        std::process::exit(1);
    }
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("listable directory")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    println!("experiment records ({}):\n", names.len());
    for name in names {
        let path = dir.join(&name);
        let body = match fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) => {
                println!("  {name:<18} unreadable: {e}");
                continue;
            }
        };
        let v: Value = match serde_json::from_str(&body) {
            Ok(v) => v,
            Err(e) => {
                println!("  {name:<18} invalid JSON: {e}");
                continue;
            }
        };
        println!("  {:<18} {}", name.trim_end_matches(".json"), summarize(&v));
    }
}

/// One-line gist of a record: the headline numeric fields it carries.
fn summarize(v: &Value) -> String {
    match v {
        Value::Object(map) => {
            let mut parts = Vec::new();
            for (k, val) in map.iter().take(4) {
                match val {
                    Value::Number(n) => parts.push(format!("{k}={n:.4}")),
                    Value::Array(a) => parts.push(format!("{k}[{}]", a.len())),
                    Value::Object(o) => parts.push(format!("{k}{{{}}}", o.len())),
                    other => parts.push(format!("{k}={other}")),
                }
            }
            parts.join("  ")
        }
        other => other.to_string(),
    }
}
