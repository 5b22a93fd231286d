//! `bench-e2e` — the in-process half of the end-to-end benchmark
//! (`bench_e2e/run.py` runs it; nothing else does).
//!
//! ```text
//! bench-e2e gen    --kind offline|monitor --seed N --size full|tiny --dir D
//! bench-e2e gen-id --kind offline|monitor --size full|tiny
//! bench-e2e setup  --workload W --dir D
//! bench-e2e lag    --dir D
//! bench-e2e trace  --workload W --dir D --out FILE
//! ```
//!
//! Each subcommand prints one JSON object on stdout and exits 0, or
//! prints an error on stderr and exits 1. `lag` replays the links of a
//! `monitor_links` input. `trace` names in `failures` every check its
//! run did not pass, so the caller counts the run as failed.

mod gen;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use workloads::{Res, Workload};

struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Res<Self> {
        let mut m = BTreeMap::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {k:?}"))?;
            let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
            m.insert(key.to_string(), v.clone());
        }
        Ok(Self(m))
    }

    fn str(&self, k: &str) -> Res<&str> {
        self.0
            .get(k)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{k}"))
    }

    fn num<T: std::str::FromStr>(&self, k: &str) -> Res<T> {
        let v = self.str(k)?;
        v.parse().map_err(|_| format!("--{k}: not a number: {v:?}"))
    }

    fn dir(&self) -> Res<PathBuf> {
        Ok(PathBuf::from(self.str("dir")?))
    }

    fn workload(&self) -> Res<Workload> {
        Workload::parse(self.str("workload")?)
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_list(values: &[f64]) -> String {
    let list: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", list.join(","))
}

fn run(args: &[String]) -> Res<String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let f = Flags::parse(rest)?;
    match cmd.as_str() {
        "gen" => {
            let size = gen::Size::parse(f.str("size")?)?;
            gen::generate(f.str("kind")?, f.num("seed")?, size, &f.dir()?)?;
            Ok("{}".into())
        }
        "gen-id" => {
            let size = gen::Size::parse(f.str("size")?)?;
            Ok(format!(
                "{{\"id\":\"{:016x}\"}}",
                gen::fingerprint(f.str("kind")?, size)?
            ))
        }
        "setup" => {
            let samples = workloads::setup(f.workload()?, &f.dir()?)?;
            Ok(format!("{{\"samples\":{}}}", json_list(&samples)))
        }
        "lag" => {
            let lags = workloads::monitor_lags(&f.dir()?)?;
            Ok(format!(
                "{{\"tail_events\":{},\"samples\":{}}}",
                lags.tail_events,
                json_list(&lags.samples)
            ))
        }
        "trace" => {
            let (m, failures) =
                workloads::traced(f.workload()?, &f.dir()?, &PathBuf::from(f.str("out")?))?;
            let body: Vec<String> = workloads::LAYER_METRICS
                .iter()
                .map(|k| format!("\"{k}\":{}", json_num(m[k])))
                .collect();
            let failures: Vec<String> = failures.iter().map(|e| format!("{e:?}")).collect();
            Ok(format!(
                "{{\"failures\":[{}],\"metrics\":{{{}}}}}",
                failures.join(","),
                body.join(",")
            ))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            std::process::exit(1);
        }
    }
}
