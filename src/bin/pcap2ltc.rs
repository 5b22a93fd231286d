//! `pcap2ltc` — convert a pcap capture into a `.ltc` columnar corpus.
//!
//! ```text
//! pcap2ltc <in.pcap> [<out.ltc>] [--threads N] [--verify] [--quiet]
//! ```
//!
//! The output path defaults to the input with a `.ltc` extension. The
//! conversion streams: memory stays a few blocks whatever the capture's
//! length, and the corpus is renamed into place only once complete.
//! `--verify` re-reads the finished corpus and compares it record for
//! record against the source before reporting success.

use routing_loops::convert::{pcap_to_ltc, verify_ltc_against_pcap};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: pcap2ltc <in.pcap> [<out.ltc>] [options]

Converts a pcap capture to a .ltc columnar corpus (see DESIGN.md).
The corpus stores the decoded detector view — replica-key columns,
timestamps, TTLs and lengths — so later scans skip per-packet header
parsing; each record's replica fingerprint is derived as it is read.
The corpus is written to a temporary file beside <out.ltc> and renamed
into place once complete; an existing <out.ltc> that is not a regular
file is refused.

options:
  --threads N   1 (the default): decode and write on one thread;
                2 or more: decode the pcap on one thread while another
                encodes and writes the blocks (more gain nothing)
  --verify      re-read the finished corpus block by block and compare
                against a second decode of the source; fail loudly on
                any difference
  --quiet       suppress the summary line
  -h, --help    this text
";

struct Args {
    input: PathBuf,
    output: PathBuf,
    threads: usize,
    verify: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut input: Option<PathBuf> = None;
    let mut output: Option<PathBuf> = None;
    let mut threads = 1usize;
    let mut verify = false;
    let mut quiet = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--verify" => verify = true,
            "--quiet" => quiet = true,
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a value")?;
                threads = v
                    .parse::<usize>()
                    .map_err(|_| format!("--threads: not a number: {v}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option: {other}"));
            }
            path if input.is_none() => input = Some(PathBuf::from(path)),
            path if output.is_none() => output = Some(PathBuf::from(path)),
            extra => return Err(format!("unexpected argument: {extra}")),
        }
    }
    let input = input.ok_or("missing input pcap path")?;
    let output = output.unwrap_or_else(|| input.with_extension("ltc"));
    Ok(Args {
        input,
        output,
        threads,
        verify,
        quiet,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("pcap2ltc: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.input == args.output {
        eprintln!("pcap2ltc: input and output are the same file");
        return ExitCode::from(2);
    }
    let started = std::time::Instant::now();
    let (records, skipped) = match pcap_to_ltc(&args.input, &args.output, args.threads) {
        Ok(counts) => counts,
        Err(e) => {
            eprintln!("pcap2ltc: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.verify {
        if let Err(e) = verify_ltc_against_pcap(&args.output, &args.input) {
            eprintln!("pcap2ltc: {e}");
            return ExitCode::FAILURE;
        }
    }
    if !args.quiet {
        // Self-documenting CI logs: how much was converted and how fast.
        let secs = started.elapsed().as_secs_f64();
        let out_bytes = std::fs::metadata(&args.output).map_or(0, |m| m.len());
        let rate = if secs > 0.0 {
            records as f64 / secs
        } else {
            0.0
        };
        eprintln!(
            "pcap2ltc: {} -> {}: {records} records, {skipped} skipped{}; {:.1} MB in {secs:.3} s ({:.0} records/s)",
            args.input.display(),
            args.output.display(),
            if args.verify { ", verified" } else { "" },
            out_bytes as f64 / 1e6,
            rate,
        );
    }
    ExitCode::SUCCESS
}
