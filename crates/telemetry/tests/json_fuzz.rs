//! A fixed-seed mutation fuzz of [`telemetry::json::validate`], the parser
//! behind `validate_telemetry` and the observability smoke step.
//!
//! The seeds are real documents from the exporters: a registry snapshot, a
//! sampler sample line and a Chrome trace. Each mutant (bit flips,
//! truncations, deleted and repeated spans, inserted structural bytes,
//! broken escapes and numbers, nesting past the depth cap) must return
//! `Ok` or `Err` without a panic, and every unmutated document must
//! validate. The file holds one test that runs by default and one, with a
//! larger budget, that runs only when asked for (`scripts/check.sh` runs
//! it in release).

use proptest::test_runner::TestRng;
use telemetry::export::Sample;
use telemetry::trace::{self, TraceName};
use telemetry::Registry;

/// The three kinds of document the validator checks in practice.
fn documents() -> Vec<String> {
    static REGISTRY: Registry = Registry::new();
    REGISTRY.counter("fuzz.records").add(485_257);
    REGISTRY.gauge("fuzz.depth").set(-3);
    REGISTRY.timer("fuzz.stage").record(1_500);
    REGISTRY.histogram("fuzz.lag_ms").record(17);
    let before = REGISTRY.snapshot();
    REGISTRY.counter("fuzz.records").add(12);
    REGISTRY.timer("fuzz.stage").record(250);
    let after = REGISTRY.snapshot();
    let sample = Sample::between(Some(&before), &after, 7, 1_754_650_000_123, 2_000, 1_000);

    static OUTER: TraceName = TraceName::new("fuzz.outer \"quoted\"");
    static INNER: TraceName = TraceName::new("fuzz.inner");
    trace::enable(256);
    {
        let _outer = trace::span(&OUTER);
        let _inner = trace::span(&INNER);
        trace::instant(&INNER);
        trace::counter(&OUTER, 42);
    }
    trace::disable();
    let mut chrome = Vec::new();
    trace::write_chrome_trace(&mut chrome).unwrap();

    vec![
        after.to_json(),
        sample.to_json(),
        String::from_utf8(chrome).unwrap(),
    ]
}

/// A mutant of `doc`, and what was done to it.
fn mutate(doc: &[u8], kind: u64, rng: &mut TestRng) -> (Vec<u8>, String) {
    let mut bytes = doc.to_vec();
    let at = |rng: &mut TestRng, len: usize| rng.below(len as u64 + 1) as usize;
    let what = match kind {
        0 => {
            let i = at(rng, bytes.len() - 1);
            bytes[i] ^= 1 << rng.below(8);
            format!("bit flip at {i}")
        }
        1 => {
            let cut = at(rng, bytes.len());
            bytes.truncate(cut);
            format!("truncated to {cut}")
        }
        2 => {
            let from = at(rng, bytes.len());
            let to = (from + 1 + rng.below(16) as usize).min(bytes.len());
            bytes.drain(from..to);
            format!("deleted {from}..{to}")
        }
        3 => {
            let from = at(rng, bytes.len());
            let to = (from + rng.below(64) as usize).min(bytes.len());
            let span = bytes[from..to].to_vec();
            let into = at(rng, bytes.len());
            bytes.splice(into..into, span);
            format!("repeated {from}..{to} at {into}")
        }
        4 => {
            let b = b"{}[]\",:\\ \x01"[rng.below(10) as usize];
            let i = at(rng, bytes.len());
            bytes.insert(i, b);
            format!("inserted {b:#04x} at {i}")
        }
        5 => {
            let bits = [
                &b"\\u12G4"[..],
                b"\\x",
                b"\\",
                b"-",
                b"0",
                b"1e",
                b".",
                b"e+",
            ];
            let piece = bits[rng.below(bits.len() as u64) as usize];
            let i = at(rng, bytes.len());
            bytes.splice(i..i, piece.iter().copied());
            format!("inserted {:?} at {i}", String::from_utf8_lossy(piece))
        }
        6 => {
            // Past the validator's 128-level cap, or just inside it.
            let depth = 120 + rng.below(200) as usize;
            let open = if rng.below(2) == 0 { b'[' } else { b'{' };
            let mut nested = vec![open; depth];
            if open == b'{' {
                nested = b"{\"k\":".repeat(depth);
            }
            nested.extend_from_slice(&bytes);
            nested.extend(std::iter::repeat_n(
                if open == b'[' { b']' } else { b'}' },
                depth,
            ));
            bytes = nested;
            format!("nested {depth} deep in {}", open as char)
        }
        _ => {
            let (i, j) = (at(rng, bytes.len() - 1), at(rng, bytes.len() - 1));
            bytes.swap(i, j);
            format!("swapped {i} and {j}")
        }
    };
    (bytes, what)
}

/// Validates `cases` mutants of the documents from `seed`, every kind in
/// turn.
fn fuzz(seed: u64, cases: u64) {
    let docs = documents();
    for doc in &docs {
        telemetry::json::validate(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    }
    let mut rng = TestRng::from_seed(seed);
    let (mut ok, mut refused) = (0, 0);
    for case in 0..cases {
        let doc = &docs[(case % docs.len() as u64) as usize];
        let (bytes, what) = mutate(doc.as_bytes(), case % 8, &mut rng);
        let text = String::from_utf8_lossy(&bytes);
        // A panic here fails the test with the mutant named.
        let verdict = std::panic::catch_unwind(|| telemetry::json::validate(&text));
        match verdict {
            Ok(Ok(())) => ok += 1,
            Ok(Err(_)) => refused += 1,
            Err(_) => panic!("mutant {case} ({what}) panicked the validator: {text}"),
        }
    }
    // The fuzz must exercise both verdicts.
    assert!(refused > 0 && ok > 0, "{ok} accepted, {refused} refused");
}

/// Mutants per default run: five of each kind.
const CASES: u64 = 40;

#[test]
fn mutated_documents_never_panic_the_validator() {
    fuzz(0x75f0_0001, CASES);
}

/// The larger budget `scripts/check.sh` runs in release.
#[test]
#[ignore = "larger budget; scripts/check.sh runs it in release"]
fn mutated_documents_never_panic_the_validator_at_a_larger_budget() {
    fuzz(0x75f0_0002, 500 * CASES);
}
