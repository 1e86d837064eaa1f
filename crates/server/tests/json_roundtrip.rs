//! Round-trip property tests for the hand-rolled JSON layer.
//!
//! The invariant under test is `parse ∘ write = id` on the [`Json`] value
//! tree: any tree the writer can emit must parse back bit-identically
//! (numbers compared via `f64::to_bits`, so `-0.0` and subnormals count).
//! The vendored proptest shim has no recursive strategies, so trees are
//! grown by a deterministic SplitMix64 generator seeded from a drawn `u64`.
//! The same generator mutates written documents (bit flips, truncation,
//! repeats, splices) to check that the parser fails cleanly, never panics.

use pathcost_server::json::{self, Json, MAX_DEPTH};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Deterministic value generator
// ---------------------------------------------------------------------------

struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A finite `f64`, biased toward values that stress shortest-form
    /// printing: exact integers, powers of ten, subnormals, and raw bit
    /// patterns (re-rolled until finite).
    fn number(&mut self) -> f64 {
        const EDGE: &[f64] = &[
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            0.1,
            5e-324,            // smallest positive subnormal
            f64::MIN_POSITIVE, // smallest positive normal
            f64::MAX,
            -f64::MAX,
            f64::EPSILON,
            1e300,
            -1e-300,
            9_007_199_254_740_992.0, // 2^53
            0.1 + 0.2,               // classic non-terminating binary fraction
            std::f64::consts::PI,
        ];
        match self.below(4) {
            0 => EDGE[self.below(EDGE.len() as u64) as usize],
            1 => self.next() as i32 as f64,
            2 => (self.next() as i64 as f64) / 1000.0,
            _ => loop {
                let candidate = f64::from_bits(self.next());
                if candidate.is_finite() {
                    break candidate;
                }
            },
        }
    }

    /// A string mixing ASCII, escapes, control characters, multi-byte
    /// UTF-8 and non-BMP scalars (which the parser accepts both raw and as
    /// surrogate-pair escapes).
    fn string(&mut self) -> String {
        const PALETTE: &[char] = &[
            'a',
            'Z',
            '0',
            ' ',
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{08}',
            '\u{0c}',
            '\u{00}',
            '\u{01}',
            '\u{1f}',
            'é',
            'ß',
            '中',
            '\u{2028}',
            '😀',
            '🚗',
            '\u{10FFFF}',
        ];
        let len = self.below(12) as usize;
        (0..len)
            .map(|_| PALETTE[self.below(PALETTE.len() as u64) as usize])
            .collect()
    }

    /// A JSON tree of depth at most `depth`.
    fn value(&mut self, depth: u32) -> Json {
        let leaf_only = depth == 0;
        match self.below(if leaf_only { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(self.next() & 1 == 0),
            2 => Json::Number(self.number()),
            3 => Json::String(self.string()),
            4 => {
                let n = self.below(4) as usize;
                Json::Array((0..n).map(|_| self.value(depth - 1)).collect())
            }
            _ => {
                let n = self.below(4) as usize;
                Json::Object(
                    (0..n)
                        .map(|_| (self.string(), self.value(depth - 1)))
                        .collect(),
                )
            }
        }
    }
}

/// Structural equality with bit-exact numbers (`PartialEq` on [`Json`] uses
/// `f64 ==`, which conflates `-0.0` with `0.0`).
fn eq_bits(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Null, Json::Null) => true,
        (Json::Bool(x), Json::Bool(y)) => x == y,
        (Json::Number(x), Json::Number(y)) => x.to_bits() == y.to_bits(),
        (Json::String(x), Json::String(y)) => x == y,
        (Json::Array(x), Json::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(l, r)| eq_bits(l, r))
        }
        (Json::Object(x), Json::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kl, vl), (kr, vr))| kl == kr && eq_bits(vl, vr))
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// parse(write(v)) reproduces v bit-identically for arbitrary trees.
    #[test]
    fn parse_inverts_write(seed in 0u64..u64::MAX, depth in 0u32..5) {
        let value = Gen::new(seed).value(depth);
        let wire = value.to_string();
        let reparsed = json::parse(wire.as_bytes())
            .unwrap_or_else(|e| panic!("writer output failed to parse: {e}\nwire: {wire}"));
        prop_assert!(
            eq_bits(&value, &reparsed),
            "round trip diverged\nwire: {wire}\nbefore: {value:?}\nafter: {reparsed:?}"
        );
    }

    /// The writer is a fixpoint: write(parse(write(v))) == write(v), so the
    /// wire form is canonical after one pass.
    #[test]
    fn write_is_idempotent_through_parse(seed in 0u64..u64::MAX) {
        let value = Gen::new(seed).value(4);
        let first = value.to_string();
        let second = json::parse(first.as_bytes()).expect("valid").to_string();
        prop_assert_eq!(&first, &second);
    }

    /// Every finite f64 survives the Number round trip bit-exactly
    /// (Rust's `{}` formatting is shortest-round-trip).
    #[test]
    fn numbers_round_trip_bit_exactly(bits in 0u64..u64::MAX) {
        let n = f64::from_bits(bits);
        prop_assume!(n.is_finite());
        let wire = Json::Number(n).to_string();
        let back = json::parse(wire.as_bytes()).expect("number parses");
        match back {
            Json::Number(m) => {
                prop_assert!(n.to_bits() == m.to_bits(), "bits diverged via wire: {}", wire)
            }
            other => prop_assert!(false, "expected number, got {:?} from {}", other, wire),
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned edge cases
// ---------------------------------------------------------------------------

#[test]
fn shortest_f64_edge_cases_round_trip() {
    for &n in &[
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        -f64::MAX,
        f64::EPSILON,
        -0.0,
        0.1 + 0.2,
        1e300,
        9_007_199_254_740_993.0, // 2^53 + 1 rounds to 2^53; still round-trips
    ] {
        let wire = Json::Number(n).to_string();
        let back = json::parse(wire.as_bytes()).expect("parses");
        assert!(
            matches!(back, Json::Number(m) if m.to_bits() == n.to_bits()),
            "{n:?} via {wire:?} -> {back:?}"
        );
    }
    // Negative zero keeps its sign through the wire form.
    assert_eq!(Json::Number(-0.0).to_string(), "-0");
}

#[test]
fn non_finite_numbers_write_as_null() {
    for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::Number(n).to_string(), "null");
    }
}

#[test]
fn surrogate_pair_escapes_decode_and_round_trip() {
    // 😀 is the surrogate pair for U+1F600 (grinning face);
    // the parser must combine the pair into one scalar.
    let parsed = json::parse(br#""\ud83d\ude00""#).expect("surrogate pair parses");
    assert_eq!(parsed, Json::String("\u{1F600}".to_string()));
    // The writer emits the scalar raw; re-parsing still matches.
    let wire = parsed.to_string();
    assert_eq!(wire, "\"\u{1F600}\"");
    assert_eq!(
        json::parse(wire.as_bytes()).expect("raw emoji parses"),
        parsed
    );

    // Highest scalar expressible via surrogates.
    let parsed = json::parse(br#""\udbff\udfff""#).expect("U+10FFFF parses");
    assert_eq!(parsed, Json::String("\u{10FFFF}".to_string()));

    // Lone high surrogate, lone low surrogate, and a high surrogate
    // followed by a non-surrogate escape are all malformed.
    assert!(json::parse(br#""\ud83d""#).is_err());
    assert!(json::parse(br#""\ude00""#).is_err());
    assert!(json::parse(br#""\ud83dA""#).is_err());
}

#[test]
fn control_characters_escape_and_round_trip() {
    let s: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
    let value = Json::String(s);
    let wire = value.to_string();
    // No raw control bytes on the wire.
    assert!(
        wire.bytes().all(|b| b >= 0x20),
        "raw control byte in {wire:?}"
    );
    assert_eq!(json::parse(wire.as_bytes()).expect("parses"), value);
    // Raw (unescaped) control characters are rejected by the parser.
    assert!(json::parse(b"\"\x01\"").is_err());
}

#[test]
fn depth_cap_boundary_is_exact() {
    let nest = |k: usize| format!("{}{}", "[".repeat(k), "]".repeat(k));
    // Find the first rejected nesting level.
    let boundary = (1..MAX_DEPTH * 2 + 4)
        .find(|&k| json::parse(nest(k).as_bytes()).is_err())
        .expect("a depth cap exists");
    assert!(
        boundary > MAX_DEPTH,
        "depth cap triggered at {boundary}, below MAX_DEPTH={MAX_DEPTH}"
    );
    assert!(json::parse(nest(boundary - 1).as_bytes()).is_ok());
    assert!(json::parse(nest(boundary).as_bytes()).is_err());

    // A writable tree at the deepest accepted level still round-trips.
    let mut deep = Json::Bool(true);
    for _ in 0..boundary - 2 {
        deep = Json::Array(vec![deep]);
    }
    let wire = deep.to_string();
    assert_eq!(
        json::parse(wire.as_bytes()).expect("deepest tree parses"),
        deep
    );

    // Objects hit the same cap. Their innermost `null` costs one extra
    // level versus an empty array, so the boundary sits one lower.
    let nest_obj = |k: usize| format!("{}null{}", "{\"k\":".repeat(k), "}".repeat(k));
    let obj_boundary = (1..MAX_DEPTH * 2 + 4)
        .find(|&k| json::parse(nest_obj(k).as_bytes()).is_err())
        .expect("a depth cap exists for objects");
    assert_eq!(obj_boundary, boundary - 1);
    assert!(json::parse(nest_obj(obj_boundary - 1).as_bytes()).is_ok());
}

// ---------------------------------------------------------------------------
// Mutated documents
// ---------------------------------------------------------------------------

/// One random edit of `doc`: a bit flip, a truncation, up to 64 repeats of
/// one of its slices (inflating nesting, digit runs and string lengths), or
/// a slice of `donor` spliced over one of its ranges.
fn mutate(gen: &mut Gen, mut doc: Vec<u8>, donor: &[u8]) -> Vec<u8> {
    let mut pick = |len: usize| gen.below(len as u64 + 1) as usize;
    match pick(3) {
        0 if !doc.is_empty() => {
            let at = pick(doc.len() - 1);
            doc[at] ^= 1 << pick(7);
        }
        1 => doc.truncate(pick(doc.len())),
        2 => {
            let start = pick(doc.len());
            let end = start + pick((doc.len() - start).min(32));
            let slice = doc[start..end].to_vec();
            let tail = doc.split_off(end);
            for _ in 0..=pick(63) {
                doc.extend_from_slice(&slice);
            }
            doc.extend(tail);
        }
        _ => {
            let (a, b) = (pick(donor.len()), pick(donor.len()));
            let at = pick(doc.len());
            let end = at + pick(doc.len() - at);
            doc.splice(at..end, donor[a.min(b)..a.max(b)].iter().copied());
        }
    }
    doc
}

/// `json::parse` answers `Ok` or `Err` on mutations of valid documents and
/// never panics. `JSON_MUTATION_ITERATIONS` selects a longer run.
#[test]
fn mutated_documents_parse_or_fail_without_panicking() {
    let iterations: u64 = std::env::var("JSON_MUTATION_ITERATIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let mut gen = Gen::new(0x6a73_6f6e_6d75_7461);
    for i in 0..iterations {
        let mut doc = gen.value(4).to_string().into_bytes();
        let donor = gen.value(3).to_string().into_bytes();
        for _ in 0..=gen.below(4) {
            doc = mutate(&mut gen, doc, &donor);
        }
        let outcome = std::panic::catch_unwind(|| json::parse(&doc).map(drop));
        assert!(
            outcome.is_ok(),
            "iteration {i}: parse panicked on {:?}",
            String::from_utf8_lossy(&doc)
        );
    }
}
