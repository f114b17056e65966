//! The JSON writer and parser agree, and the parser never panics.
//!
//! * Any value the writer emits parses back equal: strings with control
//!   characters, quotes and non-ASCII text, nested arrays and objects,
//!   every `f64` bit pattern — a non-finite one reads back as `null`.
//! * Seeded mutations of valid documents (byte flips, insertions,
//!   deletions, truncations) parse to `Ok` or `Err`, never a panic; every
//!   strict prefix of a document is an `Err`.
//! * Input RFC 8259 rejects is an `Err`: numbers off its grammar, `\u`
//!   escapes without four hex digits, raw control characters in strings.

use proptest::prelude::*;
use ptrider_core::json::{self, Json};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const PIECES: [&str; 9] = [
    "",
    "plain",
    "q\"uote",
    "back\\slash",
    "\u{0}\u{1f}\n\r\t\u{8}\u{c}",
    "/",
    "é",
    "中文",
    "😀",
];

fn text(rng: &mut ChaCha8Rng) -> String {
    let mut s = String::new();
    for _ in 0..rng.gen_range(0..4) {
        s.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
        // Any scalar value, surrogates excluded by `from_u32`.
        s.extend(char::from_u32(rng.gen_range(0..0x11_0000u32)));
    }
    s
}

fn number(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0..5) {
        0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][rng.gen_range(0..4usize)],
        1 => f64::from_bits(rng.gen()),
        2 => rng.gen_range(0..u64::MAX) as f64,
        3 => (rng.gen_range(0..2_000_000u32) as f64 - 1e6) / 64.0,
        _ => rng.gen::<f64>(),
    }
}

fn value(rng: &mut ChaCha8Rng, depth: u32) -> Json {
    let len = |rng: &mut ChaCha8Rng| rng.gen_range(0..4);
    match rng.gen_range(0..if depth < 4 { 6 } else { 4 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => Json::Num(number(rng)),
        3 => Json::Str(text(rng)),
        4 => Json::Arr((0..len(rng)).map(|_| value(rng, depth + 1)).collect()),
        _ => Json::Obj(
            (0..len(rng))
                .map(|_| (text(rng), value(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// What a value reads back as: JSON has no NaN or infinity.
fn written(v: &Json) -> Json {
    match v {
        Json::Num(n) if !n.is_finite() => Json::Null,
        Json::Arr(items) => Json::Arr(items.iter().map(written).collect()),
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .map(|(k, v)| (k.clone(), written(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

fn render(v: &Json) -> String {
    json::object(|o| {
        o.field("v", v);
    })
}

#[test]
fn the_parser_takes_rfc_8259_json_only() {
    for bad in [
        "01",
        "+1",
        "1.",
        ".5",
        "-",
        "1e",
        "\"\\u+041\"",
        "\"a\u{1}b\"",
    ] {
        assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
    }
    for (good, n) in [("0", 0.0), ("-0.5", -0.5), ("1e-7", 1e-7), ("2E+3", 2e3)] {
        assert_eq!(Json::parse(good), Ok(Json::Num(n)), "{good:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn every_written_value_parses_back_equal(seed in 0u64..u64::MAX) {
        let v = value(&mut ChaCha8Rng::seed_from_u64(seed), 0);
        let body = render(&v);
        let parsed = Json::parse(&body).map_err(|e| TestCaseError::fail(format!("{e}: {body}")))?;
        prop_assert_eq!(parsed.get("v"), Some(&written(&v)), "{}", body);
    }

    #[test]
    fn mutated_documents_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut doc = render(&value(&mut rng, 0)).into_bytes();
        let alphabet = b"{}[]\",:\\-+.eE0123456789tfnu \xc3\xa9\xff";
        for _ in 0..rng.gen_range(1..4) {
            let at = rng.gen_range(0..doc.len() + 1);
            let byte = alphabet[rng.gen_range(0..alphabet.len())];
            match rng.gen_range(0..3) {
                0 if at < doc.len() => doc[at] = byte,
                1 if at < doc.len() => {
                    doc.remove(at);
                }
                _ => doc.insert(at, byte),
            }
        }
        let text = String::from_utf8_lossy(&doc);
        let outcome = std::panic::catch_unwind(|| Json::parse(&text).is_ok());
        prop_assert!(outcome.is_ok(), "Json::parse panicked on {:?}", text);
    }

    #[test]
    fn every_strict_prefix_is_an_error(seed in 0u64..u64::MAX) {
        let body = render(&value(&mut ChaCha8Rng::seed_from_u64(seed), 0));
        for (end, _) in body.char_indices() {
            prop_assert!(Json::parse(&body[..end]).is_err(), "{:?} parsed", &body[..end]);
        }
    }
}
