//! Property tests for the JSON codec: arbitrary values (integers over the
//! whole `u64` range) round-trip exactly through the pretty serialization;
//! the parser never panics.

use emlio_util::json::Json;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn json_strategy() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        any::<u64>().prop_map(Json::Uint),
        "[a-zA-Z0-9 _\\-\\\\\"\n\t\u{00e9}\u{4e2d}]{0,32}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 48, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            proptest::collection::btree_map("[a-z]{1,8}", inner, 0..6)
                .prop_map(|m: BTreeMap<String, Json>| Json::Obj(m)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pretty_roundtrip_is_exact(v in json_strategy()) {
        let back = Json::parse(&v.to_string_pretty()).unwrap();
        prop_assert_eq!(&back, &v);
    }

    #[test]
    fn parser_never_panics(s in "\\PC{0,128}") {
        let _ = Json::parse(&s);
    }

    #[test]
    fn parser_never_panics_on_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        if let Ok(s) = std::str::from_utf8(&bytes) {
            let _ = Json::parse(s);
        }
    }
}
