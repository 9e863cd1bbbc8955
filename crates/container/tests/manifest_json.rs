//! The manifest's JSON form is a stable document (`hfz inspect --json` wraps it), so it
//! is pinned byte for byte: key order, number formatting, `null` for absent fields and
//! string escaping.

use datasets::Dims;
use huffdec_container::{ManifestEntry, SnapshotManifest};
use huffdec_core::DecoderKind;

#[test]
fn manifest_json_is_pinned_byte_for_byte() {
    let manifest = SnapshotManifest::new(vec![
        ManifestEntry {
            name: "HACC".to_string(),
            offset: 0,
            length: 1234,
            decoder: DecoderKind::OptimizedGapArray,
            alphabet_size: 1024,
            num_symbols: 20_000,
            dims: Some(Dims::from_slice(&[4, 50, 100])),
            decoded_crc: Some(0xdead_beef),
        },
        ManifestEntry {
            name: "say \"hi\"\tnow".to_string(),
            offset: 1234,
            length: 99,
            decoder: DecoderKind::OptimizedSelfSync,
            alphabet_size: 256,
            num_symbols: 7,
            dims: None,
            decoded_crc: None,
        },
    ])
    .unwrap();
    assert_eq!(
        manifest.to_json(),
        concat!(
            r#"{"fields":2,"shard_bytes":1333,"entries":["#,
            r#"{"name":"HACC","offset":0,"length":1234,"decoder":"opt. gap-array","#,
            r#""decoder_tag":3,"alphabet_size":1024,"num_symbols":20000,"dims":[4,50,100],"#,
            r#""decoded_crc":3735928559},"#,
            r#"{"name":"say \"hi\"\tnow","offset":1234,"length":99,"decoder":"opt. self-sync","#,
            r#""decoder_tag":2,"alphabet_size":256,"num_symbols":7,"dims":null,"#,
            r#""decoded_crc":null}]}"#,
        )
    );
}
