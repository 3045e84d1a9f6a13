//! The NDJSON line encoder shared by [`crate::EventTracer`] and
//! [`crate::SpanTracer`]: appends flat JSON objects of integer and string
//! fields to a byte buffer without going through `core::fmt`.
//!
//! Every line opens with the `schema_version` field, so each further
//! field is written with its leading comma:
//!
//! ```text
//! open()            {"schema_version":1
//! num("seq", 7)     ,"seq":7
//! lit("ev", "x")    ,"ev":"x"
//! close()           }\n
//! ```

use crate::event::SCHEMA_VERSION;

/// Two-digit decimal pairs `"00"`..`"99"`, for encoding integers two
/// digits per step.
const PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// A growing buffer of NDJSON lines. See the module doc for the calls
/// that build one line.
#[derive(Debug, Default)]
pub(crate) struct LineWriter {
    buf: Vec<u8>,
}

impl LineWriter {
    /// Starts a line: `{"schema_version":N`.
    pub(crate) fn open(&mut self) -> &mut Self {
        self.buf.extend_from_slice(b"{\"schema_version\":");
        self.digits(u64::from(SCHEMA_VERSION));
        self
    }

    /// Appends `,"key":v`.
    pub(crate) fn num(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        self.digits(v);
        self
    }

    /// Appends `,"key":"v"` for a value that needs no escaping (the
    /// schema's fixed event and outcome names).
    pub(crate) fn lit(&mut self, key: &str, v: &str) -> &mut Self {
        debug_assert!(!v.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20));
        self.key(key);
        self.buf.push(b'"');
        self.buf.extend_from_slice(v.as_bytes());
        self.buf.push(b'"');
        self
    }

    /// Appends `,"key":"v"` with `v` escaped as a JSON string.
    pub(crate) fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        self.buf.push(b'"');
        for &b in v.as_bytes() {
            match b {
                b'"' => self.buf.extend_from_slice(b"\\\""),
                b'\\' => self.buf.extend_from_slice(b"\\\\"),
                b'\n' => self.buf.extend_from_slice(b"\\n"),
                b'\r' => self.buf.extend_from_slice(b"\\r"),
                b'\t' => self.buf.extend_from_slice(b"\\t"),
                b if b < 0x20 => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    self.buf.extend_from_slice(b"\\u00");
                    self.buf.push(HEX[usize::from(b >> 4)]);
                    self.buf.push(HEX[usize::from(b & 0xf)]);
                }
                // Multi-byte UTF-8 sequences pass through byte by byte.
                b => self.buf.push(b),
            }
        }
        self.buf.push(b'"');
        self
    }

    /// Appends the `cell` header line that starts one sweep cell's stream.
    pub(crate) fn cell_header(&mut self, index: usize, label: &str) {
        self.open()
            .lit("ev", "cell")
            .num("cell", index as u64)
            .str("label", label)
            .close();
    }

    /// Ends the line: `}` and a newline.
    pub(crate) fn close(&mut self) {
        self.buf.extend_from_slice(b"}\n");
    }

    /// Takes the accumulated text, leaving the writer empty.
    pub(crate) fn take(&mut self) -> String {
        String::from_utf8(std::mem::take(&mut self.buf))
            .expect("the encoder copies UTF-8 input and emits ASCII otherwise")
    }

    fn key(&mut self, key: &str) {
        self.buf.extend_from_slice(b",\"");
        self.buf.extend_from_slice(key.as_bytes());
        self.buf.extend_from_slice(b"\":");
    }

    /// Appends `v` in decimal, exactly as `format!("{v}")` renders it.
    fn digits(&mut self, mut v: u64) {
        let mut tmp = [0u8; 20];
        let mut i = tmp.len();
        while v >= 100 {
            let d = (v % 100) as usize * 2;
            v /= 100;
            i -= 2;
            tmp[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
        }
        if v >= 10 {
            let d = v as usize * 2;
            i -= 2;
            tmp[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
        } else {
            i -= 1;
            tmp[i] = b'0' + v as u8;
        }
        self.buf.extend_from_slice(&tmp[i..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcw_sim::rng::Rng;

    fn num_line(v: u64) -> String {
        let mut w = LineWriter::default();
        w.open().num("v", v).close();
        w.take()
    }

    #[test]
    fn integers_match_format() {
        let mut rng = Rng::new(0x6e64_6a73);
        let mut values = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
        for _ in 0..10_000 {
            // Spread the sweep over every magnitude, not just 20-digit ones.
            let v = rng.next_u64();
            values.push(v >> (v % 64));
        }
        for v in values {
            assert_eq!(
                num_line(v),
                format!("{{\"schema_version\":{SCHEMA_VERSION},\"v\":{v}}}\n")
            );
        }
    }

    #[test]
    fn strings_are_escaped_like_json() {
        let mut w = LineWriter::default();
        w.open()
            .lit("ev", "cell")
            .str("label", "a\"b\\c\nd\re\tf\u{1}g \u{e9}\u{1f600}")
            .close();
        assert_eq!(
            w.take(),
            "{\"schema_version\":1,\"ev\":\"cell\",\
             \"label\":\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g \u{e9}\u{1f600}\"}\n"
        );
    }
}
