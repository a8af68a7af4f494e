//! A minimal hand-rolled JSON parser (DESIGN.md §6 keeps serde out of the
//! tree). It reads back the workspace's own exports — metrics sidecars and
//! Chrome trace files — so it implements the full grammar but optimizes for
//! nothing: one recursive descent, numbers as `f64`, objects as ordered
//! key/value vectors.
//!
//! The reports over metrics documents (`trace-report --bottleneck`,
//! `--forensics`, `--whatif`) read them strictly, through [`records`],
//! `report` and the `*_at` accessors: a member the writer always emits is
//! required, and its absence is an error naming the record and the path
//! (`scale.records[etcd-n64].util.leader: missing`), never a default.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish int from float).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64` (floor), if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The member at the dotted `path` (`"leader.egress_util_pct"`). The
    /// error names the path as far as it got: `"leader: missing"`,
    /// `"leader: not an object"`.
    pub fn at(&self, path: &str) -> Result<&Value, String> {
        let mut cur = self;
        let mut end = 0;
        for key in path.split('.') {
            if end > 0 && !matches!(cur, Value::Obj(_)) {
                return Err(format!("{}: not an object", &path[..end - 1]));
            }
            end += key.len() + 1;
            cur = cur
                .get(key)
                .ok_or_else(|| format!("{}: missing", &path[..end - 1]))?;
        }
        Ok(cur)
    }

    fn typed<'a, T>(
        &'a self,
        path: &str,
        what: &str,
        view: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        view(self.at(path)?).ok_or_else(|| format!("{path}: not {what}"))
    }

    /// [`Value::at`], as a number.
    pub fn f64_at(&self, path: &str) -> Result<f64, String> {
        self.typed(path, "a number", Value::as_f64)
    }

    /// [`Value::at`], as a non-negative number (floor).
    pub fn u64_at(&self, path: &str) -> Result<u64, String> {
        self.typed(path, "a non-negative number", Value::as_u64)
    }

    /// [`Value::at`], as a string.
    pub fn str_at(&self, path: &str) -> Result<&str, String> {
        self.typed(path, "a string", Value::as_str)
    }

    /// [`Value::at`], as a boolean.
    pub fn bool_at(&self, path: &str) -> Result<bool, String> {
        self.typed(path, "a boolean", |v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// [`Value::at`], as an array.
    pub fn array_at(&self, path: &str) -> Result<&[Value], String> {
        self.typed(path, "an array", Value::as_array)
    }

    /// `read` applied to every element of the array at `path`; an error
    /// names the element (`"outliers[3].blame_ns: missing"`).
    pub fn map_at<'a, T>(
        &'a self,
        path: &str,
        mut read: impl FnMut(&'a Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = self.array_at(path)?;
        (items.iter().enumerate())
            .map(|(i, v)| read(v).map_err(|e| format!("{path}[{i}].{e}")))
            .collect()
    }
}

/// Prefix an error read inside `member` with the member's name
/// (`"leader: missing"` read from `util` is `"util.leader: missing"`).
pub(crate) fn under<T>(member: &str, read: Result<T, String>) -> Result<T, String> {
    read.map_err(|e| format!("{member}.{e}"))
}

/// One record of a metrics document: a `records` entry of a `--metrics-out`
/// sidecar, or a `records` entry of one of a `paper` document's sections.
pub struct Record<'a> {
    /// Where the record sits, for errors: `records[acuerdo-seed17]`,
    /// `fig9.records[acuerdo_n3]`.
    pub at: String,
    /// The record's `label`.
    pub label: &'a str,
    /// The record's `system`.
    pub system: &'a str,
    /// The record's `nodes`.
    pub nodes: u64,
    /// The whole record.
    pub value: &'a Value,
    /// The member the record was selected for.
    pub member: &'a Value,
}

/// Every record of `doc` that carries `member`, with its required `label`,
/// `system` and `nodes`. The records are the document's `records` array
/// or, failing that, the `records` arrays of its top-level sections in
/// document order (a `paper` document's `fig8`, `fig9`, …). `Err` when
/// the document has none of these, or a selected record lacks one of the
/// three (naming the record and the member); `Ok` and empty when no record
/// carries `member`. This is the only reader of a metrics document's record
/// array.
pub fn records<'a>(doc: &'a Value, member: &str) -> Result<Vec<Record<'a>>, String> {
    let top = doc.get("records").map(|r| ("records".to_string(), r));
    let sections = || match doc {
        Value::Obj(kv) => (kv.iter())
            .filter_map(|(k, v)| Some((format!("{k}.records"), v.get("records")?)))
            .collect(),
        _ => Vec::new(),
    };
    let arrays = top.map_or_else(sections, |top| vec![top]);
    if arrays.is_empty() {
        return Err("no \"records\" array".to_string());
    }
    let mut out = Vec::new();
    for (key, arr) in arrays {
        let arr = arr
            .as_array()
            .ok_or_else(|| format!("{key}: not an array"))?;
        for (i, value) in arr.iter().enumerate() {
            let Some(m) = value.get(member) else { continue };
            let label = under(&format!("{key}[{i}]"), value.str_at("label"))?;
            let at = format!("{key}[{label}]");
            out.push(Record {
                system: under(&at, value.str_at("system"))?,
                nodes: under(&at, value.u64_at("nodes"))?,
                at,
                label,
                value,
                member: m,
            });
        }
    }
    Ok(out)
}

/// The one frame every metrics-document report renders through: a
/// `== label (system, n=N) ==` block per record carrying `member`, then
/// the `heading:` section with each record's greppable headline lines.
/// `block` and `headlines` read the record strictly; their first error,
/// prefixed with the record's place, is the report's. A document in which
/// no record carries `member` is refused as predating `layer`.
pub(crate) fn report(
    doc: &Value,
    member: &str,
    layer: &str,
    heading: &str,
    block: impl Fn(&Record) -> Result<String, String>,
    headlines: impl Fn(&Record) -> Result<String, String>,
) -> Result<String, String> {
    let records = records(doc, member)?;
    if records.is_empty() {
        return Err(format!(
            "no \"{member}\" members found — document predates {layer}"
        ));
    }
    let mut out = String::new();
    for r in &records {
        let body = under(&r.at, block(r))?;
        out.push_str(&format!(
            "== {} ({}, n={}) ==\n{body}\n",
            r.label, r.system, r.nodes
        ));
    }
    out.push_str(&format!("{heading}:\n"));
    for r in &records {
        out.push_str(&under(&r.at, headlines(r))?);
    }
    Ok(out)
}

/// Read and parse one JSON document from a file, tagging errors with the
/// path (shared by `bench-diff`, `trace-report`, and the tests — every
/// consumer of our own exports goes through this one reader).
pub fn read_doc(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.i)
    }

    fn ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut kv = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(kv));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            kv.push((k, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(kv));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: JSON escapes astral characters
                            // as two \u units.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.b[self.i..].starts_with(b"\\u") {
                                    self.i += 2;
                                    let lo = self.hex4()?;
                                    let c =
                                        0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("bad escape character")),
                    }
                }
                _ if c < 0x80 => out.push(c as char),
                _ => {
                    // Multibyte: slice exactly one UTF-8 character (width
                    // from the leading byte), never the whole remaining
                    // input — that would make parsing quadratic.
                    let start = self.i - 1;
                    let width = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid utf-8")),
                    };
                    let end = start + width;
                    if end > self.b.len() {
                        return Err(self.err("invalid utf-8"));
                    }
                    let s = std::str::from_utf8(&self.b[start..end])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.i = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.i + 4 > self.b.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.b[self.i..self.i + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.i += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
                self.i += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), Value::Num(-1250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"x"}],"c":{"d":null}}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".into()));
        // Surrogate pair for U+1F600.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("\u{1F600}".into())
        );
        // Raw multibyte characters pass through.
        assert_eq!(parse("\"héllo\"").unwrap(), Value::Str("héllo".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn truncated_documents_report_the_byte_offset() {
        // Cutting a realistic sidecar anywhere must yield a located error,
        // never a panic or a silent partial value.
        let full = "{\"bench\":\"suite\",\"seed\":42,\"records\":[{\"label\":\"a\"}]}";
        for cut in [1, 9, full.len() - 10, full.len() - 1] {
            let err = parse(&full[..cut]).unwrap_err();
            assert!(err.starts_with("json error at byte"), "cut {cut}: {err}");
        }
        // read_doc tags the path so the operator knows which sidecar broke.
        let path = std::env::temp_dir().join("bench-json-truncated-test.json");
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let err = read_doc(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("bench-json-truncated-test.json"), "{err}");
        assert!(err.contains("json error at byte"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_typed_accessors_return_none_not_panic() {
        let v = parse("{\"seed\":\"not-a-number\",\"runs\":7}").unwrap();
        assert_eq!(v.get("seed").unwrap().as_f64(), None);
        assert_eq!(v.get("seed").unwrap().as_u64(), None);
        assert_eq!(v.get("runs").unwrap().as_array(), None);
        assert_eq!(v.get("runs").unwrap().as_str(), None);
        // Negative numbers refuse the unsigned view.
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn at_walks_a_dotted_path_and_names_where_it_stopped() {
        let v = parse(r#"{"a":{"b":{"c":3,"s":"x"},"n":null,"xs":[1,{"k":2}]}}"#).unwrap();
        assert_eq!(v.at("a.b.c"), Ok(&Value::Num(3.0)));
        assert_eq!(v.u64_at("a.b.c"), Ok(3));
        assert_eq!(v.f64_at("a.b.c"), Ok(3.0));
        assert_eq!(v.str_at("a.b.s"), Ok("x"));
        assert_eq!(v.at("a.n"), Ok(&Value::Null));
        assert_eq!(v.at("a.q.c").unwrap_err(), "a.q: missing");
        assert_eq!(v.at("a.b.q").unwrap_err(), "a.b.q: missing");
        assert_eq!(v.at("a.b.c.d").unwrap_err(), "a.b.c: not an object");
        assert_eq!(v.f64_at("a.b.s").unwrap_err(), "a.b.s: not a number");
        assert_eq!(v.str_at("a.b.c").unwrap_err(), "a.b.c: not a string");
        assert_eq!(v.array_at("a.b").unwrap_err(), "a.b: not an array");
        assert_eq!(
            v.u64_at("a.n").unwrap_err(),
            "a.n: not a non-negative number"
        );
        assert_eq!(
            v.map_at("a.xs", |x| x.u64_at("k")).unwrap_err(),
            "a.xs[0].k: missing"
        );
        assert_eq!(
            v.at("a.xs").unwrap().as_array().unwrap()[1].u64_at("k"),
            Ok(2)
        );
    }

    #[test]
    fn records_select_by_member_and_require_label_system_nodes() {
        let doc =
            parse(r#"{"records":[{"label":"a","system":"s","nodes":3,"util":{}},{"label":"b"}]}"#)
                .unwrap();
        let r = records(&doc, "util").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].at.as_str(), r[0].label), ("records[a]", "a"));
        assert_eq!((r[0].system, r[0].nodes), ("s", 3));
        assert!(records(&doc, "whatif").unwrap().is_empty());
        let refused = |doc: &str| records(&parse(doc).unwrap(), "util").err().unwrap();
        assert_eq!(
            refused(r#"{"records":[{"util":{}}]}"#),
            "records[0].label: missing"
        );
        assert_eq!(
            refused(r#"{"records":[{"label":"x","nodes":3,"util":{}}]}"#),
            "records[x].system: missing"
        );
        assert_eq!(refused("{}"), "no \"records\" array");
        assert_eq!(refused(r#"{"records":7}"#), "records: not an array");
        // A sectioned document: each section's records, in document order.
        let doc = parse(
            r#"{"schema":"s","fig8":{"panels":[],"records":[{"label":"p","system":"a","nodes":3,"util":{}}]},
                "table1":{"records":[{"nodes":3}]},
                "fig9":{"records":[{"label":"q","system":"b","nodes":5,"util":{}}]}}"#,
        )
        .unwrap();
        let r = records(&doc, "util").unwrap();
        let at: Vec<&str> = r.iter().map(|r| r.at.as_str()).collect();
        assert_eq!(at, ["fig8.records[p]", "fig9.records[q]"]);
        assert_eq!(
            refused(r#"{"fig9":{"records":[{"label":"q","nodes":5,"util":{}}]}}"#),
            "fig9.records[q].system: missing"
        );
        assert_eq!(
            refused(r#"{"fig9":{"records":7}}"#),
            "fig9.records: not an array"
        );
    }

    /// Delete (`to: None`) or replace the member at a dotted path whose
    /// numeric segments index arrays.
    fn edit(v: &mut Value, path: &str, to: Option<Value>) {
        let keys: Vec<&str> = path.split('.').collect();
        let (last, parents) = keys.split_last().unwrap();
        let mut cur = v;
        for k in parents {
            cur = match cur {
                Value::Obj(kv) => &mut kv.iter_mut().find(|(key, _)| key == k).unwrap().1,
                Value::Arr(items) => &mut items[k.parse::<usize>().unwrap()],
                _ => panic!("{path}: {k} is a leaf"),
            };
        }
        let Value::Obj(kv) = cur else {
            panic!("{path}: not an object")
        };
        let i = kv.iter().position(|(k, _)| k == last).unwrap();
        match to {
            Some(x) => kv[i].1 = x,
            None => drop(kv.remove(i)),
        }
    }

    #[test]
    fn every_report_refuses_a_damaged_record_naming_it_and_the_path() {
        type Report = fn(&Value) -> Result<String, String>;
        let reports: [(&str, Report); 3] = [
            ("util", crate::util::bottleneck_report),
            ("forensics", crate::forensics::forensics_report),
            ("whatif", crate::whatif::whatif_report),
        ];
        // The committed paper document's first scale record carries all
        // three members; alone in a document it renders under every report.
        let baseline = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../baselines/BENCH_paper.json"
        );
        let doc = read_doc(baseline).unwrap();
        let run = doc.array_at("scale.records").unwrap()[0].clone();
        let valid = Value::Obj(vec![("records".to_string(), Value::Arr(vec![run]))]);
        for (member, report) in reports {
            let rep = report(&valid).unwrap_or_else(|e| panic!("{member}: {e}"));
            assert!(
                rep.starts_with("== acuerdo-n3 (acuerdo, n=3) ==\n"),
                "{rep}"
            );
        }
        let run = "records[acuerdo-n3]";
        // (path, replacement or None to delete, the report that reads it or
        // "" for all three, the error without the `records[acuerdo-n3].`
        // prefix).
        let cases = [
            ("label", None, "", "records[0].label: missing"),
            ("system", None, "", "system: missing"),
            ("nodes", None, "", "nodes: missing"),
            (
                "util.leader.egress_util_pct",
                None,
                "util",
                "util.leader.egress_util_pct: missing",
            ),
            (
                "util.leader.egress_util_pct",
                Some(Value::Str("90".into())),
                "util",
                "util.leader.egress_util_pct: not a number",
            ),
            (
                "forensics.outliers.0.blame_ns",
                None,
                "forensics",
                "forensics.outliers[0].blame_ns: missing",
            ),
            (
                "forensics.outliers.0.blame_ns",
                Some(Value::Num(5.0)),
                "forensics",
                "forensics.outliers[0].blame_ns: not an object",
            ),
            (
                "whatif.counterfactuals",
                None,
                "whatif",
                "whatif.counterfactuals: missing",
            ),
            (
                "whatif.counterfactuals",
                Some(Value::Num(7.0)),
                "whatif",
                "whatif.counterfactuals: not an array",
            ),
            (
                "whatif.counterfactuals",
                Some(Value::Arr(Vec::new())),
                "whatif",
                "whatif.ranking[0]: no counterfactual by that name",
            ),
        ];
        for (path, to, only, want) in cases {
            let mut doc = valid.clone();
            edit(&mut doc, &format!("records.0.{path}"), to);
            let want = if want.starts_with("records[") {
                want.to_string()
            } else {
                format!("{run}.{want}")
            };
            for (member, report) in reports {
                if only.is_empty() || only == member {
                    assert_eq!(report(&doc), Err(want.clone()), "{member} {path}");
                }
            }
        }
        // A document no record of which carries the member predates it.
        let old = parse(r#"{"records":[{"label":"x"}]}"#).unwrap();
        for (member, report) in reports {
            let err = report(&old).unwrap_err();
            let want = format!("no \"{member}\" members found — document predates ");
            assert!(err.starts_with(&want), "{err}");
        }
    }

    #[test]
    fn round_trips_own_exports() {
        // The metrics sidecar and chrome trace writers must produce documents
        // this parser accepts.
        let mut p = simnet::Probe::new();
        p.add_node();
        p.count(0, simnet::Counter::Commits, 3);
        let v = parse(&p.snapshot().to_json()).unwrap();
        assert_eq!(
            v.get("totals").unwrap().get("commits").unwrap().as_u64(),
            Some(3)
        );
        let trace = crate::chrome::write(
            &[simnet::TraceEvent::CpuBusy {
                node: 0,
                start: simnet::SimTime::ZERO,
                end: simnet::SimTime::from_nanos(500),
            }],
            &[],
        );
        assert!(parse(&trace).unwrap().get("traceEvents").is_some());
    }
}
