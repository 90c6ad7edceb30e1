//! The result record: the JSON line every run ends with, and the results
//! file that adds the provenance block. The workspace has no serde, so a
//! small writer and parser for the JSON subset used here (objects,
//! strings, numbers, booleans, null) live alongside.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (the key in `BENCHMARK.json`).
    pub name: String,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: String,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What one run measured and whether every output passed its gate.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every correctness gate passed and no operation failed.
    pub correct: bool,
    /// Operations attempted in the measured part.
    pub attempted: u64,
    /// Operations that failed (error, refusal, mismatch, bad estimate).
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The one-line JSON object the run prints last.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(&m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Reads back an object written by [`RunResult::to_json`].
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped field.
    pub fn from_value(v: &Value) -> Result<RunResult, String> {
        let count = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("`{key}` is not a whole number"))
        };
        let correct = match v.get("correct") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("`correct` is not a boolean".into()),
        };
        let Some(Value::Obj(fields)) = v.get("metrics") else {
            return Err("`metrics` is not an object".into());
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                let value = match m.get("value") {
                    Some(Value::Num(n)) => *n,
                    Some(Value::Null) => f64::NAN,
                    _ => return Err(format!("metric `{name}` has no value")),
                };
                let unit = match m.get("unit") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => return Err(format!("metric `{name}` has no unit")),
                };
                Ok(Metric {
                    name: name.clone(),
                    value,
                    unit,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// The results file: provenance plus the run's result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultsFile {
    /// Where and how the numbers were taken (machine, toolchain, commit,
    /// workload seed, rates, run length).
    pub provenance: Vec<(String, Value)>,
    /// The measured result.
    pub result: RunResult,
}

impl ResultsFile {
    /// Serializes the file body.
    pub fn to_json(&self) -> String {
        let prov = Value::Obj(self.provenance.clone()).to_json();
        format!(
            "{{\"provenance\": {prov}, \"result\": {}}}\n",
            self.result.to_json()
        )
    }

    /// Parses a file body written by [`ResultsFile::to_json`].
    ///
    /// # Errors
    ///
    /// A message describing the first syntax or shape error.
    pub fn parse(text: &str) -> Result<ResultsFile, String> {
        let v = Value::parse(text)?;
        let Some(Value::Obj(provenance)) = v.get("provenance") else {
            return Err("`provenance` is not an object".into());
        };
        let result = RunResult::from_value(v.get("result").ok_or("no `result`")?)?;
        Ok(ResultsFile {
            provenance: provenance.clone(),
            result,
        })
    }
}

/// A JSON value (objects keep their key order).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also how a non-finite number is written).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An object, in key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// Compact JSON text.
    pub fn to_json(&self) -> String {
        match self {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => number(*n),
            Value::Str(s) => quote(s),
            Value::Obj(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}: {}", quote(k), v.to_json()))
                    .collect();
                format!("{{{}}}", inner.join(", "))
            }
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }
}

/// A finite number in Rust's shortest round-trip form; `null` otherwise.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| self.err("bad value"))
            }
            None => Err(self.err("unexpected end")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|_| self.err("bad utf-8"))?;
            let mut chars = rest.chars();
            let c = chars
                .next()
                .ok_or_else(|| self.err("unterminated string"))?;
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars.next().ok_or_else(|| self.err("bad escape"))?;
                    self.i += 1;
                    match e {
                        '"' | '\\' | '/' => out.push(e),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            let hex = rest.get(2..6).ok_or_else(|| self.err("bad \\u"))?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                c => out.push(c),
            }
        }
    }
}
