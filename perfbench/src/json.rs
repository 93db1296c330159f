//! A minimal JSON object writer for the benchmark's output lines.

/// A JSON object under construction; keys keep insertion order.
#[derive(Clone, Debug, Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Add a number; non-finite values are written as `null`.
    pub fn num(mut self, key: &str, v: f64) -> Obj {
        let rendered = if v.is_finite() { format!("{v}") } else { "null".into() };
        self.0.push((key.into(), rendered));
        self
    }

    /// Add an integer.
    pub fn int(mut self, key: &str, v: u64) -> Obj {
        self.0.push((key.into(), v.to_string()));
        self
    }

    /// Add a boolean.
    pub fn bool(mut self, key: &str, v: bool) -> Obj {
        self.0.push((key.into(), v.to_string()));
        self
    }

    /// Add a string.
    pub fn str(mut self, key: &str, v: &str) -> Obj {
        self.0.push((key.into(), quote(v)));
        self
    }

    /// Add a nested object.
    pub fn obj(mut self, key: &str, v: Obj) -> Obj {
        self.0.push((key.into(), v.render()));
        self
    }

    /// Add an array of strings.
    pub fn strs(mut self, key: &str, v: &[String]) -> Obj {
        let items: Vec<String> = v.iter().map(|s| quote(s)).collect();
        self.0.push((key.into(), format!("[{}]", items.join(","))));
        self
    }

    /// The object as one line of JSON.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("{}:{v}", quote(k))).collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
