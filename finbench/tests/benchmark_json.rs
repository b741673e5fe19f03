//! `BENCHMARK.json` at the repository root lists exactly the workloads
//! and metrics the benchmark reports, with the same units, directions
//! and bounds.

use finbench::catalog::{self, Metric};
use std::collections::BTreeMap;

/// A JSON value, enough of it for `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
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

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => {
                    let start = self.i - 1;
                    let len = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    out.push_str(std::str::from_utf8(&self.s[start..start + len]).expect("utf-8"));
                    self.i = start + len;
                }
            }
        }
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                if self.peek() == b'}' {
                    self.eat(b'}');
                    return Json::Obj(fields);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    fields.push((k, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b'}');
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() == b']' {
                    self.eat(b']');
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b']');
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                let word: &[u8] = match self.s[self.i] {
                    b't' => b"true",
                    b'f' => b"false",
                    _ => b"null",
                };
                assert_eq!(&self.s[self.i..self.i + word.len()], word);
                self.i += word.len();
                match word {
                    b"true" => Json::Bool(true),
                    b"false" => Json::Bool(false),
                    _ => Json::Null,
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes after the JSON value");
    v
}

fn obj(v: &Json) -> BTreeMap<&str, &Json> {
    match v {
        Json::Obj(fields) => {
            let map: BTreeMap<&str, &Json> = fields.iter().map(|(k, v)| (k.as_str(), v)).collect();
            assert_eq!(map.len(), fields.len(), "duplicate key");
            map
        }
        other => panic!("expected an object, got {other:?}"),
    }
}

fn arr(v: &Json) -> &[Json] {
    match v {
        Json::Arr(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn str_of(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn load() -> BTreeMap<String, Json> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    obj(&parse(&text))
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

fn check_metrics(listed: &[Json], want: &[Metric], with_bound: bool) {
    let names: Vec<&str> = listed.iter().map(|m| str_of(obj(m)["name"])).collect();
    let want_names: Vec<&str> = want.iter().map(|m| m.name).collect();
    assert_eq!(names, want_names);
    for (m, w) in listed.iter().zip(want) {
        let m = obj(m);
        let mut keys = vec!["better", "name", "unit"];
        if with_bound {
            keys.push("bound");
            keys.sort_unstable();
        }
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), keys, "{}", w.name);
        assert_eq!(str_of(m["unit"]), w.unit, "{}", w.name);
        assert_eq!(str_of(m["better"]), w.better.as_str(), "{}", w.name);
        if let Some(bound) = w.bound {
            assert_eq!(m["bound"], &Json::Num(bound), "{}", w.name);
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_workloads_and_metrics() {
    let b = load();
    assert_eq!(
        b.keys().map(String::as_str).collect::<Vec<_>>(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads = arr(&b["workloads"]);
    assert_eq!(workloads.len(), catalog::WORKLOADS.len());
    for (w, want) in workloads.iter().zip(catalog::WORKLOADS) {
        let w = obj(w);
        assert_eq!(w.keys().copied().collect::<Vec<_>>(), ["name", "why"]);
        assert_eq!(str_of(w["name"]), want.name);
        assert_eq!(str_of(w["why"]), want.why);
    }
    check_metrics(arr(&b["end_to_end"]), &catalog::END_TO_END, true);
    check_metrics(arr(&b["per_layer"]), &catalog::PER_LAYER, false);
    for name in workloads.iter().map(|w| str_of(obj(w)["name"])).chain(
        catalog::END_TO_END
            .iter()
            .chain(&catalog::PER_LAYER)
            .map(|m| m.name),
    ) {
        assert!(catalog::valid_name(name), "{name}");
    }
}

#[test]
fn benchmark_json_command_stays_inside_the_benchmark() {
    let b = load();
    let paths: Vec<&str> = arr(&b["paths"]).iter().map(str_of).collect();
    assert_eq!(paths, ["finbench"]);
    let command: Vec<&str> = arr(&b["command"]).iter().map(str_of).collect();
    assert!(command.len() <= 32 && command.iter().all(|a| a.len() <= 200));
    assert_eq!(command[0], "cargo");
    for a in &command {
        assert!(!a.starts_with('/') && !a.contains(".."), "{a}");
        if a.contains('/') {
            assert!(a.starts_with("finbench/"), "{a} is outside the benchmark");
        }
    }
    match b["run_seconds"] {
        Json::Num(s) => assert!(s.fract() == 0.0 && (1.0..=60.0).contains(&s)),
        ref other => panic!("run_seconds is {other:?}"),
    }
}
